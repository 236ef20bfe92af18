"""Synthetic multi-label image data and label-similarity construction.

Each class owns a fixed random template image.  A sample is the clipped
mean of its classes' templates plus Gaussian pixel noise.  Templates
share a common random backdrop and differ from it by a controllable
contrast factor, so class identity is a subtle signal on top of a
strong shared structure.  Images are flat row vectors in [0,1]; labels
are 0/1 indicator vectors.
"""

import zlib
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointMissingError, DimensionError, InputError


@dataclass
class DatasetBundle:
    """Train/database/query splits plus the generating templates."""

    image_spec: tuple
    class_templates: np.ndarray
    train_images: np.ndarray
    train_labels: np.ndarray
    database_images: np.ndarray
    database_labels: np.ndarray
    query_images: np.ndarray
    query_labels: np.ndarray


def _draw_labels(rng, count, classes, extra_probability):
    labels = np.zeros((count, classes))
    primary = rng.integers(0, classes, size=count)
    labels[np.arange(count), primary] = 1.0
    extra = rng.random(count) < extra_probability
    # second class drawn uniformly among the remaining ones
    shift = rng.integers(1, classes, size=count)
    secondary = (primary + shift) % classes
    labels[np.arange(count)[extra], secondary[extra]] = 1.0
    return labels


def _render(rng, labels, templates, sigma):
    # clipped mean of the sample's class templates plus pixel noise
    counts = labels.sum(axis=1, keepdims=True)
    mixed = (labels @ templates) / counts
    if sigma > 0.0:
        mixed = mixed + rng.normal(0.0, sigma, size=mixed.shape)
    return np.clip(mixed, 0.0, 1.0)


def gen_synthetic_dataset(config, seed):
    """Deterministically build all three splits of ``config`` from one seed."""
    rng = np.random.default_rng(seed)
    image_spec = (config.image_height, config.image_width, config.image_channels)
    # pull independent patterns toward their mean so classes differ subtly
    raw = rng.uniform(0.0, 1.0, size=(config.classes, int(np.prod(image_spec))))
    backdrop = raw.mean(axis=0)
    templates = np.clip(
        backdrop + config.template_contrast * (raw - backdrop), 0.0, 1.0
    )
    splits = {}
    for name, count in (("train", config.train_size),
                        ("database", config.database_size),
                        ("query", config.query_size)):
        labels = _draw_labels(rng, count, config.classes, config.extra_class_probability)
        splits[name] = (_render(rng, labels, templates, config.noise_sigma), labels)
    return DatasetBundle(
        image_spec=image_spec,
        class_templates=templates,
        train_images=splits["train"][0],
        train_labels=splits["train"][1],
        database_images=splits["database"][0],
        database_labels=splits["database"][1],
        query_images=splits["query"][0],
        query_labels=splits["query"][1],
    )


def build_similarity_matrix(row_labels, col_labels):
    """S[i, j] = 1 iff row i and column j share at least one class."""
    row_labels = np.asarray(row_labels, dtype=np.float64)
    col_labels = np.asarray(col_labels, dtype=np.float64)
    if row_labels.ndim != 2 or col_labels.ndim != 2:
        raise DimensionError(
            f"label lists must be 2-D, got {row_labels.shape} and {col_labels.shape}"
        )
    if row_labels.shape[1] != col_labels.shape[1]:
        raise DimensionError(
            f"label widths disagree: {row_labels.shape[1]} vs {col_labels.shape[1]}"
        )
    return (row_labels @ col_labels.T > 0.0).astype(np.float64)


def unique_labels(labels):
    """Distinct label vectors, in lexicographic order."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2:
        raise DimensionError(f"labels must be 2-D, got {labels.shape}")
    if labels.shape[0] == 0:
        raise InputError("cannot collect labels from an empty set")
    return np.unique(labels, axis=0)


# the field order is the archive order
BUNDLE_KEYS = tuple(spec.name for spec in fields(DatasetBundle))


def load_npz(path, keys):
    """The named arrays of an npz archive, in ``keys`` order; unreadable is corrupt, and
    so is a member that is not an int or float array of finite values.  The error names
    the member (a pickled object array is one that would not read)."""
    name = Path(path).name
    failed = f"unreadable {name}"
    try:
        # our handle, so it closes even when numpy fails after opening the archive
        with open(path, "rb") as handle:
            blob = np.load(handle)
            if not isinstance(blob, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with blob:
                arrays = []
                for key in keys:
                    failed = f"{name}: {key} is unreadable"
                    arrays.append(blob[key])
    except FileNotFoundError as err:
        raise CheckpointMissingError(f"missing {name}") from err
    # zipfile raises RuntimeError for encrypted or unsupported-method members
    except (OSError, EOFError, ValueError, KeyError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as err:
        raise CheckpointCorruptError(f"{failed}: {err}") from err
    for key, array in zip(keys, arrays):
        if not (isinstance(array, np.ndarray) and array.dtype.kind in "iuf"
                and np.isfinite(array).all()):
            raise CheckpointCorruptError(f"{name}: {key} is not an array of finite numbers")
    return tuple(arrays)


def save_bundle(bundle, path):
    arrays = {key: getattr(bundle, key) for key in BUNDLE_KEYS}
    arrays["image_spec"] = np.asarray(bundle.image_spec, dtype=np.int64)
    np.savez(path, **arrays)


def load_bundle(path):
    """The bundle at ``path``; each split must hold 2-D images with rows of
    ``prod(image_spec)`` pixels in [0, 1], and one 0/1 label row with at least one
    class per image, as wide as ``train_labels``."""
    name = Path(path).name
    spec, *arrays = load_npz(path, BUNDLE_KEYS)
    if spec.shape != (3,) or spec.dtype.kind not in "iu":
        raise CheckpointCorruptError(f"{name}: bad image spec {spec!r}")
    bundle = DatasetBundle(tuple(int(v) for v in spec), *arrays)
    pixels = int(np.prod(bundle.image_spec))
    for split in ("train", "database", "query"):
        images, labels = getattr(bundle, f"{split}_images"), getattr(bundle, f"{split}_labels")
        if images.ndim != 2 or images.shape[0] == 0:
            raise CheckpointCorruptError(f"{name}: {split}_images of shape {images.shape} "
                                         "is not a 2-D block with rows")
        if images.shape[1] != pixels:
            raise CheckpointCorruptError(f"{name}: {split}_images of shape {images.shape} "
                                         f"does not hold the {pixels} pixels of image_spec")
        if labels.ndim != 2 or labels.shape[0] != images.shape[0]:
            raise CheckpointCorruptError(f"{name}: {split}_labels of shape {labels.shape} "
                                         f"does not hold one 2-D row per {split}_images row")
        if labels.shape[1] != bundle.train_labels.shape[1]:
            raise CheckpointCorruptError(f"{name}: {split}_labels of shape {labels.shape} "
                                         "is not as wide as train_labels")
        # two reductions and no image-sized temporary; the labels are a small block
        if not (images.min() >= 0.0 and images.max() <= 1.0):
            raise CheckpointCorruptError(f"{name}: {split}_images has pixels outside [0, 1]")
        hot = labels == 1.0
        if not (hot | (labels == 0.0)).all():
            raise CheckpointCorruptError(f"{name}: {split}_labels holds a value other than 0 and 1")
        if not hot.any(axis=1).all():
            raise CheckpointCorruptError(f"{name}: {split}_labels has a row with no class")
    return bundle
