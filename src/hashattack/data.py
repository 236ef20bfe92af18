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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointMissingError, DimensionError, InputError


@dataclass(frozen=True)
class DataConfig:
    classes: int = 4
    height: int = 16
    width: int = 16
    channels: int = 1
    train_size: int = 500
    database_size: int = 1000
    query_size: int = 100
    noise_sigma: float = 0.02
    extra_class_probability: float = 0.3
    template_contrast: float = 0.05

    @property
    def pixels(self):
        return self.height * self.width * self.channels

    def validate(self):
        if self.classes < 2:
            raise InputError(f"need at least 2 classes, got {self.classes}")
        if min(self.height, self.width, self.channels) <= 0:
            raise InputError(
                f"image spec must be positive, got "
                f"{(self.height, self.width, self.channels)}"
            )
        if min(self.train_size, self.database_size, self.query_size) <= 0:
            raise InputError("all split sizes must be positive")
        if self.noise_sigma < 0.0:
            raise InputError(f"noise sigma must be non-negative, got {self.noise_sigma}")
        if not 0.0 <= self.extra_class_probability <= 1.0:
            raise InputError(
                f"extra-class probability must lie in [0,1], got {self.extra_class_probability}"
            )
        if not 0.0 < self.template_contrast <= 1.0:
            raise InputError(
                f"template contrast must lie in (0,1], got {self.template_contrast}"
            )


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
    config: DataConfig = field(default=None)

    @property
    def pixels(self):
        h, w, c = self.image_spec
        return h * w * c


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
    """Deterministically build all three splits from one seed."""
    config.validate()
    rng = np.random.default_rng(seed)
    # pull independent patterns toward their mean so classes differ subtly
    raw = rng.uniform(0.0, 1.0, size=(config.classes, config.pixels))
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
        image_spec=(config.height, config.width, config.channels),
        class_templates=templates,
        train_images=splits["train"][0],
        train_labels=splits["train"][1],
        database_images=splits["database"][0],
        database_labels=splits["database"][1],
        query_images=splits["query"][0],
        query_labels=splits["query"][1],
        config=config,
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


BUNDLE_KEYS = ("image_spec", "class_templates", "train_images", "train_labels",
               "database_images", "database_labels", "query_images", "query_labels")


def load_npz(path, keys):
    """The named arrays of an npz archive, in ``keys`` order; unreadable is corrupt."""
    name = Path(path).name
    try:
        # our handle, so it closes even when numpy fails after opening the archive
        with open(path, "rb") as handle:
            blob = np.load(handle)
            if not isinstance(blob, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with blob:
                arrays = tuple(blob[key] for key in keys)
    except FileNotFoundError as err:
        raise CheckpointMissingError(f"missing {name}") from err
    # zipfile raises RuntimeError for encrypted or unsupported-method members
    except (OSError, EOFError, ValueError, KeyError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as err:
        raise CheckpointCorruptError(f"unreadable {name}: {err}") from err
    if not all(isinstance(array, np.ndarray) for array in arrays):
        raise CheckpointCorruptError(f"{name} holds a member that is not an array")
    return arrays


def save_bundle(bundle, path):
    arrays = {key: getattr(bundle, key) for key in BUNDLE_KEYS}
    arrays["image_spec"] = np.asarray(bundle.image_spec, dtype=np.int64)
    np.savez(path, **arrays)


def load_bundle(path):
    spec, *arrays = load_npz(path, BUNDLE_KEYS)
    if spec.shape != (3,) or spec.dtype.kind not in "iu":
        raise CheckpointCorruptError(f"{Path(path).name}: bad image spec {spec!r}")
    return DatasetBundle(tuple(int(v) for v in spec), *arrays)
