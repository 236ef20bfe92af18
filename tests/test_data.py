import dataclasses

import numpy as np
import pytest

from hashattack.config import ExperimentConfig
from hashattack.data import (
    build_similarity_matrix,
    gen_synthetic_dataset,
    load_bundle,
    save_bundle,
    unique_labels,
)
from hashattack.errors import CheckpointCorruptError, DimensionError, InputError


def small_config(**overrides):
    base = dict(classes=4, image_height=4, image_width=4, image_channels=1,
                train_size=40, database_size=60, query_size=20,
                noise_sigma=0.05, extra_class_probability=0.3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_same_seed_bit_identical():
    a = gen_synthetic_dataset(small_config(), 7)
    b = gen_synthetic_dataset(small_config(), 7)
    assert np.array_equal(a.train_images, b.train_images)
    assert np.array_equal(a.database_labels, b.database_labels)
    assert np.array_equal(a.query_images, b.query_images)
    c = gen_synthetic_dataset(small_config(), 8)
    assert not np.array_equal(a.train_images, c.train_images)


def test_noiseless_single_label_equals_template():
    bundle = gen_synthetic_dataset(
        small_config(noise_sigma=0.0, extra_class_probability=0.0), 3
    )
    for img, label in zip(bundle.train_images, bundle.train_labels):
        cls = int(np.argmax(label))
        assert np.array_equal(img, bundle.class_templates[cls])


def test_every_sample_has_one_or_two_classes():
    bundle = gen_synthetic_dataset(small_config(extra_class_probability=1.0), 5)
    for labels in (bundle.train_labels, bundle.database_labels, bundle.query_labels):
        counts = labels.sum(axis=1)
        assert np.all(counts >= 1)
    assert np.all(bundle.train_labels.sum(axis=1) == 2)
    lone = gen_synthetic_dataset(small_config(extra_class_probability=0.0), 5)
    assert np.all(lone.train_labels.sum(axis=1) == 1)


def test_intra_class_images_closer_than_inter_class():
    bundle = gen_synthetic_dataset(
        small_config(extra_class_probability=0.0, database_size=200), 11
    )
    images = bundle.database_images
    classes = np.argmax(bundle.database_labels, axis=1)
    intra, inter = [], []
    for i in range(0, 200, 2):
        for j in range(i + 1, min(i + 20, 200)):
            gap = float(np.linalg.norm(images[i] - images[j]))
            (intra if classes[i] == classes[j] else inter).append(gap)
    assert np.mean(intra) < np.mean(inter)


def test_image_ranges_and_shapes():
    cfg = small_config()
    bundle = gen_synthetic_dataset(cfg, 2)
    assert bundle.train_images.shape == (40, 16)
    assert bundle.database_images.shape == (60, 16)
    assert bundle.query_images.shape == (20, 16)
    for images in (bundle.train_images, bundle.database_images, bundle.query_images):
        assert images.min() >= 0.0 and images.max() <= 1.0


def test_similarity_matrix_examples():
    assert build_similarity_matrix([[1, 0, 0]], [[1, 1, 0]])[0, 0] == 1.0
    assert build_similarity_matrix([[1, 0, 0]], [[0, 1, 0]])[0, 0] == 0.0


def test_similarity_matrix_self_is_symmetric_with_unit_diagonal(rng):
    labels = (rng.random((12, 4)) < 0.4).astype(float)
    labels[labels.sum(axis=1) == 0, 0] = 1.0
    s = build_similarity_matrix(labels, labels)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 1.0)
    assert set(np.unique(s)) <= {0.0, 1.0}


def test_similarity_matrix_guards():
    with pytest.raises(DimensionError):
        build_similarity_matrix([[1, 0]], [[1, 0, 0]])
    with pytest.raises(DimensionError):
        build_similarity_matrix([1, 0], [[1, 0]])


def test_unique_labels_deduplicates():
    labels = [[1, 0], [0, 1], [1, 0], [1, 1], [0, 1]]
    uniq = unique_labels(labels)
    assert uniq.shape == (3, 2)
    assert {tuple(row) for row in uniq} == {(1, 0), (0, 1), (1, 1)}
    with pytest.raises(InputError):
        unique_labels(np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        unique_labels([1.0, 0.0, 1.0])


def test_an_image_spec_of_two_axes_is_corrupt(tmp_path):
    bundle = gen_synthetic_dataset(small_config(), 13)
    path = tmp_path / "bundle.npz"
    # 4 x 4 is still the 16 pixels of each image row, so only the spec check refuses it
    save_bundle(dataclasses.replace(bundle, image_spec=(4, 4)), path)
    with pytest.raises(CheckpointCorruptError, match="bundle.npz: bad image spec"):
        load_bundle(path)


# the specs without a zero multiply to the 16 pixels of an image row, so only the spec
# check can refuse them; the zero must be refused there too, not by the width check
@pytest.mark.parametrize("spec", [(-4, -4, 1), (4, -1, -4), (-16, 1, -1), (0, 4, 4)])
def test_an_image_spec_with_an_entry_below_one_is_corrupt(spec, tmp_path):
    bundle = gen_synthetic_dataset(small_config(), 13)
    path = tmp_path / "dataset.npz"
    save_bundle(dataclasses.replace(bundle, image_spec=spec), path)
    with pytest.raises(CheckpointCorruptError, match="dataset.npz: bad image spec"):
        load_bundle(path)


def test_bundle_save_load_round_trip(tmp_path):
    bundle = gen_synthetic_dataset(small_config(), 13)
    path = tmp_path / "bundle.npz"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.image_spec == bundle.image_spec
    assert np.array_equal(loaded.train_images, bundle.train_images)
    assert np.array_equal(loaded.query_labels, bundle.query_labels)
    assert np.array_equal(loaded.database_images, bundle.database_images)
