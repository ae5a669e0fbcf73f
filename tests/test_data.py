import numpy as np
import pytest

from conftest import make_cifar_blob
from nodehead.data import (
    Dataset,
    FrozenExtractor,
    ImageSet,
    extract_features,
    load_cifar10_bin,
    load_feature_file,
    save_feature_file,
    split_train_val,
)
from nodehead.errors import ContractError, DataError, FormatError


class TestCifarLoader:
    def test_two_record_fixture(self, tmp_path):
        path = tmp_path / "two.bin"
        path.write_bytes(make_cifar_blob([3, 7]))
        images = load_cifar10_bin(path)
        assert len(images) == 2
        np.testing.assert_array_equal(images.labels, [3, 7])
        assert images.images.shape == (2, 3072)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(load_cifar10_bin(path)) == 0

    def test_truncated_file_names_offset(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(bytes(3072))  # one byte short of a record
        with pytest.raises(FormatError, match="offset 0"):
            load_cifar10_bin(path)

    def test_truncation_after_full_records(self, tmp_path):
        path = tmp_path / "partial.bin"
        path.write_bytes(make_cifar_blob([1]) + bytes(10))
        with pytest.raises(FormatError, match="offset 3073"):
            load_cifar10_bin(path)

    def test_label_byte_over_nine(self, tmp_path):
        path = tmp_path / "bad.bin"
        blob = bytearray(make_cifar_blob([1, 2]))
        blob[3073] = 11  # second record's label byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="record 1"):
            load_cifar10_bin(path)

    def test_official_batch_size_accepted(self, tmp_path):
        # official batch files carry 10000 records; emulate one
        gen = np.random.default_rng(0)
        labels = gen.integers(0, 10, 10_000).astype(np.uint8)
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(make_cifar_blob(labels, rng=gen))
        assert len(load_cifar10_bin(path)) == 10_000


class TestFrozenExtractor:
    def test_projection_rows_orthonormal(self):
        ex = FrozenExtractor(seed=0, d=32)
        gram = ex.projection @ ex.projection.T
        np.testing.assert_allclose(gram, np.eye(32), atol=1e-10)

    def test_zero_image_maps_to_zero_feature(self):
        ex = FrozenExtractor(seed=1, d=8)
        images = ImageSet(images=np.zeros((1, 3072), dtype=np.uint8), labels=np.array([0]))
        ds = extract_features(ex, images)
        np.testing.assert_array_equal(ds.features, np.zeros((1, 8)))

    def test_deterministic_for_fixed_seed(self, rng):
        images = ImageSet(
            images=rng.integers(0, 256, (5, 3072), dtype=np.uint8),
            labels=rng.integers(0, 10, 5),
        )
        a = extract_features(FrozenExtractor(seed=3, d=16), images)
        b = extract_features(FrozenExtractor(seed=3, d=16), images)
        np.testing.assert_array_equal(a.features, b.features)

    def test_different_seeds_differ(self, rng):
        images = ImageSet(
            images=rng.integers(0, 256, (3, 3072), dtype=np.uint8),
            labels=np.zeros(3, dtype=int),
        )
        a = extract_features(FrozenExtractor(seed=0, d=16), images)
        b = extract_features(FrozenExtractor(seed=1, d=16), images)
        assert not np.array_equal(a.features, b.features)

    def test_features_strictly_inside_unit_interval(self, rng):
        images = ImageSet(
            images=rng.integers(0, 256, (20, 3072), dtype=np.uint8),
            labels=rng.integers(0, 10, 20),
        )
        ds = extract_features(FrozenExtractor(seed=2, d=24), images)
        assert np.all(ds.features > -1.0) and np.all(ds.features < 1.0)

    def test_projection_is_frozen(self):
        ex = FrozenExtractor(seed=0, d=4)
        with pytest.raises(ValueError):
            ex.projection[0, 0] = 1.0


class TestFeatureFile:
    def test_round_trip_bitwise_on_f32_values(self, tmp_path, rng):
        # storage is float32; float32-representable features round-trip exactly
        feats = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        ds = Dataset(feats, rng.integers(0, 10, 7))
        path = tmp_path / "f.nodf"
        save_feature_file(ds, path)
        loaded = load_feature_file(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.d == 5

    def test_save_load_save_reproduces_bytes(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((4, 3)), rng.integers(0, 10, 4))
        p1, p2 = tmp_path / "a.nodf", tmp_path / "b.nodf"
        save_feature_file(ds, p1)
        save_feature_file(load_feature_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=int))
        path = tmp_path / "empty.nodf"
        save_feature_file(ds, path)
        loaded = load_feature_file(path)
        assert len(loaded) == 0 and loaded.d == 16

    def test_corrupted_magic(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((2, 3)), np.array([0, 1]))
        path = tmp_path / "c.nodf"
        save_feature_file(ds, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_feature_file(path)

    def test_unsupported_version(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((2, 3)), np.array([0, 1]))
        path = tmp_path / "v.nodf"
        save_feature_file(ds, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_feature_file(path)

    def test_length_mismatch(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((2, 3)), np.array([0, 1]))
        path = tmp_path / "l.nodf"
        save_feature_file(ds, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="length"):
            load_feature_file(path)

    def test_label_outside_class_range_names_file_and_record(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((4, 3)), np.array([0, 1, 2, 3]))
        path = tmp_path / "bad.nodf"
        save_feature_file(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-2] = 12  # the label byte of record 2; 12 >= the 10 classes
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=r"bad\.nodf: record 2 has label 12 outside \[0, 10\)"):
            load_feature_file(path)

    def test_label_less_file_accepted(self, tmp_path):
        # external producers may omit labels (has_labels = 0)
        import struct

        feats = np.arange(6, dtype="<f4").reshape(2, 3)
        blob = b"NODF" + struct.pack("<IIIB", 1, 2, 3, 0) + feats.tobytes()
        path = tmp_path / "nolabels.nodf"
        path.write_bytes(blob)
        ds = load_feature_file(path)
        assert len(ds) == 2 and ds.d == 3
        np.testing.assert_array_equal(ds.labels, np.zeros(2, dtype=np.int64))
        np.testing.assert_array_equal(ds.features, feats.astype(np.float64))


class TestDataset:
    @pytest.mark.parametrize("labels, bad", [([0, 1, 2, 1], 2), ([0, -1, 1, 0], 1)])
    def test_labels_outside_class_count_rejected(self, labels, bad):
        with pytest.raises(DataError, match=f"record {bad} has label {labels[bad]} outside"):
            Dataset(np.zeros((4, 2)), np.array(labels), class_count=2)


class TestSplit:
    def test_ten_rows_fraction_point_two(self, rng):
        ds = Dataset(rng.standard_normal((10, 4)), rng.integers(0, 10, 10))
        train, val = split_train_val(ds, 0.2, seed=0)
        assert len(train) == 8 and len(val) == 2

    def test_same_seed_identical_partitions(self, rng):
        ds = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 10, 30))
        t1, v1 = split_train_val(ds, 0.25, seed=5)
        t2, v2 = split_train_val(ds, 0.25, seed=5)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(v1.features, v2.features)

    def test_partition_law(self, rng):
        feats = rng.standard_normal((20, 3))
        ds = Dataset(feats, np.arange(20) % 10)
        train, val = split_train_val(ds, 0.3, seed=2)
        # disjoint + exhaustive: every original row appears exactly once
        combined = np.vstack([train.features, val.features])
        assert combined.shape == feats.shape
        orig = {tuple(row) for row in feats}
        got = {tuple(row) for row in combined}
        assert orig == got

    def test_degenerate_split_rejected(self, rng):
        ds = Dataset(rng.standard_normal((3, 2)), np.array([0, 1, 0]))
        with pytest.raises(ContractError):
            split_train_val(ds, 0.01, seed=0)
        with pytest.raises(ContractError):
            split_train_val(ds, 0.99, seed=0)

    def test_fraction_bounds(self, rng):
        ds = Dataset(rng.standard_normal((10, 2)), np.zeros(10, dtype=int))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ContractError):
                split_train_val(ds, bad, seed=0)
