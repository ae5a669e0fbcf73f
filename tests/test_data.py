import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_cifar_blob
from nodehead.data import (
    CIFAR_RECORD_BYTES,
    EXTRACT_BLOCK_ROWS,
    Dataset,
    FrozenExtractor,
    ImageSet,
    extract_features,
    load_cifar10_bin,
    load_feature_file,
    save_feature_file,
    split_train_val,
)
from nodehead.errors import ContractError, FormatError
from nodehead.model import init_baseline_head, load_checkpoint, save_checkpoint


class TestCifarLoader:
    def test_two_record_fixture(self, tmp_path):
        blob = make_cifar_blob([3, 7])
        path = tmp_path / "two.bin"
        path.write_bytes(blob)
        images = load_cifar10_bin(path)
        assert len(images) == 2
        np.testing.assert_array_equal(images.labels, [3, 7])
        assert images.images.shape == (2, 3072)
        # the images are the pixel columns of the records read, not a copy
        assert images.images.strides == (CIFAR_RECORD_BYTES, 1)
        records = np.frombuffer(blob, dtype=np.uint8).reshape(2, CIFAR_RECORD_BYTES)
        np.testing.assert_array_equal(images.images, records[:, 1:])

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
        with pytest.raises(FormatError, match="record 1"):
            load_cifar10_bin(path)

    def test_official_batch_size_accepted(self, tmp_path):
        # official batch files carry 10000 records; emulate one
        gen = np.random.default_rng(0)
        labels = gen.integers(0, 10, 10_000).astype(np.uint8)
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(make_cifar_blob(labels, rng=gen))
        assert len(load_cifar10_bin(path)) == 10_000

    def test_load_holds_the_file_once(self, tmp_path):
        # the bytes read and a copy of the pixels would be 2x the file
        path = tmp_path / "batch.bin"
        path.write_bytes(make_cifar_blob(np.arange(1000) % 10))
        tracemalloc.start()
        try:
            load_cifar10_bin(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size

    @pytest.mark.parametrize("shift", [CIFAR_RECORD_BYTES, -CIFAR_RECORD_BYTES])
    def test_file_whose_length_changes_while_read_is_rejected(self, shift, tmp_path, monkeypatch):
        # the size taken when the file is opened is off by one record, as if
        # the file shrank (a short read) or grew before the read
        path = tmp_path / "moving.bin"
        path.write_bytes(make_cifar_blob([1, 2]))
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + shift))
        with pytest.raises(FormatError, match="length changed while it was read"):
            load_cifar10_bin(path)


class TestImageSet:
    def test_uint8_rows_are_kept_as_a_strided_view(self, rng):
        records = rng.integers(0, 256, (5, CIFAR_RECORD_BYTES), dtype=np.uint8)
        images = ImageSet(records[:, 1:], records[:, 0] % 10)
        assert np.shares_memory(images.images, records)
        assert images.images.strides == (CIFAR_RECORD_BYTES, 1)

    def test_extraction_of_a_strided_view_matches_a_contiguous_copy_bitwise(self, rng):
        records = rng.integers(0, 256, (EXTRACT_BLOCK_ROWS + 44, CIFAR_RECORD_BYTES), dtype=np.uint8)
        labels = records[:, 0] % 10
        ex = FrozenExtractor(seed=4, d=32)
        view = extract_features(ex, ImageSet(records[:, 1:], labels)).features
        copy = extract_features(ex, ImageSet(np.ascontiguousarray(records[:, 1:]), labels)).features
        assert view.tobytes() == copy.tobytes()


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed"):
            FrozenExtractor(seed=-1, d=4)

    @pytest.mark.parametrize("n, d", [(1, 64), (257, 64), (700, 64), (515, 16), (1029, 8)])
    def test_blocked_extraction_matches_one_shot_bitwise(self, n, d, rng):
        assert n % EXTRACT_BLOCK_ROWS != 0
        images = ImageSet(rng.integers(0, 256, (n, 3072), dtype=np.uint8), rng.integers(0, 10, n))
        ex = FrozenExtractor(seed=5, d=d)
        pixels = images.images.astype(np.float64) / 255.0
        pixels -= pixels.mean(axis=1, keepdims=True)
        np.testing.assert_array_equal(extract_features(ex, images).features,
                                      np.tanh(pixels @ ex.projection.T))

    def test_extraction_memory_stays_flat_in_image_count(self, rng):
        # a one-shot float64 copy of 2000 images alone is 49 MB
        images = ImageSet(rng.integers(0, 256, (2000, 3072), dtype=np.uint8), rng.integers(0, 10, 2000))
        ex = FrozenExtractor(seed=0, d=64)
        tracemalloc.start()
        try:
            extract_features(ex, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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

    def test_label_outside_class_range_names_file_and_record(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((4, 3)), np.array([0, 1, 2, 3]))
        path = tmp_path / "bad.nodf"
        save_feature_file(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-2] = 12  # the label byte of record 2; 12 >= the 10 classes
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"bad\.nodf: record 2 has label 12 outside \[0, 10\)"):
            load_feature_file(path)

    def test_label_less_file_rejected(self, tmp_path):
        # external producers may omit labels (has_labels = 0); training on
        # made-up labels would be a silently wrong run
        import struct

        feats = np.arange(6, dtype="<f4").reshape(2, 3)
        blob = b"NODF" + struct.pack("<IIIB", 1, 2, 3, 0) + feats.tobytes()
        path = tmp_path / "nolabels.nodf"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"nolabels\.nodf: file has no labels"):
            load_feature_file(path)

    def test_featureless_file_rejected(self, tmp_path):
        path = tmp_path / "featureless.nodf"
        save_feature_file(Dataset(np.zeros((4, 0)), np.array([0, 1, 2, 3])), path)
        with pytest.raises(FormatError, match=r"featureless\.nodf: header field d is 0"):
            load_feature_file(path)


# (format, the one corrupted field, the message after "<path>: ")
HEADER_DEFECTS = [
    ("nodf", "short-header", "5 bytes is shorter than the 17-byte NODF header"),
    ("nodc", "short-header", "5 bytes is shorter than the 21-byte NODC header"),
    ("nodf", "magic", "bad magic b'XODF', not a NODF file"),
    ("nodc", "magic", "bad magic b'XODC', not a NODC file"),
    ("nodf", "version", "unsupported NODF version 9, expected 1"),
    ("nodc", "version", "unsupported NODC version 9, expected 1"),
    ("nodf", "short-payload", "length 42 does not match header fields (expected 43)"),
    ("nodc", "short-payload", "checkpoint length mismatch: 5 parameters, expected 6"),
    ("nodf", "stray-byte", "length 44 does not match header fields (expected 43)"),
    ("nodc", "stray-byte", "checkpoint length mismatch: 6.125 parameters, expected 6"),
]


class TestHeaderCheck:
    """NODF and NODC share one check of their length, magic and version; each
    loader checks its own payload length. Each case corrupts one field of a
    valid file and expects the whole message after the path."""

    @pytest.mark.parametrize("fmt, defect, expected", HEADER_DEFECTS,
                             ids=[f"{fmt}-{defect}" for fmt, defect, _ in HEADER_DEFECTS])
    def test_a_defect_in_one_field_names_the_file(self, fmt, defect, expected, tmp_path):
        path = tmp_path / f"f.{fmt}"
        if fmt == "nodf":  # 2 rows of d = 3 and their labels: 17 + 24 + 2 bytes
            save_feature_file(Dataset(np.zeros((2, 3)), np.array([0, 1])), path)
        else:  # 6 float64 parameters after the 21-byte header
            save_checkpoint(init_baseline_head(0, 2, 2), path)
        blob = path.read_bytes()
        last = 1 if fmt == "nodf" else 8  # the last stored value: a label byte or a parameter
        path.write_bytes({
            "short-header": blob[:5],
            "magic": b"X" + blob[1:],
            "version": blob[:4] + bytes([9]) + blob[5:],
            "short-payload": blob[:-last],
            "stray-byte": blob + b"\0",
        }[defect])
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            (load_feature_file if fmt == "nodf" else load_checkpoint)(path)


class TestDataset:
    @pytest.mark.parametrize("labels, bad", [([0, 1, 2, 1], 2), ([0, -1, 1, 0], 1)])
    def test_labels_outside_class_count_rejected(self, labels, bad):
        with pytest.raises(FormatError, match=f"record {bad} has label {labels[bad]} outside"):
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
