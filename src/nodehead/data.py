"""Image ingestion and the frozen feature-extractor stand-in.

The pretrained convolutional backbone is out of scope; its role is played by
a fixed, seeded random projection: normalize pixels, project onto d
orthonormal rows, squash with tanh. The extractor is never trained, which
preserves the experimental structure (frozen features, trainable head) at
desk scale. Externally computed features can be ingested through the NODF
file format instead.

File formats (little-endian throughout):

* CIFAR-10 binary batches: 3073-byte records, one label byte in [0, 9]
  followed by 3072 pixel bytes (1024 red, 1024 green, 1024 blue).
* NODF feature file: magic ``NODF``, u32 version = 1, u32 N, u32 d,
  u8 has_labels, N*d float32 features row-major, then N label bytes when
  has_labels is 1. Features are stored at 32-bit precision and widened to
  float64 on load.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, FormatError

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10

FEATURE_MAGIC = b"NODF"
FEATURE_VERSION = 1


@dataclass
class ImageSet:
    """Raw byte images in CIFAR layout plus their class labels."""

    images: np.ndarray  # (n, 3072) uint8
    labels: np.ndarray  # (n,) int64 in [0, 9]

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.uint8)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != CIFAR_PIXELS:
            raise FormatError(f"images must be (n, {CIFAR_PIXELS}), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise FormatError(f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= CIFAR_CLASSES):
            raise DataError("labels outside [0, 9]")

    def __len__(self):
        return self.images.shape[0]


@dataclass
class Dataset:
    """Feature rows with labels, the unit every training entry point consumes."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    class_count: int = CIFAR_CLASSES

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise FormatError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise FormatError(f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite feature values")
        bad = (self.labels < 0) | (self.labels >= self.class_count)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"record {i} has label {self.labels[i]} outside [0, {self.class_count})")

    @property
    def d(self):
        return self.features.shape[1]

    def __len__(self):
        return self.features.shape[0]

    def subset(self, indices):
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


def load_cifar10_bin(path):
    """Parse one CIFAR-10 binary batch file into an ImageSet.

    The file length must be a multiple of the 3073-byte record size; a
    truncated file raises :class:`FormatError` naming the offending byte
    offset, a label byte above 9 raises :class:`DataError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % CIFAR_RECORD_BYTES != 0:
        offset = len(blob) - (len(blob) % CIFAR_RECORD_BYTES)
        raise FormatError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file length {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES})"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() >= CIFAR_CLASSES:
        bad = int(np.argmax(labels >= CIFAR_CLASSES))
        raise DataError(f"{path}: record {bad} has label byte {labels[bad]} > 9")
    return ImageSet(images=records[:, 1:].copy(), labels=labels)


@dataclass
class FrozenExtractor:
    """Seeded orthonormal projection + tanh, standing in for the frozen backbone.

    The projection matrix (d x 3072) has orthonormal rows obtained from a QR
    factorization of a seeded Gaussian draw; its rows never change after
    construction. Inputs are normalized to pixel/255 with the per-image mean
    subtracted, so all-zero images map to the zero feature vector.
    """

    seed: int
    d: int = 64
    projection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.d <= CIFAR_PIXELS:
            raise ContractError(f"feature dimension must be in [1, {CIFAR_PIXELS}], got {self.d}")
        rng = np.random.default_rng(self.seed)
        gauss = rng.standard_normal((CIFAR_PIXELS, self.d))
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(r))  # fix the sign convention so the draw alone decides
        projection = np.ascontiguousarray(q.T)
        projection.setflags(write=False)
        object.__setattr__(self, "projection", projection)


def extract_features(extractor, images):
    """Project an ImageSet through the frozen extractor into a Dataset.

    features = tanh(projection @ normalized_pixels); entries lie in (-1, 1)
    and identical (seed, images) pairs give bitwise-identical results.
    """
    pixels = images.images.astype(np.float64) / 255.0
    pixels -= pixels.mean(axis=1, keepdims=True)
    feats = np.tanh(pixels @ extractor.projection.T)
    return Dataset(features=feats, labels=images.labels.copy())


def save_feature_file(dataset, path):
    """Write a Dataset in the NODF layout (float32 storage precision)."""
    n, d = dataset.features.shape
    header = FEATURE_MAGIC + struct.pack("<IIIB", FEATURE_VERSION, n, d, 1)
    body = dataset.features.astype("<f4").tobytes()
    label_bytes = dataset.labels.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body + label_bytes)


def load_feature_file(path):
    """Read a NODF feature file; features are widened back to float64.

    A label byte outside [0, class_count) raises :class:`DataError` naming
    the file and the first bad record.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header_size = 4 + struct.calcsize("<IIIB")
    if len(blob) < header_size:
        raise FormatError(f"{path}: shorter than the {header_size}-byte header")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    version, n, d, has_labels = struct.unpack("<IIIB", blob[4:header_size])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: has_labels byte must be 0 or 1, got {has_labels}")
    expected = header_size + 4 * n * d + (n if has_labels else 0)
    if len(blob) != expected:
        raise FormatError(f"{path}: length {len(blob)} does not match header fields (expected {expected})")
    feats = np.frombuffer(blob, dtype="<f4", count=n * d, offset=header_size)
    feats = feats.reshape(n, d).astype(np.float64)
    if has_labels:
        labels = np.frombuffer(blob, dtype=np.uint8, offset=header_size + 4 * n * d).astype(np.int64)
    else:
        labels = np.zeros(n, dtype=np.int64)
    try:
        return Dataset(features=feats, labels=labels)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def split_train_val(dataset, val_fraction, seed):
    """Seeded permutation split into disjoint, exhaustive train/val parts.

    The validation side gets round(n * val_fraction) rows; either side
    coming out empty raises :class:`ContractError`.
    """
    if not 0 < val_fraction < 1:
        raise ContractError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(dataset)
    if n < 2:
        raise ContractError(f"need at least 2 rows to split, got {n}")
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n_val == n:
        raise ContractError(f"degenerate split: {n} rows at fraction {val_fraction} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])
