"""Seeded input generator for the benchmark.

Writes the files a workload feeds to nodehead, and nothing else: corpora in
the CIFAR-10 binary layout (3073-byte records, one label byte then 3072
pixel bytes) and NODF feature files (magic ``NODF``, u32 version 1, u32 N,
u32 d, u8 has_labels, N*d float32 row-major, N label bytes). The formats are
written here from their documented layout, not through nodehead, so the
program under test only ever sees the files.

The same (seed, sizes) always gives byte-identical files.
"""

import struct
import zlib

import numpy as np

CIFAR_PIXELS = 3072
CLASSES = 10
PIXEL_NOISE = 120.0  # heavy noise + 10% label re-rolls cap accuracy near 0.9
LABEL_NOISE = 0.10
FEATURE_NOISE = 1.0
_CHUNK = 512  # rows generated at a time, to keep the generator's memory small


def _noisy_labels(rng, labels):
    stored = labels.copy()
    flip = rng.random(labels.size) < LABEL_NOISE
    stored[flip] = rng.integers(0, CLASSES, size=int(flip.sum()))
    return stored


def write_cifar_corpus(path, n, templates, rng):
    """Write ``n`` noisy copies of the class templates."""
    with open(path, "wb") as fh:
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            labels = rng.integers(0, CLASSES, size=m)
            noise = rng.normal(0.0, PIXEL_NOISE, size=(m, CIFAR_PIXELS))
            pixels = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
            stored = _noisy_labels(rng, labels).astype(np.uint8)
            fh.write(np.concatenate([stored[:, None], pixels], axis=1).tobytes())


def write_nodf(path, n, centres, rng):
    """NODF file of tanh(class centre + noise) rows at float32."""
    d = centres.shape[1]
    labels = rng.integers(0, CLASSES, size=n)
    feats = np.tanh(centres[labels] + FEATURE_NOISE * rng.standard_normal((n, d)))
    stored = _noisy_labels(rng, labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"NODF" + struct.pack("<IIIB", 1, n, d, 1) + feats.astype("<f4").tobytes() + stored.tobytes())


def generate(spec, seed, out_dir):
    """Write the train and test inputs of one workload spec; returns their paths.

    The class templates (or centres) are fixed per workload and the seed
    draws the rows, so every seed samples the same distribution. That keeps
    the adaptive solver's work per row, which depends on the data, comparable
    across seeds. Train and test files share the classes, so the test set is
    held-out data from the same distribution.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    key = zlib.crc32(spec["name"].encode())
    classes = np.random.default_rng(key)
    rng = np.random.default_rng([seed, key])
    paths = {}
    if spec["data"] == "cifar":
        templates = classes.integers(0, 256, size=(CLASSES, CIFAR_PIXELS)).astype(np.float64)
        for part in ("train", "test"):
            paths[part] = out_dir / f"{part}.bin"
            write_cifar_corpus(paths[part], spec[f"n_{part}"], templates, rng)
    else:
        centres = classes.standard_normal((CLASSES, spec["d"]))
        for part in ("train", "test"):
            paths[part] = out_dir / f"{part}.nodf"
            write_nodf(paths[part], spec[f"n_{part}"], centres, rng)
    return paths


def generate_probe_files(seed, out_dir, n_images, d):
    """The fixed-size files the data-layer probes read (traced runs only)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    templates = rng.integers(0, 256, size=(CLASSES, CIFAR_PIXELS)).astype(np.float64)
    cifar = out_dir / "probe.bin"
    nodf = out_dir / "probe.nodf"
    write_cifar_corpus(cifar, n_images, templates, rng)
    write_nodf(nodf, n_images, rng.standard_normal((CLASSES, d)), rng)
    return {"cifar": cifar, "nodf": nodf}
