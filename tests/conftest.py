import numpy as np
import pytest


def make_cifar_blob(labels, pixels=None, rng=None):
    """Assemble raw CIFAR-10 binary records from labels and optional pixel rows."""
    labels = np.asarray(labels, dtype=np.uint8)
    n = labels.shape[0]
    if pixels is None:
        rng = rng or np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    return np.concatenate([labels[:, None], pixels], axis=1).tobytes()


def make_class_corpus(path, n, seed, noise=40.0, label_noise=0.0, classes=10, template_seed=None):
    """Write a learnable synthetic corpus in the CIFAR binary layout.

    Each class gets a random pixel template; images are noisy copies, and an
    optional fraction of labels is re-rolled to cap attainable accuracy.
    ``seed`` draws the rows and, unless ``template_seed`` is given, the
    templates, so a held-out file drawn with another ``seed`` and the
    training file's seed as ``template_seed`` shares the training classes.
    """
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, 256, size=(classes, 3072)).astype(np.float64)
    if template_seed is not None:
        templates = np.random.default_rng(template_seed).integers(0, 256, size=(classes, 3072)).astype(np.float64)
    labels = rng.integers(0, classes, size=n)
    pix = np.clip(templates[labels] + rng.normal(0, noise, (n, 3072)), 0, 255).astype(np.uint8)
    stored = labels.copy()
    if label_noise > 0:
        flip = rng.random(n) < label_noise
        stored[flip] = rng.integers(0, classes, size=int(flip.sum()))
    with open(path, "wb") as fh:
        fh.write(make_cifar_blob(stored, pix))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def toy_feature_dataset():
    """Small linearly-separable 2-class feature set (100 samples, d=4)."""
    from nodehead.data import Dataset

    gen = np.random.default_rng(5)
    labels = gen.integers(0, 2, size=100)
    centers = np.array([[1.5, -1.0, 0.5, -0.5], [-1.0, 1.2, -0.8, 0.9]])
    feats = centers[labels] + 0.25 * gen.standard_normal((100, 4))
    return Dataset(np.tanh(feats), labels, class_count=2)
