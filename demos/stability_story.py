"""Baseline vs NODE head on a noisy classification task, end to end.

Synthesizes a small corpus in the CIFAR-10 binary layout (class templates +
heavy pixel noise + label noise, so validation accuracy saturates below
100%), then runs the comparison harness: identical features, split, seeds,
and optimizer for both heads, the only difference being the ODE block. The
summary table reports the rolling standard deviation of validation loss -
the stability statistic - for each head.

Takes a couple of minutes; shrink EPOCHS or N_IMAGES for a quicker look.
"""

import pathlib
import sys
import tempfile

import numpy as np

from nodehead.cli import main

N_IMAGES = 2000
EPOCHS = 30
SEEDS = "0,1"

work = pathlib.Path(tempfile.mkdtemp(prefix="nodehead-demo-"))
rng = np.random.default_rng(7)
templates = rng.integers(0, 256, size=(10, 3072)).astype(np.float64)
labels = rng.integers(0, 10, size=N_IMAGES)
pixels = np.clip(templates[labels] + rng.normal(0, 120.0, (N_IMAGES, 3072)), 0, 255).astype(np.uint8)
flip = rng.random(N_IMAGES) < 0.10
labels[flip] = rng.integers(0, 10, int(flip.sum()))
corpus = work / "corpus.bin"
corpus.write_bytes(np.concatenate([labels[:, None].astype(np.uint8), pixels], axis=1).tobytes())
print(f"wrote {N_IMAGES} synthetic images in CIFAR layout to {corpus}")

code = main([
    "compare", "--seeds", SEEDS, "--data", str(corpus), "--out", str(work / "compare"),
    "--epochs", str(EPOCHS), "--window", "8", "--feature-dim", "64",
    "--width", "64", "--n-steps", "16", "--batch-size", "64",
])
print(f"\ncompare exited {code}; artifacts under {work / 'compare'}")
print("per-epoch curves: seed*/{baseline,node}/metrics.csv  "
      "(plot them with: nodehead plot --csv <metrics.csv> --out <dir>)")
sys.exit(code)
