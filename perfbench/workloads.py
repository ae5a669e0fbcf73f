"""Workload specifications, shared by the harness and the worker.

Shapes follow the ROADMAP: d = width = 64, 10 classes, batch 64, 16 RK4
steps, dopri5 at rtol = atol = 1e-5. Sizes keep one job (a ``train()``
call or one ``nodehead compare``) between 0.1 and 2 s on a 2-vCPU host,
so a run holds enough jobs for steady medians.
"""

D = 64
WIDTH = 64
N_STEPS = 16
TOL = 1e-5
TRAIN_SEED = 0  # head init/shuffle seed; the workload seed only drives the inputs
REFERENCE_SEED = 0  # workload seed whose outputs are recorded in reference.json

WORKLOADS = {
    # The paper's main path: batched dynamics -> RK4 -> discrete reverse pass.
    "discrete-train": dict(kind="train", head="node", grad="discrete", optimizer="adam",
                           data="cifar", n_train=1000, n_test=1000, epochs=3, scale=0.1,
                           eval_repeats=1),
    # Per-row dopri5 forward + adjoint backward solves. Init scale 4.0 makes
    # step control work (rejects, rows of differing stiffness); at the 0.1
    # default every solve sits at the 3-step minimum. Runnable, but not listed
    # in BENCHMARK.json: on a 2-vCPU host whose speed drifts, its
    # eval_rows_per_s spread (IQR/median over ten seeds) was 0.24-0.41
    # against a 0.25 bound. Its layers stay covered by the traced probes.
    "adjoint-train": dict(kind="train", head="node", grad="adjoint", optimizer="sgd",
                          data="nodf", d=D, n_train=144, n_test=384, epochs=2, scale=4.0,
                          eval_repeats=1),
    # The model step is ~0.05 ms, so the train loop, optimizer and head
    # rebuild dominate; the only workload where those layers are visible.
    "baseline-train": dict(kind="train", head="baseline", grad="discrete", optimizer="adam",
                           data="cifar", n_train=5000, n_test=1000, epochs=10, scale=0.1,
                           eval_repeats=20),
    # CLI orchestration: 2 seeds x 2 heads, re-ingesting data per run,
    # checkpoint/CSV I/O and stability statistics.
    "compare": dict(kind="compare", grad="discrete", data="cifar", n_train=600, n_test=200,
                    epochs=4, window=3, seeds=(0, 1), eval_repeats=1),
}

for _name, _spec in WORKLOADS.items():
    _spec["name"] = _name
