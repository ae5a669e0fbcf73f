"""Neural-ODE fine-tuning heads over frozen features.

A continuous-depth block is inserted before the final classification layer
of a frozen-feature pipeline and trained with either of two gradient
strategies: exact reverse-mode through a stored Runge-Kutta recursion, or
the continuous adjoint method with constant memory. The package also ships
the adaptive Dormand-Prince solver whose tolerances trade accuracy for
cost, plus a harness that compares the NODE head against a plain
fully-connected baseline on training stability.
"""

__version__ = "0.1.0"

from .adjoint import GradientResult, adjoint_solve
from .data import (
    Dataset,
    FrozenExtractor,
    ImageSet,
    extract_features,
    load_cifar10_bin,
    load_feature_file,
    save_feature_file,
    split_train_val,
)
from .dynamics import DynamicsParams, eval_dynamics, init_params, unflatten, vjp_params, vjp_state
from .errors import (
    ContractError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    StepBudgetError,
)
from .model import (
    Head,
    evaluate,
    forward,
    head_from_flat,
    head_to_flat,
    init_baseline_head,
    init_node_head,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train_step,
)
from .solvers import (
    SolveStats,
    SolverConfig,
    Trajectory,
    integrate_adaptive,
    solve_adaptive,
)
from .train import (
    AdamConfig,
    MetricsRecord,
    SgdConfig,
    StabilityReport,
    TrainConfig,
    adam_update,
    read_metrics_csv,
    sgd_update,
    stability_stats,
    train,
    write_metrics_csv,
)
