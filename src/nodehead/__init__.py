"""Neural-ODE fine-tuning heads over frozen features.

A continuous-depth block is inserted before the final classification layer
of a frozen-feature pipeline and trained with either of two gradient
strategies: exact reverse-mode through a stored Runge-Kutta recursion, or
the continuous adjoint method with constant memory. The package also ships
the adaptive Dormand-Prince solver whose tolerances trade accuracy for
cost, plus a harness that compares the NODE head against a plain
fully-connected baseline on training stability.

The API lives in the modules (``nodehead.model``, ``nodehead.solvers``,
``nodehead.train``, ...). The package itself exports only ``SolverConfig``,
``forward``, ``init_node_head`` and ``train_step``, the names the demos
import; a name joins them only when a documented caller needs it.
"""

__version__ = "0.1.0"

from .model import forward, init_node_head, train_step
from .solvers import SolverConfig
