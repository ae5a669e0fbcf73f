"""The package's top-level names: the four the demos import, and no re-exports beyond them."""

import types

import nodehead


def test_top_level_names_are_the_demo_imports():
    public = {name for name, value in vars(nodehead).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"SolverConfig", "forward", "init_node_head", "train_step"}
