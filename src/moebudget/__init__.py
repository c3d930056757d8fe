"""Resource-parity budgeting and planning for MoE vs dense transformers.

The package covers five surfaces: exact parameter/FLOP accounting for dense
and MoE shapes (`arch`), a reference MoE block with a finite-difference-
verified manual backward pass (`kernel`), constrained configuration search
(`search`), experiment planning with data-reuse schedules and hyperparameter
power-law refits (`planner`), and desk-scale synthetic training (`toylab`).
Golden fixture tables ship with the package and replay through
`validate_fixture_tables`. Every error class derives from `MoebudgetError`.

Each module, and each name in `_EXPORTS`, loads on first use. Only `search`,
with the `arch` and `errors` it imports, loads with the package, and numpy
loads only with `kernel` or `toylab`.
"""

import importlib
from typing import Any

# `search` names a submodule and its entry point; importing the submodule binds
# the module here, so bind the function once rather than resolve it lazily.
from .search import search

__version__ = "0.1.0"

_EXPORTS = {
    "arch": ("ARRANGEMENTS", "ComputeRatio", "DenseShape", "DerivedBudget", "MoEShape",
             "activation_rate", "compute_ratio", "dense_fwd_flops", "dense_params",
             "derive_budget", "layer_split", "moe_fwd_flops", "moe_params",
             "shape_from_json", "shape_to_json", "training_compute"),
    "errors": ("CliUsageError", "DivergenceError", "FixtureError", "IdentifiabilityError",
               "InfeasibleSpecError", "KernelError", "MoebudgetError", "PlannerError",
               "SearchSpecError", "ShapeError", "ToyConfigError"),
    "fixtures": ("FIXTURES_ENV_VAR", "FixtureTable", "ValidationReport", "fixtures_dir",
                 "load_table", "table_names", "validate_fixture_tables"),
    "planner": ("PowerLawFit", "ReusePlan", "SweepPlan", "SweepRow", "build_sweep",
                "fit_hparam_power_law", "iterations", "loose_reuse", "reuse_plan",
                "strict_reuse", "tokens_for_compute", "warmup_iters"),
    "search": ("ConfigCandidate", "SearchResult", "SearchSpec", "dense_baseline"),
    "kernel": ("BalanceStats", "BlockParams", "GradCheckSettings", "Layout", "Workspace",
               "balance_stats", "grad_check", "init_block_params", "moe_batch_backward",
               "moe_batch_forward"),
    "toylab": ("ToyTask", "ToyTrainConfig", "TrainReport", "run_toy_training"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_OWNERS]


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNERS:
        return getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
