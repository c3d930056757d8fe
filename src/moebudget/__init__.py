"""Resource-parity budgeting and planning for MoE vs dense transformers.

The package covers five surfaces: exact parameter/FLOP accounting for dense
and MoE shapes (`arch`), a reference MoE block with a finite-difference-
verified manual backward pass (`kernel`), constrained configuration search
(`search`), experiment planning with data-reuse schedules and hyperparameter
power-law refits (`planner`), and desk-scale synthetic training (`toylab`).
Golden fixture tables ship with the package and replay through
`validate_fixture_tables`. Every error class derives from `MoebudgetError`.

`kernel` and `toylab`, and numpy with them, load on first use of one of
their names, so the budget and planning surfaces stay numpy-free.
"""

import importlib
from typing import Any

from .arch import (
    ARRANGEMENTS,
    ComputeRatio,
    DenseShape,
    DerivedBudget,
    MoEShape,
    activation_rate,
    compute_ratio,
    dense_fwd_flops,
    dense_params,
    derive_budget,
    layer_split,
    moe_fwd_flops,
    moe_params,
    shape_from_json,
    shape_to_json,
    training_compute,
)
from .errors import (
    CliUsageError,
    DivergenceError,
    FixtureError,
    IdentifiabilityError,
    InfeasibleSpecError,
    KernelError,
    MoebudgetError,
    PlannerError,
    SearchSpecError,
    ShapeError,
    ToyConfigError,
)
from .fixtures import (
    FIXTURES_ENV_VAR,
    FixtureTable,
    ValidationReport,
    fixtures_dir,
    load_table,
    table_names,
    validate_fixture_tables,
)
from .planner import (
    PowerLawFit,
    ReusePlan,
    SweepPlan,
    SweepRow,
    build_sweep,
    fit_hparam_power_law,
    iterations,
    loose_reuse,
    strict_reuse,
    tokens_for_compute,
    warmup_iters,
)
from .search import (
    ConfigCandidate,
    SearchResult,
    SearchSpec,
    dense_baseline,
    search,
)

__version__ = "0.1.0"

_LAZY = {
    "kernel": ("BalanceStats", "BlockParams", "GradCheckSettings", "Layout", "Workspace",
               "balance_stats", "grad_check", "init_block_params", "load_checkpoint",
               "moe_batch_backward", "moe_batch_forward", "save_checkpoint"),
    "toylab": ("GatingComparison", "ToyTask", "ToyTrainConfig", "TrainReport",
               "compare_gating", "run_toy_training"),
}


def __getattr__(name: str) -> Any:
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
