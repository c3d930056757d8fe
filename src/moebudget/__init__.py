"""Resource-parity budgeting and planning for MoE vs dense transformers.

The package covers five surfaces: exact parameter/FLOP accounting for dense
and MoE shapes (`arch`), a reference MoE block with a finite-difference-
verified manual backward pass (`kernel`), constrained configuration search
(`search`), experiment planning with data-reuse schedules and hyperparameter
power-law refits (`planner`), and desk-scale synthetic training (`toylab`).
Golden fixture tables ship with the package and replay through
`validate_fixture_tables`.
"""

from .arch import (
    ARRANGEMENTS,
    ComputeRatio,
    DenseShape,
    DerivedBudget,
    MoEShape,
    ShapeError,
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
from .fixtures import (
    FIXTURES_ENV_VAR,
    FixtureError,
    FixtureTable,
    ValidationReport,
    fixtures_dir,
    load_table,
    table_names,
    validate_fixture_tables,
)
from .kernel import (
    BalanceStats,
    BlockParams,
    GateOutput,
    GradCheckSettings,
    KernelError,
    Layout,
    LossBundle,
    balance_stats,
    gate_forward,
    grad_check,
    init_block_params,
    load_checkpoint,
    moe_batch_backward,
    moe_batch_forward,
    save_checkpoint,
    total_loss,
)
from .planner import (
    IdentifiabilityError,
    PlannerError,
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
    InfeasibleSpecError,
    SearchSpecError,
    SearchResult,
    SearchSpec,
    dense_baseline,
    search,
)
from .toylab import (
    DivergenceError,
    GatingComparison,
    ToyTask,
    ToyTrainConfig,
    TrainReport,
    compare_gating,
    run_toy_training,
)

__version__ = "0.1.0"
