"""Experiment planning: token budgets, data-reuse schedules, iteration and
warmup arithmetic, hyperparameter power-law refits, and sweep construction.

All planning is pure arithmetic over budgets; the power-law fit is a direct
least-squares solve in log space, so identical inputs give identical plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .arch import DenseShape, DerivedBudget, MoEShape, derive_budget, json_value
from .errors import IdentifiabilityError, PlannerError

# Recipe constants shared by every plan; recorded in plan metadata, the
# schedule itself is not simulated.
TRAINING_RECIPE = {
    "optimizer": "Adam",
    "weight_decay": 0.1,
    "grad_clip_norm": 1.0,
    "lr_schedule": "cosine",
    "min_lr": 1e-5,
    "warmup_rule": "clip(0.01 * iters, 200, 2000)",
}

WARMUP_MIN = 200
WARMUP_MAX = 2000
BATCH_MULTIPLE = 8
FIXED_COMPUTE_BAND = 0.03


def tokens_for_compute(train_compute: float, fwd_flops_per_token: float) -> int:
    """Token budget that exhausts a training-compute budget: floor(C / (3 M_fwd)).

    Exact when both arguments are integers; float division would lose the
    low bits of large counts and can return D - 1 for C = 3 M_fwd D.
    """
    if fwd_flops_per_token <= 0:
        raise PlannerError(f"fwd_flops_per_token must be > 0, got {fwd_flops_per_token}")
    if train_compute < 0:
        raise PlannerError(f"train_compute must be >= 0, got {train_compute}")
    if isinstance(train_compute, int) and isinstance(fwd_flops_per_token, int):
        return train_compute // (3 * fwd_flops_per_token)
    return int(train_compute / (3.0 * fwd_flops_per_token))


def iterations(tokens: int, batch_sequences: int, seq_len: int) -> int:
    """Optimizer steps to consume a token budget: round(D / (B * S))."""
    if batch_sequences < 1 or seq_len < 1:
        raise PlannerError("batch_sequences and seq_len must be >= 1")
    return round(tokens / (batch_sequences * seq_len))


def warmup_iters(total_iters: int) -> int:
    """Warmup steps: 1% of total, clamped to [200, 2000]."""
    if total_iters < 0:
        raise PlannerError(f"total_iters must be >= 0, got {total_iters}")
    return min(WARMUP_MAX, max(WARMUP_MIN, round(0.01 * total_iters)))


@dataclass(frozen=True)
class ReusePlan:
    """Multi-epoch schedule over a fixed unique-token subset.

    Strict plans hold the unique subset fixed and let epochs float with the
    consumed budget; loose plans hold epochs at exactly 2, so the unique
    subset is half the consumed budget. Data is reshuffled every epoch.
    """

    scheme: str                 # "strict" or "loose"
    unique_tokens: int
    consumed_tokens: int
    epochs: float
    warning: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "unique_tokens": self.unique_tokens,
            "consumed_tokens": self.consumed_tokens,
            "epochs": self.epochs,
            "shuffled_each_epoch": True,
            "warning": self.warning,
        }


def strict_reuse(consumed_tokens: int, unique_tokens: int) -> ReusePlan:
    """Epochs = consumed / unique; epochs below 1 are allowed but flagged."""
    if unique_tokens <= 0:
        raise PlannerError(f"unique_tokens must be > 0, got {unique_tokens}")
    if consumed_tokens < 0:
        raise PlannerError(f"consumed_tokens must be >= 0, got {consumed_tokens}")
    epochs = consumed_tokens / unique_tokens
    warning = None
    if unique_tokens > consumed_tokens:
        warning = (f"unique subset ({unique_tokens}) exceeds the consumed budget "
                   f"({consumed_tokens}); epochs < 1 leaves data unseen")
    return ReusePlan(scheme="strict", unique_tokens=unique_tokens,
                     consumed_tokens=consumed_tokens, epochs=epochs, warning=warning)


def loose_reuse(consumed_tokens: int) -> ReusePlan:
    """Exactly two epochs over half the consumed budget."""
    if consumed_tokens < 0:
        raise PlannerError(f"consumed_tokens must be >= 0, got {consumed_tokens}")
    return ReusePlan(scheme="loose", unique_tokens=consumed_tokens // 2,
                     consumed_tokens=consumed_tokens, epochs=2.0)


@dataclass(frozen=True)
class PowerLawFit:
    """ln(value) = log_coefficient + exponent_params*ln(N) + exponent_tokens*ln(D)."""

    log_coefficient: float
    exponent_params: float
    exponent_tokens: float
    residual_rms: float
    n_points: int
    fixed_exponents: tuple[str, ...] = ()

    def predict(self, params: float, tokens: float) -> float:
        return math.exp(self.log_coefficient
                        + self.exponent_params * math.log(params)
                        + self.exponent_tokens * math.log(tokens))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "log_coefficient": self.log_coefficient,
            "exponent_params": self.exponent_params,
            "exponent_tokens": self.exponent_tokens,
            "residual_rms": self.residual_rms,
            "n_points": self.n_points,
            "fixed_exponents": list(self.fixed_exponents),
        }


def fit_hparam_power_law(points: Sequence[tuple[float, float, float]]) -> PowerLawFit:
    """Least-squares power-law fit of value against (params, tokens).

    ``points`` holds (N, D, value) triples. An exponent whose variable takes a
    single distinct value is unidentifiable; it is fixed to 0 and reported in
    ``fixed_exponents``. At least one more point than free parameters the
    design can distinguish is not required — exact interpolation (zero
    residual) is legitimate — but fewer points than free parameters, or a
    collinear ln N / ln D design, raises IdentifiabilityError.
    """
    import numpy as np  # the rest of the planner is numpy-free
    pts = [(float(n), float(d), float(v)) for n, d, v in points]
    if not pts:
        raise IdentifiabilityError("no points supplied")
    for n, d, v in pts:
        if n <= 0 or d <= 0 or v <= 0:
            raise PlannerError(f"points must be positive, got ({n}, {d}, {v})")
    log_n = np.log([p[0] for p in pts])
    log_d = np.log([p[1] for p in pts])
    log_v = np.log([p[2] for p in pts])

    def varies(column: np.ndarray) -> bool:
        return bool(np.ptp(column) > 1e-12)

    columns = [np.ones(len(pts))]
    names: list[str] = []
    fixed: list[str] = []
    for name, column in (("params", log_n), ("tokens", log_d)):
        if varies(column):
            columns.append(column)
            names.append(name)
        else:
            fixed.append(name)
    design = np.column_stack(columns)
    if len(pts) < design.shape[1]:
        missing = " and ".join(names) if names else "the intercept"
        raise IdentifiabilityError(
            f"{len(pts)} points cannot identify {design.shape[1]} coefficients "
            f"(fitting {missing}); add points varying in "
            f"{', '.join(names) or 'value'}")
    solution, _, rank, _ = np.linalg.lstsq(design, log_v, rcond=None)
    if rank < design.shape[1]:
        raise IdentifiabilityError(
            "design matrix is rank-deficient: ln(params) and ln(tokens) are "
            "collinear across the supplied points; vary them independently")
    residuals = log_v - design @ solution
    coeffs = dict(zip(names, solution[1:]))
    return PowerLawFit(
        log_coefficient=float(solution[0]),
        exponent_params=float(coeffs.get("params", 0.0)),
        exponent_tokens=float(coeffs.get("tokens", 0.0)),
        residual_rms=float(np.sqrt(np.mean(residuals ** 2))),
        n_points=len(pts),
        fixed_exponents=tuple(fixed),
    )


def snap_batch(batch: float) -> int:
    """Round a predicted batch size to the hardware-friendly multiple of 8."""
    return max(BATCH_MULTIPLE, BATCH_MULTIPLE * round(batch / BATCH_MULTIPLE))


@dataclass(frozen=True)
class SweepRow:
    shape: DenseShape | MoEShape
    budget: DerivedBudget
    eta: float
    batch_sequences: int
    iterations: int
    warmup_iters: int
    epochs: float = 1.0
    unique_tokens: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        from .arch import shape_to_json
        return {
            "shape": shape_to_json(self.shape),
            "budget": self.budget.to_json_dict(),
            "eta": self.eta,
            "B": self.batch_sequences,
            "Iters": self.iterations,
            "warmup_iters": self.warmup_iters,
            "epochs": self.epochs,
            "unique_tokens": self.unique_tokens,
        }


@dataclass(frozen=True)
class SweepPlan:
    fixed: str          # "C" or "D"
    fixed_value: float
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "fixed": self.fixed,
            "fixed_value": self.fixed_value,
            "rows": [r.to_json_dict() for r in self.rows],
            "recipe": dict(TRAINING_RECIPE),
        }

    def validate(self) -> None:
        """Check the fixed-budget band and the iteration identity on every row."""
        if self.fixed == "C":
            values = [r.budget.train_compute for r in self.rows]
            if values and max(values) > min(values) * (1 + FIXED_COMPUTE_BAND):
                raise PlannerError(
                    f"fixed-compute sweep varies by more than "
                    f"{FIXED_COMPUTE_BAND:.0%}: {min(values):.3g}..{max(values):.3g}")
        else:
            tokens = {r.budget.tokens for r in self.rows}
            if len(tokens) > 1:
                raise PlannerError(f"fixed-data sweep has varying token budgets: {tokens}")
        for row in self.rows:
            expected = iterations(row.budget.tokens, row.batch_sequences, row.shape.seq_len)
            if row.iterations != expected:
                raise PlannerError(
                    f"row iterations {row.iterations} != round(D/(B*S)) = {expected}")


def build_sweep(fixed: str, value: float,
                shapes: Sequence[DenseShape | MoEShape],
                hparam_fits: tuple[PowerLawFit, PowerLawFit] | None = None,
                row_hparams: Sequence[tuple[float, float]] | None = None,
                reuse_scheme: str | None = None,
                unique_tokens: int | None = None,
                n_source: str = "total") -> SweepPlan:
    """Build one activation-rate sweep at fixed compute ("C") or data ("D").

    Learning rate and batch size come either from ``row_hparams`` (one
    (eta, B) pair per shape) or from ``hparam_fits`` (an (eta_fit, batch_fit)
    pair of power laws, evaluated at each row's parameter count and token
    budget; predicted batch sizes snap to multiples of 8). ``n_source``
    chooses whether fits see total or active parameters. Rows are sorted by
    activation rate. An optional reuse scheme fills the epochs column.
    """
    if fixed not in ("C", "D"):
        raise PlannerError(f'fixed must be "C" or "D", got {fixed!r}')
    if value <= 0:
        raise PlannerError(f"fixed value must be > 0, got {value}")
    if row_hparams is not None and len(row_hparams) != len(shapes):
        raise PlannerError("row_hparams must supply one (eta, B) pair per shape")
    if row_hparams is None and hparam_fits is None:
        raise PlannerError("supply either row_hparams or hparam_fits")
    if reuse_scheme not in (None, "strict", "loose"):
        raise PlannerError(f"unknown reuse scheme {reuse_scheme!r}")
    if reuse_scheme == "strict" and not unique_tokens:
        raise PlannerError("strict reuse needs unique_tokens")
    if n_source not in ("total", "active"):
        raise PlannerError(f'n_source must be "total" or "active", got {n_source!r}')

    rows: list[SweepRow] = []
    for i, shape in enumerate(shapes):
        probe = derive_budget(shape)
        if fixed == "C":
            tokens = tokens_for_compute(value, probe.fwd_flops_per_token)
        else:
            tokens = int(value)
        budget = derive_budget(shape, tokens=tokens)
        if row_hparams is not None:
            eta = json_value("eta", row_hparams[i][0], "float", PlannerError)
            batch = json_value("B", row_hparams[i][1], "int", PlannerError)
            if not (0 < eta < math.inf and batch >= 1):
                raise PlannerError(f"need finite eta > 0 and B >= 1, got {eta!r}, {batch!r}")
        else:
            eta_fit, batch_fit = hparam_fits
            n_for_fit = budget.total_params if n_source == "total" else budget.active_params
            eta = eta_fit.predict(n_for_fit, tokens)
            batch = snap_batch(batch_fit.predict(n_for_fit, tokens))
        iters = iterations(tokens, batch, shape.seq_len)
        epochs = 1.0
        unique = None
        if reuse_scheme == "strict":
            plan = strict_reuse(tokens, unique_tokens)
            epochs, unique = plan.epochs, plan.unique_tokens
        elif reuse_scheme == "loose":
            plan = loose_reuse(tokens)
            epochs, unique = plan.epochs, plan.unique_tokens
        rows.append(SweepRow(shape=shape, budget=budget, eta=eta, batch_sequences=batch,
                             iterations=iters, warmup_iters=warmup_iters(iters),
                             epochs=epochs, unique_tokens=unique))
    rows.sort(key=lambda r: (r.budget.activation_rate, r.budget.total_params))
    return SweepPlan(fixed=fixed, fixed_value=float(value), rows=tuple(rows))


def sweep_to_csv_rows(plan: SweepPlan) -> tuple[list[str], list[list[Any]]]:
    """Fixture-table-style CSV projection of a sweep plan (plus an epochs column)."""
    header = ["N", "N_a", "r_a", "M", "D", "C", "D/N", "E", "K", "D_e", "D_se",
              "eta", "B", "Iters", "epochs", "warmup"]
    out: list[list[Any]] = []
    for row in plan.rows:
        shape = row.shape
        is_moe = isinstance(shape, MoEShape)
        out.append([
            row.budget.total_params,
            row.budget.active_params,
            round(100.0 * row.budget.activation_rate, 2),
            row.budget.train_flops_per_token,
            row.budget.tokens,
            row.budget.train_compute,
            round(row.budget.tokens_per_param, 2),
            shape.experts if is_moe else "",
            shape.top_k if is_moe else "",
            shape.expert_dim if is_moe else "",
            shape.shared_expert_dim if is_moe else "",
            row.eta,
            row.batch_sequences,
            row.iterations,
            row.epochs,
            row.warmup_iters,
        ])
    return header, out


def fit_points_from_table(rows: Iterable[dict[str, float]], value_column: str,
                          nominal_params: float | None = None,
                          n_column: str = "N",
                          ra_filter: float | None = None) -> list[tuple[float, float, float]]:
    """Extract (N, D, value) fit points from fixture-table rows.

    ``n_column`` picks which parameter count the law sees ("N" uses the
    table's nominal total, "N_a" the per-row active count). ``ra_filter``
    keeps only rows whose r_a column matches to 0.01.
    """
    points = []
    for row in rows:
        if ra_filter is not None and abs(row.get("r_a", float("nan")) - ra_filter) > 0.01:
            continue
        if n_column == "N":
            n = row.get("N", nominal_params)
        else:
            n = row.get(n_column)
        if n is None:
            raise PlannerError(f"rows carry no {n_column!r} column and no nominal was given")
        tokens = row["D"] if "D" in row else 2.0 * row["D_hat"]
        points.append((float(n), float(tokens), float(row[value_column])))
    return points
