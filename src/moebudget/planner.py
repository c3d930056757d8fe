"""Experiment planning: token budgets, data-reuse schedules, iteration and
warmup arithmetic, hyperparameter power-law refits, and sweep construction.

All planning is pure arithmetic over budgets, with counts kept as exact
integers. The power-law fit solves the least-squares normal equations in log
space exactly, in integers, and rounds each coefficient once, so identical
inputs give identical plans on every platform.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Any, Sequence

from .arch import (DenseShape, DerivedBudget, MoEShape, check_bounds, derive_budget,
                   json_value, shape_to_json, table_columns)
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


def tokens_for_compute(train_compute: int, fwd_flops_per_token: int) -> int:
    """Token budget that exhausts a training-compute budget: floor(C / (3 M_fwd)).

    Both counts are exact: an int, or a float naming one. Float division would
    lose the low bits of large counts and can return D - 1 for C = 3 M_fwd D.
    """
    fwd = json_value("fwd_flops_per_token", fwd_flops_per_token, "int", PlannerError)
    check_bounds({"fwd_flops_per_token": fwd}, PlannerError, fwd_flops_per_token="> 0")
    compute = json_value("train_compute", train_compute, "int", PlannerError)
    check_bounds({"train_compute": compute}, PlannerError, train_compute=">= 0")
    return compute // (3 * fwd)


def iterations(tokens: int, batch_sequences: int, seq_len: int) -> int:
    """Optimizer steps to consume a token budget: D / (B * S), rounded half to even.

    Exact for every count: float division would lose the low bits above 2**53.
    """
    check_bounds({"batch_sequences": batch_sequences, "seq_len": seq_len}, PlannerError,
                 batch_sequences=">= 1", seq_len=">= 1")
    per_step = batch_sequences * seq_len
    steps, rest = divmod(tokens, per_step)
    if 2 * rest > per_step or (2 * rest == per_step and steps % 2):
        steps += 1
    return steps


def warmup_iters(total_iters: int) -> int:
    """Warmup steps: 1% of total, clamped to [200, 2000]."""
    check_bounds({"total_iters": total_iters}, PlannerError, total_iters=">= 0")
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
        return {**asdict(self), "shuffled_each_epoch": True}


def strict_reuse(consumed_tokens: int, unique_tokens: int) -> ReusePlan:
    """Epochs = consumed / unique; epochs below 1 are allowed but flagged."""
    check_bounds({"unique_tokens": unique_tokens, "consumed_tokens": consumed_tokens},
                 PlannerError, unique_tokens="> 0", consumed_tokens=">= 0")
    try:
        epochs = consumed_tokens / unique_tokens
    except OverflowError:  # a count past the float range
        raise PlannerError("consumed_tokens is too large for a float epoch count") from None
    warning = None
    if unique_tokens > consumed_tokens:
        warning = (f"unique subset ({unique_tokens}) exceeds the consumed budget "
                   f"({consumed_tokens}); epochs < 1 leaves data unseen")
    return ReusePlan(scheme="strict", unique_tokens=unique_tokens,
                     consumed_tokens=consumed_tokens, epochs=epochs, warning=warning)


def loose_reuse(consumed_tokens: int) -> ReusePlan:
    """Exactly two epochs over half the consumed budget."""
    check_bounds({"consumed_tokens": consumed_tokens}, PlannerError, consumed_tokens=">= 0")
    return ReusePlan(scheme="loose", unique_tokens=consumed_tokens // 2,
                     consumed_tokens=consumed_tokens, epochs=2.0)


def reuse_plan(scheme: str | None, consumed_tokens: int,
               unique_tokens: int | None = None) -> ReusePlan | None:
    """The ``scheme`` schedule over ``consumed_tokens``; None when scheme is None.

    Only strict reuse takes ``unique_tokens``, and it needs them: loose reuse
    fixes its subset at half the budget, so a count given there, or with no
    scheme, is a PlannerError rather than ignored.
    """
    if scheme == "strict":
        if unique_tokens is None:
            raise PlannerError("strict reuse needs unique_tokens")
        return strict_reuse(consumed_tokens, unique_tokens)
    if scheme not in (None, "loose"):
        raise PlannerError(f"unknown reuse scheme {scheme!r}")
    if unique_tokens is not None:
        raise PlannerError(f"unique_tokens applies only to strict reuse, not to "
                           f"{scheme or 'no'} reuse")
    return loose_reuse(consumed_tokens) if scheme else None


@dataclass(frozen=True)
class PowerLawFit:
    """ln(value) = log_coefficient + exponent_params*ln(N) + exponent_tokens*ln(D).

    ``n_column`` names the parameter count N was fitted on: "N" (total) or
    "N_a" (active).
    """

    log_coefficient: float
    exponent_params: float
    exponent_tokens: float
    residual_rms: float
    n_points: int
    fixed_exponents: tuple[str, ...] = ()
    n_column: str = "N"

    def predict(self, params: float, tokens: float) -> float:
        return math.exp(self.log_coefficient
                        + self.exponent_params * math.log(params)
                        + self.exponent_tokens * math.log(tokens))

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


def _det(matrix: list[list[int]]) -> int:
    """Determinant of a small integer matrix, by cofactors along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** j * matrix[0][j] * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j in range(len(matrix)))


def _eigenvalue_ratio(gram: list[list[int]]) -> float:
    """lambda_min / lambda_max of a positive semidefinite integer matrix of order <= 3.

    The characteristic polynomial's coefficients (sums of principal minors) are
    exact. The largest eigenvalue comes from its trigonometric root formula; the
    smallest is the determinant over the product of the others, so that a
    near-zero eigenvalue keeps its relative accuracy.
    """
    m = len(gram)
    e = [sum(_det([[gram[i][j] for j in idx] for i in idx])
             for idx in combinations(range(m), k)) for k in range(1, m + 1)]
    if m == 1:
        return 1.0
    e1 = e[0]  # > 0: the intercept column is nonzero
    if m == 3:
        a = e1 * e1 - 3 * e[1]
        b = 2 * e1 ** 3 - 9 * e1 * e[1] + 27 * e[2]
        # b**2 <= 4 a**3 exactly (three real roots), so the rounded ratio is <= 1
        cos3 = math.copysign(math.sqrt(b * b / (4 * a ** 3)), b) if a else 1.0
        top = (1 + 2 * math.sqrt(a / e1 ** 2) * math.cos(math.acos(cos3) / 3)) / 3
        # the other two eigenvalues, relative to e1: their product and their sum
        prod = e[2] / e1 ** 3 / top
        total = (e[1] / e1 ** 2 - prod) / top
    else:
        top, total, prod = None, 1.0, e[1] / e1 ** 2
    upper = (total + math.sqrt(max(0.0, total * total - 4 * prod))) / 2
    lower = prod / upper if upper else 0.0
    return lower / (top or upper)


def fit_hparam_power_law(points: Sequence[tuple[float, float, float]],
                         n_column: str = "N") -> PowerLawFit:
    """Least-squares power-law fit of value against (params, tokens).

    ``points`` holds (N, D, value) triples, N being the ``n_column`` count,
    which the fit records. An exponent whose variable takes a single distinct
    value is unidentifiable; it is fixed to 0 and reported in
    ``fixed_exponents``. At least one more point than free parameters the
    design can distinguish is not required — exact interpolation (zero
    residual) is legitimate — but fewer points than free parameters, or a
    collinear ln N / ln D design, raises IdentifiabilityError.

    The normal equations over the float logs are formed and solved exactly in
    integers. Each coefficient is rounded to float once, and the residual RMS
    is the square root of the exact mean square, so the fit is the same on
    every platform and for every point order.
    The rank rule is ``numpy.linalg.lstsq``'s default, written on the Gram matrix
    G = X^T X of the M x N design X: rank-deficient when
    lambda_min(G) <= (eps * max(M, N))**2 * lambda_max(G).
    """
    pts = [(float(n), float(d), float(v)) for n, d, v in points]
    if not pts:
        raise IdentifiabilityError("no points supplied")
    for n, d, v in pts:
        if n <= 0 or d <= 0 or v <= 0:
            raise PlannerError(f"points must be positive, got ({n}, {d}, {v})")
    logs = [[math.log(x) for x in p] for p in pts]  # ln N, ln D, ln value

    columns: list[int] = []
    names: list[str] = []
    fixed: list[str] = []
    for col, name in ((0, "params"), (1, "tokens")):
        values = [row[col] for row in logs]
        if max(values) - min(values) > 1e-12:
            columns.append(col)
            names.append(name)
        else:
            fixed.append(name)
    m = 1 + len(columns)
    if len(pts) < m:
        missing = " and ".join(names) if names else "the intercept"
        raise IdentifiabilityError(
            f"{len(pts)} points cannot identify {m} coefficients "
            f"(fitting {missing}); add points varying in "
            f"{', '.join(names) or 'value'}")
    # Every float log is an integer multiple of 1/scale, scale a power of two.
    scale = max(x.as_integer_ratio()[1] for row in logs for x in row)

    def scaled(x: float) -> int:
        num, den = x.as_integer_ratio()
        return num * (scale // den)

    design = [[scale] + [scaled(row[col]) for col in columns] for row in logs]
    target = [scaled(row[2]) for row in logs]
    gram = [[sum(r[i] * r[j] for r in design) for j in range(m)] for i in range(m)]
    if _eigenvalue_ratio(gram) <= (sys.float_info.epsilon * max(len(pts), m)) ** 2:
        raise IdentifiabilityError(
            "design matrix is rank-deficient: ln(params) and ln(tokens) are "
            "collinear across the supplied points; vary them independently")
    moments = [sum(r[i] * y for r, y in zip(design, target)) for i in range(m)]
    det = _det(gram)
    # Cramer's rule: coefficient j is numerators[j] / det
    numerators = [_det([row[:j] + [mom] + row[j + 1:] for row, mom in zip(gram, moments)])
                  for j in range(m)]
    # each residual times det * scale is an integer, so its sum of squares is exact
    squares = sum((y * det - sum(x * num for x, num in zip(r, numerators))) ** 2
                  for r, y in zip(design, target))
    solution = [num / det for num in numerators]  # int / int: correctly rounded
    coeffs = dict(zip(names, solution[1:]))
    return PowerLawFit(
        log_coefficient=solution[0],
        exponent_params=coeffs.get("params", 0.0),
        exponent_tokens=coeffs.get("tokens", 0.0),
        residual_rms=math.sqrt(squares / (len(pts) * (det * scale) ** 2)),
        n_points=len(pts),
        fixed_exponents=tuple(fixed),
        n_column=n_column,
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
    fixed_value: int
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "fixed": self.fixed,
            "fixed_value": self.fixed_value,
            "rows": [r.to_json_dict() for r in self.rows],
            "recipe": dict(TRAINING_RECIPE),
        }

    def validate(self) -> None:
        """Check that a fixed-compute sweep's rows spend within FIXED_COMPUTE_BAND."""
        values = [r.budget.train_compute for r in self.rows]
        if self.fixed == "C" and values and max(values) > min(values) * (1 + FIXED_COMPUTE_BAND):
            raise PlannerError(
                f"fixed-compute sweep varies by more than "
                f"{FIXED_COMPUTE_BAND:.0%}: {min(values):.3g}..{max(values):.3g}")


def build_sweep(fixed: str, value: int | float,
                shapes: Sequence[DenseShape | MoEShape],
                hparam_fits: tuple[PowerLawFit, PowerLawFit] | None = None,
                row_hparams: Sequence[tuple[float, float]] | None = None,
                reuse_scheme: str | None = None,
                unique_tokens: int | None = None) -> SweepPlan:
    """Build one activation-rate sweep at fixed compute ("C") or data ("D").

    ``value`` is an exact count of FLOPs or tokens: an int, or a float naming
    one. A shape that the compute buys no whole token of is a PlannerError.

    Learning rate and batch size come from exactly one of ``row_hparams`` (one
    (eta, B) pair per shape) or ``hparam_fits`` (an (eta_fit, batch_fit)
    pair of power laws, each evaluated at the row's token budget and at the
    ``table_columns`` count it was fitted on, N or N_a; predicted batch sizes
    snap to multiples of 8). A row too small for one optimizer step
    is a PlannerError. Rows are sorted by activation rate. An optional reuse
    scheme, read by ``reuse_plan``, fills the epochs column. The plan is
    returned only once ``SweepPlan.validate`` holds.
    """
    if fixed not in ("C", "D"):
        raise PlannerError(f'fixed must be "C" or "D", got {fixed!r}')
    value = json_value("value", value, "int", PlannerError)
    check_bounds({"fixed value": value}, PlannerError, **{"fixed value": "> 0"})
    if row_hparams is not None and len(row_hparams) != len(shapes):
        raise PlannerError("row_hparams must supply one (eta, B) pair per shape")
    if (row_hparams is None) == (hparam_fits is None):
        raise PlannerError("supply exactly one of row_hparams or hparam_fits")

    rows: list[SweepRow] = []
    for i, shape in enumerate(shapes):
        probe = derive_budget(shape)
        tokens = tokens_for_compute(value, probe.fwd_flops_per_token) if fixed == "C" else value
        reuse = reuse_plan(reuse_scheme, tokens, unique_tokens)
        if tokens == 0:
            raise PlannerError(f"shape {i}: compute {value} buys 0 tokens at "
                               f"{probe.train_flops_per_token} FLOPs per token")
        budget = derive_budget(shape, tokens=tokens)
        if row_hparams is not None:
            eta = json_value("eta", row_hparams[i][0], "float", PlannerError)
            batch = json_value("B", row_hparams[i][1], "int", PlannerError)
            check_bounds({"eta": eta, "B": batch}, PlannerError, eta="finite and > 0", B=">= 1")
        else:
            columns = table_columns(shape, budget)
            eta, batch = (fit.predict(columns[fit.n_column], tokens) for fit in hparam_fits)
            batch = snap_batch(batch)
        iters = iterations(tokens, batch, shape.seq_len)
        if iters == 0:
            raise PlannerError(f"shape {i}: {tokens} tokens make no optimizer step of "
                               f"{batch} sequences of {shape.seq_len} tokens")
        epochs, unique = (reuse.epochs, reuse.unique_tokens) if reuse else (1.0, None)
        rows.append(SweepRow(shape=shape, budget=budget, eta=eta, batch_sequences=batch,
                             iterations=iters, warmup_iters=warmup_iters(iters),
                             epochs=epochs, unique_tokens=unique))
    rows.sort(key=lambda r: (r.budget.activation_rate, r.budget.total_params))
    plan = SweepPlan(fixed=fixed, fixed_value=value, rows=tuple(rows))
    plan.validate()
    return plan


def sweep_to_csv_rows(plan: SweepPlan) -> tuple[list[str], list[list[Any]]]:
    """Fixture-table-style CSV projection of a sweep plan (plus an epochs column)."""
    names = ("N", "N_a", "r_a", "M", "D", "C", "D/N", "E", "K", "D_e", "D_se")
    out: list[list[Any]] = []
    for row in plan.rows:
        columns = table_columns(row.shape, row.budget)
        columns["r_a"], columns["D/N"] = round(columns["r_a"], 2), round(columns["D/N"], 2)
        # a dense row leaves the MoE-only columns empty
        out.append([*(columns.get(name, "") for name in names), row.eta, row.batch_sequences,
                    row.iterations, row.epochs, row.warmup_iters])
    return [*names, "eta", "B", "Iters", "epochs", "warmup"], out

