"""Constraint-driven search for MoE configurations and dense baselines.

Given a target total parameter count and activation rate plus the structural
ratios (aspect ratio zeta, all-expert width ratio mu, dense FFN ratio alpha),
the search fixes the depth/width grid first (model_dim is the multiple of
head_dim nearest zeta * layers), inverts the activation rate for the active
expert width — correcting exactly for any dense layers — and then enumerates
(top_k, expert_dim) granularities with the shared expert pinned at
shared_dim = top_k * expert_dim. Candidates are ranked by how closely their
exact recomputed budget hits the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .arch import (
    ARRANGEMENTS,
    DenseShape,
    DerivedBudget,
    MoEShape,
    ShapeError,
    derive_budget,
    layer_split,
)
from .errors import InfeasibleSpecError, SearchSpecError

__all__ = [
    "SearchSpec", "ConfigCandidate", "SearchResult", "SearchSpecError",
    "InfeasibleSpecError", "search", "dense_baseline",
]


_SEARCH_MAX_LAYERS = 160
_DENSE_MAX_LAYERS = 256
_DENSE_TOLERANCE = 0.02


def _too_large(layers: int) -> SearchSpecError:
    # the exact-int parameter count overflowed where it met a float ratio
    return SearchSpecError(f"the shape at {layers} layers is too large to compare with "
                           f"target_params; a ratio is too large")


def _snap(value: float, multiple: int) -> int:
    if not math.isfinite(value):
        raise SearchSpecError(f"grid value {value} is not finite; a ratio is too large")
    return multiple * int(value / multiple + 0.5)


@dataclass(frozen=True)
class SearchSpec:
    """Targets and structural constraints for one MoE configuration search."""

    target_params: int
    target_activation_rate: float
    aspect_ratio: float = 88.0        # model_dim / layers (zeta)
    expert_width_ratio: float = 22.0  # (shared + experts * expert_dim) / model_dim (mu)
    dense_ffn_ratio: float = 2.77     # ffn_dim / model_dim for dense layers (alpha)
    head_dim: int = 128
    seq_len: int = 2048
    arrangement: str = "one_dense"
    k_min: int = 2                    # ranking preference; top_k=1 stays enumerable
    k_max: int = 32
    expert_dim_multiple: int = 32
    max_experts: int = 128
    max_candidates: int = 20

    def __post_init__(self) -> None:
        if self.target_params < 1:
            raise SearchSpecError(f"target_params must be >= 1, got {self.target_params}")
        if not 0.0 < self.target_activation_rate <= 1.0:
            raise SearchSpecError(
                f"target_activation_rate must be in (0, 1], got {self.target_activation_rate}")
        for name in ("aspect_ratio", "expert_width_ratio", "dense_ffn_ratio"):
            if getattr(self, name) <= 0:
                raise SearchSpecError(f"{name} must be > 0")
        if self.arrangement not in ARRANGEMENTS:
            raise SearchSpecError(f"arrangement must be one of {ARRANGEMENTS}")
        if not 1 <= self.k_min <= self.k_max:
            raise SearchSpecError("need 1 <= k_min <= k_max")
        if self.head_dim < 1 or self.expert_dim_multiple < 1:
            raise SearchSpecError("head_dim and expert_dim_multiple must be >= 1")
        if self.max_candidates < 1:
            raise SearchSpecError(f"max_candidates must be >= 1, got {self.max_candidates}")


@dataclass(frozen=True)
class ConfigCandidate:
    shape: MoEShape
    budget: DerivedBudget
    delta_params_rel: float      # (N - target) / target
    delta_activation_abs: float  # r_a - target

    @property
    def score(self) -> float:
        return abs(self.delta_params_rel) + abs(self.delta_activation_abs)

    def to_json_dict(self) -> dict[str, Any]:
        from .arch import shape_to_json
        return {
            "shape": shape_to_json(self.shape),
            "budget": self.budget.to_json_dict(),
            "residuals": {
                "delta_N_rel": self.delta_params_rel,
                "delta_ra_abs": self.delta_activation_abs,
            },
        }


@dataclass(frozen=True)
class SearchResult:
    candidates: tuple[ConfigCandidate, ...]
    diagnostics: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "diagnostics": list(self.diagnostics),
        }


def _layer_grid(spec: SearchSpec) -> list[tuple[int, int, int, int, int]]:
    """(layers, model_dim, ffn_dim, moe_layers, dense_layers) near the target size."""
    alpha = spec.dense_ffn_ratio
    mu = spec.expert_width_ratio
    grid = []
    min_layers = 2 if spec.arrangement == "one_dense" else 1
    for layers in range(min_layers, _SEARCH_MAX_LAYERS + 1):
        model_dim = max(spec.head_dim, _snap(spec.aspect_ratio * layers, spec.head_dim))
        ffn_dim = max(16, _snap(alpha * model_dim, 16))
        moe_layers, dense_layers = layer_split(layers, spec.arrangement)
        try:
            ideal = model_dim * model_dim * (
                (4 + 3 * mu) * moe_layers
                + (4 + 3 * ffn_dim / model_dim) * dense_layers)
        except OverflowError:
            raise _too_large(layers) from None
        rel = abs(ideal - spec.target_params) / spec.target_params
        grid.append((rel, layers, model_dim, ffn_dim, moe_layers, dense_layers))
    grid.sort()
    kept = [entry[1:] for entry in grid if entry[0] <= 0.25]
    if not kept:
        # keep the single closest depth so diagnostics can explain the miss
        kept = [grid[0][1:]]
    return kept


def search(spec: SearchSpec) -> SearchResult:
    """Enumerate and rank MoE configurations for the spec's (N, r_a) target.

    Deterministic: identical specs produce identical ranked lists. Infeasible
    specs return an empty candidate list with diagnostics naming the failed
    constraint.
    """
    target_n = spec.target_params
    target_ra = spec.target_activation_rate
    mu = spec.expert_width_ratio
    skip_counts: dict[str, int] = {}
    scored: list[tuple[tuple, ConfigCandidate]] = []

    def skip(reason: str) -> None:
        skip_counts[reason] = skip_counts.get(reason, 0) + 1

    for layers, model_dim, ffn_dim, moe_layers, dense_layers in _layer_grid(spec):
        alpha_term = 4 + 3 * ffn_dim / model_dim
        total_units = (4 + 3 * mu) * moe_layers + alpha_term * dense_layers
        # Invert r_a for the active width, exactly accounting for dense layers.
        active_units = target_ra * total_units - alpha_term * dense_layers
        beta = (active_units / moe_layers - 4) / 3
        if beta <= 0:
            skip(f"target activation rate {target_ra} is below the attention-only "
                 f"floor for arrangement {spec.arrangement}")
            continue
        beta = min(beta, mu)
        active_width = beta * model_dim  # shared_dim + top_k * expert_dim

        for top_k in range(1, spec.k_max + 1):
            # shared expert pinned at top_k * expert_dim, so each side gets half
            expert_dim = _snap(active_width / (2 * top_k), spec.expert_dim_multiple)
            if expert_dim < spec.expert_dim_multiple:
                skip(f"expert_dim rounds to zero on the multiple-of-"
                     f"{spec.expert_dim_multiple} grid")
                continue
            shared_dim = top_k * expert_dim
            experts_f = (mu * model_dim - shared_dim) / expert_dim
            experts = int(experts_f + 0.5)
            if experts < max(top_k, 1):
                skip("fewer experts than top_k")
                continue
            if experts > spec.max_experts:
                skip(f"expert count above the cap of {spec.max_experts}")
                continue
            shape = MoEShape(
                base=DenseShape(layers=layers, model_dim=model_dim, ffn_dim=ffn_dim,
                                heads=model_dim // spec.head_dim, head_dim=spec.head_dim,
                                seq_len=spec.seq_len),
                moe_layers=moe_layers, dense_layers=dense_layers,
                experts=experts, top_k=top_k, expert_dim=expert_dim,
                shared_expert_dim=shared_dim, arrangement=spec.arrangement,
            )
            budget = derive_budget(shape)
            candidate = ConfigCandidate(
                shape=shape, budget=budget,
                delta_params_rel=(budget.total_params - target_n) / target_n,
                delta_activation_abs=budget.activation_rate - target_ra,
            )
            score = candidate.score
            if top_k < spec.k_min:
                score += 0.004  # prefer top_k >= k_min unless coarser routing is clearly better
            key = (round(score, 9), abs(expert_dim - model_dim // 4), top_k, layers)
            scored.append((key, candidate))

    scored.sort(key=lambda item: item[0])
    candidates = tuple(c for _, c in scored[:spec.max_candidates])
    diagnostics = tuple(
        f"{count} (layers, top_k) combinations skipped: {reason}"
        for reason, count in sorted(skip_counts.items()))
    if not candidates and not diagnostics:
        diagnostics = ("no integer configuration found within the layer grid",)
    return SearchResult(candidates=candidates, diagnostics=diagnostics)


def dense_baseline(target_params: int, aspect_ratio: float, ffn_ratio: float,
                   head_dim: int = 128, seq_len: int = 2048) -> DenseShape:
    """Smallest-|delta N| dense shape on the head_dim grid for a parameter target.

    Deterministic: ties in |delta N| break toward fewer layers. Raises
    InfeasibleSpecError when no shape lands within ``_DENSE_TOLERANCE``.
    """
    if target_params < 1:
        raise SearchSpecError(f"target_params must be >= 1, got {target_params}")
    if aspect_ratio <= 0 or ffn_ratio <= 0 or head_dim < 1:
        raise SearchSpecError("aspect_ratio, ffn_ratio and head_dim must be positive")
    best: tuple[float, int, DenseShape] | None = None
    for layers in range(1, _DENSE_MAX_LAYERS + 1):
        model_dim = max(head_dim, _snap(aspect_ratio * layers, head_dim))
        ffn_dim = max(16, _snap(ffn_ratio * model_dim, 16))
        shape = DenseShape(layers=layers, model_dim=model_dim, ffn_dim=ffn_dim,
                           heads=model_dim // head_dim, head_dim=head_dim,
                           seq_len=seq_len)
        try:
            rel = abs(derive_budget(shape).total_params - target_params) / target_params
        except OverflowError:
            raise _too_large(layers) from None
        if best is None or (rel, layers) < (best[0], best[1]):
            best = (rel, layers, shape)
    assert best is not None
    rel, _, shape = best
    if rel > _DENSE_TOLERANCE:
        raise InfeasibleSpecError(
            f"no dense shape within {_DENSE_TOLERANCE:.0%} of N={target_params:.3g} at "
            f"aspect_ratio={aspect_ratio}, ffn_ratio={ffn_ratio}, head_dim={head_dim} "
            f"(closest miss {rel:.1%})")
    return shape
