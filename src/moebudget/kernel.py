"""Reference MoE block: softmax gate, Top-K routing, SwiGLU experts, shared
expert, load-balance loss, and a manual backward pass.

Everything runs in float64; this module is a verification artifact, not a
speed artifact. Routing uses non-normalized Top-K gating by default (the
selected softmax scores are used as-is); optional Top-K normalization rescales
the selected scores to sum to 1. The backward pass freezes the selected set
(straight-through on the Top-K mask) and differentiates through the full
softmax Jacobian restricted to the selected outputs, the expert weights, the
shared expert, and the input.

Batch evaluation groups tokens by expert in ascending expert order and
accumulates gradients in that fixed order, so results are bit-stable across
runs.

The finite-difference oracle (``grad_check``) checks one backward pass per
trial against forward-only central differences, evaluated for all perturbed
copies of the flattened parameters and input in stacked chunks; each copy is
routed from its own scores.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

TIE_EPS = 1e-9


class KernelError(ValueError):
    """Invalid kernel parameters or mismatched operand shapes."""


class TieProximityWarning(UserWarning):
    """The Top-K selection boundary sits within TIE_EPS; gradients are unreliable."""


def _as_matrix(name: str, arr: Any, shape: tuple[int, ...] | None = None) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if shape is not None and out.shape != shape:
        raise KernelError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise KernelError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class GateParams:
    """Router weights, one row of logit weights per expert."""

    weight: np.ndarray  # (experts, model_dim)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", _as_matrix("gate weight", self.weight))
        if self.weight.ndim != 2:
            raise KernelError(f"gate weight must be 2-D, got {self.weight.ndim}-D")

    @property
    def experts(self) -> int:
        return self.weight.shape[0]

    @property
    def model_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class RoutedExperts:
    """Stacked SwiGLU weights for all routed experts (no biases)."""

    w_gate: np.ndarray  # (experts, expert_dim, model_dim)
    w_up: np.ndarray    # (experts, expert_dim, model_dim)
    w_down: np.ndarray  # (experts, model_dim, expert_dim)

    def __post_init__(self) -> None:
        w_gate = _as_matrix("expert w_gate", self.w_gate)
        if w_gate.ndim != 3:
            raise KernelError("expert weights must be stacked 3-D arrays")
        e, d_e, d_m = w_gate.shape
        object.__setattr__(self, "w_gate", w_gate)
        object.__setattr__(self, "w_up", _as_matrix("expert w_up", self.w_up, (e, d_e, d_m)))
        object.__setattr__(self, "w_down", _as_matrix("expert w_down", self.w_down, (e, d_m, d_e)))

    @property
    def count(self) -> int:
        return self.w_gate.shape[0]


@dataclass(frozen=True)
class SharedExpert:
    """One always-active SwiGLU expert, added to the output ungated."""

    w_gate: np.ndarray  # (shared_dim, model_dim)
    w_up: np.ndarray    # (shared_dim, model_dim)
    w_down: np.ndarray  # (model_dim, shared_dim)

    def __post_init__(self) -> None:
        w_gate = _as_matrix("shared w_gate", self.w_gate)
        if w_gate.ndim != 2:
            raise KernelError("shared expert weights must be 2-D")
        d_se, d_m = w_gate.shape
        object.__setattr__(self, "w_gate", w_gate)
        object.__setattr__(self, "w_up", _as_matrix("shared w_up", self.w_up, (d_se, d_m)))
        object.__setattr__(self, "w_down", _as_matrix("shared w_down", self.w_down, (d_m, d_se)))


@dataclass(frozen=True)
class BlockParams:
    gate: GateParams
    experts: RoutedExperts
    shared: SharedExpert | None
    top_k: int
    normalized: bool = False

    def __post_init__(self) -> None:
        e = self.gate.experts
        if self.experts.count != e:
            raise KernelError(f"gate has {e} experts but weights stack {self.experts.count}")
        if self.experts.w_gate.shape[2] != self.gate.model_dim:
            raise KernelError("expert weights and gate disagree on model_dim")
        if self.shared is not None and self.shared.w_gate.shape[1] != self.gate.model_dim:
            raise KernelError("shared expert and gate disagree on model_dim")
        if not 1 <= self.top_k <= e:
            raise KernelError(f"top_k must be in [1, {e}], got {self.top_k}")
        # One renormalized score is the constant 1 and has zero gradient.
        if self.normalized and self.top_k < 2:
            raise KernelError("normalized gating requires top_k >= 2")

    @property
    def model_dim(self) -> int:
        return self.gate.model_dim

    @property
    def expert_count(self) -> int:
        return self.gate.experts


@dataclass(frozen=True)
class GateOutput:
    """Routing result for one token."""

    scores: np.ndarray        # (experts,) softmax probabilities
    selected: tuple[int, ...]  # indices of the top_k largest scores
    gate_weights: np.ndarray  # (experts,) zero off the selected set
    normalized: bool


@dataclass(frozen=True)
class BalanceStats:
    """Batch-level routing statistics and the load-balance loss.

    ``selection_counts`` keeps the integer selection tallies so that the
    exact identity sum(load_fraction) == top_k survives float rounding:
    ``load_fraction_total`` divides the exact integer total by the batch size.
    """

    load_fraction: np.ndarray   # (experts,) fraction of tokens routed to each
    mean_score: np.ndarray      # (experts,) mean softmax score
    balance_loss: float
    batch_size: int
    selection_counts: np.ndarray  # (experts,) integer tallies

    @property
    def load_fraction_total(self) -> float:
        return float(int(self.selection_counts.sum()) / self.batch_size)


@dataclass(frozen=True)
class LossBundle:
    ce_loss: float
    balance_loss: float
    lam: float
    total: float


@dataclass(frozen=True)
class BlockGrads:
    gate_weight: np.ndarray
    expert_w_gate: np.ndarray
    expert_w_up: np.ndarray
    expert_w_down: np.ndarray
    shared_w_gate: np.ndarray | None
    shared_w_up: np.ndarray | None
    shared_w_down: np.ndarray | None
    x: np.ndarray


@dataclass
class _ExpertCache:
    token_idx: np.ndarray
    pre_gate: np.ndarray   # a = x @ w_gate.T
    pre_up: np.ndarray     # b = x @ w_up.T
    hidden: np.ndarray     # silu(a) * b
    out: np.ndarray        # hidden @ w_down.T


@dataclass
class BlockCache:
    x: np.ndarray             # (n, model_dim)
    scores: np.ndarray        # (n, experts)
    mask: np.ndarray          # (n, experts) bool, True on selected
    gate_weights: np.ndarray  # (n, experts)
    selected_sum: np.ndarray  # (n, 1) sum of selected scores
    per_expert: dict[int, _ExpertCache]
    shared_pre_gate: np.ndarray | None
    shared_pre_up: np.ndarray | None
    shared_hidden: np.ndarray | None

    @property
    def eval_counts(self) -> np.ndarray:
        """Routed-expert evaluations per expert; sums to top_k * batch."""
        return self.mask.sum(axis=0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side of the select is the sign-branched
    # formula, 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, bit for bit
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _silu(z: np.ndarray) -> np.ndarray:
    return z * _sigmoid(z)


def _silu_grad(z: np.ndarray) -> np.ndarray:
    sig = _sigmoid(z)
    return sig * (1.0 + z * (1.0 - sig))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _top_k_mask(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Boolean selection mask over the last axis; ties break toward the lowest expert index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :top_k], True, axis=-1)
    return mask


def _batch_gate(weight: np.ndarray, x: np.ndarray, top_k: int,
                normalized: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scores, mask, gate weights and selected-score sums of (..., n, model_dim) tokens."""
    scores = _softmax_rows(x @ np.swapaxes(weight, -1, -2))
    mask = _top_k_mask(scores, top_k)
    selected = np.where(mask, scores, 0.0)
    selected_sum = selected.sum(axis=-1, keepdims=True)
    if normalized:
        gate_weights = selected / selected_sum
    else:
        gate_weights = selected
    return scores, mask, gate_weights, selected_sum


def gate_forward(gate: GateParams, x: np.ndarray, top_k: int,
                 normalized: bool = False) -> GateOutput:
    """Route one token: softmax scores, Top-K selection, gate weights."""
    params = BlockParams(
        gate=gate,
        experts=RoutedExperts(
            w_gate=np.zeros((gate.experts, 1, gate.model_dim)),
            w_up=np.zeros((gate.experts, 1, gate.model_dim)),
            w_down=np.zeros((gate.experts, gate.model_dim, 1)),
        ),
        shared=None, top_k=top_k, normalized=normalized,
    )
    x = _as_matrix("x", x)
    if x.shape != (gate.model_dim,):
        raise KernelError(f"x must have shape ({gate.model_dim},), got {x.shape}")
    scores, mask, gate_weights, _ = _batch_gate(gate.weight, x[None, :], top_k, normalized)
    selected = tuple(int(i) for i in np.nonzero(mask[0])[0])
    return GateOutput(scores=scores[0], selected=selected,
                      gate_weights=gate_weights[0], normalized=normalized)


def moe_batch_forward(params: BlockParams, x: np.ndarray) -> tuple[np.ndarray, BlockCache]:
    """Evaluate the block on a (batch, model_dim) matrix of token activations.

    Only the selected experts run; the cache records everything the backward
    pass needs.
    """
    x = _as_matrix("x", x)
    if x.ndim != 2 or x.shape[1] != params.model_dim:
        raise KernelError(f"x must have shape (n, {params.model_dim}), got {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise KernelError("x must hold at least one token")
    scores, mask, gate_weights, selected_sum = _batch_gate(params.gate.weight, x, params.top_k,
                                                           params.normalized)
    y = np.zeros_like(x)
    per_expert: dict[int, _ExpertCache] = {}
    for i in range(params.expert_count):
        idx = np.nonzero(mask[:, i])[0]
        if idx.size == 0:
            continue
        xi = x[idx]
        a = xi @ params.experts.w_gate[i].T
        b = xi @ params.experts.w_up[i].T
        hidden = _silu(a) * b
        out = hidden @ params.experts.w_down[i].T
        y[idx] += gate_weights[idx, i, None] * out
        per_expert[i] = _ExpertCache(token_idx=idx, pre_gate=a, pre_up=b,
                                     hidden=hidden, out=out)
    shared_a = shared_b = shared_h = None
    if params.shared is not None:
        shared_a = x @ params.shared.w_gate.T
        shared_b = x @ params.shared.w_up.T
        shared_h = _silu(shared_a) * shared_b
        y += shared_h @ params.shared.w_down.T
    cache = BlockCache(x=x, scores=scores, mask=mask, gate_weights=gate_weights,
                       selected_sum=selected_sum, per_expert=per_expert,
                       shared_pre_gate=shared_a, shared_pre_up=shared_b,
                       shared_hidden=shared_h)
    return y, cache


def gate_outputs_from_cache(cache: BlockCache, normalized: bool) -> list[GateOutput]:
    return [
        GateOutput(
            scores=cache.scores[t],
            selected=tuple(int(i) for i in np.nonzero(cache.mask[t])[0]),
            gate_weights=cache.gate_weights[t],
            normalized=normalized,
        )
        for t in range(cache.scores.shape[0])
    ]


def moe_batch_backward(params: BlockParams, cache: BlockCache, upstream: np.ndarray,
                       extra_score_grad: np.ndarray | None = None) -> BlockGrads:
    """Backward pass under the frozen-selection convention.

    ``upstream`` is dLoss/dy, shape (batch, model_dim). ``extra_score_grad``
    is an optional (experts,) vector added to dLoss/dscores for every token;
    the balance loss contributes through it.
    """
    upstream = _as_matrix("upstream", upstream, cache.x.shape)
    x = cache.x
    d_x = np.zeros_like(x)
    d_gate_w = np.zeros_like(params.gate.weight)
    d_eg = np.zeros_like(params.experts.w_gate)
    d_eu = np.zeros_like(params.experts.w_up)
    d_ed = np.zeros_like(params.experts.w_down)
    d_sg = d_su = d_sd = None

    if params.shared is not None:
        dh = upstream @ params.shared.w_down
        da = dh * cache.shared_pre_up * _silu_grad(cache.shared_pre_gate)
        db = dh * _silu(cache.shared_pre_gate)
        d_sd = upstream.T @ cache.shared_hidden
        d_sg = da.T @ x
        d_su = db.T @ x
        d_x += da @ params.shared.w_gate + db @ params.shared.w_up

    d_gate_weights = np.zeros_like(cache.gate_weights)
    for i, ec in sorted(cache.per_expert.items()):
        idx = ec.token_idx
        dy_i = upstream[idx]
        d_gate_weights[idx, i] = np.einsum("nd,nd->n", dy_i, ec.out)
        de = cache.gate_weights[idx, i, None] * dy_i
        d_ed[i] = de.T @ ec.hidden
        dh = de @ params.experts.w_down[i]
        da = dh * ec.pre_up * _silu_grad(ec.pre_gate)
        db = dh * _silu(ec.pre_gate)
        d_eg[i] = da.T @ x[idx]
        d_eu[i] = db.T @ x[idx]
        d_x[idx] += da @ params.experts.w_gate[i] + db @ params.experts.w_up[i]

    if params.normalized:
        # For selected scores, d g_j / d s_i = (delta_ij - g_j) / sum_selected;
        # written this way the expression is exactly zero when top_k == 1.
        inner = (d_gate_weights * cache.gate_weights).sum(axis=1, keepdims=True)
        d_scores = np.where(cache.mask, (d_gate_weights - inner) / cache.selected_sum, 0.0)
    else:
        d_scores = np.where(cache.mask, d_gate_weights, 0.0)
    if extra_score_grad is not None:
        d_scores = d_scores + np.asarray(extra_score_grad, dtype=np.float64)[None, :]

    dot = (d_scores * cache.scores).sum(axis=1, keepdims=True)
    d_logits = cache.scores * (d_scores - dot)
    d_gate_w += d_logits.T @ x
    d_x += d_logits @ params.gate.weight

    return BlockGrads(gate_weight=d_gate_w, expert_w_gate=d_eg, expert_w_up=d_eu,
                      expert_w_down=d_ed, shared_w_gate=d_sg, shared_w_up=d_su,
                      shared_w_down=d_sd, x=d_x)


def moe_block_forward(params: BlockParams, x: np.ndarray) -> tuple[np.ndarray, GateOutput]:
    """Single-token block output and routing result."""
    x = _as_matrix("x", x)
    if x.shape != (params.model_dim,):
        raise KernelError(f"x must have shape ({params.model_dim},), got {x.shape}")
    y, cache = moe_batch_forward(params, x[None, :])
    return y[0], gate_outputs_from_cache(cache, params.normalized)[0]


def selection_margin(cache: BlockCache) -> float:
    """Smallest gap between the weakest selected and strongest unselected score."""
    if cache.mask.all():
        return math.inf
    inside = np.where(cache.mask, cache.scores, np.inf).min(axis=1)
    outside = np.where(cache.mask, -np.inf, cache.scores).max(axis=1)
    return float((inside - outside).min())


def moe_block_backward(params: BlockParams, x: np.ndarray,
                       upstream: np.ndarray) -> BlockGrads:
    """Single-token gradients of ``upstream . y`` for all parameters and x."""
    x = _as_matrix("x", x)
    upstream = _as_matrix("upstream", upstream, (params.model_dim,))
    _, cache = moe_batch_forward(params, x[None, :])
    if selection_margin(cache) <= TIE_EPS:
        warnings.warn("Top-K selection is within TIE_EPS of a tie; "
                      "frozen-selection gradients are unreliable here",
                      TieProximityWarning, stacklevel=2)
    return moe_batch_backward(params, cache, upstream[None, :])


def balance_stats(gate_outputs: Sequence[GateOutput]) -> BalanceStats:
    """Exact load fractions, mean scores and balance loss for a batch."""
    if len(gate_outputs) == 0:
        raise KernelError("balance_stats requires a nonempty batch")
    experts = gate_outputs[0].scores.shape[0]
    counts = np.zeros(experts, dtype=np.int64)
    scores = np.zeros((len(gate_outputs), experts))
    for t, out in enumerate(gate_outputs):
        if out.scores.shape[0] != experts:
            raise KernelError("gate outputs disagree on the number of experts")
        counts[list(out.selected)] += 1
        scores[t] = out.scores
    return _balance_from_counts(counts, scores)


def _balance_from_counts(counts: np.ndarray, scores: np.ndarray) -> BalanceStats:
    n = scores.shape[0]
    experts = scores.shape[1]
    load = counts / n
    mean_score = scores.mean(axis=0)
    loss = experts * float(np.dot(load, mean_score))
    return BalanceStats(load_fraction=load, mean_score=mean_score, balance_loss=loss,
                        batch_size=n, selection_counts=counts)


def balance_stats_from_cache(cache: BlockCache) -> BalanceStats:
    return _balance_from_counts(cache.mask.sum(axis=0).astype(np.int64), cache.scores)


def total_loss(logits: np.ndarray, targets: np.ndarray, balance: BalanceStats,
               lam: float) -> LossBundle:
    """Mean token cross-entropy (nats) plus lam times the balance loss."""
    if lam < 0:
        raise KernelError(f"lam must be >= 0, got {lam}")
    ce, _ = softmax_cross_entropy(logits, targets)
    return LossBundle(ce_loss=ce, balance_loss=balance.balance_loss, lam=lam,
                      total=ce + lam * balance.balance_loss)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy in nats and its gradient with respect to the logits."""
    logits = _as_matrix("logits", logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise KernelError(
            f"logits must be (n, vocab) with matching targets, got {logits.shape} "
            f"and {targets.shape}")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(n), targets]
    ce = float(np.mean(log_z - picked))
    probs = _softmax_rows(logits)
    probs[np.arange(n), targets] -= 1.0
    return ce, probs / n


def probe_total_and_grads(params: BlockParams, x: np.ndarray, probe: np.ndarray,
                          lam: float = 0.0) -> tuple[float, BlockGrads, BalanceStats]:
    """Scalar probe sum(probe * y) + lam * balance_loss and its exact gradients."""
    y, cache = moe_batch_forward(params, x)
    stats = balance_stats_from_cache(cache)
    total = float(np.sum(probe * y)) + lam * stats.balance_loss
    extra = None
    if lam != 0.0:
        # d(balance)/d s_i(x) = experts * load_fraction_i / batch, selection frozen
        extra = lam * params.expert_count * stats.load_fraction / stats.batch_size
    grads = moe_batch_backward(params, cache, probe, extra_score_grad=extra)
    return total, grads, stats


# ---------------------------------------------------------------------------
# Parameter construction, flattening, checkpoints
# ---------------------------------------------------------------------------

def init_block_params(rng: np.random.Generator, experts: int, top_k: int,
                      model_dim: int, expert_dim: int, shared_dim: int = 0,
                      normalized: bool = False, scale: float = 1.0) -> BlockParams:
    """Random block parameters with 1/sqrt(fan_in) initialization."""
    def mat(rows: int, cols: int) -> np.ndarray:
        return rng.normal(0.0, scale / math.sqrt(cols), size=(rows, cols))

    gate = GateParams(weight=mat(experts, model_dim))
    routed = RoutedExperts(
        w_gate=np.stack([mat(expert_dim, model_dim) for _ in range(experts)]),
        w_up=np.stack([mat(expert_dim, model_dim) for _ in range(experts)]),
        w_down=np.stack([mat(model_dim, expert_dim) for _ in range(experts)]),
    )
    shared = None
    if shared_dim > 0:
        shared = SharedExpert(w_gate=mat(shared_dim, model_dim),
                              w_up=mat(shared_dim, model_dim),
                              w_down=mat(model_dim, shared_dim))
    return BlockParams(gate=gate, experts=routed, shared=shared,
                       top_k=top_k, normalized=normalized)


def named_parameters(params: BlockParams) -> list[tuple[str, np.ndarray]]:
    """Deterministically ordered (name, array) view of all block parameters."""
    out = [
        ("gate.weight", params.gate.weight),
        ("experts.w_gate", params.experts.w_gate),
        ("experts.w_up", params.experts.w_up),
        ("experts.w_down", params.experts.w_down),
    ]
    if params.shared is not None:
        out += [
            ("shared.w_gate", params.shared.w_gate),
            ("shared.w_up", params.shared.w_up),
            ("shared.w_down", params.shared.w_down),
        ]
    return out


def named_gradients(params: BlockParams, grads: BlockGrads) -> list[tuple[str, np.ndarray]]:
    out = [
        ("gate.weight", grads.gate_weight),
        ("experts.w_gate", grads.expert_w_gate),
        ("experts.w_up", grads.expert_w_up),
        ("experts.w_down", grads.expert_w_down),
    ]
    if params.shared is not None:
        out += [
            ("shared.w_gate", grads.shared_w_gate),
            ("shared.w_up", grads.shared_w_up),
            ("shared.w_down", grads.shared_w_down),
        ]
    return out


def replace_parameter(params: BlockParams, name: str, array: np.ndarray) -> BlockParams:
    """Copy of the block with one named parameter array swapped out."""
    gate, experts, shared = params.gate, params.experts, params.shared
    if name == "gate.weight":
        gate = GateParams(weight=array)
    elif name.startswith("experts."):
        kwargs = {"w_gate": experts.w_gate, "w_up": experts.w_up, "w_down": experts.w_down}
        kwargs[name.split(".", 1)[1]] = array
        experts = RoutedExperts(**kwargs)
    elif name.startswith("shared."):
        if shared is None:
            raise KernelError("block has no shared expert")
        kwargs = {"w_gate": shared.w_gate, "w_up": shared.w_up, "w_down": shared.w_down}
        kwargs[name.split(".", 1)[1]] = array
        shared = SharedExpert(**kwargs)
    else:
        raise KernelError(f"unknown parameter name {name!r}")
    return BlockParams(gate=gate, experts=experts, shared=shared,
                       top_k=params.top_k, normalized=params.normalized)


def save_checkpoint(params: BlockParams, path: str | Path, seed: int | None = None) -> None:
    """Flat JSON manifest: name -> {shape, row-major float64 data}."""
    manifest: dict[str, Any] = {
        "seed": seed,
        "top_k": params.top_k,
        "normalized": params.normalized,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in named_parameters(params)
        },
    }
    Path(path).write_text(json.dumps(manifest, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[BlockParams, int | None]:
    manifest = json.loads(Path(path).read_text())
    arrays = {
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in manifest["params"].items()
    }
    shared = None
    if "shared.w_gate" in arrays:
        shared = SharedExpert(w_gate=arrays["shared.w_gate"], w_up=arrays["shared.w_up"],
                              w_down=arrays["shared.w_down"])
    params = BlockParams(
        gate=GateParams(weight=arrays["gate.weight"]),
        experts=RoutedExperts(w_gate=arrays["experts.w_gate"], w_up=arrays["experts.w_up"],
                              w_down=arrays["experts.w_down"]),
        shared=shared, top_k=int(manifest["top_k"]),
        normalized=bool(manifest["normalized"]),
    )
    return params, manifest.get("seed")


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckSettings:
    experts: int = 4
    top_k: int = 2
    model_dim: int = 5
    expert_dim: int = 3
    shared_dim: int = 0
    normalized: bool = False
    seed: int = 0
    trials: int = 20
    tolerance: float = 1e-5
    batch: int = 2
    lam: float = 0.01
    step: float = 1e-5       # scaled per entry by max(1, |theta|)
    tie_margin: float = 1e-3  # configurations routed this close to a tie are resampled

    def __post_init__(self) -> None:
        # a NaN fails every comparison, so it is rejected too
        for name, ok, rule in (("trials", self.trials >= 1, ">= 1"),
                               ("batch", self.batch >= 1, ">= 1"),
                               ("lam", self.lam >= 0, ">= 0"),
                               ("tolerance", self.tolerance > 0, "> 0"),
                               ("step", self.step > 0, "> 0")):
            if not ok:
                raise KernelError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class GradCheckTrial:
    trial: int
    max_rel_error: float
    worst_parameter: str

    def to_json_dict(self) -> dict[str, Any]:
        return {"trial": self.trial, "max_rel_error": self.max_rel_error,
                "worst_parameter": self.worst_parameter}


@dataclass(frozen=True)
class GradCheckReport:
    settings: GradCheckSettings
    trials: tuple[GradCheckTrial, ...]
    checked_entries: int

    @property
    def max_rel_error(self) -> float:
        return max(t.max_rel_error for t in self.trials)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.settings.tolerance

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "max_rel_error": self.max_rel_error,
            "tolerance": self.settings.tolerance,
            "trials": [t.to_json_dict() for t in self.trials],
            "checked_entries": self.checked_entries,
            "settings": {
                "experts": self.settings.experts, "top_k": self.settings.top_k,
                "model_dim": self.settings.model_dim, "expert_dim": self.settings.expert_dim,
                "shared_dim": self.settings.shared_dim, "normalized": self.settings.normalized,
                "seed": self.settings.seed, "trials": self.settings.trials,
                "batch": self.settings.batch, "lam": self.settings.lam,
            },
        }


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Relative error with an absolute floor: below the floor the comparison
    # degrades to |a - n| <= tol * 1e-3, which central differences resolve.
    return np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic),
                                                              np.abs(numeric)), 1e-3)


# Perturbed copies per stacked forward: scratch memory grows as _FD_CHUNK * P
# instead of 2P * P for P checked entries.
_FD_CHUNK = 128


def _stacked_totals(thetas: np.ndarray, layout: Sequence[tuple[str, int, tuple[int, ...]]],
                    probe: np.ndarray, lam: float, top_k: int, normalized: bool) -> np.ndarray:
    """sum(probe * y) + lam * balance_loss for every row of ``thetas``, forward only.

    Each row holds the block parameters and the input x, flattened in
    ``layout`` order. Every copy is routed from its own scores; the routed
    experts run densely, masked by their zero gate weights, and are mixed in
    ascending expert order like ``moe_batch_forward``.
    """
    c = thetas.shape[0]
    p = {name: thetas[:, off:off + math.prod(shape)].reshape(c, *shape)
         for name, off, shape in layout}
    x = p["x"]
    scores, mask, gate_weights, _ = _batch_gate(p["gate.weight"], x, top_k, normalized)
    xe = x[:, None]
    hidden = _silu(xe @ p["experts.w_gate"].swapaxes(-1, -2)) \
        * (xe @ p["experts.w_up"].swapaxes(-1, -2))
    out = hidden @ p["experts.w_down"].swapaxes(-1, -2)  # (c, experts, n, model_dim)
    y = np.zeros_like(x)
    for i in range(out.shape[1]):
        y += gate_weights[..., i, None] * out[:, i]
    if "shared.w_gate" in p:
        shared_h = _silu(x @ p["shared.w_gate"].swapaxes(-1, -2)) \
            * (x @ p["shared.w_up"].swapaxes(-1, -2))
        y += shared_h @ p["shared.w_down"].swapaxes(-1, -2)
    n, experts = scores.shape[-2:]
    balance = experts * (mask.sum(axis=-2) / n * scores.mean(axis=-2)).sum(axis=-1)
    return (probe * y).sum(axis=(-2, -1)) + lam * balance


def grad_check(settings: GradCheckSettings) -> GradCheckReport:
    """Compare the manual backward pass against central finite differences.

    Each trial draws fresh parameters, inputs and probe weights, skipping
    draws routed within ``tie_margin`` of a Top-K tie so that the frozen
    selected set is locally constant. Every parameter entry and every input
    entry is perturbed: the parameters and x are flattened into one vector
    theta, and the 2P copies theta +- h e_j are evaluated forward only, in
    stacked chunks of ``_FD_CHUNK`` copies, each routed from its own scores.
    """
    rng = np.random.default_rng(settings.seed)
    trials: list[GradCheckTrial] = []
    checked = 0
    for trial in range(settings.trials):
        params, x, probe = _draw_non_tie_configuration(rng, settings)
        _, grads, _ = probe_total_and_grads(params, x, probe, settings.lam)
        named = named_parameters(params) + [("x", x)]
        offsets = np.cumsum([0] + [arr.size for _, arr in named])
        layout = [(name, int(off), arr.shape) for (name, arr), off in zip(named, offsets)]
        theta = np.concatenate([arr.ravel() for _, arr in named])
        analytic = np.concatenate([g.ravel() for _, g in named_gradients(params, grads)]
                                  + [grads.x.ravel()])
        h = settings.step * np.maximum(1.0, np.abs(theta))
        bumped = np.concatenate([theta + h, theta - h])
        totals = np.empty_like(bumped)
        for start in range(0, bumped.size, _FD_CHUNK):
            rows = np.arange(start, min(start + _FD_CHUNK, bumped.size))
            copies = np.tile(theta, (rows.size, 1))
            copies[np.arange(rows.size), rows % theta.size] = bumped[rows]
            totals[rows] = _stacked_totals(copies, layout, probe, settings.lam,
                                           params.top_k, params.normalized)
        errors = _rel_error(analytic, (totals[:theta.size] - totals[theta.size:]) / (2 * h))
        checked += theta.size
        k = int(np.argmax(errors))  # the first entry with the largest error
        worst_name = ""
        if errors[k] > 0.0:
            name, off, _ = layout[int(np.searchsorted(offsets, k, side="right")) - 1]
            worst_name = f"{name}[{k - off}]"
        trials.append(GradCheckTrial(trial=trial, max_rel_error=float(errors[k]),
                                     worst_parameter=worst_name))
    return GradCheckReport(settings=settings, trials=tuple(trials), checked_entries=checked)


def _draw_non_tie_configuration(rng: np.random.Generator, settings: GradCheckSettings,
                                max_attempts: int = 64) -> tuple[BlockParams, np.ndarray, np.ndarray]:
    for _ in range(max_attempts):
        params = init_block_params(rng, settings.experts, settings.top_k,
                                   settings.model_dim, settings.expert_dim,
                                   settings.shared_dim, settings.normalized)
        x = rng.normal(0.0, 1.0, size=(settings.batch, settings.model_dim))
        probe = rng.normal(0.0, 1.0, size=(settings.batch, settings.model_dim))
        _, cache = moe_batch_forward(params, x)
        if selection_margin(cache) > settings.tie_margin:
            return params, x, probe
    raise KernelError(
        f"could not draw a configuration with selection margin > {settings.tie_margin} "
        f"after {max_attempts} attempts")
