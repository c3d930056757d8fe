"""Reference MoE block: softmax gate, Top-K routing, SwiGLU experts, shared
expert, load-balance loss, and a manual backward pass.

Everything runs in float64; this module is a verification artifact, not a
speed artifact. Routing uses non-normalized Top-K gating by default (the
selected softmax scores are used as-is); optional Top-K normalization rescales
the selected scores to sum to 1. The backward pass freezes the selected set
(straight-through on the Top-K mask) and differentiates through the full
softmax Jacobian restricted to the selected outputs, the expert weights, the
shared expert, and the input.

The block's parameters are one contiguous float64 vector ``theta`` with a
static ``Layout`` of (name, offset, shape) entries, in this order:
``gate.weight`` (experts, model_dim); ``experts.w_gate`` and ``experts.w_up``
(experts, expert_dim, model_dim); ``experts.w_down`` (experts, model_dim,
expert_dim); and, with a shared expert, ``shared.w_gate`` and ``shared.w_up``
(shared_dim, model_dim) and ``shared.w_down`` (model_dim, shared_dim). The
named arrays are views into theta, and gradients come back flat in the same
layout.

``moe_batch_forward`` is the one routing path. It records the batch's balance
statistics (``balance_stats``) in its cache, and their integer selection tallies
cut the expert spans: the (token, expert) selections are sorted by expert, tokens
ascending within each, x is gathered once, and each expert's matmuls run on its
contiguous slice of those rows. The outputs and input gradients go back in top_k
adds ranked by expert, so every token sums its experts in ascending order and
results are bit-stable across runs. The shared expert runs through the routed
experts' routine, one per direction, as one span over every token. The backward
adds the frozen-selection gradient of ``lam * balance_loss`` from the cache.

Both write their large arrays through ``out=`` into the ``Workspace`` the
caller passes to the forward (a fresh one if none), which the cache keeps for
the backward; ``y``, the cache and the gradients alias its buffers until the
next call on it. Writing through ``out=`` changes no operand or operation order.

The finite-difference oracle (``grad_check``) checks one backward pass per
trial against forward-only central differences over every entry of theta
followed by the input. Each part of the block runs once a trial over every copy
that needs it, each copy routed from its own scores: one gate pass over theta,
the input copies and the ``gate.weight`` copies, and one routed and one shared
pass over the input and its copies. A weight copy reruns only the product its
weight enters, from theta's silu(a), b and hidden, and is mixed from prefix sums
of theta's weighted expert outputs, adding the experts in ascending order. The
copies of one array are stacked and freed before the next array's are built. A
stack holds 2 * s copies of each block of s entries, 16 * s**2 bytes. The
largest is usually an ``experts.*`` stack, 16 * experts * (expert_dim *
model_dim)**2 bytes, or a ``shared.*`` one, 16 * (shared_dim * model_dim)**2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .arch import check_bounds, check_routing
from .errors import KernelError


def _as_matrix(name: str, arr: Any, shape: tuple[int, ...] | None = None) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if shape is not None and out.shape != shape:
        raise KernelError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise KernelError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class Layout:
    """Static (name, offset, shape) entries of a flat float64 vector."""

    entries: tuple[tuple[str, int, tuple[int, ...]], ...]

    @classmethod
    def of(cls, shapes: Sequence[tuple[str, tuple[int, ...]]]) -> Layout:
        """Entries packed back to back in the given order."""
        entries, offset = [], 0
        for name, shape in shapes:
            entries.append((name, offset, tuple(shape)))
            offset += math.prod(shape)
        return cls(tuple(entries))

    @property
    def size(self) -> int:
        return sum(math.prod(shape) for _, _, shape in self.entries)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a (..., size) array; the leading axes are kept."""
        lead = flat.shape[:-1]
        return {name: flat[..., off:off + math.prod(shape)].reshape(*lead, *shape)
                for name, off, shape in self.entries}

    def label(self, index: int) -> str:
        """``name[j]``: the entry holding flat index ``index``, and j within it."""
        for name, off, shape in self.entries:
            if index < off + math.prod(shape):
                return f"{name}[{index - off}]"
        raise IndexError(f"flat index {index} is outside a layout of size {self.size}")


def _block_shapes(experts: int, model_dim: int, expert_dim: int,
                  shared_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    shapes = [("gate.weight", (experts, model_dim)),
              ("experts.w_gate", (experts, expert_dim, model_dim)),
              ("experts.w_up", (experts, expert_dim, model_dim)),
              ("experts.w_down", (experts, model_dim, expert_dim))]
    if shared_dim > 0:
        shapes += [("shared.w_gate", (shared_dim, model_dim)),
                   ("shared.w_up", (shared_dim, model_dim)),
                   ("shared.w_down", (model_dim, shared_dim))]
    return shapes


def _block_layout(shapes: Mapping[str, tuple[int, ...]]) -> Layout:
    """The block layout of named shapes, checked to agree with each other."""
    gate, routed = shapes.get("gate.weight", ()), shapes.get("experts.w_gate", ())
    shared = shapes.get("shared.w_gate", (0, 0))
    if (len(gate), len(routed), len(shared)) != (2, 3, 2):
        raise KernelError("block parameters need a 2-D gate.weight, a 3-D experts.w_gate "
                          f"and a 2-D shared.w_gate if shared, got {dict(shapes)}")
    expected = _block_shapes(gate[0], gate[1], routed[1], shared[0])
    if set(shapes) != {name for name, _ in expected}:
        raise KernelError(f"block parameters must be {[name for name, _ in expected]}, "
                          f"got {sorted(shapes)}")
    for name, shape in expected:
        if tuple(shapes[name]) != shape:
            raise KernelError(f"{name} must have shape {shape}, got {tuple(shapes[name])}")
    return Layout.of(expected)


@dataclass(frozen=True, eq=False)
class BlockParams:
    """Block parameters: one flat float64 ``theta`` in the block ``layout``.

    ``views`` maps each parameter name to its array, a view into theta.
    Shapes, finiteness and routing are checked once, at construction; a
    caller that updates theta in place owns its finiteness from then on.
    """

    theta: np.ndarray
    layout: Layout
    top_k: int
    normalized: bool = False
    views: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        layout = _block_layout({name: shape for name, _, shape in self.layout.entries})
        if layout != self.layout:
            raise KernelError("block layout entries must be packed in canonical order")
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (layout.size,):
            raise KernelError(f"theta must have shape ({layout.size},), got {theta.shape}")
        bad = np.flatnonzero(~np.isfinite(theta))
        if bad.size:
            raise KernelError(f"{layout.label(int(bad[0]))} is not finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "views", layout.views(theta))
        check_routing(self.expert_count, self.top_k, self.normalized, KernelError)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, Any], top_k: int,
                    normalized: bool = False) -> BlockParams:
        """Copy named parameter arrays into one flat theta."""
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
        layout = _block_layout({name: arr.shape for name, arr in arrays.items()})
        theta = np.concatenate([arrays[name].ravel() for name, _, _ in layout.entries])
        return cls(theta, layout, top_k, normalized)

    @property
    def model_dim(self) -> int:
        return self.views["gate.weight"].shape[1]

    @property
    def expert_count(self) -> int:
        return self.views["gate.weight"].shape[0]


class Workspace:
    """Reusable buffers, one per name, reallocated when the shape changes. Arrays a
    call returns from its workspace (``y``, the cache, the gradients) stay valid
    until the next call on the same workspace, and must not be passed into one."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: Any = np.float64) -> np.ndarray:
        """The buffer ``name`` as the last call left it."""
        buf = self.buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self.buffers[name] = np.empty(shape, dtype)
        return buf

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self.get(name, shape)
        buf.fill(0.0)
        return buf


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
class BlockGrads:
    """Parameter gradients, flat in the block layout, and the input gradient."""

    theta: np.ndarray
    views: dict[str, np.ndarray]  # named views into theta
    x: np.ndarray


@dataclass
class SwiGLUCache:
    """An expert part's forward: span (e, lo, hi) ran expert e on rows lo:hi of x."""

    x: np.ndarray          # the rows the part saw
    spans: list[tuple[Any, int, int]]  # (expert, first row, end row) if it has rows
    up: np.ndarray         # b = x @ w_up.T
    silu: np.ndarray       # silu(a), a = x @ w_gate.T
    silu_grad: np.ndarray  # silu'(a)
    hidden: np.ndarray     # silu(a) * b
    out: np.ndarray        # hidden @ w_down.T; the shared part's is tmp, which the backward reuses


@dataclass
class BlockCache:
    """Forward state. Routed rows are grouped by expert, tokens ascending within
    each; ``rank[j, t]`` is the row of token t's j-th lowest selected expert."""

    x: np.ndarray             # (n, model_dim)
    scores: np.ndarray        # (n, experts)
    mask: np.ndarray          # (n, experts) bool, True on selected
    balance: BalanceStats     # of mask and scores
    gate_weights: np.ndarray  # (n, experts)
    selected_sum: np.ndarray  # (n, 1) sum of selected scores
    expert: np.ndarray        # (n * top_k,) expert of each routed row
    token: np.ndarray         # (n * top_k,) token of each routed row
    rank: np.ndarray          # (top_k, n)
    routed: SwiGLUCache       # over the routed rows, a span per expert with rows
    shared: SwiGLUCache | None  # over x, one span of every token
    workspace: Workspace      # holds the arrays above that the forward computed


def _sigmoid(z: np.ndarray, out: Any = None, scratch: Any = None) -> np.ndarray:
    # exp(-|z|) never overflows; the quotient is the sign-branched formula,
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, bit for bit
    e = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
    d = np.add(1.0, e, out=scratch)
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, d, out=e)


def _silu(z: np.ndarray) -> np.ndarray:
    return z * _sigmoid(z)


def _experts_forward(p: dict[str, np.ndarray], part: str, x: np.ndarray,
                     spans: list[tuple[Any, int, int]], ws: Workspace, name: str,
                     out: str) -> SwiGLUCache:
    """The ``part`` experts on their spans of rows ``x``, in buffers ``name.*`` and ``out``;
    silu'(a) = sig * (1 + a * (1 - sig)) from one sigmoid, begun in silu'(a)'s buffer."""
    w_gate, w_up, w_down = (p[f"{part}.{k}"] for k in ("w_gate", "w_up", "w_down"))
    shape = (x.shape[0], w_gate.shape[-2])
    a, b = ws.get(f"{name}.a", shape), ws.get(f"{name}.b", shape)
    for e, lo, hi in spans:
        np.matmul(x[lo:hi], w_gate[e].T, out=a[lo:hi])
        np.matmul(x[lo:hi], w_up[e].T, out=b[lo:hi])
    grad, hidden = ws.get(f"{name}.silu_grad", shape), ws.get(f"{name}.hidden", shape)
    sig = _sigmoid(a, out=grad, scratch=hidden)
    silu = np.multiply(a, sig, out=ws.get(f"{name}.silu", shape))
    np.multiply(a, np.subtract(1.0, sig, out=hidden), out=hidden)
    grad *= np.add(1.0, hidden, out=hidden)
    np.multiply(silu, b, out=hidden)
    result = ws.get(out, x.shape)
    for e, lo, hi in spans:
        np.matmul(hidden[lo:hi], w_down[e].T, out=result[lo:hi])
    return SwiGLUCache(x, spans, b, silu, grad, hidden, result)


def _experts_backward(p: dict[str, np.ndarray], g: dict[str, np.ndarray], part: str,
                      c: SwiGLUCache, de: np.ndarray, d_xs: np.ndarray, scratch: np.ndarray,
                      ws: Workspace, name: str) -> np.ndarray:
    """The ``part`` experts' weight gradients, written into ``g``, and ``d_xs``, dLoss/dx
    of their rows, given ``de`` = dLoss/d(out); ``scratch`` is as large as ``d_xs``."""
    w_gate, w_up, w_down = (p[f"{part}.{k}"] for k in ("w_gate", "w_up", "w_down"))
    dh = ws.get(f"{name}.dh", c.up.shape)
    for e, lo, hi in c.spans:
        np.matmul(de[lo:hi], w_down[e], out=dh[lo:hi])
    da = np.multiply(dh, c.up, out=ws.get(f"{name}.da", dh.shape))
    da *= c.silu_grad
    db = np.multiply(dh, c.silu, out=ws.get(f"{name}.db", dh.shape))
    for e, lo, hi in c.spans:
        g[f"{part}.w_down"][e] = de[lo:hi].T @ c.hidden[lo:hi]
        g[f"{part}.w_gate"][e] = da[lo:hi].T @ c.x[lo:hi]
        g[f"{part}.w_up"][e] = db[lo:hi].T @ c.x[lo:hi]
        np.matmul(da[lo:hi], w_gate[e], out=d_xs[lo:hi])
        d_xs[lo:hi] += np.matmul(db[lo:hi], w_up[e], out=scratch[lo:hi])
    return d_xs


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _top_k_mask(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Boolean selection mask over the last axis; ties break toward the lowest expert index."""
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :top_k].reshape(-1, top_k)
    mask = np.zeros(scores.shape, dtype=bool)
    mask.reshape(-1, scores.shape[-1])[np.arange(len(order))[:, None], order] = True
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


def moe_batch_forward(params: BlockParams, x: np.ndarray,
                      workspace: Workspace | None = None) -> tuple[np.ndarray, BlockCache]:
    """Evaluate the block on a (batch, model_dim) matrix of token activations.

    Only the selected experts run; the cache records the balance statistics and
    everything the backward pass needs, in ``workspace`` (a fresh one if None).
    """
    x = _as_matrix("x", x)
    if x.ndim != 2 or x.shape[1] != params.model_dim:
        raise KernelError(f"x must have shape (n, {params.model_dim}), got {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise KernelError("x must hold at least one token")
    ws = Workspace() if workspace is None else workspace
    p = params.views
    scores, mask, gate_weights, selected_sum = _batch_gate(p["gate.weight"], x, params.top_k,
                                                           params.normalized)
    balance = balance_stats(mask, scores)
    expert, token = np.nonzero(mask.T)  # grouped by expert, tokens ascending
    ends = np.cumsum(balance.selection_counts).tolist()
    spans = [(e, lo, hi) for e, (lo, hi) in enumerate(zip([0] + ends, ends)) if hi > lo]
    rank = np.argsort(token, kind="stable").reshape(n, params.top_k).T
    # take writes into out= unbuffered only outside mode="raise"; no index clips
    xs = np.take(x, token, axis=0, out=ws.get("xs", (token.size, x.shape[1])), mode="clip")
    routed = _experts_forward(p, "experts", xs, spans, ws, "routed", "out")
    weighted = np.multiply(gate_weights[token, expert][:, None], routed.out,
                           out=ws.get("weighted", xs.shape))
    # rank-ordered adds keep each token's ascending-expert addition order
    y, tmp = ws.zeros("y", x.shape), ws.get("tmp", x.shape)
    for rows in rank:
        y += np.take(weighted, rows, axis=0, out=tmp, mode="clip")
    shared = None
    if "shared.w_gate" in p:  # one span of every token; its index ... takes each whole weight
        shared = _experts_forward(p, "shared", x, [(..., 0, n)], ws, "shared", "tmp")
        y += shared.out
    cache = BlockCache(x=x, scores=scores, mask=mask, balance=balance,
                       gate_weights=gate_weights, selected_sum=selected_sum, expert=expert,
                       token=token, rank=rank, routed=routed, shared=shared, workspace=ws)
    return y, cache


def moe_batch_backward(params: BlockParams, cache: BlockCache, upstream: np.ndarray,
                       lam: float = 0.0) -> BlockGrads:
    """Gradients of the loss behind ``upstream`` (dLoss/dy, shape (batch, model_dim))
    plus ``lam * balance_loss``, under the frozen-selection convention."""
    upstream = _as_matrix("upstream", upstream, cache.x.shape)
    p, ws, x = params.views, cache.workspace, cache.x
    d_x, tmp, tmp2 = ws.zeros("d_x", x.shape), ws.get("tmp", x.shape), ws.get("tmp2", x.shape)
    d_theta = ws.zeros("d_theta", (params.layout.size,))
    g = params.layout.views(d_theta)

    if cache.shared is not None:
        d_x += _experts_backward(p, g, "shared", cache.shared, upstream, tmp, tmp2, ws, "shared")

    c, token, expert = cache.routed, cache.token, cache.expert
    dys = np.take(upstream, token, axis=0, out=ws.get("dys", c.x.shape), mode="clip")
    d_gate_weights = np.zeros_like(cache.gate_weights)
    d_gate_weights[token, expert] = np.einsum("nd,nd->n", dys, c.out)
    de = np.multiply(cache.gate_weights[token, expert][:, None], dys, out=dys)
    # de's rows are spent by the time a span's scratch is written, so de is the scratch
    d_xs = _experts_backward(p, g, "experts", c, de, ws.get("d_xs", c.x.shape), de, ws, "routed")
    for rows in cache.rank:
        d_x += np.take(d_xs, rows, axis=0, out=tmp, mode="clip")

    if params.normalized:
        # For selected scores, d g_j / d s_i = (delta_ij - g_j) / sum_selected;
        # written this way the expression is exactly zero when top_k == 1.
        inner = (d_gate_weights * cache.gate_weights).sum(axis=1, keepdims=True)
        d_scores = np.where(cache.mask, (d_gate_weights - inner) / cache.selected_sum, 0.0)
    else:
        d_scores = d_gate_weights  # zero off the selected set
    if lam:
        # d(balance)/d s_i(x) = experts * load_fraction_i / batch, selection frozen
        stats = cache.balance
        d_scores = d_scores + (lam * params.expert_count * stats.load_fraction
                               / stats.batch_size)[None, :]

    dot = (d_scores * cache.scores).sum(axis=1, keepdims=True)
    d_logits = cache.scores * (d_scores - dot)
    g["gate.weight"] += d_logits.T @ x
    d_x += np.matmul(d_logits, p["gate.weight"], out=tmp)

    return BlockGrads(theta=d_theta, views=g, x=d_x)


def selection_margin(cache: BlockCache) -> float:
    """Smallest gap between the weakest selected and strongest unselected score."""
    if cache.mask.all():
        return math.inf
    inside = np.where(cache.mask, cache.scores, np.inf).min(axis=1)
    outside = np.where(cache.mask, -np.inf, cache.scores).max(axis=1)
    return float((inside - outside).min())


def balance_stats(mask: np.ndarray, scores: np.ndarray) -> BalanceStats:
    """Exact load fractions, mean scores and balance loss of an (n, experts) routing."""
    mask, scores = np.asarray(mask, dtype=bool), np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or mask.shape != scores.shape:
        raise KernelError(f"mask and scores must share an (n, experts) shape, got "
                          f"{mask.shape} and {scores.shape}")
    n, experts = scores.shape
    if n == 0:
        raise KernelError("balance_stats requires a nonempty batch")
    counts = mask.sum(axis=0).astype(np.int64)
    load = counts / n
    mean_score = np.add.reduce(scores, axis=0) / n  # np.mean's bits
    loss = experts * float(np.dot(load, mean_score))
    return BalanceStats(load_fraction=load, mean_score=mean_score, balance_loss=loss,
                        batch_size=n, selection_counts=counts)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy in nats and its gradient with respect to the logits."""
    logits = _as_matrix("logits", logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise KernelError(
            f"logits must be (n, vocab) with matching targets, got {logits.shape} "
            f"and {targets.shape}")
    n, rows = logits.shape[0], np.arange(logits.shape[0])
    probs = logits - logits.max(axis=1, keepdims=True)  # one buffer: shifted, exp, probs
    picked = probs[rows, targets]
    np.exp(probs, out=probs)
    z = probs.sum(axis=1, keepdims=True)
    ce = float(np.mean(np.log(z[:, 0]) - picked))
    probs /= z
    probs[rows, targets] -= 1.0
    probs /= n
    return ce, probs


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------

def init_block_params(rng: np.random.Generator, experts: int, top_k: int,
                      model_dim: int, expert_dim: int, shared_dim: int = 0,
                      normalized: bool = False) -> BlockParams:
    """Random block parameters with 1/sqrt(fan_in) initialization.

    Draws one normal matrix per (rows, cols) slice in layout order; a stacked
    (experts, rows, cols) draw is the same stream as one draw per expert.
    """
    arrays = {name: rng.normal(0.0, 1.0 / math.sqrt(shape[-1]), size=shape)
              for name, shape in _block_shapes(experts, model_dim, expert_dim, shared_dim)}
    return BlockParams.from_arrays(arrays, top_k, normalized)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

# Grad-check tokens per trial, FD step scale, Top-K tie margin and draws per trial
_GC_BATCH = 2
_FD_STEP = 1e-5
_TIE_MARGIN = 1e-3
_MAX_DRAWS = 64


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
    lam: float = 0.01

    def __post_init__(self) -> None:
        check_bounds(self, KernelError, experts=">= 1", model_dim=">= 1", expert_dim=">= 1",
                     shared_dim=">= 0", seed=">= 0", trials=">= 1", lam=">= 0", tolerance="> 0")
        check_bounds(self, KernelError, tolerance="finite", lam="finite")


@dataclass(frozen=True)
class GradCheckTrial:
    trial: int
    max_rel_error: float
    worst_parameter: str

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


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
                "batch": _GC_BATCH, "lam": self.settings.lam,
            },
        }


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Relative error with an absolute floor: below the floor the comparison
    # degrades to |a - n| <= tol * 1e-3, which central differences resolve.
    return np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic),
                                                              np.abs(numeric)), 1e-3)


def _gate_terms(weight: np.ndarray, x: np.ndarray, top_k: int,
                normalized: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gate weights and balance loss of stacked copies, each routed from its own scores."""
    scores, mask, gate_weights, _ = _batch_gate(weight, x, top_k, normalized)
    n, experts = scores.shape[-2:]
    mean_score = np.add.reduce(scores, axis=-2) / n  # np.mean's bits, without its overhead
    return gate_weights, experts * (mask.sum(axis=-2) / n * mean_score).sum(axis=-1)


def _swiglu_parts(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
                  w_down: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """silu(a), b, hidden = silu(a) * b and hidden @ w_down.T, with a = x @ w_gate.T and
    b = x @ w_up.T, one matmul per stacked matrix."""
    silu, up = _silu(x @ w_gate.swapaxes(-1, -2)), x @ w_up.swapaxes(-1, -2)
    hidden = silu * up
    return silu, up, hidden, hidden @ w_down.swapaxes(-1, -2)


def _copies(array: np.ndarray, moved: np.ndarray, split: int) -> np.ndarray:
    """Copies of each block of ``array`` (a block per index of its first ``split``
    axes), stacked as (2, *blocks, size, *block shape): copy j of a block has its flat
    entry j set to the block's ``moved[:, j]``, with ``moved`` (2, array.size)."""
    lead, block = array.shape[:split], array.shape[split:]
    size = math.prod(block)
    copies = np.empty((2, *lead, size, size))
    copies[...] = array.reshape(*lead, 1, size)
    copies.reshape(2, *lead, size * size)[..., ::size + 1] = moved.reshape(2, *lead, size)
    return copies.reshape(2, *lead, size, *block)


def _weight_reruns(x: np.ndarray, weights: Sequence[np.ndarray],
                   parts: Sequence[np.ndarray], moved: Sequence[np.ndarray],
                   split: int) -> np.ndarray:
    """Outputs, stacked as (2, 3, *blocks, size, n, model_dim), of one SwiGLU's ``_copies``
    of each weight (w_gate, w_up, w_down) moved to ``moved[k]``; a copy reruns only the
    product its weight enters, taking theta's silu(a), b and hidden (``parts``)."""
    silu, up, hidden = (part[..., None, :, :] for part in parts)  # broadcast over copies
    w_down = weights[2][..., None, :, :].swapaxes(-1, -2)

    def rerun(k: int) -> np.ndarray:
        # the stack of copies is freed once this one product is taken
        product = (hidden if k == 2 else x) @ _copies(weights[k], moved[k], split).swapaxes(-1, -2)
        if k == 0:
            return (_silu(product) * up) @ w_down
        if k == 1:
            return (silu * product) @ w_down
        return product

    return np.stack([rerun(k) for k in range(3)], axis=1)


def _fd_totals(theta: np.ndarray, moved: np.ndarray, layout: Layout, probe: np.ndarray,
               lam: float, top_k: int, normalized: bool) -> np.ndarray:
    """sum(probe * y) + lam * balance_loss, forward only, of the 2P copies of the flat
    theta (block parameters, then the input x, in ``layout``) that move one entry j
    to ``moved[0, j]`` or ``moved[1, j]``; returned as (2, P).

    The passes are described in the module docstring. Every copy, routed from its
    own scores, mixes in every expert in ascending order by its gate weight, zero if
    unselected, as in ``moe_batch_forward``, so each total has the dense forward's bits.
    """
    p = layout.views(theta)
    moves = {name: moved[:, off:off + math.prod(shape)] for name, off, shape in layout.entries}
    x, gate = p["x"], p["gate.weight"]
    experts = gate.shape[0]
    routed, shared = ([name for name, _, _ in layout.entries if name.startswith(part)]
                      for part in ("experts.", "shared."))

    def total(y: np.ndarray, balance: np.ndarray) -> np.ndarray:
        return (probe * y).sum(axis=(-2, -1)) + lam * balance

    # rows: theta's x and the x copies under theta's gate.weight, then the
    # gate.weight copies under theta's x; row 0 is theta's
    xs = np.concatenate([x[None], _copies(x, moves["x"], 0).reshape(-1, *x.shape)])
    gates = _copies(gate, moves["gate.weight"], 0).reshape(-1, *gate.shape)
    gate_weights, balance = _gate_terms(
        np.concatenate([np.broadcast_to(gate, (len(xs), *gate.shape)), gates]),
        np.concatenate([xs, np.broadcast_to(x, (len(gates), *x.shape))]), top_k, normalized)
    # expert-major, (experts, rows, n, .): with at least two rows the expert axis is never
    # innermost, so each reduce adds the experts in ascending order, not pairwise
    mix = np.ascontiguousarray(gate_weights.transpose(2, 0, 1))[..., None]
    silu, up, hidden, out = _swiglu_parts(xs, *(p[k][:, None] for k in routed))
    y = np.concatenate([np.add.reduce(mix[:, :len(xs)] * out, axis=0, initial=0.0),
                        np.add.reduce(mix[:, len(xs):] * out[:, :1], axis=0, initial=0.0)])
    if shared:
        shared_silu, shared_up, shared_hidden, shared_out = _swiglu_parts(
            xs, *(p[k] for k in shared))
        y[:len(xs)] += shared_out
        y[len(xs):] += shared_out[0]
    rows = total(y, balance)
    totals = [rows[len(xs):].reshape(2, -1)]  # gate.weight

    # experts.* copies of expert e: prefix[e], their own term, then theta's later terms
    weighted = mix[:, 0] * out[:, 0]
    prefix = np.add.accumulate(np.concatenate([np.zeros((1, *x.shape)), weighted]))
    y = prefix[:experts, None] + mix[:, :1] * _weight_reruns(
        x, [p[k] for k in routed], (silu[:, 0], up[:, 0], hidden[:, 0]),
        [moves[k] for k in routed], 1)
    for i in range(1, experts):
        y[:, :, :i] += weighted[i]
    if shared:
        y += shared_out[0]
    totals.append(total(y, balance[0]).reshape(2, -1))
    if shared:  # shared.* copies: theta's whole routed mix, then their own output
        y = prefix[experts] + _weight_reruns(
            x, [p[k] for k in shared], (shared_silu[0], shared_up[0], shared_hidden[0]),
            [moves[k] for k in shared], 0)
        totals.append(total(y, balance[0]).reshape(2, -1))
    totals.append(rows[1:len(xs)].reshape(2, -1))  # x
    return np.concatenate(totals, axis=1)


def grad_check(settings: GradCheckSettings) -> GradCheckReport:
    """Compare the manual backward pass against central finite differences.

    Each trial draws fresh parameters, inputs and probe weights, skipping
    draws routed within ``_TIE_MARGIN`` of a Top-K tie so that the frozen
    selected set is locally constant; the backward pass runs on the cache of
    the forward that accepted the draw. Every parameter entry and every input
    entry is perturbed: theta is the block's flat parameters followed by x,
    and the 2P copies theta +- h e_j are evaluated forward only by
    ``_fd_totals``: one gate pass over theta, the x copies and the gate copies,
    one routed and one shared pass over x and its copies, and for each weight
    array a rerun of only the product it enters, from theta's intermediates.
    Every copy is routed from its own scores. Memory grows with the shape, one
    array's stack of copies at a time: an ``experts.*`` array's takes
    16 * experts * (expert_dim * model_dim)**2 bytes, 2.1 GB at 8 experts and
    model_dim = expert_dim = 64, and a ``shared.*`` one 16 * (shared_dim *
    model_dim)**2.
    """
    rng = np.random.default_rng(settings.seed)
    trials: list[GradCheckTrial] = []
    checked = 0
    for trial in range(settings.trials):
        params, x, probe, cache = _draw_non_tie_configuration(rng, settings)
        grads = moe_batch_backward(params, cache, probe, settings.lam)
        layout = Layout(params.layout.entries + (("x", params.layout.size, x.shape),))
        theta = np.concatenate([params.theta, x.ravel()])
        analytic = np.concatenate([grads.theta, grads.x.ravel()])
        h = _FD_STEP * np.maximum(1.0, np.abs(theta))
        totals = _fd_totals(theta, np.stack([theta + h, theta - h]), layout, probe,
                            settings.lam, params.top_k, params.normalized)
        errors = _rel_error(analytic, (totals[0] - totals[1]) / (2 * h))
        if not np.all(np.isfinite(errors)):  # NaN or inf in either gradient, or overflow
            raise KernelError(f"grad-check trial {trial}: the analytic or finite-difference "
                              f"gradient is not finite at lam {settings.lam}")
        checked += theta.size
        k = int(np.argmax(errors))  # the first entry with the largest error
        trials.append(GradCheckTrial(trial=trial, max_rel_error=float(errors[k]),
                                     worst_parameter=layout.label(k) if errors[k] > 0.0 else ""))
    return GradCheckReport(settings=settings, trials=tuple(trials), checked_entries=checked)


def _draw_non_tie_configuration(rng: np.random.Generator, settings: GradCheckSettings
                                ) -> tuple[BlockParams, np.ndarray, np.ndarray, BlockCache]:
    """Parameters, x and probe routed more than ``_TIE_MARGIN`` from a Top-K tie,
    with the forward cache of that routing, which owns a fresh workspace."""
    for _ in range(_MAX_DRAWS):
        params = init_block_params(rng, settings.experts, settings.top_k,
                                   settings.model_dim, settings.expert_dim,
                                   settings.shared_dim, settings.normalized)
        x = rng.normal(0.0, 1.0, size=(_GC_BATCH, settings.model_dim))
        probe = rng.normal(0.0, 1.0, size=(_GC_BATCH, settings.model_dim))
        _, cache = moe_batch_forward(params, x)
        if selection_margin(cache) > _TIE_MARGIN:
            return params, x, probe, cache
    raise KernelError(
        f"could not draw a configuration with selection margin > {_TIE_MARGIN} "
        f"after {_MAX_DRAWS} attempts")
