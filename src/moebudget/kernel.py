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
named arrays are views into theta, gradients come back flat in the same
layout, and a checkpoint stores the named arrays.

``moe_batch_forward`` is the one routing path. It records the batch's
balance statistics (``balance_stats``) in its cache, and their integer
selection tallies cut the expert spans: the (token, expert) selections are
sorted by expert, tokens ascending within each, x is gathered once, and each
expert's matmuls run on its contiguous slice of those rows. The outputs and
input gradients go back in top_k adds ranked by expert, so every token sums
its experts in ascending order and results are bit-stable across runs.
``moe_batch_backward`` takes the balance-loss weight ``lam`` and adds the
frozen-selection gradient of ``lam * balance_loss`` from the cached statistics.

Both write their large arrays through ``out=`` into the ``Workspace`` the
caller passes to the forward (a fresh one if none), which the cache keeps for
the backward; ``y``, the cache and the gradients alias its buffers until the
next call on it. Writing through ``out=`` changes no operand or operation order.

The finite-difference oracle (``grad_check``) checks one backward pass per
trial against forward-only central differences, evaluated for all perturbed
copies of theta followed by the input in stacked chunks; each copy is routed
from its own scores.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .arch import json_value
from .errors import KernelError

TIE_EPS = 1e-9


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


def _check_routing(experts: int, top_k: int, normalized: bool) -> None:
    if not 1 <= top_k <= experts:
        raise KernelError(f"top_k must be in [1, {experts}], got {top_k}")
    # One renormalized score is the constant 1 and has zero gradient.
    if normalized and top_k < 2:
        raise KernelError("normalized gating requires top_k >= 2")


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
        _check_routing(self.expert_count, self.top_k, self.normalized)

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
    """What the backward pass needs of silu(x @ w_gate.T) * (x @ w_up.T)."""

    x: np.ndarray          # the rows the SwiGLU saw
    up: np.ndarray         # b = x @ w_up.T
    silu: np.ndarray       # silu(a), a = x @ w_gate.T
    silu_grad: np.ndarray  # silu'(a)
    hidden: np.ndarray     # silu(a) * b


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
    spans: list[tuple[int, int, int]]  # (expert, first row, end row) if it has rows
    rank: np.ndarray          # (top_k, n)
    routed: SwiGLUCache       # over the routed rows
    out: np.ndarray           # (n * top_k, model_dim) routed expert outputs
    shared: SwiGLUCache | None
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


def _swiglu(x: np.ndarray, a: np.ndarray, b: np.ndarray, ws: Workspace,
            name: str) -> SwiGLUCache:
    """silu(a) * b from one sigmoid of a, with silu'(a) = sig * (1 + a * (1 - sig))
    kept for the backward pass; sig starts in silu'(a)'s buffer."""
    grad, hidden = ws.get(f"{name}.silu_grad", a.shape), ws.get(f"{name}.hidden", a.shape)
    sig = _sigmoid(a, out=grad, scratch=hidden)
    silu = np.multiply(a, sig, out=ws.get(f"{name}.silu", a.shape))
    np.multiply(a, np.subtract(1.0, sig, out=hidden), out=hidden)
    grad *= np.add(1.0, hidden, out=hidden)
    return SwiGLUCache(x=x, up=b, silu=silu, silu_grad=grad,
                       hidden=np.multiply(silu, b, out=hidden))


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
    hidden_shape = (token.size, p["experts.w_gate"].shape[1])
    a, b = ws.get("routed.a", hidden_shape), ws.get("routed.b", hidden_shape)
    for e, lo, hi in spans:
        np.matmul(xs[lo:hi], p["experts.w_gate"][e].T, out=a[lo:hi])
        np.matmul(xs[lo:hi], p["experts.w_up"][e].T, out=b[lo:hi])
    routed = _swiglu(xs, a, b, ws, "routed")
    out = ws.get("out", xs.shape)
    for e, lo, hi in spans:
        np.matmul(routed.hidden[lo:hi], p["experts.w_down"][e].T, out=out[lo:hi])
    weighted = np.multiply(gate_weights[token, expert][:, None], out,
                           out=ws.get("weighted", xs.shape))
    # rank-ordered adds keep each token's ascending-expert addition order
    y, tmp = ws.zeros("y", x.shape), ws.get("tmp", x.shape)
    for rows in rank:
        y += np.take(weighted, rows, axis=0, out=tmp, mode="clip")
    shared = None
    if "shared.w_gate" in p:
        shape = (n, p["shared.w_gate"].shape[0])
        shared = _swiglu(x, np.matmul(x, p["shared.w_gate"].T, out=ws.get("shared.a", shape)),
                         np.matmul(x, p["shared.w_up"].T, out=ws.get("shared.b", shape)),
                         ws, "shared")
        y += np.matmul(shared.hidden, p["shared.w_down"].T, out=tmp)
    cache = BlockCache(x=x, scores=scores, mask=mask, balance=balance,
                       gate_weights=gate_weights, selected_sum=selected_sum, expert=expert,
                       token=token, spans=spans, rank=rank, routed=routed, out=out,
                       shared=shared, workspace=ws)
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
        c = cache.shared
        dh = np.matmul(upstream, p["shared.w_down"], out=ws.get("shared.dh", c.up.shape))
        da = np.multiply(dh, c.up, out=ws.get("shared.da", dh.shape))
        da *= c.silu_grad
        db = np.multiply(dh, c.silu, out=ws.get("shared.db", dh.shape))
        g["shared.w_down"][...] = upstream.T @ c.hidden
        g["shared.w_gate"][...] = da.T @ x
        g["shared.w_up"][...] = db.T @ x
        np.matmul(da, p["shared.w_gate"], out=tmp)
        tmp += np.matmul(db, p["shared.w_up"], out=tmp2)
        d_x += tmp

    c, token, expert = cache.routed, cache.token, cache.expert
    dys = np.take(upstream, token, axis=0, out=ws.get("dys", c.x.shape), mode="clip")
    d_gate_weights = np.zeros_like(cache.gate_weights)
    d_gate_weights[token, expert] = np.einsum("nd,nd->n", dys, cache.out)
    de = np.multiply(cache.gate_weights[token, expert][:, None], dys, out=dys)
    dh, d_xs = ws.get("routed.dh", c.up.shape), ws.get("d_xs", c.x.shape)
    for e, lo, hi in cache.spans:
        np.matmul(de[lo:hi], p["experts.w_down"][e], out=dh[lo:hi])
    da = np.multiply(dh, c.up, out=ws.get("routed.da", dh.shape))
    da *= c.silu_grad
    db = np.multiply(dh, c.silu, out=ws.get("routed.db", dh.shape))
    for e, lo, hi in cache.spans:
        g["experts.w_down"][e] = de[lo:hi].T @ c.hidden[lo:hi]
        g["experts.w_gate"][e] = da[lo:hi].T @ c.x[lo:hi]
        g["experts.w_up"][e] = db[lo:hi].T @ c.x[lo:hi]
        np.matmul(da[lo:hi], p["experts.w_gate"][e], out=d_xs[lo:hi])
        # de's rows are spent, so they hold the second product
        d_xs[lo:hi] += np.matmul(db[lo:hi], p["experts.w_up"][e], out=de[lo:hi])
    for rows in cache.rank:
        d_x += np.take(d_xs, rows, axis=0, out=tmp, mode="clip")

    if params.normalized:
        # For selected scores, d g_j / d s_i = (delta_ij - g_j) / sum_selected;
        # written this way the expression is exactly zero when top_k == 1.
        inner = (d_gate_weights * cache.gate_weights).sum(axis=1, keepdims=True)
        d_scores = np.where(cache.mask, (d_gate_weights - inner) / cache.selected_sum, 0.0)
    else:
        d_scores = np.where(cache.mask, d_gate_weights, 0.0)
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
    mean_score = scores.mean(axis=0)
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


def probe_total_and_grads(params: BlockParams, x: np.ndarray, probe: np.ndarray,
                          lam: float = 0.0) -> tuple[float, BlockGrads, BalanceStats]:
    """Scalar probe sum(probe * y) + lam * balance_loss and its exact gradients.

    Warns with ``TieProximityWarning`` when the Top-K selection sits within
    TIE_EPS of a tie, where frozen-selection gradients are unreliable.
    """
    y, cache = moe_batch_forward(params, x)
    if selection_margin(cache) <= TIE_EPS:
        warnings.warn("Top-K selection is within TIE_EPS of a tie; "
                      "frozen-selection gradients are unreliable here",
                      TieProximityWarning, stacklevel=2)
    total = float(np.sum(probe * y)) + lam * cache.balance.balance_loss
    return total, moe_batch_backward(params, cache, probe, lam), cache.balance


# ---------------------------------------------------------------------------
# Parameter construction and checkpoints
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


def save_checkpoint(params: BlockParams, path: str | Path, seed: int | None = None) -> None:
    """Flat JSON manifest: name -> {shape, row-major float64 data}."""
    manifest: dict[str, Any] = {
        "seed": seed,
        "top_k": params.top_k,
        "normalized": params.normalized,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.views.items()
        },
    }
    Path(path).write_text(json.dumps(manifest, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[BlockParams, int | None]:
    manifest = json.loads(Path(path).read_text())
    arrays = {
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in manifest["params"].items()
    }
    top_k = json_value("top_k", manifest.get("top_k"), "int", KernelError)
    normalized = json_value("normalized", manifest.get("normalized"), "bool", KernelError)
    return BlockParams.from_arrays(arrays, top_k, normalized), manifest.get("seed")


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
        # a NaN fails every comparison, so it is rejected too
        for name, ok, rule in (("experts", self.experts >= 1, ">= 1"),
                               ("model_dim", self.model_dim >= 1, ">= 1"),
                               ("expert_dim", self.expert_dim >= 1, ">= 1"),
                               ("shared_dim", self.shared_dim >= 0, ">= 0"),
                               ("seed", self.seed >= 0, ">= 0"),
                               ("trials", self.trials >= 1, ">= 1"),
                               ("lam", self.lam >= 0, ">= 0"),
                               ("tolerance", self.tolerance > 0, "> 0")):
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
                "batch": _GC_BATCH, "lam": self.settings.lam,
            },
        }


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Relative error with an absolute floor: below the floor the comparison
    # degrades to |a - n| <= tol * 1e-3, which central differences resolve.
    return np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic),
                                                              np.abs(numeric)), 1e-3)


# Float64 entries per stacked forward: a chunk holds max(1, _FD_ENTRIES // P)
# perturbed copies of the P checked entries, so scratch memory stays near
# 8 * _FD_ENTRIES bytes unless one copy alone is larger; 2**18 was the fastest
# budget of a 2**15..2**19 sweep.
_FD_ENTRIES = 2**18


def _stacked_totals(thetas: np.ndarray, layout: Layout, probe: np.ndarray, lam: float,
                    top_k: int, normalized: bool) -> np.ndarray:
    """sum(probe * y) + lam * balance_loss for every row of ``thetas``, forward only.

    Each row holds the block parameters and the input x, flat in ``layout``.
    Every copy is routed from its own scores; the routed experts run densely,
    masked by their zero gate weights, and are mixed in ascending expert order
    like ``moe_batch_forward``.
    """
    p = layout.views(thetas)
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
    draws routed within ``_TIE_MARGIN`` of a Top-K tie so that the frozen
    selected set is locally constant. Every parameter entry and every input
    entry is perturbed: theta is the block's flat parameters followed by x,
    and the 2P copies theta +- h e_j are evaluated forward only, in stacked
    chunks of at most ``_FD_ENTRIES`` entries, each routed from its own scores.
    """
    rng = np.random.default_rng(settings.seed)
    trials: list[GradCheckTrial] = []
    checked = 0
    for trial in range(settings.trials):
        params, x, probe = _draw_non_tie_configuration(rng, settings)
        _, grads, _ = probe_total_and_grads(params, x, probe, settings.lam)
        layout = Layout(params.layout.entries + (("x", params.layout.size, x.shape),))
        theta = np.concatenate([params.theta, x.ravel()])
        analytic = np.concatenate([grads.theta, grads.x.ravel()])
        h = _FD_STEP * np.maximum(1.0, np.abs(theta))
        bumped = np.concatenate([theta + h, theta - h])
        totals = np.empty_like(bumped)
        chunk = max(1, _FD_ENTRIES // theta.size)
        for start in range(0, bumped.size, chunk):
            rows = np.arange(start, min(start + chunk, bumped.size))
            copies = np.tile(theta, (rows.size, 1))
            copies[np.arange(rows.size), rows % theta.size] = bumped[rows]
            totals[rows] = _stacked_totals(copies, layout, probe, settings.lam,
                                           params.top_k, params.normalized)
        errors = _rel_error(analytic, (totals[:theta.size] - totals[theta.size:]) / (2 * h))
        if not np.all(np.isfinite(errors)):  # NaN or inf in either gradient, or overflow
            raise KernelError(f"grad-check trial {trial}: the analytic or finite-difference "
                              f"gradient is not finite at lam {settings.lam}")
        checked += theta.size
        k = int(np.argmax(errors))  # the first entry with the largest error
        trials.append(GradCheckTrial(trial=trial, max_rel_error=float(errors[k]),
                                     worst_parameter=layout.label(k) if errors[k] > 0.0 else ""))
    return GradCheckReport(settings=settings, trials=tuple(trials), checked_entries=checked)


def _draw_non_tie_configuration(rng: np.random.Generator, settings: GradCheckSettings
                                ) -> tuple[BlockParams, np.ndarray, np.ndarray]:
    for _ in range(_MAX_DRAWS):
        params = init_block_params(rng, settings.experts, settings.top_k,
                                   settings.model_dim, settings.expert_dim,
                                   settings.shared_dim, settings.normalized)
        x = rng.normal(0.0, 1.0, size=(_GC_BATCH, settings.model_dim))
        probe = rng.normal(0.0, 1.0, size=(_GC_BATCH, settings.model_dim))
        _, cache = moe_batch_forward(params, x)
        if selection_margin(cache) > _TIE_MARGIN:
            return params, x, probe
    raise KernelError(
        f"could not draw a configuration with selection margin > {_TIE_MARGIN} "
        f"after {_MAX_DRAWS} attempts")
