"""Gating, block forward, balance statistics, losses, and checkpointing."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebudget import toylab
from moebudget.kernel import (
    BlockParams,
    KernelError,
    Workspace,
    _sigmoid,
    balance_stats,
    init_block_params,
    load_checkpoint,
    moe_batch_backward,
    moe_batch_forward,
    save_checkpoint,
    softmax_cross_entropy,
)


def route_one(logits, top_k, normalized=False):
    """Forward cache of one token x = [[1.0]] whose gate logits are exactly `logits`,
    through a block with zero expert weights."""
    gate = np.asarray(logits, dtype=float).reshape(-1, 1)
    zeros = np.zeros((gate.shape[0], 1, 1))
    params = BlockParams.from_arrays({"gate.weight": gate, "experts.w_gate": zeros,
                                      "experts.w_up": zeros, "experts.w_down": zeros},
                                     top_k, normalized)
    return moe_batch_forward(params, np.array([[1.0]]))[1]


def selected(cache):
    return tuple(np.flatnonzero(cache.mask[0]).tolist())


def reference_softmax(values):
    exps = [math.exp(v - max(values)) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


class TestGateForward:
    def test_non_normalized_scores(self):
        out = route_one([2.0, 1.0, 0.0, -1.0], top_k=2)
        gate_weights = out.gate_weights[0]
        expected = reference_softmax([2.0, 1.0, 0.0, -1.0])
        assert selected(out) == (0, 1)
        assert np.allclose(gate_weights[:2], expected[:2], atol=5e-5)
        assert np.allclose(gate_weights[:2], [0.6439, 0.2369], atol=5e-5)
        assert gate_weights[2] == gate_weights[3] == 0.0
        assert np.allclose(out.scores[0], expected)

    def test_normalized_scores(self):
        gate_weights = route_one([2.0, 1.0, 0.0, -1.0], top_k=2,
                                 normalized=True).gate_weights[0]
        s = reference_softmax([2.0, 1.0, 0.0, -1.0])
        renorm = [s[0] / (s[0] + s[1]), s[1] / (s[0] + s[1])]
        assert np.allclose(gate_weights[:2], renorm)
        assert np.allclose(gate_weights[:2], [0.7311, 0.2689], atol=5e-5)
        assert math.isclose(gate_weights.sum(), 1.0, abs_tol=1e-12)

    def test_ties_break_to_lowest_index(self):
        out = route_one([0.5, 0.5, 0.5, 0.5, 0.5], top_k=3)
        assert selected(out) == (0, 1, 2)
        assert np.allclose(out.scores[0], 0.2)

    def test_k_out_of_range(self):
        with pytest.raises(KernelError, match="top_k"):
            route_one([1.0, 2.0], top_k=3)

    def test_normalized_single_selection_rejected(self):
        with pytest.raises(KernelError, match="top_k >= 2"):
            route_one([1.0, 2.0], top_k=1, normalized=True)


def dense_masked_oracle(params: BlockParams, x: np.ndarray) -> np.ndarray:
    """Evaluate every expert for every token, then apply the gate weights."""
    def silu(z):
        return z / (1.0 + np.exp(-z))

    _, cache = moe_batch_forward(params, x)
    y = np.zeros_like(x)
    p = params.views
    for i in range(params.expert_count):
        hidden = silu(x @ p["experts.w_gate"][i].T) * (x @ p["experts.w_up"][i].T)
        y += cache.gate_weights[:, i, None] * (hidden @ p["experts.w_down"][i].T)
    if "shared.w_gate" in p:
        hidden = silu(x @ p["shared.w_gate"].T) * (x @ p["shared.w_up"].T)
        y += hidden @ p["shared.w_down"].T
    return y


def with_arrays(params, changes):
    """The block rebuilt with named arrays swapped in, or dropped where None."""
    named = {**params.views, **changes}
    return BlockParams.from_arrays({n: a for n, a in named.items() if a is not None},
                                   params.top_k, params.normalized)


class TestBlockForward:
    def test_zero_experts_leave_only_shared_path(self):
        rng = np.random.default_rng(0)
        params = init_block_params(rng, experts=4, top_k=2, model_dim=3,
                                   expert_dim=2, shared_dim=2)
        zeroed = with_arrays(params, {name: np.zeros_like(params.views[name])
                                      for name in ("experts.w_gate", "experts.w_up",
                                                   "experts.w_down")})
        x = rng.normal(size=3)
        y = moe_batch_forward(zeroed, x[None, :])[0][0]
        shared_only = dense_masked_oracle(zeroed, x[None, :])[0]
        assert np.allclose(y, shared_only, rtol=1e-12, atol=1e-15)

        no_shared = with_arrays(zeroed, dict.fromkeys(
            ("shared.w_gate", "shared.w_up", "shared.w_down")))
        y2 = moe_batch_forward(no_shared, x[None, :])[0][0]
        assert np.all(y2 == 0.0)

    def test_logit_shift_leaves_output_bit_identical(self):
        rng = np.random.default_rng(1)
        params = init_block_params(rng, experts=6, top_k=2, model_dim=4,
                                   expert_dim=3, shared_dim=3)
        # dyadic logits and shift so the addition is exact in binary floats
        gate_w = np.zeros((6, 4))
        gate_w[:, 0] = rng.integers(-64, 64, size=6) / 16.0
        x = np.array([1.0, 0.25, -0.5, 2.0])
        shifted = gate_w.copy()
        shifted[:, 0] += 5.0
        base_params = with_arrays(params, {"gate.weight": gate_w})
        shift_params = with_arrays(params, {"gate.weight": shifted})
        # x[1:] are zero contributors to the logits only if gate rows are zero there
        y0, g0 = moe_batch_forward(base_params, np.array([[1.0, 0.0, 0.0, 0.0]]))
        y1, g1 = moe_batch_forward(shift_params, np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert np.array_equal(g0.mask, g1.mask)
        assert np.array_equal(g0.scores, g1.scores)
        assert np.array_equal(y0, y1)
        del x

    def test_matches_dense_masked_oracle(self):
        rng = np.random.default_rng(2)
        params = init_block_params(rng, experts=4, top_k=2, model_dim=3,
                                   expert_dim=2, shared_dim=2)
        x = rng.normal(size=(5, 3))
        y, _ = moe_batch_forward(params, x)
        oracle = dense_masked_oracle(params, x)
        assert np.allclose(y, oracle, rtol=1e-12, atol=1e-14)

    def test_exactly_k_experts_evaluated(self):
        rng = np.random.default_rng(3)
        params = init_block_params(rng, experts=8, top_k=3, model_dim=4,
                                   expert_dim=2)
        x = rng.normal(size=(7, 4))
        _, cache = moe_batch_forward(params, x)
        assert cache.balance.selection_counts.sum() == 3 * 7
        assert cache.mask.sum(axis=1).tolist() == [3] * 7

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        params = init_block_params(rng, experts=4, top_k=2, model_dim=3,
                                   expert_dim=2)
        with pytest.raises(KernelError, match="shape"):
            moe_batch_forward(params, np.zeros((1, 5)))


def per_expert_reference(params, cache, upstream, extra):
    """y, d_x and flat parameter gradients of the per-expert loop that grouped
    dispatch replaced: one x[idx] gather and one y[idx] / d_x[idx] add per expert."""
    def silu(z):
        return z * _sigmoid(z)

    def silu_grad(z):
        sig = _sigmoid(z)
        return sig * (1.0 + z * (1.0 - sig))

    p, x = params.views, cache.x
    y, d_x = np.zeros_like(x), np.zeros_like(x)
    d_theta = np.zeros(params.layout.size)
    g = params.layout.views(d_theta)
    d_gate_weights = np.zeros_like(cache.gate_weights)
    shared_hidden = None
    if "shared.w_gate" in p:
        a, b = x @ p["shared.w_gate"].T, x @ p["shared.w_up"].T
        shared_hidden = silu(a) * b
        dh = upstream @ p["shared.w_down"]
        da, db = dh * b * silu_grad(a), dh * silu(a)
        g["shared.w_down"][...] = upstream.T @ shared_hidden
        g["shared.w_gate"][...] = da.T @ x
        g["shared.w_up"][...] = db.T @ x
        d_x += da @ p["shared.w_gate"] + db @ p["shared.w_up"]
    for i in range(params.expert_count):
        idx = np.nonzero(cache.mask[:, i])[0]
        if idx.size == 0:
            continue
        xi, dy_i = x[idx], upstream[idx]
        a, b = xi @ p["experts.w_gate"][i].T, xi @ p["experts.w_up"][i].T
        hidden = silu(a) * b
        out = hidden @ p["experts.w_down"][i].T
        y[idx] += cache.gate_weights[idx, i, None] * out
        d_gate_weights[idx, i] = np.einsum("nd,nd->n", dy_i, out)
        de = cache.gate_weights[idx, i, None] * dy_i
        g["experts.w_down"][i] = de.T @ hidden
        dh = de @ p["experts.w_down"][i]
        da, db = dh * b * silu_grad(a), dh * silu(a)
        g["experts.w_gate"][i] = da.T @ xi
        g["experts.w_up"][i] = db.T @ xi
        d_x[idx] += da @ p["experts.w_gate"][i] + db @ p["experts.w_up"][i]
    if shared_hidden is not None:
        y += shared_hidden @ p["shared.w_down"].T
    if params.normalized:
        inner = (d_gate_weights * cache.gate_weights).sum(axis=1, keepdims=True)
        d_scores = np.where(cache.mask, (d_gate_weights - inner) / cache.selected_sum, 0.0)
    else:
        d_scores = np.where(cache.mask, d_gate_weights, 0.0)
    d_scores = d_scores + extra[None, :]
    dot = (d_scores * cache.scores).sum(axis=1, keepdims=True)
    d_logits = cache.scores * (d_scores - dot)
    g["gate.weight"] += d_logits.T @ x
    d_x += d_logits @ p["gate.weight"]
    return y, d_x, d_theta


GROUPED_CASES = pytest.mark.parametrize("experts, top_k, normalized, shared_dim, n", [
    (6, 1, False, 0, 40), (6, 1, False, 3, 3), (6, 2, False, 0, 2), (6, 2, True, 3, 40),
    (6, 2, True, 0, 1), (5, 5, False, 4, 17), (5, 5, True, 0, 9), (8, 2, False, 16, 512)])


def grouped_case(experts, top_k, normalized, shared_dim, n):
    """Block, input and upstream gradient of one grouped-dispatch case."""
    rng = np.random.default_rng(experts * 100 + top_k * 10 + n)
    params = init_block_params(rng, experts, top_k, 7, 4, shared_dim, normalized)
    return params, rng.normal(size=(n, 7)), rng.normal(size=(n, 7))


@GROUPED_CASES
def test_grouped_dispatch_is_bit_identical_to_per_expert_loop(experts, top_k, normalized,
                                                               shared_dim, n):
    params, x, upstream = grouped_case(experts, top_k, normalized, shared_dim, n)
    lam = 0.3
    y, cache = moe_batch_forward(params, x)
    grads = moe_batch_backward(params, cache, upstream, lam)
    extra = lam * experts * cache.balance.load_fraction / n
    ref_y, ref_dx, ref_theta = per_expert_reference(params, cache, upstream, extra)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(grads.x, ref_dx)
    for name, view in params.layout.views(ref_theta).items():
        assert np.array_equal(grads.views[name], view), name
    idle = np.flatnonzero(cache.balance.selection_counts == 0)
    assert idle.size > 0 or n * top_k >= experts
    for name in ("experts.w_gate", "experts.w_up", "experts.w_down"):
        assert not grads.views[name][idle].any(), name


@GROUPED_CASES
def test_forward_records_the_balance_stats_of_its_routing(experts, top_k, normalized,
                                                          shared_dim, n):
    params, x, _ = grouped_case(experts, top_k, normalized, shared_dim, n)
    _, cache = moe_batch_forward(params, x)
    expected = balance_stats(cache.mask, cache.scores)
    for f in dataclasses.fields(expected):
        assert np.array_equal(getattr(cache.balance, f.name), getattr(expected, f.name)), f.name
    counts = cache.balance.selection_counts
    assert counts.dtype == expected.selection_counts.dtype
    assert np.array_equal(counts, np.bincount(cache.expert, minlength=experts))
    assert (counts == 0).any() or n * top_k >= experts


def busy_then_idle_batches(params, n, seed):
    """Three (n, 7) batches: random, one token repeated, random. With top_k < experts
    an expert busy in the first call is idle in the second and busy in the third."""
    rng = np.random.default_rng(seed)
    repeated = np.repeat(rng.normal(size=(1, 7)), n, axis=0)
    idle = ~moe_batch_forward(params, repeated)[1].mask.any(axis=0)
    for _ in range(100):
        busy = rng.normal(size=(n, 7))
        if not idle.any() or (moe_batch_forward(params, busy)[1].mask.any(axis=0) & idle).any():
            return [busy, repeated, busy[::-1].copy()], idle
    raise AssertionError("no batch routes to an expert the repeated token leaves idle")


@GROUPED_CASES
def test_shared_workspace_calls_match_fresh_ones(experts, top_k, normalized, shared_dim, n):
    params, _, upstream = grouped_case(experts, top_k, normalized, shared_dim, n)
    batches, idle = busy_then_idle_batches(params, n, seed=experts + n)
    assert idle.any() == (top_k < experts)
    ws = Workspace()
    for x in batches:
        y, cache = moe_batch_forward(params, x, ws)
        grads = moe_batch_backward(params, cache, upstream, 0.3)
        assert cache.workspace is ws
        fresh_y, fresh_cache = moe_batch_forward(params, x)
        fresh = moe_batch_backward(params, fresh_cache, upstream, 0.3)
        assert np.array_equal(y, fresh_y)
        assert np.array_equal(grads.x, fresh.x)
        assert np.array_equal(grads.theta, fresh.theta)
        for name, view in fresh.views.items():
            assert np.array_equal(grads.views[name], view), name


def test_workspace_reallocates_on_batch_size_change():
    params, x, upstream = grouped_case(6, 2, False, 3, 40)
    ws = Workspace()
    moe_batch_backward(params, moe_batch_forward(params, x, ws)[1], upstream)
    before = dict(ws.buffers)
    y, cache = moe_batch_forward(params, x[:9], ws)
    grads = moe_batch_backward(params, cache, upstream[:9])
    assert y.shape == grads.x.shape == (9, 7)
    assert np.array_equal(y, moe_batch_forward(params, x[:9])[0])
    for name, buf in ws.buffers.items():
        same_shape = buf.shape == before[name].shape
        assert (buf is before[name]) == same_shape, name
        assert same_shape == (name == "d_theta"), name


def test_toy_steps_allocate_no_buffer_in_steady_state():
    config = toylab.ToyTrainConfig(steps=3, batch_sequences=4)
    rng = np.random.default_rng(config.seed)
    model = toylab._init_model(config, rng)
    distributions = config.task.cluster_distributions()
    ws = Workspace()
    held = None
    for step in range(4):
        batch = config.task.sample_batch(rng, config.batch_sequences, distributions)
        toylab._forward_backward(model, batch[:, :-1].ravel(), batch[:, 1:].ravel(),
                                 config.lam, ws)
        if step == 1:
            held = dict(ws.buffers)  # holding the arrays keeps their ids from being reused
    assert ws.buffers.keys() == held.keys()
    assert all(ws.buffers[name] is buf for name, buf in held.items())
    assert {"h", "logits", "grad", "xs", "routed.hidden", "d_theta", "d_xs"} <= set(held)


class TestSelectionInvariance:
    @given(seed=st.integers(0, 10_000), scale=st.floats(1.5, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_scaling_keeps_selection(self, seed, scale):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=8)
        gaps = np.diff(np.sort(logits))
        if gaps.min() < 1e-6:  # keep clear of rounding-induced ties
            return
        base = route_one(logits, top_k=3)
        scaled = route_one(scale * logits, top_k=3)
        assert selected(base) == selected(scaled)


class TestBalanceStats:
    def test_uniform_routing_hits_top_k(self):
        outs = [route_one([0.0] * 8, top_k=2) for _ in range(8)]
        # rotate the selected pair so every expert carries the same load
        mask = np.zeros((8, 8), dtype=bool)
        for t in range(8):
            mask[t, [2 * t % 8, (2 * t + 1) % 8]] = True
        stats = balance_stats(mask, np.concatenate([out.scores for out in outs]))
        assert stats.balance_loss == 2.0
        assert stats.load_fraction_total == 2.0

    def test_two_token_hand_example(self):
        a = route_one([math.log(9.0), 0.0], top_k=1)
        b = route_one([math.log(1.5), 0.0], top_k=1)
        assert np.allclose(a.scores[0], [0.9, 0.1])
        assert np.allclose(b.scores[0], [0.6, 0.4])
        stats = balance_stats(np.concatenate([a.mask, b.mask]),
                              np.concatenate([a.scores, b.scores]))
        assert np.allclose(stats.load_fraction, [1.0, 0.0])
        assert np.allclose(stats.mean_score, [0.75, 0.25])
        assert math.isclose(stats.balance_loss, 1.5, rel_tol=1e-12)

    def test_duplicating_batch_changes_nothing(self):
        rng = np.random.default_rng(5)
        params = init_block_params(rng, experts=6, top_k=2, model_dim=4,
                                   expert_dim=2)
        x = rng.normal(size=(5, 4))
        _, cache = moe_batch_forward(params, x)
        once = balance_stats(cache.mask, cache.scores)
        twice = balance_stats(np.concatenate([cache.mask] * 2),
                              np.concatenate([cache.scores] * 2))
        assert np.array_equal(once.load_fraction, twice.load_fraction)
        assert np.allclose(once.mean_score, twice.mean_score, rtol=0, atol=1e-15)
        assert math.isclose(once.balance_loss, twice.balance_loss, rel_tol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError, match="nonempty"):
            balance_stats(np.zeros((0, 2), dtype=bool), np.zeros((0, 2)))


def test_branch_free_sigmoid_matches_sign_branched_form():
    z = np.concatenate([np.linspace(-800.0, 800.0, 2001), [0.0, -0.0, 1e-300, -1e-300]])
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    expected[~pos] = ez / (1.0 + ez)
    assert np.array_equal(_sigmoid(z), expected)
    # the stacked oracle applies it to 4-D arrays
    assert np.array_equal(_sigmoid(z[:2000].reshape(2, 10, 10, 10)),
                          expected[:2000].reshape(2, 10, 10, 10))


class TestLosses:
    def test_uniform_logits_give_log_vocab(self):
        ce, _ = softmax_cross_entropy(np.zeros((4, 11)), np.array([0, 3, 7, 10]))
        assert math.isclose(ce, math.log(11), rel_tol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(KernelError, match="logits"):
            softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1]))

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 5))
        targets = np.array([1, 4, 0])
        loss, grad = softmax_cross_entropy(logits, targets)
        h = 1e-6
        for i in (0, 7, 14):
            bumped = logits.copy().ravel()
            bumped[i] += h
            up, _ = softmax_cross_entropy(bumped.reshape(3, 5), targets)
            bumped[i] -= 2 * h
            down, _ = softmax_cross_entropy(bumped.reshape(3, 5), targets)
            assert math.isclose(grad.ravel()[i], (up - down) / (2 * h), abs_tol=1e-8)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_block_params(rng, experts=3, top_k=2, model_dim=4,
                                   expert_dim=2, shared_dim=3, normalized=True)
        path = tmp_path / "block.json"
        save_checkpoint(params, path, seed=7)
        loaded, seed = load_checkpoint(path)
        assert seed == 7
        assert loaded.top_k == 2 and loaded.normalized
        assert np.array_equal(loaded.views["gate.weight"], params.views["gate.weight"])
        assert np.array_equal(loaded.views["experts.w_down"], params.views["experts.w_down"])
        assert np.array_equal(loaded.views["shared.w_up"], params.views["shared.w_up"])

    def test_file_bytes_are_pinned(self, tmp_path):
        # the checkpoint format predates the flat layout; its bytes must not move
        params = init_block_params(np.random.default_rng(7), 3, 2, 4, 2, 3, True)
        path = tmp_path / "block.json"
        save_checkpoint(params, path, seed=7)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "ec33487ea98c678ba306a857d2a4cb615468ba60be91946cf056aadf8c9df6a0"

    @pytest.mark.parametrize("key,value", [
        ("normalized", "false"), ("normalized", 0), ("top_k", "2"), ("top_k", 2.5),
        ("top_k", None),
    ])
    def test_manifest_scalars_are_read_strictly(self, tmp_path, key, value):
        params = init_block_params(np.random.default_rng(7), 3, 2, 4, 2, 3, True)
        path = tmp_path / "block.json"
        save_checkpoint(params, path, seed=7)
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(KernelError, match=f"{key} must be"):
            load_checkpoint(path)


class TestLayout:
    def block(self, shared_dim=3):
        rng = np.random.default_rng(8)
        return init_block_params(rng, experts=3, top_k=2, model_dim=4, expert_dim=2,
                                 shared_dim=shared_dim)

    @pytest.mark.parametrize("shared_dim", [0, 3])
    def test_named_arrays_round_trip_through_theta(self, shared_dim):
        params = self.block(shared_dim)
        arrays = {name: arr.copy() for name, arr in params.views.items()}
        rebuilt = BlockParams.from_arrays(arrays, params.top_k)
        assert np.array_equal(rebuilt.theta, params.theta)
        assert rebuilt.layout == params.layout
        assert rebuilt.theta.size == params.layout.size == sum(a.size for a in arrays.values())
        for name, arr in arrays.items():
            assert np.array_equal(rebuilt.views[name], arr)
            assert np.shares_memory(rebuilt.views[name], rebuilt.theta)

    def test_every_flat_index_labels_its_entry(self):
        layout = self.block().layout
        labels = [layout.label(j) for j in range(layout.size)]
        expected = [f"{name}[{j}]" for name, _, shape in layout.entries
                    for j in range(math.prod(shape))]
        assert labels == expected
        for name, offset, _ in layout.entries:
            assert layout.label(offset) == f"{name}[0]"
        with pytest.raises(IndexError):
            layout.label(layout.size)

    def test_wrong_shape_rejected(self):
        arrays = dict(self.block().views)
        arrays["experts.w_up"] = np.zeros((3, 2, 5))
        with pytest.raises(KernelError, match="experts.w_up must have shape"):
            BlockParams.from_arrays(arrays, top_k=2)
        del arrays["experts.w_up"]
        with pytest.raises(KernelError, match="block parameters must be"):
            BlockParams.from_arrays(arrays, top_k=2)

    def test_non_finite_entry_rejected(self):
        params = self.block()
        arrays = {name: arr.copy() for name, arr in params.views.items()}
        arrays["shared.w_down"][1, 2] = np.nan
        with pytest.raises(KernelError, match=r"shared.w_down\[5\] is not finite"):
            BlockParams.from_arrays(arrays, top_k=2)
        theta = params.theta.copy()
        theta[0] = np.inf
        with pytest.raises(KernelError, match=r"gate.weight\[0\] is not finite"):
            BlockParams(theta, params.layout, top_k=2)
