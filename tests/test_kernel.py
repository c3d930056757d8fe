"""Gating, block forward, balance statistics, losses, and checkpointing."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebudget.kernel import (
    BlockParams,
    KernelError,
    _sigmoid,
    balance_stats,
    gate_forward,
    init_block_params,
    load_checkpoint,
    moe_batch_forward,
    save_checkpoint,
    softmax_cross_entropy,
    total_loss,
)


def logits_gate(values):
    """Gate weight matrix whose logits for x=[1.0] are exactly `values`."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


def routing(outs):
    """Stacked (mask, scores) of single-token gate outputs, for balance_stats."""
    mask = np.zeros((len(outs), outs[0].scores.size), dtype=bool)
    for t, out in enumerate(outs):
        mask[t, list(out.selected)] = True
    return mask, np.stack([out.scores for out in outs])


def reference_softmax(values):
    exps = [math.exp(v - max(values)) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


class TestGateForward:
    def test_non_normalized_scores(self):
        out = gate_forward(logits_gate([2.0, 1.0, 0.0, -1.0]), np.array([1.0]), top_k=2)
        expected = reference_softmax([2.0, 1.0, 0.0, -1.0])
        assert out.selected == (0, 1)
        assert np.allclose(out.gate_weights[:2], expected[:2], atol=5e-5)
        assert np.allclose(out.gate_weights[:2], [0.6439, 0.2369], atol=5e-5)
        assert out.gate_weights[2] == out.gate_weights[3] == 0.0
        assert np.allclose(out.scores, expected)

    def test_normalized_scores(self):
        out = gate_forward(logits_gate([2.0, 1.0, 0.0, -1.0]), np.array([1.0]),
                           top_k=2, normalized=True)
        s = reference_softmax([2.0, 1.0, 0.0, -1.0])
        renorm = [s[0] / (s[0] + s[1]), s[1] / (s[0] + s[1])]
        assert np.allclose(out.gate_weights[:2], renorm)
        assert np.allclose(out.gate_weights[:2], [0.7311, 0.2689], atol=5e-5)
        assert math.isclose(out.gate_weights.sum(), 1.0, abs_tol=1e-12)

    def test_ties_break_to_lowest_index(self):
        out = gate_forward(logits_gate([0.5, 0.5, 0.5, 0.5, 0.5]), np.array([1.0]),
                           top_k=3)
        assert out.selected == (0, 1, 2)
        assert np.allclose(out.scores, 0.2)

    def test_k_out_of_range(self):
        with pytest.raises(KernelError, match="top_k"):
            gate_forward(logits_gate([1.0, 2.0]), np.array([1.0]), top_k=3)

    def test_normalized_single_selection_rejected(self):
        with pytest.raises(KernelError, match="top_k >= 2"):
            gate_forward(logits_gate([1.0, 2.0]), np.array([1.0]), top_k=1,
                         normalized=True)


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
        assert cache.eval_counts.sum() == 3 * 7
        assert cache.mask.sum(axis=1).tolist() == [3] * 7

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        params = init_block_params(rng, experts=4, top_k=2, model_dim=3,
                                   expert_dim=2)
        with pytest.raises(KernelError, match="shape"):
            moe_batch_forward(params, np.zeros((1, 5)))


class TestSelectionInvariance:
    @given(seed=st.integers(0, 10_000), scale=st.floats(1.5, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_scaling_keeps_selection(self, seed, scale):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=8)
        gaps = np.diff(np.sort(logits))
        if gaps.min() < 1e-6:  # keep clear of rounding-induced ties
            return
        base = gate_forward(logits_gate(logits), np.array([1.0]), top_k=3)
        scaled = gate_forward(logits_gate(scale * logits), np.array([1.0]), top_k=3)
        assert base.selected == scaled.selected


class TestBalanceStats:
    def test_uniform_routing_hits_top_k(self):
        outs = [gate_forward(logits_gate([0.0] * 8), np.array([1.0]), top_k=2)
                for _ in range(8)]
        # rotate the selected pair so every expert carries the same load
        mask = np.zeros((8, 8), dtype=bool)
        for t in range(8):
            mask[t, [2 * t % 8, (2 * t + 1) % 8]] = True
        stats = balance_stats(mask, np.stack([out.scores for out in outs]))
        assert stats.balance_loss == 2.0
        assert stats.load_fraction_total == 2.0

    def test_two_token_hand_example(self):
        a = gate_forward(logits_gate([math.log(9.0), 0.0]), np.array([1.0]), top_k=1)
        b = gate_forward(logits_gate([math.log(1.5), 0.0]), np.array([1.0]), top_k=1)
        assert np.allclose(a.scores, [0.9, 0.1])
        assert np.allclose(b.scores, [0.6, 0.4])
        stats = balance_stats(*routing([a, b]))
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
    def test_zero_lambda(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 3.0]])
        targets = np.array([1, 2])
        stats = balance_stats(*routing([gate_forward(logits_gate([0.0, 1.0]),
                                                     np.array([1.0]), top_k=1)]))
        bundle = total_loss(logits, targets, stats, lam=0.0)
        assert bundle.total == bundle.ce_loss

    def test_uniform_logits_give_log_vocab(self):
        logits = np.zeros((4, 11))
        targets = np.array([0, 3, 7, 10])
        stats = balance_stats(*routing([gate_forward(logits_gate([0.0, 1.0]),
                                                     np.array([1.0]), top_k=1)]))
        bundle = total_loss(logits, targets, stats, lam=0.0)
        assert math.isclose(bundle.ce_loss, math.log(11), rel_tol=1e-12)

    def test_stated_arithmetic(self):
        # ce 2.0, balance 1.5, lam 0.01 -> 2.015
        from moebudget.kernel import BalanceStats, LossBundle
        stats = BalanceStats(load_fraction=np.array([1.0, 0.0]),
                             mean_score=np.array([0.75, 0.25]), balance_loss=1.5,
                             batch_size=2, selection_counts=np.array([2, 0]))
        bundle = LossBundle(ce_loss=2.0, balance_loss=stats.balance_loss, lam=0.01,
                            total=2.0 + 0.01 * 1.5)
        assert math.isclose(bundle.total, 2.015, rel_tol=1e-12)

    def test_shape_mismatch(self):
        stats = balance_stats(*routing([gate_forward(logits_gate([0.0, 1.0]),
                                                     np.array([1.0]), top_k=1)]))
        with pytest.raises(KernelError, match="logits"):
            total_loss(np.zeros((3, 4)), np.array([0, 1]), stats, lam=0.0)

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
