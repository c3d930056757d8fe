"""Manual backward pass against central finite differences."""

import numpy as np
import pytest

from moebudget import kernel
from moebudget.kernel import (
    BlockParams,
    GateParams,
    GradCheckSettings,
    RoutedExperts,
    SharedExpert,
    TieProximityWarning,
    _stacked_totals,
    balance_stats_from_cache,
    grad_check,
    init_block_params,
    moe_batch_backward,
    moe_batch_forward,
    moe_block_backward,
    named_parameters,
    probe_total_and_grads,
)


@pytest.mark.parametrize("normalized,top_k,shared_dim,lam", [
    (False, 2, 0, 0.01),
    (False, 1, 3, 0.01),
    (True, 2, 3, 0.0),
    (True, 3, 0, 0.01),
    (False, 4, 4, 0.0),
])
def test_finite_difference_agreement(normalized, top_k, shared_dim, lam):
    report = grad_check(GradCheckSettings(
        experts=4, top_k=top_k, model_dim=5, expert_dim=3, shared_dim=shared_dim,
        normalized=normalized, seed=11, trials=4, lam=lam))
    assert report.passed, (report.max_rel_error, report.trials)
    assert report.max_rel_error <= 1e-5


def test_normalized_single_selection_has_zero_gate_gradient():
    rng = np.random.default_rng(0)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=5, expert_dim=3,
                               normalized=True)
    object.__setattr__(params, "top_k", 1)  # bypass the construction-time guard
    x = rng.normal(size=(3, 5))
    upstream = rng.normal(size=(3, 5))
    y, cache = moe_batch_forward(params, x)
    assert np.allclose(cache.gate_weights.sum(axis=1), 1.0, atol=0)
    grads = moe_batch_backward(params, cache, upstream)
    assert np.all(grads.gate_weight == 0.0)
    # expert and shared paths still carry gradient
    assert np.any(grads.expert_w_down != 0.0)


def test_zero_lambda_matches_probe_only_gradients():
    rng = np.random.default_rng(1)
    params = init_block_params(rng, experts=5, top_k=2, model_dim=4, expert_dim=3,
                               shared_dim=2)
    x = rng.normal(size=(4, 4))
    probe = rng.normal(size=(4, 4))
    _, with_lam0, _ = probe_total_and_grads(params, x, probe, lam=0.0)
    _, cache = moe_batch_forward(params, x)
    plain = moe_batch_backward(params, cache, probe)
    assert np.array_equal(with_lam0.gate_weight, plain.gate_weight)
    assert np.array_equal(with_lam0.expert_w_gate, plain.expert_w_gate)
    assert np.array_equal(with_lam0.x, plain.x)


def test_balance_term_only_moves_gate_gradients():
    rng = np.random.default_rng(2)
    params = init_block_params(rng, experts=5, top_k=2, model_dim=4, expert_dim=3)
    x = rng.normal(size=(4, 4))
    probe = rng.normal(size=(4, 4))
    _, g0, _ = probe_total_and_grads(params, x, probe, lam=0.0)
    _, g1, _ = probe_total_and_grads(params, x, probe, lam=0.5)
    assert not np.array_equal(g0.gate_weight, g1.gate_weight)
    assert np.array_equal(g0.expert_w_down, g1.expert_w_down)


def test_tie_proximity_warns():
    rng = np.random.default_rng(3)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=5, expert_dim=3)
    zero_gate = type(params.gate)(weight=np.zeros_like(params.gate.weight))
    tied = type(params)(gate=zero_gate, experts=params.experts, shared=None,
                        top_k=2)
    with pytest.warns(TieProximityWarning):
        moe_block_backward(tied, rng.normal(size=5), rng.normal(size=5))


def test_single_token_backward_matches_batch_of_one():
    rng = np.random.default_rng(4)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=5, expert_dim=3,
                               shared_dim=2)
    x = rng.normal(size=5)
    upstream = rng.normal(size=5)
    single = moe_block_backward(params, x, upstream)
    _, cache = moe_batch_forward(params, x[None, :])
    batch = moe_batch_backward(params, cache, upstream[None, :])
    assert np.array_equal(single.gate_weight, batch.gate_weight)
    assert np.array_equal(single.x, batch.x)


# -- the stacked forward-only oracle ----------------------------------------

def flatten(params, x):
    """(name, offset, shape) layout and flat theta in grad_check's order."""
    layout, chunks, offset = [], [], 0
    for name, arr in named_parameters(params) + [("x", x)]:
        layout.append((name, offset, arr.shape))
        chunks.append(arr.ravel())
        offset += arr.size
    return layout, np.concatenate(chunks)


def scalar_total(row, layout, probe, lam, top_k, normalized):
    """The total of one flat copy through moe_batch_forward and the balance stats."""
    arr = {name: row[off:off + int(np.prod(shape))].reshape(shape)
           for name, off, shape in layout}
    shared = None
    if "shared.w_gate" in arr:
        shared = SharedExpert(w_gate=arr["shared.w_gate"], w_up=arr["shared.w_up"],
                              w_down=arr["shared.w_down"])
    params = BlockParams(
        gate=GateParams(weight=arr["gate.weight"]),
        experts=RoutedExperts(w_gate=arr["experts.w_gate"], w_up=arr["experts.w_up"],
                              w_down=arr["experts.w_down"]),
        shared=shared, top_k=top_k, normalized=normalized)
    y, cache = moe_batch_forward(params, arr["x"])
    return float(np.sum(probe * y)) + lam * balance_stats_from_cache(cache).balance_loss, cache


def assert_close(stacked, scalar):
    assert abs(stacked - scalar) <= 1e-12 * max(abs(scalar), 1.0), (stacked, scalar)


@pytest.mark.parametrize("normalized,shared,full_k", [
    (False, False, False), (False, True, False), (True, False, False),
    (True, True, False), (False, False, True), (True, True, True),
])
def test_stacked_totals_match_scalar_forward(normalized, shared, full_k):
    rng = np.random.default_rng(20 + 4 * normalized + 2 * shared + full_k)
    for _ in range(5):
        experts = int(rng.integers(2, 7))
        if full_k:
            top_k = experts
        else:
            top_k = int(rng.integers(2 if normalized else 1, experts + 1))
        model_dim = int(rng.integers(2, 6))
        params = init_block_params(rng, experts, top_k, model_dim,
                                   expert_dim=int(rng.integers(1, 5)),
                                   shared_dim=int(rng.integers(1, 4)) if shared else 0,
                                   normalized=normalized)
        x = rng.normal(size=(int(rng.integers(1, 5)), model_dim))
        probe = rng.normal(size=x.shape)
        lam = float(rng.choice([0.0, 0.01, 0.5]))
        layout, theta = flatten(params, x)
        rows = theta + 0.3 * rng.normal(size=(9, theta.size))
        stacked = _stacked_totals(rows, layout, probe, lam, top_k, normalized)
        assert stacked.shape == (9,)
        for row, total in zip(rows, stacked):
            assert_close(total, scalar_total(row, layout, probe, lam, top_k, normalized)[0])


def test_stacked_totals_reroute_perturbed_copies():
    # Experts 1 and 2 sit 1e-7 apart in logit for the only token; bumping one
    # gate weight of expert 2 by h = 1e-5 moves its logit by 1e-5 * x[0] and
    # swaps it into the Top-2 set. A copy routed with the unperturbed
    # selection would be off by an O(0.1) swap of expert outputs.
    rng = np.random.default_rng(5)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=3, expert_dim=2,
                               shared_dim=2)
    x = np.array([[1.0, 0.5, -0.3]])
    weight = np.array([[2.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5 - 1e-7, 0.0, 0.0],
                       [-1.0, 0.0, 0.0]])
    params = BlockParams(gate=GateParams(weight=weight), experts=params.experts,
                         shared=params.shared, top_k=2)
    probe = rng.normal(size=x.shape)
    layout, theta = flatten(params, x)
    j = 2 * 3  # gate.weight[2, 0]
    h = 1e-5 * max(1.0, abs(theta[j]))
    rows = np.tile(theta, (3, 1))
    rows[1, j] += h
    rows[2, j] -= h
    stacked = _stacked_totals(rows, layout, probe, 0.01, 2, False)
    masks = []
    for row, total in zip(rows, stacked):
        expected, cache = scalar_total(row, layout, probe, 0.01, 2, False)
        assert_close(total, expected)
        masks.append(cache.mask[0].tolist())
    assert masks[0] == masks[2] == [True, True, False, False]
    assert masks[1] == [True, False, True, False]


@pytest.mark.parametrize("chunk", [1, 7])
def test_grad_check_report_is_chunk_invariant(monkeypatch, chunk):
    settings = GradCheckSettings(experts=4, top_k=2, model_dim=5, expert_dim=3,
                                 shared_dim=4, normalized=True, seed=21, trials=2)
    default = grad_check(settings)
    monkeypatch.setattr(kernel, "_FD_CHUNK", chunk)
    assert grad_check(settings) == default
