"""Manual backward pass against central finite differences."""

import numpy as np
import pytest

from moebudget import kernel
from moebudget.kernel import (
    BlockParams,
    GradCheckSettings,
    Layout,
    TieProximityWarning,
    _stacked_totals,
    balance_stats,
    grad_check,
    init_block_params,
    moe_batch_backward,
    moe_batch_forward,
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
    assert np.all(grads.views["gate.weight"] == 0.0)
    # expert and shared paths still carry gradient
    assert np.any(grads.views["experts.w_down"] != 0.0)


def test_zero_lambda_matches_probe_only_gradients():
    rng = np.random.default_rng(1)
    params = init_block_params(rng, experts=5, top_k=2, model_dim=4, expert_dim=3,
                               shared_dim=2)
    x = rng.normal(size=(4, 4))
    probe = rng.normal(size=(4, 4))
    _, with_lam0, _ = probe_total_and_grads(params, x, probe, lam=0.0)
    _, cache = moe_batch_forward(params, x)
    plain = moe_batch_backward(params, cache, probe)
    assert np.array_equal(with_lam0.views["gate.weight"], plain.views["gate.weight"])
    assert np.array_equal(with_lam0.views["experts.w_gate"], plain.views["experts.w_gate"])
    assert np.array_equal(with_lam0.x, plain.x)


def test_balance_term_only_moves_gate_gradients():
    rng = np.random.default_rng(2)
    params = init_block_params(rng, experts=5, top_k=2, model_dim=4, expert_dim=3)
    x = rng.normal(size=(4, 4))
    probe = rng.normal(size=(4, 4))
    _, g0, _ = probe_total_and_grads(params, x, probe, lam=0.0)
    _, g1, _ = probe_total_and_grads(params, x, probe, lam=0.5)
    assert not np.array_equal(g0.views["gate.weight"], g1.views["gate.weight"])
    assert np.array_equal(g0.views["experts.w_down"], g1.views["experts.w_down"])


def test_tie_proximity_warns():
    rng = np.random.default_rng(3)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=5, expert_dim=3)
    tied = BlockParams.from_arrays(
        {**params.views, "gate.weight": np.zeros_like(params.views["gate.weight"])}, top_k=2)
    with pytest.warns(TieProximityWarning):
        probe_total_and_grads(tied, rng.normal(size=5)[None, :], rng.normal(size=5)[None, :])


def test_single_token_backward_matches_batch_of_one():
    rng = np.random.default_rng(4)
    params = init_block_params(rng, experts=4, top_k=2, model_dim=5, expert_dim=3,
                               shared_dim=2)
    x = rng.normal(size=5)
    upstream = rng.normal(size=5)
    _, single, _ = probe_total_and_grads(params, x[None, :], upstream[None, :])
    _, cache = moe_batch_forward(params, x[None, :])
    batch = moe_batch_backward(params, cache, upstream[None, :])
    assert np.array_equal(single.views["gate.weight"], batch.views["gate.weight"])
    assert np.array_equal(single.x, batch.x)


# -- the stacked forward-only oracle ----------------------------------------

def flatten(params, x):
    """Layout and flat theta in grad_check's order: the block theta, then x."""
    layout = Layout(params.layout.entries + (("x", params.layout.size, x.shape),))
    return layout, np.concatenate([params.theta, x.ravel()])


def scalar_total(row, layout, probe, lam, top_k, normalized):
    """The total of one flat copy through moe_batch_forward and the balance stats."""
    arr = layout.views(row)
    x = arr.pop("x")
    params = BlockParams.from_arrays(arr, top_k, normalized)
    y, cache = moe_batch_forward(params, x)
    balance = balance_stats(cache.mask, cache.scores).balance_loss
    return float(np.sum(probe * y)) + lam * balance, cache


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
    params = BlockParams.from_arrays({**params.views, "gate.weight": weight}, top_k=2)
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


CHUNK_SETTINGS = GradCheckSettings(experts=4, top_k=2, model_dim=5, expert_dim=3,
                                   shared_dim=4, normalized=True, seed=21, trials=2)
CHUNK_ENTRIES = 270  # checked entries per trial of CHUNK_SETTINGS: 260 parameters, 10 of x


@pytest.mark.parametrize("chunk", [1, 7])
def test_grad_check_report_is_chunk_invariant(monkeypatch, chunk):
    default = grad_check(CHUNK_SETTINGS)
    assert default.checked_entries == 2 * CHUNK_ENTRIES
    monkeypatch.setattr(kernel, "_FD_ENTRIES", chunk * CHUNK_ENTRIES)
    assert grad_check(CHUNK_SETTINGS) == default


@pytest.mark.parametrize("budget", [kernel._FD_ENTRIES, 2**15, 100])
def test_stacked_chunks_stay_within_entry_budget(monkeypatch, budget):
    seen = []

    def recording(thetas, *args):
        seen.append(thetas.shape)
        return _stacked_totals(thetas, *args)

    monkeypatch.setattr(kernel, "_stacked_totals", recording)
    monkeypatch.setattr(kernel, "_FD_ENTRIES", budget)
    grad_check(CHUNK_SETTINGS)
    # a budget above the 2P copies of a trial takes them all in one chunk
    assert seen[0] == (min(max(1, budget // CHUNK_ENTRIES), 2 * CHUNK_ENTRIES), CHUNK_ENTRIES)
    assert sum(rows for rows, _ in seen) == 2 * 2 * CHUNK_ENTRIES  # two trials of 2P copies
    assert max(rows * cols for rows, cols in seen) <= max(CHUNK_ENTRIES, budget)
