"""Manual backward pass against central finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebudget import kernel
from moebudget.kernel import (
    BlockParams,
    GradCheckSettings,
    Layout,
    _fd_totals,
    balance_stats,
    grad_check,
    init_block_params,
    moe_batch_backward,
    moe_batch_forward,
    selection_margin,
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


def test_balance_term_only_moves_gate_gradients():
    rng = np.random.default_rng(2)
    params = init_block_params(rng, experts=5, top_k=2, model_dim=4, expert_dim=3)
    x = rng.normal(size=(4, 4))
    probe = rng.normal(size=(4, 4))
    _, cache = moe_batch_forward(params, x)
    g0 = moe_batch_backward(params, cache, probe, lam=0.0)
    # the next backward on this cache overwrites g0's workspace buffers
    gate0, down0 = g0.views["gate.weight"].copy(), g0.views["experts.w_down"].copy()
    g1 = moe_batch_backward(params, cache, probe, lam=0.5)
    assert not np.array_equal(gate0, g1.views["gate.weight"])
    assert np.array_equal(down0, g1.views["experts.w_down"])


CRITERION_3_VARIANTS = [(top_k, normalized, shared) for top_k in (1, 2, 4)
                        for normalized in (False, True) if not (top_k == 1 and normalized)
                        for shared in (0, 4)]


@pytest.mark.parametrize("top_k,normalized,shared", CRITERION_3_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_cache_backward_matches_a_fresh_forward(top_k, normalized, shared, seed):
    # grad_check backpropagates through the forward that accepted its draw
    settings = GradCheckSettings(experts=4, top_k=top_k, model_dim=5, expert_dim=3,
                                 shared_dim=shared, normalized=normalized, seed=seed)
    params, x, probe, cache = kernel._draw_non_tie_configuration(
        np.random.default_rng(seed), settings)
    assert selection_margin(cache) > kernel._TIE_MARGIN
    handed = moe_batch_backward(params, cache, probe, settings.lam)
    _, fresh_cache = moe_batch_forward(params, x)
    fresh = moe_batch_backward(params, fresh_cache, probe, settings.lam)
    assert np.array_equal(handed.theta, fresh.theta)
    assert np.array_equal(handed.x, fresh.x)


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


def entry_per_part(rng, layout):
    """One random flat entry of gate.weight, of each expert in each experts.* weight,
    of each shared weight and of x."""
    entries = []
    for name, off, shape in layout.entries:
        blocks = shape[0] if name.startswith("experts.") else 1
        size = math.prod(shape) // blocks
        entries += [off + block * size + int(rng.integers(size)) for block in range(blocks)]
    return np.array(entries)


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
        entries = entry_per_part(rng, layout)
        assert entries.size == 1 + 3 * experts + 3 * shared + 1
        moved = theta + 0.3 * rng.normal(size=(2, theta.size))
        totals = _fd_totals(theta, moved, layout, probe, lam, top_k, normalized)
        assert totals.shape == (2, theta.size)
        for side, j in np.ndindex(2, entries.size):
            row = theta.copy()
            row[entries[j]] = moved[side, entries[j]]
            assert_close(totals[side, entries[j]],
                         scalar_total(row, layout, probe, lam, top_k, normalized)[0])


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
    h = 1e-5 * np.maximum(1.0, np.abs(theta))
    moved = np.stack([theta + h, theta - h])
    totals = _fd_totals(theta, moved, layout, probe, 0.01, 2, False)
    masks = [scalar_total(theta, layout, probe, 0.01, 2, False)[1].mask[0].tolist()]
    for side in (0, 1):
        row = theta.copy()
        row[j] = moved[side, j]
        expected, cache = scalar_total(row, layout, probe, 0.01, 2, False)
        assert_close(totals[side, j], expected)
        masks.append(cache.mask[0].tolist())
    assert masks[0] == masks[2] == [True, True, False, False]
    assert masks[1] == [True, False, True, False]


def dense_totals(thetas, layout, probe, lam, top_k, normalized):
    """The reference: every part of the block on every row, all experts densely."""
    p = layout.views(thetas)
    x = p["x"]
    scores, mask, gate_weights, _ = kernel._batch_gate(p["gate.weight"], x, top_k, normalized)
    xe = x[:, None]
    hidden = kernel._silu(xe @ p["experts.w_gate"].swapaxes(-1, -2)) \
        * (xe @ p["experts.w_up"].swapaxes(-1, -2))
    out = hidden @ p["experts.w_down"].swapaxes(-1, -2)  # (c, experts, n, model_dim)
    y = np.zeros_like(x)
    for i in range(out.shape[1]):
        y += gate_weights[..., i, None] * out[:, i]
    if "shared.w_gate" in p:
        shared_h = kernel._silu(x @ p["shared.w_gate"].swapaxes(-1, -2)) \
            * (x @ p["shared.w_up"].swapaxes(-1, -2))
        y += shared_h @ p["shared.w_down"].swapaxes(-1, -2)
    n, experts = scores.shape[-2:]
    balance = experts * (mask.sum(axis=-2) / n * scores.mean(axis=-2)).sum(axis=-1)
    return (probe * y).sum(axis=(-2, -1)) + lam * balance


# (experts, top_k, normalized, model_dim, expert_dim, shared_dim, tokens): criterion 3's
# variants, then one expert, Top-K over every expert, shapes without a shared expert, and
# 8 or more experts, where a pairwise sum over the expert axis would change the bits (the
# last with one token of one entry, where nothing but the expert axis is left per row)
EXACT_SHAPES = [(4, top_k, normalized, 5, 3, shared, 2)
                for top_k, normalized, shared in CRITERION_3_VARIANTS] + [
    (1, 1, False, 3, 2, 0, 3), (1, 1, False, 1, 1, 2, 1), (3, 3, True, 2, 1, 2, 2),
    (5, 5, False, 4, 2, 0, 4), (6, 2, True, 3, 4, 0, 1), (2, 1, False, 1, 3, 1, 3),
    (8, 3, True, 3, 2, 2, 2), (9, 2, False, 2, 1, 0, 3), (8, 8, False, 1, 1, 0, 1)]


def assert_totals_equal_the_dense_reference(shape, seed):
    experts, top_k, normalized, model_dim, expert_dim, shared_dim, tokens = shape
    rng = np.random.default_rng(seed)
    params = init_block_params(rng, experts, top_k, model_dim, expert_dim, shared_dim,
                               normalized)
    x = rng.normal(size=(tokens, model_dim))
    probe = rng.normal(size=x.shape)
    layout, theta = flatten(params, x)
    size = theta.size
    moved = np.stack([theta + 1e-5, theta - 1e-5])
    totals = _fd_totals(theta, moved, layout, probe, 0.01, top_k, normalized)
    copies = np.broadcast_to(theta, (2, size, size)).copy()  # the 2P copies, explicitly
    copies[:, np.arange(size), np.arange(size)] = moved
    dense = dense_totals(copies.reshape(2 * size, size), layout, probe, 0.01, top_k,
                         normalized)
    assert np.array_equal(totals, dense.reshape(2, size))


@pytest.mark.parametrize("shape", EXACT_SHAPES)
def test_stacked_totals_equal_the_dense_reference(shape):
    assert_totals_equal_the_dense_reference(shape, list(shape))


@st.composite
def block_shapes(draw):
    """(experts, top_k, normalized, model_dim, expert_dim, shared_dim, tokens)."""
    normalized = draw(st.booleans())  # needs top_k >= 2
    experts = draw(st.integers(1 + normalized, 16))
    return (experts, draw(st.integers(1 + normalized, experts)), normalized,
            draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3)),
            draw(st.integers(1, 3)))


@given(block_shapes(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_stacked_totals_equal_the_dense_reference_on_drawn_shapes(shape, seed):
    assert_totals_equal_the_dense_reference(shape, seed)


def test_grad_check_holds_one_stack_of_copies_at_a_time():
    # P = 4*16 + 3*4*(16*16) + 3*16*16 + 2*16 entries. The largest stack is an experts.*
    # array's: 2 copies of each expert's 16*16 entries per entry, 16*4*(16*16)**2 bytes,
    # and two of them live at once would take at least twice that.
    settings = GradCheckSettings(experts=4, model_dim=16, expert_dim=16, shared_dim=16,
                                 trials=1)
    stack = 16 * 4 * (16 * 16) ** 2
    tracemalloc.start()
    try:
        report = grad_check(settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.checked_entries == 4 * 16 + 3 * 4 * 16 * 16 + 3 * 16 * 16 + 2 * 16
    assert stack <= peak < 2 * stack, (peak, stack)
