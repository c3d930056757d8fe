"""Acceptance gate: every release criterion at its frozen tolerance.

Each test prints context via the conftest summary hook (one PASS/FAIL line
per criterion). Tolerances are fixed here and never loosened at runtime.
"""

import dataclasses
import math
import time

import numpy as np

from moebudget.arch import DenseShape, MoEShape, derive_budget
from moebudget.fixtures import load_table, table_names, validate_fixture_tables
from moebudget.kernel import (
    BlockParams,
    GradCheckSettings,
    balance_stats,
    grad_check,
    init_block_params,
    moe_batch_backward,
    moe_batch_forward,
)
from moebudget.planner import (
    build_sweep,
    fit_hparam_power_law,
    loose_reuse,
    snap_batch,
    strict_reuse,
)
from moebudget.search import SearchSpec, search
from moebudget.toylab import ToyTrainConfig, run_toy_training

REL_TOL = 0.02
RA_TOL_PP = 0.5


def rel(a, b):
    return abs(a - b) / abs(b)


# -- criterion 1: every fixture row reproduces within tolerance, fast --------

def test_criterion_1_fixture_reproduction():
    start = time.perf_counter()
    report = validate_fixture_tables()
    elapsed = time.perf_counter() - start
    assert report.rows_checked == 80
    assert report.ok, [c.to_json_dict() for c in report.failures]
    assert elapsed < 1.0, f"fixture replay took {elapsed:.2f}s"


# -- criterion 2: spot anchors ------------------------------------------------

def test_criterion_2_spot_anchors():
    moe_7b = MoEShape(
        base=DenseShape(layers=24, model_dim=2048, ffn_dim=5464, heads=16,
                        head_dim=128, seq_len=2048),
        moe_layers=23, dense_layers=1, experts=78, top_k=6,
        expert_dim=512, shared_expert_dim=3072)
    budget = derive_budget(moe_7b, tokens=int(3.16e11))
    assert rel(budget.total_params, 6.52e9) <= REL_TOL
    assert rel(budget.active_params, 1.31e9) <= REL_TOL
    assert abs(100 * budget.activation_rate - 20.07) <= RA_TOL_PP
    assert rel(budget.train_flops_per_token, 9.07e9) <= REL_TOL
    assert rel(budget.train_compute, 2.86e21) <= REL_TOL

    moe_2b = MoEShape(
        base=DenseShape(layers=16, model_dim=1408, ffn_dim=3904, heads=11,
                        head_dim=128, seq_len=2048),
        moe_layers=15, dense_layers=1, experts=92, top_k=7,
        expert_dim=320, shared_expert_dim=2240)
    budget_2b = derive_budget(moe_2b)
    assert rel(budget_2b.active_params, 4.29e8) <= REL_TOL
    assert abs(100 * budget_2b.activation_rate - 19.94) <= RA_TOL_PP

    dense_7b = DenseShape(layers=32, model_dim=4096, ffn_dim=11008, heads=32,
                          head_dim=128, seq_len=2048)
    dense_budget = derive_budget(dense_7b, tokens=int(1.30e11))
    assert rel(dense_budget.train_flops_per_token, 4.21e10) <= REL_TOL
    assert rel(dense_budget.train_compute, 5.45e21) <= REL_TOL


# -- criterion 3: gradient oracle over the variant matrix ---------------------

def test_criterion_3_gradient_oracle():
    start = time.perf_counter()
    variants = [(top_k, normalized, shared)
                for top_k in (1, 2, 4)
                for normalized in (False, True)
                if not (top_k == 1 and normalized)
                for shared in (0, 4)]
    assert len(variants) == 10
    total_trials = 0
    worst = 0.0
    for index, (top_k, normalized, shared) in enumerate(variants):
        report = grad_check(GradCheckSettings(
            experts=4, top_k=top_k, model_dim=5, expert_dim=3,
            shared_dim=shared, normalized=normalized, seed=100 + index,
            trials=10, tolerance=1e-5, lam=0.01))
        total_trials += len(report.trials)
        worst = max(worst, report.max_rel_error)
        assert report.passed, (top_k, normalized, shared, report.max_rel_error)
    elapsed = time.perf_counter() - start
    assert total_trials >= 100
    assert worst <= 1e-5
    assert elapsed < 30.0, f"gradient matrix took {elapsed:.1f}s"


# -- criterion 4: gating property suite, 1000 randomized cases each ----------

CASES = 1000


def _random_block(rng, normalized=False, min_experts=2):
    experts = int(rng.integers(min_experts, 9))
    top_k = int(rng.integers(2 if normalized else 1, experts + 1))
    model_dim = int(rng.integers(2, 7))
    params = init_block_params(rng, experts, top_k, model_dim,
                               expert_dim=int(rng.integers(2, 5)),
                               shared_dim=int(rng.integers(0, 4)),
                               normalized=normalized)
    x = rng.normal(size=(int(rng.integers(1, 5)), model_dim))
    return params, x


def route_one(logits, top_k):
    """Forward cache of one token x = [[1.0]] whose gate logits are exactly `logits`,
    through a block with zero expert weights."""
    gate = np.asarray(logits, dtype=float).reshape(-1, 1)
    zeros = np.zeros((gate.shape[0], 1, 1))
    params = BlockParams.from_arrays({"gate.weight": gate, "experts.w_gate": zeros,
                                      "experts.w_up": zeros, "experts.w_down": zeros}, top_k)
    return moe_batch_forward(params, np.array([[1.0]]))[1]


def test_criterion_4_sparsity_and_probabilities():
    rng = np.random.default_rng(41)
    for _ in range(CASES):
        normalized = bool(rng.integers(0, 2))
        params, x = _random_block(rng, normalized=normalized)
        _, cache = moe_batch_forward(params, x)
        # exactly top_k selected per token, and only those evaluated
        assert np.all(cache.mask.sum(axis=1) == params.top_k)
        assert cache.balance.selection_counts.sum() == params.top_k * x.shape[0]
        # softmax scores form a probability vector
        assert np.all(cache.scores >= 0.0)
        assert np.all(np.abs(cache.scores.sum(axis=1) - 1.0) <= 1e-12)
        # gate weights live exactly on the selected set
        assert np.all((cache.gate_weights > 0) == cache.mask)
        if normalized:
            assert np.all(np.abs(cache.gate_weights.sum(axis=1) - 1.0) <= 1e-12)


def test_criterion_4_shift_invariance():
    rng = np.random.default_rng(42)
    for _ in range(CASES):
        experts = int(rng.integers(2, 9))
        model_dim = int(rng.integers(2, 6))
        params = init_block_params(rng, experts,
                                   int(rng.integers(1, experts + 1)), model_dim,
                                   expert_dim=int(rng.integers(2, 4)))
        # dyadic logits in the first gate column so the shift adds exactly
        gate_w = np.zeros((experts, model_dim))
        gate_w[:, 0] = rng.integers(-512, 512, size=experts) / 16.0
        shift = float(rng.integers(-2048, 2048)) / 16.0
        x = np.concatenate([[1.0], rng.normal(size=model_dim - 1)])
        base = BlockParams.from_arrays({**params.views, "gate.weight": gate_w},
                                       params.top_k)
        moved = BlockParams.from_arrays(
            {**params.views,
             "gate.weight": gate_w + np.array([[shift] + [0.0] * (model_dim - 1)])},
            params.top_k)
        y0, c0 = moe_batch_forward(base, x[None, :])
        y1, c1 = moe_batch_forward(moved, x[None, :])
        assert np.array_equal(c0.mask, c1.mask)
        assert np.array_equal(c0.scores, c1.scores)
        assert np.array_equal(y0, y1)


def test_criterion_4_scaling_selection_invariance():
    rng = np.random.default_rng(43)
    done = 0
    while done < CASES:
        experts = int(rng.integers(2, 12))
        logits = rng.normal(size=experts)
        if np.diff(np.sort(logits)).min() < 1e-6:
            continue
        top_k = int(rng.integers(1, experts + 1))
        scale = float(rng.uniform(1.0001, 100.0))
        a = route_one(logits, top_k)
        b = route_one(scale * logits, top_k)
        assert np.array_equal(a.mask, b.mask)
        done += 1


def test_criterion_4_dense_masked_oracle():
    def silu(z):
        return z / (1.0 + np.exp(-z))

    rng = np.random.default_rng(44)
    for _ in range(CASES):
        params, x = _random_block(rng, normalized=bool(rng.integers(0, 2)))
        y, cache = moe_batch_forward(params, x)
        oracle = np.zeros_like(x)
        p = params.views
        for i in range(params.expert_count):
            hidden = silu(x @ p["experts.w_gate"][i].T) * (x @ p["experts.w_up"][i].T)
            oracle += cache.gate_weights[:, i, None] * (hidden @ p["experts.w_down"][i].T)
        if "shared.w_gate" in p:
            hidden = silu(x @ p["shared.w_gate"].T) * (x @ p["shared.w_up"].T)
            oracle += hidden @ p["shared.w_down"].T
        scale = np.maximum(np.abs(oracle), 1e-30)
        assert np.all(np.abs(y - oracle) / scale <= 1e-12)


def test_criterion_4_normalized_single_selection_zero_gradient():
    rng = np.random.default_rng(45)
    for _ in range(CASES):
        experts = int(rng.integers(2, 7))
        params = init_block_params(rng, experts, 2, int(rng.integers(2, 6)),
                                   expert_dim=2, normalized=True)
        object.__setattr__(params, "top_k", 1)  # construction-time guard bypass
        x = rng.normal(size=(2, params.model_dim))
        _, cache = moe_batch_forward(params, x)
        grads = moe_batch_backward(params, cache, rng.normal(size=x.shape))
        assert np.all(grads.views["gate.weight"] == 0.0)


def test_criterion_4_balance_identities():
    rng = np.random.default_rng(46)
    for _ in range(CASES):
        params, x = _random_block(rng)
        _, cache = moe_batch_forward(params, x)
        stats = balance_stats(cache.mask, cache.scores)
        n = x.shape[0]
        assert int(stats.selection_counts.sum()) == params.top_k * n
        assert stats.load_fraction_total == float(params.top_k)
        assert abs(stats.mean_score.sum() - 1.0) <= 1e-12


def test_criterion_4_uniform_routing_balance_floor():
    rng = np.random.default_rng(47)
    for _ in range(CASES):
        experts = int(rng.choice([2, 4, 8, 16]))
        top_k = int(rng.integers(1, experts + 1))
        template = route_one(np.zeros(experts), top_k)
        mask = np.zeros((experts, experts), dtype=bool)
        for t in range(experts):
            mask[t, [(top_k * t + j) % experts for j in range(top_k)]] = True
        stats = balance_stats(mask, np.tile(template.scores[0], (experts, 1)))
        assert np.ptp(stats.load_fraction) == 0.0
        assert stats.balance_loss == float(top_k)


# -- criterion 5: hyperparameter refit ----------------------------------------

def test_criterion_5_hyperparameter_refit():
    table = load_table("moe_2b_fixed_data")
    nominal = table.meta["total_params"]
    eta_points = table.fit_points("eta", ra=8.74)
    fit = fit_hparam_power_law([eta_points[0], eta_points[-1]])
    assert abs(fit.exponent_tokens - 0.307) <= 0.005
    held_out = next(p for p in eta_points if abs(p[1] - 1.68e11) < 1e9)
    assert rel(fit.predict(nominal, held_out[1]), held_out[2]) <= 0.01

    batch_points = table.fit_points("B", ra=8.74)
    batch_fit = fit_hparam_power_law([batch_points[0], batch_points[-1]])
    predicted = snap_batch(batch_fit.predict(nominal, 1.68e11))
    assert rel(predicted, 832) <= 0.05

    rng = np.random.default_rng(55)
    a, b, c = math.log(1.7e-2), -0.31, 0.29
    synthetic = []
    for _ in range(60):
        n = 10 ** rng.uniform(8.0, 10.5)
        d = 10 ** rng.uniform(10.0, 12.0)
        synthetic.append((n, d, math.exp(a) * n ** b * d ** c
                          * (1.0 + rng.normal(0.0, 0.01))))
    recovered = fit_hparam_power_law(synthetic)
    assert abs(recovered.exponent_params - b) <= 0.05
    assert abs(recovered.exponent_tokens - c) <= 0.05


# -- criterion 6: search round-trip over every MoE fixture row ----------------

def test_criterion_6_search_round_trip():
    checked = 0
    for name in table_names():
        table = load_table(name)
        if table.kind != "moe":
            continue
        meta = table.meta
        zeta = meta["model_dim"] / meta["layers"]
        alpha = meta["ffn_dim"] / meta["model_dim"]
        for row in table.rows:
            model_dim = meta["model_dim"]
            mu = row.get("mu",
                         (row["D_se"] + row["E"] * row["D_e"]) / model_dim)
            spec = SearchSpec(
                target_params=int(meta["total_params"]),
                target_activation_rate=row["r_a"] / 100.0,
                aspect_ratio=zeta, expert_width_ratio=mu,
                dense_ffn_ratio=alpha, head_dim=int(meta["head_dim"]))
            result = search(spec)
            assert result.candidates, (name, row, result.diagnostics)
            top = result.candidates[0]
            assert rel(top.budget.total_params, meta["total_params"]) <= REL_TOL, \
                (name, row)
            assert rel(top.budget.active_params, row["N_a"]) <= REL_TOL, (name, row)
            assert abs(100 * top.budget.activation_rate - row["r_a"]) <= RA_TOL_PP, \
                (name, row)
            checked += 1
    assert checked == 74  # every MoE row across the eight MoE tables

    # determinism across repeated runs
    spec = SearchSpec(target_params=int(6.52e9), target_activation_rate=0.2007,
                      aspect_ratio=85.3, expert_width_ratio=21.0,
                      dense_ffn_ratio=5464 / 2048, head_dim=128)
    first = search(spec)
    second = search(spec)
    assert [c.shape for c in first.candidates] == [c.shape for c in second.candidates]


# -- criterion 7: toy-lab behavior --------------------------------------------

def test_criterion_7_toy_lab_behavior():
    start = time.perf_counter()
    config = ToyTrainConfig(steps=2000, seed=0, lam=0.01)
    balanced = run_toy_training(config)
    assert balanced.final.load_cv < 0.25, balanced.final.load_cv
    assert balanced.final.ce_loss < balanced.initial.ce_loss

    unbalanced = run_toy_training(dataclasses.replace(config, lam=0.0))
    assert unbalanced.final.load_cv >= balanced.final.load_cv

    repeat = run_toy_training(config)
    assert repeat == balanced  # bit-deterministic per seed
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"toy-lab runs took {elapsed:.0f}s"


# -- criterion 8: experiment designs regenerate; headline results do not -----

def test_criterion_8_design_regeneration():
    # The headline training outcomes behind the fixtures need multi-trillion-
    # token runs and are not reproduced here; the experiment designs that
    # produced them are regenerated instead and must match the fixtures.
    table = load_table("moe_7b_fixed_compute")
    shapes = [table.row_shape(row) for row in table.rows]
    hparams = [(row["eta"], row["B"]) for row in table.rows]
    plan = build_sweep("C", 2.86e21, shapes, row_hparams=hparams)
    plan.validate()
    for planned, row in zip(plan.rows, table.rows):
        assert rel(planned.budget.tokens, row["D"]) <= 0.01, row
        assert rel(planned.iterations, row["Iters"]) <= 0.01, row

    for name, unique in (("moe_7b_strict_reuse", 6.8e10),
                         ("moe_3b_strict_reuse_65b", 6.5e10),
                         ("moe_3b_strict_reuse_114b", 1.14e11)):
        reuse_table = load_table(name)
        for row in reuse_table.rows:
            schedule = strict_reuse(int(row["D"]), int(unique))
            assert abs(schedule.epochs - row["Epoch"]) <= 0.02, (name, row)

    loose_table = load_table("moe_7b_loose_reuse")
    source = {round(r["r_a"], 2): r for r in table.rows}
    for row in loose_table.rows:
        consumed = int(source[round(row["r_a"], 2)]["D"])
        schedule = loose_reuse(consumed)
        assert schedule.epochs == 2.0
        assert rel(schedule.unique_tokens, row["D_hat"]) <= 0.01, row
    print("NOTE: fixture BPC columns are carried opaquely; the training "
          "outcomes they record are out of desk-scale reach and only the "
          "experiment designs are regenerated.")
