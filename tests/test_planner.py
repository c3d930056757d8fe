"""Planner arithmetic, power-law fits, sweep and reuse construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from moebudget.arch import DenseShape, MoEShape, training_compute
from moebudget.fixtures import load_table
from moebudget.planner import (
    IdentifiabilityError,
    PlannerError,
    PowerLawFit,
    build_sweep,
    fit_hparam_power_law,
    fit_points_from_table,
    iterations,
    loose_reuse,
    snap_batch,
    strict_reuse,
    sweep_to_csv_rows,
    tokens_for_compute,
    warmup_iters,
)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestTokensForCompute:
    def test_seven_b_reference_row(self):
        assert rel(tokens_for_compute(2.86e21, 9.07e9 / 3), 3.16e11) <= 0.01

    def test_zero_compute(self):
        assert tokens_for_compute(0.0, 1e9) == 0

    def test_two_b_reference_row(self):
        assert rel(tokens_for_compute(9.38e20, 3.13e9 / 3), 2.99e11) <= 0.01

    def test_nonpositive_flops_rejected(self):
        with pytest.raises(PlannerError, match="fwd_flops"):
            tokens_for_compute(1e20, 0.0)

    @given(st.integers(1, 2**60), st.integers(0, 2**60))
    @example(71999863749, 129944532028)  # float division gave D - 1
    def test_integer_counts_round_trip(self, fwd_flops, tokens):
        assert tokens_for_compute(training_compute(fwd_flops, tokens), fwd_flops) == tokens


class TestReuse:
    def test_strict_seven_b_row(self):
        plan = strict_reuse(int(5.11e11), int(6.8e10))
        assert abs(plan.epochs - 7.52) <= 0.02
        assert plan.scheme == "strict" and plan.warning is None

    def test_strict_single_epoch(self):
        plan = strict_reuse(int(1e10), int(1e10))
        assert plan.epochs == 1.0

    def test_strict_three_b_row(self):
        assert abs(strict_reuse(int(3.09e11), int(1.14e11)).epochs - 2.71) <= 0.02

    def test_strict_subset_larger_than_budget_warns(self):
        plan = strict_reuse(10, 100)
        assert plan.epochs == 0.1
        assert plan.warning is not None and "unseen" in plan.warning

    def test_loose_seven_b_rows(self):
        assert loose_reuse(int(3.16e11)).unique_tokens == int(1.58e11)
        assert rel(loose_reuse(int(5.11e11)).unique_tokens, 2.56e11) <= 0.005

    def test_loose_minimal(self):
        plan = loose_reuse(2)
        assert plan.unique_tokens == 1 and plan.epochs == 2.0


class TestIterationArithmetic:
    def test_iterations_examples(self):
        assert iterations(int(3.16e11), 1040, 2048) == pytest.approx(148410, rel=0.005)
        assert iterations(1040 * 2048, 1040, 2048) == 1
        assert iterations(int(1.30e11), 640, 2048) == pytest.approx(98816, rel=0.005)

    def test_warmup_examples(self):
        assert warmup_iters(98816) == 988
        assert warmup_iters(10000) == 200
        assert warmup_iters(300000) == 2000

    def test_snap_batch(self):
        assert snap_batch(850.2) == 848
        assert snap_batch(3.0) == 8


class TestPowerLawFit:
    def test_two_point_slope_over_tokens(self):
        fit = fit_hparam_power_law([(2.15e9, 1.14e11, 2.01e-3),
                                    (2.15e9, 5.41e11, 3.24e-3)])
        assert fit.fixed_exponents == ("params",)
        assert abs(fit.exponent_tokens - 0.307) <= 0.005
        assert rel(fit.predict(2.15e9, 1.68e11), 2.26e-3) <= 0.01
        assert fit.residual_rms <= 1e-12

    def test_two_point_batch_slope(self):
        fit = fit_hparam_power_law([(2.15e9, 1.14e11, 672.0),
                                    (2.15e9, 5.41e11, 1728.0)])
        assert abs(fit.exponent_tokens - 0.606) <= 0.005
        assert rel(snap_batch(fit.predict(2.15e9, 1.68e11)), 832) <= 0.05

    def test_constant_values(self):
        fit = fit_hparam_power_law([(1e9, 1e11, 5.0), (1e9, 1e11, 5.0),
                                    (1e9, 1e11, 5.0)])
        assert fit.exponent_params == fit.exponent_tokens == 0.0
        assert math.isclose(fit.log_coefficient, math.log(5.0))
        assert fit.residual_rms == 0.0

    def test_synthetic_recovery_under_noise(self):
        rng = np.random.default_rng(12)
        a, b, c = math.log(3e-4), -0.21, 0.33
        points = []
        for _ in range(40):
            n = 10 ** rng.uniform(8.5, 10.5)
            d = 10 ** rng.uniform(10.0, 12.0)
            value = math.exp(a) * n ** b * d ** c * (1 + rng.normal(0, 0.01))
            points.append((n, d, value))
        fit = fit_hparam_power_law(points)
        assert abs(fit.exponent_params - b) <= 0.05
        assert abs(fit.exponent_tokens - c) <= 0.05

    def test_underdetermined_rejected(self):
        with pytest.raises(IdentifiabilityError, match="points"):
            fit_hparam_power_law([(1e9, 1e11, 2.0), (2e9, 3e11, 3.0)])
        with pytest.raises(IdentifiabilityError, match="collinear"):
            fit_hparam_power_law([(1e9, 1e11, 2.0), (2e9, 2e11, 3.0),
                                  (4e9, 4e11, 4.0)])

    def test_single_point_constant_fit(self):
        fit = fit_hparam_power_law([(1e9, 1e11, 2.0)])
        assert fit.fixed_exponents == ("params", "tokens")
        assert math.isclose(fit.log_coefficient, math.log(2.0))

    def test_nonpositive_points_rejected(self):
        with pytest.raises(PlannerError, match="positive"):
            fit_hparam_power_law([(1e9, 1e11, -2.0), (1e9, 2e11, 2.0)])


def moe_7b_shapes():
    table = load_table("moe_7b_fixed_compute")
    return table, [table.row_shape(row) for row in table.rows]


class TestBuildSweep:
    def test_fixed_compute_matches_published_rows(self):
        table, shapes = moe_7b_shapes()
        hparams = [(row["eta"], row["B"]) for row in table.rows]
        plan = build_sweep("C", 2.86e21, shapes, row_hparams=hparams)
        plan.validate()
        assert len(plan.rows) == len(table.rows)
        for planned, row in zip(plan.rows, table.rows):
            assert rel(planned.budget.tokens, row["D"]) <= 0.01
            assert rel(planned.iterations, row["Iters"]) <= 0.01

    def test_single_shape_sweep(self):
        _, shapes = moe_7b_shapes()
        plan = build_sweep("C", 2.86e21, shapes[:1], row_hparams=[(6.23e-4, 1040)])
        plan.validate()
        assert len(plan.rows) == 1
        assert plan.rows[0].warmup_iters == warmup_iters(plan.rows[0].iterations)

    def test_fixed_data_compute_span(self):
        table = load_table("moe_7b_fixed_data")
        shapes = [table.row_shape(row) for row in table.rows]
        hparams = [(row["eta"], row["B"]) for row in table.rows]
        plan = build_sweep("D", 1.30e11, shapes, row_hparams=hparams)
        plan.validate()
        computes = [r.budget.train_compute for r in plan.rows]
        assert rel(min(computes), 7.25e20) <= 0.02
        assert rel(max(computes), 2.86e21) <= 0.02

    def test_rows_sorted_by_activation_rate(self):
        table, shapes = moe_7b_shapes()
        hparams = [(row["eta"], row["B"]) for row in table.rows]
        plan = build_sweep("C", 2.86e21, list(reversed(shapes)),
                           row_hparams=list(reversed(hparams)))
        rates = [r.budget.activation_rate for r in plan.rows]
        assert rates == sorted(rates)

    def test_missing_hparam_source_rejected(self):
        _, shapes = moe_7b_shapes()
        with pytest.raises(PlannerError, match="row_hparams or hparam_fits"):
            build_sweep("C", 2.86e21, shapes)

    def test_strict_reuse_epochs_match_published(self):
        table = load_table("moe_7b_strict_reuse")
        # replaying the published token budgets reproduces the epoch column
        for row in table.rows:
            plan = strict_reuse(int(row["D"]), int(6.8e10))
            assert abs(plan.epochs - row["Epoch"]) <= 0.02
        # regenerating the whole design from the compute budget lands within
        # the rounding of the published token counts
        shapes = [table.row_shape(row) for row in table.rows]
        hparams = [(row["eta"], row["B"]) for row in table.rows]
        regenerated = build_sweep("C", 2.86e21, shapes, row_hparams=hparams,
                                  reuse_scheme="strict", unique_tokens=int(6.8e10))
        for planned, row in zip(regenerated.rows, table.rows):
            assert rel(planned.epochs, row["Epoch"]) <= 0.01
            assert planned.unique_tokens == int(6.8e10)

    def test_fitted_hparams_fill_rows(self):
        table, shapes = moe_7b_shapes()
        nominal = table.meta["total_params"]
        eta_fit = fit_hparam_power_law(
            fit_points_from_table(table.rows, "eta", nominal_params=nominal))
        batch_fit = fit_hparam_power_law(
            fit_points_from_table(table.rows, "B", nominal_params=nominal))
        plan = build_sweep("C", 2.86e21, shapes, hparam_fits=(eta_fit, batch_fit))
        plan.validate()
        for planned, row in zip(plan.rows, table.rows):
            assert rel(planned.eta, row["eta"]) <= 0.05
            assert planned.batch_sequences % 8 == 0
            assert rel(planned.batch_sequences, row["B"]) <= 0.10

    def test_csv_projection(self):
        table, shapes = moe_7b_shapes()
        hparams = [(row["eta"], row["B"]) for row in table.rows]
        plan = build_sweep("C", 2.86e21, shapes[:2], row_hparams=hparams[:2])
        header, rows = sweep_to_csv_rows(plan)
        assert header[:7] == ["N", "N_a", "r_a", "M", "D", "C", "D/N"]
        assert header[14] == "epochs"
        assert len(rows) == 2

    def test_dense_shapes_supported(self):
        dense = DenseShape(layers=32, model_dim=4096, ffn_dim=11008, heads=32,
                           head_dim=128, seq_len=2048)
        plan = build_sweep("C", 5.45e21, [dense], row_hparams=[(4.76e-4, 640)])
        plan.validate()
        assert rel(plan.rows[0].budget.tokens, 1.30e11) <= 0.01
        assert isinstance(plan.rows[0].shape, DenseShape)
        assert not isinstance(plan.rows[0].shape, MoEShape)
