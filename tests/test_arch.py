"""Parameter/FLOP accounting: worked examples, identities, and monotonicity."""

import argparse
import dataclasses
import math
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebudget.arch import (
    DENSE_KEYS,
    MOE_KEYS,
    ComputeRatio,
    DenseShape,
    MoEShape,
    ShapeError,
    activation_rate,
    check_bounds,
    compute_ratio,
    dense_fwd_flops,
    dense_params,
    derive_budget,
    moe_fwd_flops,
    moe_params,
    shape_from_json,
    shape_to_json,
    table_columns,
    training_compute,
)
from moebudget import cli
from moebudget.errors import MoebudgetError
from moebudget.fixtures import FixtureTable, _meta_count
from moebudget.kernel import GradCheckSettings, KernelError
from moebudget.planner import (build_sweep, iterations, loose_reuse, strict_reuse,
                               tokens_for_compute, warmup_iters)
from moebudget.search import SearchSpec, SearchSpecError, dense_baseline
from moebudget.toylab import ToyConfigError, ToyTask, ToyTrainConfig, toy_config_from_json

DENSE_7B = DenseShape(layers=32, model_dim=4096, ffn_dim=11008, heads=32,
                      head_dim=128, seq_len=2048)
DENSE_2B = DenseShape(layers=28, model_dim=2176, ffn_dim=8848, heads=17,
                      head_dim=128, seq_len=2048)

MOE_7B = MoEShape(
    base=DenseShape(layers=24, model_dim=2048, ffn_dim=5464, heads=16,
                    head_dim=128, seq_len=2048),
    moe_layers=23, dense_layers=1, experts=78, top_k=6,
    expert_dim=512, shared_expert_dim=3072)
MOE_2B = MoEShape(
    base=DenseShape(layers=16, model_dim=1408, ffn_dim=3904, heads=11,
                    head_dim=128, seq_len=2048),
    moe_layers=15, dense_layers=1, experts=92, top_k=7,
    expert_dim=320, shared_expert_dim=2240)


def rel(a, b):
    return abs(a - b) / abs(b)


def _record(make, **base):
    def record(field, value):
        return make(**{**base, field: value})
    record.__name__ = make.__name__
    return record


_DENSE = _record(DenseShape, layers=4, model_dim=256, ffn_dim=512, heads=2, head_dim=128,
                 seq_len=64)
_MOE = _record(MoEShape, base=_DENSE("layers", 4), moe_layers=3, dense_layers=1, experts=4,
               top_k=2, expert_dim=64)
_SPEC = _record(SearchSpec, target_params=10**9, target_activation_rate=0.2)
_DENSE_BASELINE = _record(dense_baseline, target_params=6.48e9, aspect_ratio=128.0,
                          ffn_ratio=2.69)


def _meta(field, value):
    return _meta_count(FixtureTable("t", "moe", (), {"total_params": value}), "total_params")


def _row_h(field, value):
    return FixtureTable("t", "dense", (), {}).row_shape({"H": value})


def _sweep_value(field, value):
    return build_sweep("D", value, [MOE_7B], row_hparams=[(1e-3, 24)])


def _sweep_b(field, value):
    return build_sweep("D", 10**12, [MOE_7B], row_hparams=[(1e-3, value)])


def _sweep_eta(field, value):
    return build_sweep("D", 10**12, [MOE_7B], row_hparams=[(value, 24)])


def _count(field, value):
    return cli._count(str(value))


# (record or call, field, bound, values just outside the bound); a field that must be
# finite lists inf after NaN, under the first bound that NaN or inf fails
BOUNDS = [
    *((_DENSE, f, ">= 1", [0, nan]) for f in ("layers", "model_dim", "ffn_dim", "heads",
                                                 "head_dim", "seq_len")),
    *((_MOE, f, ">= 1", [0, nan]) for f in ("moe_layers", "experts", "expert_dim")),
    (_MOE, "shared_expert_dim", ">= 0", [-1, nan]),
    (_MOE, "top_k", "in [1, 4]", [0, 5, nan]),
    *((_record(GradCheckSettings), f, ">= 1", [0, nan])
      for f in ("experts", "model_dim", "expert_dim", "trials")),
    *((_record(GradCheckSettings), f, ">= 0", [-1, nan]) for f in ("shared_dim", "seed")),
    (_record(GradCheckSettings), "lam", ">= 0", [-1e-9, nan]),
    (_record(GradCheckSettings), "lam", "finite", [inf]),
    (_record(GradCheckSettings), "tolerance", "> 0", [0.0, nan]),
    (_record(GradCheckSettings), "tolerance", "finite", [inf]),
    *((_record(ToyTask), f, ">= 2", [1, nan]) for f in ("vocab", "seq_len", "clusters")),
    (_record(ToyTask), "seed", ">= 0", [-1, nan]),
    (_record(ToyTask), "concentration", "finite and >= 0", [-1e-9, nan, inf]),
    (_record(ToyTrainConfig), "steps", ">= 0", [-1, nan]),
    (_record(ToyTrainConfig), "lam", ">= 0", [-1e-9, nan]),
    (_record(ToyTrainConfig), "lam", "finite", [inf]),
    (_record(ToyTrainConfig), "lr", "finite and > 0", [0.0, nan, inf]),
    (_record(ToyTrainConfig), "momentum", "finite and >= 0", [-1e-9, nan, inf]),
    *((_record(ToyTrainConfig), f, ">= 1", [0, nan])
      for f in ("batch_sequences", "model_dim", "expert_dim", "experts")),
    *((_record(ToyTrainConfig), f, ">= 0", [-1, nan]) for f in ("shared_dim", "seed")),
    (_record(ToyTrainConfig), "top_k", "in [1, 8]", [0, 9, nan]),
    (_SPEC, "target_params", ">= 1", [0, nan]),
    (_SPEC, "target_activation_rate", "in (0, 1]", [0.0, 1.0000000000000002, nan]),
    *((_SPEC, f, "> 0", [0.0, nan])
      for f in ("aspect_ratio", "expert_width_ratio", "dense_ffn_ratio")),
    (_SPEC, "k_min", ">= 1", [0, nan]),
    (_SPEC, "k_max", ">= 2", [1, nan]),
    *((_SPEC, f, ">= 1", [0, nan]) for f in ("head_dim", "seq_len", "expert_dim_multiple",
                                              "max_experts", "max_candidates")),
    (_DENSE_BASELINE, "target_params", ">= 1", [0, nan]),
    *((_DENSE_BASELINE, f, "> 0", [0.0, nan]) for f in ("aspect_ratio", "ffn_ratio")),
    (_DENSE_BASELINE, "head_dim", ">= 1", [0, nan]),
    (_record(training_compute, fwd_flops_per_token=10), "tokens", ">= 0", [-1]),
    (_record(tokens_for_compute, train_compute=10), "fwd_flops_per_token", "> 0", [0]),
    (_record(tokens_for_compute, fwd_flops_per_token=10), "train_compute", ">= 0", [-1]),
    *((_record(iterations, tokens=10, batch_sequences=1, seq_len=1), f, ">= 1", [0, nan])
      for f in ("batch_sequences", "seq_len")),
    (_record(warmup_iters), "total_iters", ">= 0", [-1, nan]),
    (_record(strict_reuse, consumed_tokens=10), "unique_tokens", "> 0", [0, nan]),
    (_record(strict_reuse, unique_tokens=10), "consumed_tokens", ">= 0", [-1, nan]),
    (_record(loose_reuse), "consumed_tokens", ">= 0", [-1, nan]),
    (_sweep_value, "fixed value", "> 0", [0]),
    (_sweep_eta, "eta", "finite and > 0", [0.0, nan, inf]),
    (_sweep_b, "B", ">= 1", [0]),
    (_count, "count", ">= 0", [-1]),
    (_meta, "index entry 't': total_params", "> 0 and finite", [0.0, nan, inf]),
    (_row_h, "t: H", ">= 1", [0.0, nan]),
]
# a count read exactly rejects NaN as a type, before its bound
TYPE_CASES = [
    (lambda: training_compute(10, nan), "tokens must be int, got nan"),
    (lambda: tokens_for_compute(10, nan), "fwd_flops_per_token must be int, got nan"),
    (lambda: tokens_for_compute(nan, 10), "train_compute must be int, got nan"),
    (lambda: _sweep_value("value", nan), "value must be int, got nan"),
    (lambda: _sweep_b("B", nan), "B must be int, got nan"),
]


def _bound_cases():
    cases = [pytest.param(make, message, id=message) for make, message in TYPE_CASES]
    for call, field, bound, values in BOUNDS:
        for value in values:
            message = f"{field} must be {bound}, got {value}"
            cases.append(pytest.param(lambda call=call, field=field, value=value:
                                      call(field, value), message,
                                      id=f"{call.__name__}: {message}"))
    return cases


class TestDenseParams:
    def test_seven_b_reference(self):
        assert rel(dense_params(DENSE_7B), 6.48e9) <= 0.02

    def test_unit_scale(self):
        shape = DenseShape(layers=1, model_dim=1, ffn_dim=1, heads=1, head_dim=1,
                           seq_len=1)
        assert dense_params(shape) == 7

    def test_two_b_reference(self):
        assert rel(dense_params(DENSE_2B), 2.15e9) <= 0.02

    def test_invalid_shape_names_invariant(self):
        with pytest.raises(ShapeError, match="heads \\* head_dim"):
            DenseShape(layers=2, model_dim=100, ffn_dim=300, heads=3, head_dim=32)
        with pytest.raises(ShapeError, match="layers"):
            DenseShape(layers=0, model_dim=128, ffn_dim=256, heads=1, head_dim=128)


class TestDenseFlops:
    def test_seven_b_training_cost(self):
        assert rel(3 * dense_fwd_flops(DENSE_7B), 4.21e10) <= 0.01

    def test_two_b_training_cost(self):
        assert rel(3 * dense_fwd_flops(DENSE_2B), 1.44e10) <= 0.02

    @given(layers=st.integers(1, 64), width_units=st.integers(1, 40),
           ffn=st.integers(16, 20000), seq=st.integers(1, 8192))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_identity(self, layers, width_units, ffn, seq):
        # 2N + 4*D_m*S*L must equal 2N*(1 + 2*gamma/(4+3*alpha)) up to roundoff
        shape = DenseShape(layers=layers, model_dim=64 * width_units, ffn_dim=ffn,
                           heads=width_units, head_dim=64, seq_len=seq)
        n = dense_params(shape)
        closed = 2 * n * (1 + 2 * (shape.seq_len / shape.model_dim) / (4 + 3 * shape.ffn_ratio))
        assert rel(dense_fwd_flops(shape), closed) <= 1e-12


class TestMoeParams:
    def test_seven_b_reference_row(self):
        total, active = moe_params(MOE_7B)
        assert rel(total, 6.52e9) <= 0.02
        assert rel(active, 1.31e9) <= 0.02

    def test_two_b_reference_row(self):
        total, active = moe_params(MOE_2B)
        assert rel(total, 2.15e9) <= 0.02
        assert rel(active, 4.29e8) <= 0.02

    def test_all_active_equals_total(self):
        shape = MoEShape(
            base=DenseShape(layers=4, model_dim=256, ffn_dim=512, heads=2,
                            head_dim=128, seq_len=128),
            moe_layers=3, dense_layers=1, experts=8, top_k=8,
            expert_dim=64, shared_expert_dim=0)
        total, active = moe_params(shape)
        assert total == active

    def test_invariants_rejected(self):
        base = DenseShape(layers=4, model_dim=256, ffn_dim=512, heads=2,
                          head_dim=128, seq_len=128)
        with pytest.raises(ShapeError, match="top_k"):
            MoEShape(base=base, moe_layers=3, dense_layers=1, experts=4, top_k=5,
                     expert_dim=64)
        with pytest.raises(ShapeError, match="moe_layers \\+ dense_layers"):
            MoEShape(base=base, moe_layers=2, dense_layers=1, experts=4, top_k=2,
                     expert_dim=64)
        with pytest.raises(ShapeError, match="normalized"):
            MoEShape(base=base, moe_layers=3, dense_layers=1, experts=4, top_k=1,
                     expert_dim=64, gate_normalized=True)
        with pytest.raises(ShapeError, match="moe_layers \\+ dense_layers"):
            MoEShape(base=base, moe_layers=3, dense_layers=1, experts=4, top_k=2,
                     expert_dim=64, arrangement="full")


class TestActivationRate:
    def test_seven_b_reference_row(self):
        assert abs(activation_rate(MOE_7B) - 0.2007) <= 0.005

    def test_fully_active_pure_moe(self):
        shape = MoEShape(
            base=DenseShape(layers=2, model_dim=256, ffn_dim=512, heads=2,
                            head_dim=128, seq_len=128),
            moe_layers=2, dense_layers=0, experts=4, top_k=4,
            expert_dim=64, shared_expert_dim=0, arrangement="full")
        assert activation_rate(shape) == 1.0

    def test_pure_moe_closed_form(self):
        shape = MoEShape(
            base=DenseShape(layers=2, model_dim=2048, ffn_dim=5464, heads=16,
                            head_dim=128, seq_len=2048),
            moe_layers=2, dense_layers=0, experts=64, top_k=8,
            expert_dim=512, shared_expert_dim=0, arrangement="full")
        # beta = 2, mu = 16: rate = (4 + 6) / (4 + 48) = 10/52
        assert math.isclose(activation_rate(shape), 10 / 52, rel_tol=1e-12)
        total, active = moe_params(shape)
        assert math.isclose(active / total, 10 / 52, rel_tol=1e-12)


class TestMoeFlops:
    def test_seven_b_training_cost(self):
        assert rel(3 * moe_fwd_flops(MOE_7B), 9.07e9) <= 0.01

    def test_two_b_training_cost(self):
        assert rel(3 * moe_fwd_flops(MOE_2B), 3.13e9) <= 0.01

    def test_degenerate_moe_equals_dense(self):
        dense = DenseShape(layers=8, model_dim=512, ffn_dim=1536, heads=4,
                           head_dim=128, seq_len=256)
        moe = MoEShape(base=dense, moe_layers=8, dense_layers=0, experts=4,
                       top_k=4, expert_dim=384, shared_expert_dim=0,
                       arrangement="full")
        assert moe_fwd_flops(moe) == dense_fwd_flops(dense)
        assert moe_params(moe) == (dense_params(dense),) * 2
        budget_moe = derive_budget(moe, tokens=1000)
        budget_dense = derive_budget(dense, tokens=1000)
        assert budget_moe == budget_dense


class TestComputeRatio:
    def test_degenerate_ratio_is_one(self):
        dense = DenseShape(layers=8, model_dim=512, ffn_dim=1536, heads=4,
                           head_dim=128, seq_len=256)
        moe = MoEShape(base=dense, moe_layers=8, dense_layers=0, experts=4,
                       top_k=4, expert_dim=384, shared_expert_dim=0,
                       arrangement="full")
        ratio = compute_ratio(moe, dense, seq_len=256)
        assert math.isclose(ratio.formula, 1.0, rel_tol=1e-12)
        assert math.isclose(ratio.direct, 1.0, rel_tol=1e-12)

    def test_seven_b_vs_dense_baseline(self):
        ratio = compute_ratio(MOE_7B, DENSE_7B, seq_len=2048)
        # direct per-token ratio of the two published training costs
        assert rel(ratio.direct, 9.07e9 / 4.21e10) <= 0.02
        assert abs(ratio.formula - ratio.direct) / ratio.direct <= 0.05
        assert isinstance(ratio, ComputeRatio)

    def test_monotone_in_top_k(self):
        previous = 0.0
        for top_k in range(1, MOE_7B.experts + 1):
            moe = dataclasses.replace(MOE_7B, top_k=top_k)
            value = compute_ratio(moe, DENSE_7B, seq_len=2048).formula
            assert value > previous
            previous = value


class TestTrainingCompute:
    def test_seven_b_reference_row(self):
        m_fwd = 3_023_333_333  # M_train 9.07e9 / 3
        assert rel(training_compute(m_fwd, int(3.16e11)), 2.86e21) <= 0.01

    def test_zero_tokens(self):
        assert training_compute(1e9, 0) == 0

    def test_dense_seven_b_row(self):
        assert rel(training_compute(14_033_333_333, int(1.30e11)), 5.45e21) <= 0.01

    def test_integral_floats_convert_exactly(self):
        assert training_compute(2.0 ** 60, 3.0) == 9 * 2 ** 60

    @pytest.mark.parametrize("fwd, tokens, message", [
        (1.5, 2, "fwd_flops_per_token must be int, got 1.5"),
        (2, 2.9, "tokens must be int, got 2.9"),
        (2, -1, "tokens must be >= 0, got -1")])
    def test_fractional_or_negative_counts_raise(self, fwd, tokens, message):
        with pytest.raises(ShapeError) as info:
            training_compute(fwd, tokens)
        assert str(info.value) == message


class TestCheckBounds:
    @pytest.mark.parametrize("record, error", [(GradCheckSettings, KernelError),
                                               (ToyTrainConfig, ToyConfigError)])
    def test_nan_fails_its_bound(self, record, error):
        with pytest.raises(error) as info:
            record(lam=math.nan)
        assert str(info.value) == "lam must be >= 0, got nan"

    @pytest.mark.parametrize("make, message", [
        (lambda: GradCheckSettings(lam=-1.0, experts=0), "experts must be >= 1, got 0"),
        (lambda: ToyTrainConfig(seed=-1, batch_sequences=0),
         "batch_sequences must be >= 1, got 0"),
        (lambda: dataclasses.replace(DENSE_7B, layers=0, heads=0), "layers must be >= 1, got 0"),
        (lambda: ToyTrainConfig(lam=math.inf), "lam must be finite, got inf"),
        pytest.param(lambda: GradCheckSettings(tolerance=math.inf),
                     "tolerance must be finite, got inf", id="GradCheckSettings-tolerance-inf"),
        pytest.param(lambda: GradCheckSettings(lam=math.inf), "lam must be finite, got inf",
                     id="GradCheckSettings-lam-inf"),
        (lambda: SearchSpec(target_params=10**9, target_activation_rate=0.001, seq_len=0),
         "seq_len must be >= 1, got 0"),
    ])
    def test_first_bad_field_is_reported(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_k_max_below_k_min_names_k_max(self):
        with pytest.raises(SearchSpecError) as info:
            SearchSpec(target_params=10**9, target_activation_rate=0.2, k_min=3, k_max=2)
        assert str(info.value) == "k_max must be >= 3, got 2"

    @pytest.mark.parametrize("make, message", _bound_cases())
    def test_every_bound_names_its_field(self, make, message):
        with pytest.raises((MoebudgetError, argparse.ArgumentTypeError)) as info:
            make()
        assert str(info.value) == message

    def test_ints_beyond_float_range_compare_exactly(self):
        check_bounds({"n": 10**400}, ShapeError, n="finite and >= 0")
        with pytest.raises(ShapeError, match=f"n must be >= {2**70 + 1}, got {2**70}"):
            check_bounds({"n": 2**70}, ShapeError, n=f">= {2**70 + 1}")


class TestBudgetRecord:
    def test_exact_multipliers(self):
        budget = derive_budget(MOE_7B, tokens=12345)
        assert budget.train_flops_per_token == 3 * budget.fwd_flops_per_token
        assert budget.train_compute == budget.train_flops_per_token * 12345
        assert budget.active_params <= budget.total_params
        assert math.isclose(budget.activation_rate,
                            budget.active_params / budget.total_params)

    @pytest.mark.parametrize("tokens, message", [
        (2.9, "tokens must be int, got 2.9"), (1.5, "tokens must be int, got 1.5"),
        (True, "tokens must be int, got True"), (-1, "tokens must be >= 0, got -1")])
    def test_token_count_is_read_exactly(self, tokens, message):
        with pytest.raises(ShapeError) as info:
            derive_budget(MOE_7B, tokens=tokens)
        assert str(info.value) == message

    def test_json_keys(self):
        record = derive_budget(MOE_2B, tokens=10).to_json_dict()
        assert set(record) == {"N", "N_a", "r_a", "M_fwd", "M_train", "C", "D",
                               "D_over_N"}

    @pytest.mark.parametrize("shape", [DENSE_2B, MOE_2B])
    def test_table_columns(self, shape):
        columns = table_columns(shape, derive_budget(shape, tokens=10**11))
        assert list(columns) == [*shape_to_json(shape), "N", "N_a", "r_a", "M", "D", "C", "D/N"]
        # r_a is in percent and unrounded: the CSV writers round it
        assert columns["r_a"] == 100 * (columns["N_a"] / columns["N"])
        fwd = moe_fwd_flops(shape) if isinstance(shape, MoEShape) else dense_fwd_flops(shape)
        assert columns["M"] == 3 * fwd and columns["C"] == columns["M"] * 10**11
        assert columns["D/N"] == 10**11 / columns["N"]


class TestSerialization:
    @pytest.mark.parametrize("shape", [DENSE_7B, MOE_7B, MOE_2B])
    def test_round_trip(self, shape):
        assert shape_from_json(shape_to_json(shape)) == shape

    def test_dense_has_no_moe_keys(self):
        payload = shape_to_json(DENSE_2B)
        assert set(payload) == {"L", "D_m", "D_ffn", "H", "D_h", "S"}

    def test_missing_key_reported(self):
        with pytest.raises(ShapeError, match="'D_m'"):
            shape_from_json({"L": 4})

    def test_integral_floats_read_as_ints(self):
        obj = {**shape_to_json(MOE_7B), "L": 24.0, "D_m": 2.048e3}
        assert shape_from_json(obj) == MOE_7B


# Arbitrary JSON, plus objects over the real keys with plausible values so that
# the dataclass invariants, not only the type checks, are reached.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
PLAUSIBLE = st.integers(-1, 64) | st.floats(-1.0, 64.0) | st.booleans() \
    | st.sampled_from(["full", "one_dense", "interleave"])
TOY_KEYS = ["vocab", "seq_len", "clusters", "task_seed", "concentration", "model_dim",
            "expert_dim", "shared_dim", "experts", "top_k", "normalized", "lam", "lr",
            "momentum", "batch_sequences", "steps", "seed"]


def json_objects(keys):
    return JSON_VALUES | st.dictionaries(st.sampled_from(keys) | st.text(max_size=3),
                                         PLAUSIBLE | JSON_VALUES, max_size=len(keys))


class TestJsonReaders:
    @given(obj=json_objects([key for key, _ in DENSE_KEYS + MOE_KEYS]))
    @settings(max_examples=300, deadline=None)
    def test_shape_reader_returns_shape_or_shape_error(self, obj):
        try:
            shape = shape_from_json(obj)
        except ShapeError:
            return
        assert shape_from_json(shape_to_json(shape)) == shape

    @given(obj=json_objects(TOY_KEYS))
    @settings(max_examples=300, deadline=None)
    def test_toy_reader_returns_config_or_toy_config_error(self, obj):
        try:
            config = toy_config_from_json(obj)
        except ToyConfigError:
            return
        assert isinstance(config, ToyTrainConfig)

    def test_toy_reader_takes_exactly_the_documented_keys(self):
        obj = {**{key: 2 for key in TOY_KEYS}, "normalized": True}
        config = toy_config_from_json(obj)
        assert (config.task.seed, config.seed, config.lam, config.normalized) == \
            (2, 2, 2.0, True)
        with pytest.raises(ToyConfigError, match="unknown key 'init_scale'"):
            toy_config_from_json({"init_scale": 0.02})


@st.composite
def small_moe(draw):
    width_units = draw(st.integers(2, 16))
    layers = draw(st.integers(2, 12))
    return MoEShape(
        base=DenseShape(layers=layers, model_dim=64 * width_units,
                        ffn_dim=draw(st.integers(32, 4096)),
                        heads=width_units, head_dim=64,
                        seq_len=draw(st.integers(16, 4096))),
        moe_layers=layers - 1, dense_layers=1,
        experts=draw(st.integers(2, 64)), top_k=1,
        expert_dim=draw(st.integers(16, 1024)),
        shared_expert_dim=draw(st.integers(0, 2048)))


class TestMonotonicity:
    @given(shape=small_moe(), bump=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_total_grows_with_capacity(self, shape, bump):
        n0, _ = moe_params(shape)
        for fields in ({"experts": shape.experts + bump},
                       {"expert_dim": shape.expert_dim + bump},
                       {"shared_expert_dim": shape.shared_expert_dim + bump}):
            n1, _ = moe_params(dataclasses.replace(shape, **fields))
            assert n1 > n0

    @given(shape=small_moe(), bump=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_more_moe_layers_grow_total(self, shape, bump):
        if shape.expert_dim * shape.experts + shape.shared_expert_dim \
                <= shape.base.ffn_dim:
            return  # expert stack thinner than the dense FFN it replaces
        grown = dataclasses.replace(
            shape,
            base=dataclasses.replace(shape.base, layers=shape.base.layers + bump),
            moe_layers=shape.moe_layers + bump)
        assert moe_params(grown)[0] > moe_params(shape)[0]

    @given(shape=small_moe(), bump=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_active_independent_of_experts(self, shape, bump):
        _, a0 = moe_params(shape)
        _, a1 = moe_params(dataclasses.replace(shape, experts=shape.experts + bump))
        assert a0 == a1

    @given(shape=small_moe(), bump=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_rate_decreases_with_experts(self, shape, bump):
        r0 = activation_rate(shape)
        r1 = activation_rate(dataclasses.replace(shape, experts=shape.experts + bump))
        assert r1 < r0
