"""Parameter/FLOP accounting: worked examples, identities, and monotonicity."""

import dataclasses
import math

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
    compute_ratio,
    dense_fwd_flops,
    dense_params,
    derive_budget,
    moe_fwd_flops,
    moe_params,
    shape_from_json,
    shape_to_json,
    training_compute,
)
from moebudget.toylab import ToyConfigError, ToyTrainConfig, toy_config_from_json

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
        closed = 2 * n * (1 + 2 * shape.seq_ratio / (4 + 3 * shape.ffn_ratio))
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
        m_train = 9.07e9
        assert rel(training_compute(m_train / 3, int(3.16e11)), 2.86e21) <= 0.01

    def test_zero_tokens(self):
        assert training_compute(1e9, 0) == 0

    def test_dense_seven_b_row(self):
        assert rel(training_compute(4.21e10 / 3, int(1.30e11)), 5.45e21) <= 0.01


class TestBudgetRecord:
    def test_exact_multipliers(self):
        budget = derive_budget(MOE_7B, tokens=12345)
        assert budget.train_flops_per_token == 3 * budget.fwd_flops_per_token
        assert budget.train_compute == budget.train_flops_per_token * 12345
        assert budget.active_params <= budget.total_params
        assert math.isclose(budget.activation_rate,
                            budget.active_params / budget.total_params)

    def test_json_keys(self):
        record = derive_budget(MOE_2B, tokens=10).to_json_dict()
        assert set(record) == {"N", "N_a", "r_a", "M_fwd", "M_train", "C", "D",
                               "D_over_N"}


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
