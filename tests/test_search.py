"""Configuration search: published-shape recovery, determinism, feasibility."""

import pytest

from moebudget.arch import MoEShape, shape_to_json
from moebudget.search import (
    InfeasibleSpecError,
    SearchSpec,
    SearchSpecError,
    dense_baseline,
    search,
)


def spec_7b(**overrides):
    base = dict(target_params=int(6.52e9), target_activation_rate=0.20,
                aspect_ratio=85.3, expert_width_ratio=21.0, head_dim=128)
    base.update(overrides)
    return SearchSpec(**base)


def spec_2b(**overrides):
    base = dict(target_params=int(2.15e9), target_activation_rate=0.199,
                aspect_ratio=88.0, expert_width_ratio=22.5, head_dim=128)
    base.update(overrides)
    return SearchSpec(**base)


class TestSearch:
    def test_seven_b_reference_shape_recovered(self):
        result = search(spec_7b())
        top = result.candidates[0]
        shape = top.shape
        assert (shape.base.layers, shape.base.model_dim) == (24, 2048)
        assert (shape.experts, shape.top_k) == (78, 6)
        assert (shape.expert_dim, shape.shared_expert_dim) == (512, 3072)
        assert abs(top.budget.total_params - 6.52e9) / 6.52e9 <= 0.02
        assert abs(top.budget.active_params - 1.31e9) / 1.31e9 <= 0.02

    def test_two_b_reference_shape_recovered(self):
        result = search(spec_2b())
        top = result.candidates[0]
        shape = top.shape
        assert (shape.experts, shape.top_k) == (92, 7)
        assert (shape.expert_dim, shape.shared_expert_dim) == (320, 2240)
        assert abs(top.budget.total_params - 2.15e9) / 2.15e9 <= 0.02
        assert abs(top.budget.active_params - 4.29e8) / 4.29e8 <= 0.02

    def test_fully_active_target_degenerates(self):
        result = search(spec_2b(target_activation_rate=1.0))
        top = result.candidates[0]
        assert top.shape.experts == top.shape.top_k
        assert top.budget.total_params == top.budget.active_params

    def test_deterministic(self):
        first = search(spec_7b())
        second = search(spec_7b())
        assert [shape_to_json(c.shape) for c in first.candidates] \
            == [shape_to_json(c.shape) for c in second.candidates]
        assert [c.budget for c in first.candidates] \
            == [c.budget for c in second.candidates]

    def test_infeasible_rate_reports_diagnostics(self):
        result = search(spec_2b(target_activation_rate=0.001))
        assert not result.candidates
        assert any("activation rate" in d for d in result.diagnostics)

    def test_candidates_satisfy_constraints(self):
        for spec in (spec_7b(), spec_2b(), spec_2b(target_activation_rate=0.35)):
            result = search(spec)
            assert result.candidates
            for cand in result.candidates:
                shape = cand.shape
                assert isinstance(shape, MoEShape)
                assert shape.shared_expert_dim == shape.top_k * shape.expert_dim
                assert shape.base.heads * shape.base.head_dim == shape.base.model_dim
                assert shape.expert_dim % spec.expert_dim_multiple == 0
                assert shape.top_k <= spec.k_max
                assert shape.experts <= spec.max_experts
                assert shape.arrangement == "one_dense"
                assert not shape.gate_normalized
                # reported residuals agree with a recomputation
                recomputed = cand.budget.activation_rate - spec.target_activation_rate
                assert recomputed == pytest.approx(cand.delta_activation_abs)

    def test_invalid_spec_rejected(self):
        with pytest.raises(SearchSpecError, match="target_activation_rate"):
            SearchSpec(target_params=10**9, target_activation_rate=0.0)
        with pytest.raises(SearchSpecError, match="aspect_ratio"):
            SearchSpec(target_params=10**9, target_activation_rate=0.2,
                       aspect_ratio=-1.0)
        # a limit of -1 used to slice off the last candidate, 0 to read as infeasible
        with pytest.raises(SearchSpecError, match="max_candidates must be >= 1"):
            spec_7b(max_candidates=-1)


class TestDenseBaseline:
    def test_two_b_class_shape(self):
        shape = dense_baseline(int(2.15e9), aspect_ratio=2176 / 28,
                               ffn_ratio=8848 / 2176, head_dim=128)
        assert (shape.layers, shape.model_dim, shape.ffn_dim) == (28, 2176, 8848)

    def test_seven_b_class_shape(self):
        shape = dense_baseline(int(6.48e9), aspect_ratio=128.0,
                               ffn_ratio=11008 / 4096, head_dim=128)
        assert (shape.layers, shape.model_dim) == (32, 4096)

    def test_tiny_target_infeasible(self):
        with pytest.raises(InfeasibleSpecError, match="no dense shape"):
            dense_baseline(1000, aspect_ratio=88.0, ffn_ratio=2.77, head_dim=128)

    def test_deterministic_tie_break_prefers_fewer_layers(self):
        a = dense_baseline(int(3.29e9), aspect_ratio=2432 / 44,
                           ffn_ratio=7008 / 2432, head_dim=128)
        b = dense_baseline(int(3.29e9), aspect_ratio=2432 / 44,
                           ffn_ratio=7008 / 2432, head_dim=128)
        assert a == b
        assert (a.layers, a.model_dim, a.ffn_dim) == (44, 2432, 7008)
