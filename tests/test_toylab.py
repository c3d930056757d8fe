"""Synthetic training runs: determinism, conservation, gating comparison."""

import dataclasses
import math

import numpy as np
import pytest

from moebudget.kernel import balance_stats, gate_forward
from moebudget.toylab import (
    DivergenceError,
    ToyConfigError,
    ToyTask,
    ToyTrainConfig,
    compare_gating,
    run_toy_training,
)

SHORT = ToyTrainConfig(steps=40, seed=5, batch_sequences=8)


def test_zero_steps_reports_initial_evaluation_only():
    report = run_toy_training(dataclasses.replace(SHORT, steps=0))
    assert len(report.steps) == 1
    vocab = report.config.task.vocab
    assert abs(report.initial.ce_loss - math.log(vocab)) / math.log(vocab) <= 0.05


def test_bit_deterministic_given_seed():
    first = run_toy_training(SHORT)
    second = run_toy_training(SHORT)
    assert first == second
    for a, b in zip(first.steps, second.steps):
        assert a.ce_loss == b.ce_loss
        assert a.expert_load_histogram == b.expert_load_histogram


def test_histogram_conservation():
    report = run_toy_training(SHORT)
    tokens_per_step = SHORT.batch_sequences * (SHORT.task.seq_len - 1)
    for record in report.steps:
        assert sum(record.expert_load_histogram) == SHORT.top_k * tokens_per_step


def test_training_reduces_cross_entropy():
    report = run_toy_training(ToyTrainConfig(steps=300, seed=5))
    assert report.final.ce_loss < report.initial.ce_loss
    assert report.final_bits_per_token == report.final.ce_loss / math.log(2)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_carries_step_index():
    config = dataclasses.replace(SHORT, lr=1e9, steps=50)
    with pytest.raises(DivergenceError) as excinfo:
        run_toy_training(config)
    assert 1 <= excinfo.value.step <= 50


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_divergence_step_is_pinned(seed):
    # a finite theta that overflows inside the forward is caught as divergence
    with pytest.raises(DivergenceError) as excinfo:
        run_toy_training(ToyTrainConfig(lr=1e9, seed=seed, steps=50))
    assert excinfo.value.step == 3


def test_uniform_measurements_pin_balance_loss_at_top_k():
    # whenever measured load and score vectors are uniform, the recorded
    # balance loss equals top_k
    mask = np.zeros((8, 8), dtype=bool)
    scores = np.zeros((8, 8))
    for t in range(8):
        out = gate_forward(np.zeros((8, 1)), np.array([1.0]), top_k=2)
        mask[t, [2 * t % 8, (2 * t + 1) % 8]] = True
        scores[t] = out.scores
    stats = balance_stats(mask, scores)
    assert np.ptp(stats.load_fraction) <= 1e-9
    assert np.ptp(stats.mean_score) <= 1e-9
    assert abs(stats.balance_loss - 2.0) <= 1e-6


def test_report_serialization(tmp_path):
    report = run_toy_training(dataclasses.replace(SHORT, steps=5))
    report.write(tmp_path)
    lines = (tmp_path / "steps.jsonl").read_text().splitlines()
    assert len(lines) == 6
    summary = (tmp_path / "summary.json").read_text()
    assert '"final_ce_loss"' in summary


class TestCompareGating:
    def test_paired_runs_share_data(self):
        comparison = compare_gating(dataclasses.replace(SHORT, steps=30))
        means = comparison.mean_balance_losses()
        assert set(means) == {"non_normalized", "normalized"}
        assert comparison.non_normalized.initial.expert_load_histogram \
            == comparison.normalized.initial.expert_load_histogram

    def test_identical_variant_is_bit_identical(self):
        a = run_toy_training(dataclasses.replace(SHORT, steps=30, normalized=True))
        b = run_toy_training(dataclasses.replace(SHORT, steps=30, normalized=True))
        assert a == b

    def test_single_selection_rejected(self):
        with pytest.raises(ToyConfigError, match="top_k >= 2"):
            compare_gating(dataclasses.replace(SHORT, top_k=1))


def test_task_requires_clusters():
    with pytest.raises(ToyConfigError, match="clusters"):
        ToyTask(clusters=1)
