"""Synthetic training runs: determinism, conservation, gating comparison."""

import dataclasses
import math

import numpy as np
import pytest

from moebudget.kernel import BlockParams, Workspace, balance_stats, moe_batch_forward
from moebudget.toylab import (
    DivergenceError,
    ToyConfigError,
    ToyTask,
    ToyTrainConfig,
    _forward_backward,
    _init_model,
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


def test_embedding_gradient_matches_add_at():
    # ids 3 and 0 repeat, most of the vocabulary is absent
    config = ToyTrainConfig(task=ToyTask(vocab=16), steps=1)
    model = _init_model(config, np.random.default_rng(1))
    inputs = np.array([3, 3, 0, 7, 3, 15, 0, 9, 3, 12, 3, 0])
    ws = Workspace()
    *_, grad = _forward_backward(model, inputs, (inputs * 5) % 16, config.lam, ws)
    expected = np.zeros((16, config.model_dim))
    np.add.at(expected, inputs, ws.buffers["dh"])  # dh: the gradient of the embedded rows
    embed = model.layout.views(grad)["embed"]
    assert np.array_equal(embed, expected)
    assert not embed[[1, 2, 4, 5, 6, 8, 10, 11, 13, 14]].any()


def test_uniform_measurements_pin_balance_loss_at_top_k():
    # whenever measured load and score vectors are uniform, the recorded
    # balance loss equals top_k
    zeros = np.zeros((8, 1, 1))
    params = BlockParams.from_arrays({"gate.weight": np.zeros((8, 1)), "experts.w_gate": zeros,
                                      "experts.w_up": zeros, "experts.w_down": zeros}, top_k=2)
    _, cache = moe_batch_forward(params, np.array([[1.0]]))
    scores = np.tile(cache.scores, (8, 1))
    mask = np.zeros((8, 8), dtype=bool)
    for t in range(8):
        mask[t, [2 * t % 8, (2 * t + 1) % 8]] = True
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


def per_row_choice(task, rng, sequences, distributions):
    # the sampler before vectorization: one Generator.choice per sequence
    which = rng.integers(0, task.clusters, size=sequences)
    batch = np.empty((sequences, task.seq_len), dtype=np.int64)
    for row, cluster in enumerate(which):
        batch[row] = rng.choice(task.vocab, size=task.seq_len, p=distributions[cluster])
    return batch


@pytest.mark.parametrize("concentration", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("sequences", [1, 8, 32])
def test_sample_batch_matches_per_row_choice(concentration, sequences):
    task = ToyTask(concentration=concentration)
    distributions = task.cluster_distributions()
    for seed in range(20):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = task.sample_batch(fast, sequences, distributions)
        assert batch.dtype == np.int64
        assert np.array_equal(batch, per_row_choice(task, slow, sequences, distributions))
        # the generator is left where the per-row loop leaves it
        assert fast.random() == slow.random()


@pytest.mark.parametrize("case", ["short-row", "negative", "nan", "inf", "sum-off"])
def test_sample_batch_rejects_bad_distributions(case):
    task = ToyTask(vocab=8, clusters=3)
    distributions = task.cluster_distributions()
    if case == "short-row":
        distributions = distributions[:, :-1]
    elif case == "negative":
        distributions[1, :2] = [-0.25, distributions[1, 0] + distributions[1, 1] + 0.25]
    elif case == "nan":
        distributions[2, 3] = np.nan
    elif case == "inf":
        distributions[0, 0] = np.inf
    else:
        distributions[1] *= 1.001
    with pytest.raises(ToyConfigError, match="distributions"):
        task.sample_batch(np.random.default_rng(0), 4, distributions)


def test_task_requires_clusters():
    with pytest.raises(ToyConfigError, match="clusters"):
        ToyTask(clusters=1)
