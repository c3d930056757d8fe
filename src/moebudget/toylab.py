"""Desk-scale synthetic training that exercises the MoE block end to end.

The task draws token sequences from a handful of latent unigram clusters, so
routing has structure to discover. The model is deliberately tiny: embedding,
a plain linear mixing layer standing in for attention, one MoE block (both
with residual connections), and a linear read-out head. Training is plain
momentum SGD with a manual backward pass through the whole stack; given a
seed, runs are bit-deterministic.

All model parameters live in one flat float64 vector with a static layout of
``embed``, ``mix``, ``block`` and ``head``; the MoE block's ``BlockParams`` is
a view of its slice, and the optimizer updates the whole vector in place with
one velocity vector of the same layout. A run owns one kernel ``Workspace``:
the block and the step write their large arrays, the gradient among them, into
its buffers, so each step overwrites the last one's instead of allocating anew.

Reported loss is mean next-token cross-entropy in nats; the summary also
converts it to bits/token (ce / ln 2). That unit is a stand-in for corpus
bits-per-character metrics and is labeled distinctly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .arch import read_fields
from .errors import DivergenceError, ToyConfigError
from .kernel import (
    BlockParams,
    KernelError,
    Layout,
    Workspace,
    init_block_params,
    moe_batch_backward,
    moe_batch_forward,
    softmax_cross_entropy,
)


@dataclass(frozen=True)
class ToyTask:
    """Synthetic token stream drawn from latent unigram clusters."""

    vocab: int = 64
    seq_len: int = 17
    clusters: int = 4
    seed: int = 0
    concentration: float = 1.0  # sharper cluster distributions for larger values

    def __post_init__(self) -> None:
        for name, ok, rule in (
                ("clusters", self.clusters >= 2, ">= 2"),
                ("vocab", self.vocab >= 2, ">= 2"),
                ("seq_len", self.seq_len >= 2, ">= 2"),
                ("seed", self.seed >= 0, ">= 0"),
                ("concentration", 0 <= self.concentration < math.inf, "finite and >= 0")):
            if not ok:
                raise ToyConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    def cluster_distributions(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        logits = rng.normal(0.0, self.concentration, size=(self.clusters, self.vocab))
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)

    def sample_batch(self, rng: np.random.Generator, sequences: int,
                     distributions: np.ndarray) -> np.ndarray:
        """Row i is ``rng.choice(vocab, seq_len, p=distributions[cluster_i])`` with the
        same draws: choice searches the normalized cumsum of p at uniform draws."""
        p = np.asarray(distributions, dtype=np.float64)
        if p.shape != (self.clusters, self.vocab) or not np.all(p >= 0) \
                or not np.all(np.abs(p.sum(axis=1) - 1.0) <= np.sqrt(np.finfo(np.float64).eps)):
            raise ToyConfigError(f"distributions must be ({self.clusters}, {self.vocab}) rows "
                                 "of finite non-negative probabilities summing to 1")
        which = rng.integers(0, self.clusters, size=sequences)
        uniform = rng.random((sequences, self.seq_len))
        cdf = p.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        batch = np.empty((sequences, self.seq_len), dtype=np.int64)
        for cluster in range(self.clusters):
            rows = which == cluster
            batch[rows] = cdf[cluster].searchsorted(uniform[rows], side="right")
        return batch


@dataclass(frozen=True)
class ToyTrainConfig:
    task: ToyTask = field(default_factory=ToyTask)
    model_dim: int = 32
    expert_dim: int = 16
    shared_dim: int = 16
    experts: int = 8
    top_k: int = 2
    normalized: bool = False
    lam: float = 0.01
    lr: float = 0.2
    momentum: float = 0.9
    batch_sequences: int = 32
    steps: int = 2000
    seed: int = 0
    init_scale: float = 0.02

    def __post_init__(self) -> None:
        for name, ok, rule in (
                ("steps", self.steps >= 0, ">= 0"),
                ("lam", self.lam >= 0, ">= 0"),
                ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("momentum", math.isfinite(self.momentum) and self.momentum >= 0,
                 "finite and >= 0"),
                ("init_scale", math.isfinite(self.init_scale) and self.init_scale > 0,
                 "finite and > 0"),
                ("batch_sequences", self.batch_sequences >= 1, ">= 1"),
                ("model_dim", self.model_dim >= 1, ">= 1"),
                ("expert_dim", self.expert_dim >= 1, ">= 1"),
                ("experts", self.experts >= 1, ">= 1"),
                ("shared_dim", self.shared_dim >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ToyConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        if not 1 <= self.top_k <= self.experts:
            raise ToyConfigError("need 1 <= top_k <= experts")
        if self.normalized and self.top_k < 2:
            raise ToyConfigError("normalized gating requires top_k >= 2")


_TASK_KEYS = (("vocab", "vocab"), ("seq_len", "seq_len"), ("clusters", "clusters"),
              ("task_seed", "seed"), ("concentration", "concentration"))
_TRAIN_KEYS = tuple((name, name) for name in (
    "model_dim", "expert_dim", "shared_dim", "experts", "top_k", "normalized", "lam",
    "lr", "momentum", "batch_sequences", "steps", "seed"))


def toy_config_from_json(obj: Any) -> ToyTrainConfig:
    """Config from a JSON object of the keys above; absent keys keep the defaults."""
    task, train = read_fields(obj, ((ToyTask, _TASK_KEYS), (ToyTrainConfig, _TRAIN_KEYS)),
                              ToyConfigError)
    return ToyTrainConfig(task=ToyTask(**task), **train)


@dataclass(frozen=True)
class StepRecord:
    step: int
    ce_loss: float
    balance_loss: float
    expert_load_histogram: tuple[int, ...]
    load_cv: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "step": self.step, "ce_loss": self.ce_loss,
            "balance_loss": self.balance_loss,
            "expert_load_histogram": list(self.expert_load_histogram),
            "load_cv": self.load_cv,
        }


@dataclass(frozen=True)
class TrainReport:
    config: ToyTrainConfig
    steps: tuple[StepRecord, ...]

    @property
    def initial(self) -> StepRecord:
        return self.steps[0]

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    @property
    def final_bits_per_token(self) -> float:
        return self.final.ce_loss / math.log(2)

    def mean_balance_loss(self) -> float:
        return float(np.mean([s.balance_loss for s in self.steps]))

    def summary_dict(self) -> dict[str, Any]:
        return {
            "optimizer": "sgd-momentum",
            "steps": len(self.steps) - 1,
            "initial_ce_loss": self.initial.ce_loss,
            "final_ce_loss": self.final.ce_loss,
            "final_bits_per_token": self.final_bits_per_token,
            "final_balance_loss": self.final.balance_loss,
            "mean_balance_loss": self.mean_balance_loss(),
            "final_load_cv": self.final.load_cv,
            "final_load_histogram": list(self.final.expert_load_histogram),
            "lam": self.config.lam,
            "seed": self.config.seed,
        }

    def write(self, out_dir: str | Path) -> None:
        """JSON-lines step series plus a summary JSON."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "steps.jsonl", "w") as fh:
            for record in self.steps:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        (out / "summary.json").write_text(
            json.dumps(self.summary_dict(), sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class _ToyModel:
    theta: np.ndarray             # embed, mix, block and head, flat in layout
    layout: Layout
    views: dict[str, np.ndarray]  # named views into theta
    block: BlockParams            # a view of theta's "block" slice


def _init_model(config: ToyTrainConfig, rng: np.random.Generator) -> _ToyModel:
    scale = config.init_scale
    embed = rng.normal(0.0, scale, size=(config.task.vocab, config.model_dim))
    mix = rng.normal(0.0, scale, size=(config.model_dim, config.model_dim))
    block = init_block_params(rng, config.experts, config.top_k, config.model_dim,
                              config.expert_dim, config.shared_dim,
                              config.normalized)
    head = rng.normal(0.0, scale, size=(config.task.vocab, config.model_dim))
    layout = Layout.of([("embed", embed.shape), ("mix", mix.shape),
                        ("block", block.theta.shape), ("head", head.shape)])
    theta = np.concatenate([embed.ravel(), mix.ravel(), block.theta, head.ravel()])
    views = layout.views(theta)
    return _ToyModel(theta=theta, layout=layout, views=views,
                     block=BlockParams(views["block"], block.layout, block.top_k,
                                       block.normalized))


def _forward_backward(model: _ToyModel, inputs: np.ndarray, targets: np.ndarray,
                      lam: float, ws: Workspace) -> tuple[float, float, np.ndarray, np.ndarray]:
    """One pass over flattened (input, next-token) pairs; returns losses, the
    routed-load histogram, and the gradient of theta in the model layout."""
    p = model.views
    vocab, dim = p["embed"].shape
    shape = (inputs.size, dim)
    # sampled ids lie in [0, vocab): mode="clip", which lets take fill out= directly, never clips
    h = np.take(p["embed"], inputs, axis=0, out=ws.get("h", shape), mode="clip")
    m = np.matmul(h, p["mix"].T, out=ws.get("m", shape))
    m += h
    y, cache = moe_batch_forward(model.block, m, ws)
    z = np.add(m, y, out=ws.get("z", shape))
    logits = np.matmul(z, p["head"].T, out=ws.get("logits", (inputs.size, vocab)))
    ce, d_logits = softmax_cross_entropy(logits, targets)

    grad = ws.get("grad", model.theta.shape)  # every entry is written below
    g = model.layout.views(grad)
    np.matmul(d_logits.T, z, out=g["head"])
    dz = np.matmul(d_logits, p["head"], out=ws.get("dz", shape))
    block_grads = moe_batch_backward(model.block, cache, dz, lam)
    g["block"][...] = block_grads.theta
    dm = np.add(dz, block_grads.x, out=dz)
    np.matmul(dm.T, h, out=g["mix"])
    dh = np.matmul(dm, p["mix"], out=ws.get("dh", shape))
    dh += dm
    # bincount sums each (token, column) cell in row order from 0.0, as add.at does
    index = ws.get("embed_index", shape, np.int64)
    np.add(np.multiply(inputs[:, None], dim, out=index), np.arange(dim), out=index)
    g["embed"][...] = np.bincount(index.ravel(), weights=dh.ravel(),
                                  minlength=vocab * dim).reshape(vocab, dim)
    return ce, cache.balance.balance_loss, cache.balance.selection_counts, grad


def _load_cv(histogram: np.ndarray) -> float:
    mean = histogram.mean()
    if mean == 0:
        return 0.0
    return float(histogram.std() / mean)


def run_toy_training(config: ToyTrainConfig) -> TrainReport:
    """Train the toy stack; deterministic given the config seed.

    The report holds one record for the initial evaluation batch plus one per
    optimizer step (losses measured on the step's batch before the update).
    Raises DivergenceError with the offending step if the loss leaves the
    reals.
    """
    rng = np.random.default_rng(config.seed)
    distributions = config.task.cluster_distributions()
    model = _init_model(config, rng)
    theta, velocity, ws = model.theta, np.zeros_like(model.theta), Workspace()
    records: list[StepRecord] = []

    def sample() -> tuple[np.ndarray, np.ndarray]:
        batch = config.task.sample_batch(rng, config.batch_sequences, distributions)
        return batch[:, :-1].ravel(), batch[:, 1:].ravel()

    inputs, targets = sample()
    ce, bal, hist, _ = _forward_backward(model, inputs, targets, config.lam, ws)
    records.append(StepRecord(step=0, ce_loss=ce, balance_loss=bal,
                              expert_load_histogram=tuple(int(c) for c in hist),
                              load_cv=_load_cv(hist)))

    for step in range(1, config.steps + 1):
        inputs, targets = sample()
        try:
            ce, bal, hist, grad = _forward_backward(model, inputs, targets,
                                                    config.lam, ws)
        except KernelError as exc:  # exploded weights surface as non-finite inputs
            raise DivergenceError(step) from exc
        if not (math.isfinite(ce) and math.isfinite(bal)):
            raise DivergenceError(step)
        velocity *= config.momentum
        velocity += grad
        theta -= np.multiply(config.lr, velocity, out=grad)  # grad is spent
        records.append(StepRecord(step=step, ce_loss=ce, balance_loss=bal,
                                  expert_load_histogram=tuple(int(c) for c in hist),
                                  load_cv=_load_cv(hist)))
    return TrainReport(config=config, steps=tuple(records))


@dataclass(frozen=True)
class GatingComparison:
    non_normalized: TrainReport
    normalized: TrainReport

    def mean_balance_losses(self) -> dict[str, float]:
        return {
            "non_normalized": self.non_normalized.mean_balance_loss(),
            "normalized": self.normalized.mean_balance_loss(),
        }


def compare_gating(config: ToyTrainConfig) -> GatingComparison:
    """Train normalized and non-normalized variants on identical seeds/data."""
    if config.top_k < 2:
        raise ToyConfigError("gating comparison requires top_k >= 2")
    plain = run_toy_training(dataclasses.replace(config, normalized=False))
    normed = run_toy_training(dataclasses.replace(config, normalized=True))
    return GatingComparison(non_normalized=plain, normalized=normed)
