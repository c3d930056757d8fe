"""Timing spans around the moebudget layers, recorded from outside the package.

`Tracer.install()` replaces each hook point (a public function, or the toy
sampler method) with a wrapper that records a span: name, layer, start, end,
parent span and operation id. Every module-level binding of the function in
every loaded moebudget module is patched, because callers look functions up
where they imported them (`toylab` imports its kernel functions by name and
`cli` does the same with `search`). Spans stay in memory until the run ends;
`layer_metrics` folds them into the per-layer metrics of BENCHMARK.json.

A hook point that no longer exists, or whose result no longer has the
fields a count reads, is skipped with a note, and the metrics built on it
read 0: a refactor that deletes or reshapes a function must not crash the
benchmark.

This module uses only the standard library, so importing it does not change
what a traced process imports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("arch", "kernel", "search", "planner", "toylab", "fixtures", "cli")

Measure = Callable[[tuple, dict, Any], dict]


def _forward_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    """Tokens, matmul FLOPs and bytes of one block forward.

    FLOPs and bytes are computed from the block shapes and routing counts,
    not measured: every token evaluates the gate (E x D_m), exactly top_k
    routed SwiGLU experts (3 matmuls of D_m x D_e each) and the shared expert
    (3 matmuls of D_m x D_se). A multiply-add counts as 2 FLOPs. Bytes count
    float64 weights of the gate, of each expert that received a token and of
    the shared expert once, plus the activations read and written once.
    """
    params = args[0] if args else kwargs["params"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    n = int(x.shape[0])
    experts, model_dim = params.gate.weight.shape
    expert_dim = params.experts.w_gate.shape[1]
    shared_dim = params.shared.w_gate.shape[0] if params.shared is not None else 0
    evals = params.top_k * n
    try:
        touched = int(result[1].mask.any(axis=0).sum())
    except (AttributeError, IndexError, TypeError):
        touched = min(experts, evals)
    flops = 2 * n * model_dim * experts + 6 * evals * model_dim * expert_dim \
        + 6 * n * model_dim * shared_dim
    weights = experts * model_dim + 3 * touched * expert_dim * model_dim \
        + 3 * shared_dim * model_dim
    reads = n * model_dim + evals * model_dim + (n * model_dim if shared_dim else 0)
    writes = n * experts + evals * (3 * expert_dim + model_dim) \
        + n * (3 * shared_dim + model_dim)
    return {"tokens": n, "flops": flops, "bytes": 8 * (weights + reads + writes)}


def _grad_check_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"trials": len(result.trials), "fd_evals": 2 * result.checked_entries}


def _toy_run_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"steps": len(result.steps) - 1}


def _search_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"candidates": len(result.candidates)}


def _rows_checked(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": result.rows_checked}


# (layer, function or Class.method, measure). "planner.*" wraps every public
# function of planner, since the CLI reaches the planner through many of them.
HOOKS: tuple[tuple[str, str, Measure | None], ...] = (
    ("kernel", "moe_batch_forward", _forward_counts),
    ("kernel", "moe_batch_backward", None),
    ("kernel", "softmax_cross_entropy", None),
    ("kernel", "balance_stats_from_cache", None),
    ("kernel", "balance_stats", None),
    ("kernel", "replace_parameter", None),
    ("kernel", "init_block_params", None),
    ("kernel", "grad_check", _grad_check_counts),
    ("toylab", "run_toy_training", _toy_run_counts),
    ("toylab", "ToyTask.sample_batch", None),
    ("arch", "derive_budget", None),
    ("search", "search", _search_counts),
    ("search", "dense_baseline", None),
    ("planner", "*", None),
    ("fixtures", "load_table", None),
    ("fixtures", "validate_table", None),
    ("fixtures", "validate_fixture_tables", _rows_checked),
    ("cli", "dispatch", None),
)


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        # span: [name, layer, start, end, parent index or -1, op id, attrs]
        self.spans: list[list[Any]] = []
        self.notes: list[str] = []
        self.op = 0
        self._open: list[int] = []

    def _wrap(self, layer: str, name: str, fn: Callable, measure: Measure | None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [full, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                try:
                    span[6] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    note = f"counts of {full} unavailable ({exc!r}); they read 0"
                    if note not in self.notes:
                        self.notes.append(note)
            return result

        return traced

    def install(self) -> None:
        """Import every layer module and wrap each hook point found."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"moebudget.{layer}")
            except ImportError as exc:
                self.notes.append(f"module moebudget.{layer} not importable ({exc}); "
                                  f"its metrics read 0")
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "moebudget" or key.startswith("moebudget."))]
        for layer, name, measure in HOOKS:
            module = modules.get(layer)
            if module is None:
                continue
            if name == "*":
                names = [key for key, value in vars(module).items()
                         if not key.startswith("_") and callable(value)
                         and getattr(value, "__module__", None) == module.__name__
                         and not isinstance(value, type)]
            else:
                names = [name]
            for hook in names:
                self._install_one(module, layer, hook, measure, loaded)

    def _install_one(self, module, layer: str, hook: str, measure: Measure | None,
                     loaded: list) -> None:
        owner_name, _, attr = hook.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None or not callable(fn):
            self.notes.append(f"hook {layer}.{hook} not found; its metrics read 0")
            return
        wrapper = self._wrap(layer, hook, fn, measure)
        if owner_name:
            setattr(owner, attr, wrapper)
            return
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Span duration minus the time its child spans cover (they nest strictly)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - covered[i] for i, span in enumerate(spans)]


# name -> unit; the order is the order in BENCHMARK.json. Counts and times
# are per operation.
LAYER_METRICS = {
    "kernel.fwd_calls": "count/op",
    "kernel.fwd_self_s": "s/op",
    "kernel.fwd_tokens": "count/op",
    "kernel.fwd_flops_computed": "FLOP/op",
    "kernel.fwd_bytes_computed": "B/op",
    "kernel.fwd_gflops_per_s": "GFLOP/s",
    "kernel.bwd_calls": "count/op",
    "kernel.bwd_self_s": "s/op",
    "kernel.ce_self_s": "s/op",
    "kernel.balance_self_s": "s/op",
    "kernel.bwd_useful_ratio": "ratio",
    "kernel.fd_evals": "count/op",
    "kernel.tie_resamples": "count/op",
    "kernel.param_rebuild_calls": "count/op",
    "kernel.param_rebuild_self_s": "s/op",
    "toylab.steps": "count/op",
    "toylab.sample_self_s": "s/op",
    "toylab.step_self_s": "s/op",
    "cli.import_numpy_s": "s",
    "cli.import_moebudget_s": "s",
    "cli.dispatch_self_s": "s/op",
    "search.calls": "count/op",
    "search.self_s": "s/op",
    "search.candidates": "count/op",
    "arch.derive_budget_calls": "count/op",
    "arch.derive_budget_self_s": "s/op",
    "planner.calls": "count/op",
    "planner.self_s": "s/op",
    "fixtures.load_table_self_s": "s/op",
    "fixtures.validate_self_s": "s/op",
    "fixtures.rows_checked": "count/op",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[list[Any]], ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of `ops` operations.

    Counts and self times are totals divided by `ops`. A layer's "calls"
    counts calls into it from outside the layer.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    grad_check_ancestor = [False] * len(spans)
    init_in_grad_check = 0
    for i, (name, layer, _, _, parent, _, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        layer_self[layer] += own[i]
        if parent < 0 or spans[parent][1] != layer:
            layer_calls[layer] += 1
        for key, value in (extra or {}).items():
            attrs[f"{name}:{key}"] += value
        grad_check_ancestor[i] = name == "kernel.grad_check" or (
            parent >= 0 and grad_check_ancestor[parent])
        if name == "kernel.init_block_params" and grad_check_ancestor[i]:
            init_in_grad_check += 1

    fwd = "kernel.moe_batch_forward"
    bwd_calls = calls["kernel.moe_batch_backward"]
    used = attrs["kernel.grad_check:trials"] + attrs["toylab.run_toy_training:steps"]
    fwd_self = self_s[fwd]
    totals = {
        "kernel.fwd_calls": calls[fwd],
        "kernel.fwd_self_s": fwd_self,
        "kernel.fwd_tokens": attrs[f"{fwd}:tokens"],
        "kernel.fwd_flops_computed": attrs[f"{fwd}:flops"],
        "kernel.fwd_bytes_computed": attrs[f"{fwd}:bytes"],
        "kernel.bwd_calls": bwd_calls,
        "kernel.bwd_self_s": self_s["kernel.moe_batch_backward"],
        "kernel.ce_self_s": self_s["kernel.softmax_cross_entropy"],
        "kernel.balance_self_s": (self_s["kernel.balance_stats_from_cache"]
                                  + self_s["kernel.balance_stats"]),
        "kernel.fd_evals": attrs["kernel.grad_check:fd_evals"],
        "kernel.tie_resamples": init_in_grad_check - attrs["kernel.grad_check:trials"],
        "kernel.param_rebuild_calls": calls["kernel.replace_parameter"],
        "kernel.param_rebuild_self_s": self_s["kernel.replace_parameter"],
        "toylab.steps": attrs["toylab.run_toy_training:steps"],
        "toylab.sample_self_s": self_s["toylab.ToyTask.sample_batch"],
        "toylab.step_self_s": self_s["toylab.run_toy_training"],
        "cli.dispatch_self_s": self_s["cli.dispatch"],
        "search.calls": layer_calls["search"],
        "search.self_s": layer_self["search"],
        "search.candidates": attrs["search.search:candidates"],
        "arch.derive_budget_calls": calls["arch.derive_budget"],
        "arch.derive_budget_self_s": self_s["arch.derive_budget"],
        "planner.calls": layer_calls["planner"],
        "planner.self_s": layer_self["planner"],
        "fixtures.load_table_self_s": self_s["fixtures.load_table"],
        "fixtures.validate_self_s": (self_s["fixtures.validate_table"]
                                     + self_s["fixtures.validate_fixture_tables"]),
        "fixtures.rows_checked": attrs["fixtures.validate_fixture_tables:rows"],
    }
    out = {name: value / max(ops, 1) for name, value in totals.items()}
    out["kernel.fwd_gflops_per_s"] = (attrs[f"{fwd}:flops"] / fwd_self / 1e9
                                      if fwd_self > 0 else 0.0)
    out["kernel.bwd_useful_ratio"] = used / bwd_calls if bwd_calls else 0.0
    return out


def import_seconds(importtime_lines: list[str]) -> dict[str, float]:
    """numpy and moebudget import times from `python -X importtime` output.

    The moebudget figure is the cumulative time of the top-level moebudget
    imports minus the numpy import nested inside them.
    """
    numpy_s = moebudget_s = 0.0
    nested: list[str] = []
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1]) / 1e6
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy":
            numpy_s = cumulative
        if depth > 1:
            nested.append(name)
            continue
        if name == "moebudget" or name.startswith("moebudget."):
            moebudget_s += cumulative - (numpy_s if "numpy" in nested else 0.0)
        nested = []
    return {"cli.import_numpy_s": numpy_s, "cli.import_moebudget_s": moebudget_s}
