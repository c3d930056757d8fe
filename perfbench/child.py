"""One toy-train or grad-oracle process: warm up, then run operations.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE

`run.py` starts this in a fresh interpreter with the checkout's src/ on
PYTHONPATH and BLAS capped at one thread. MODE is

- `setup`: import, run the warm-up operation and exit;
- `measure`: after the warm-up, run operations in a closed loop (one client,
  the next operation starts when the last one returns) for SECONDS;
- `trace`: the same loop for SECONDS/2 untraced, then the same operations
  again with spans, to give per-layer metrics and the tracing overhead.

The process prints `ready` when the warm-up operation has returned and ends
with one JSON line for the parent. Inputs come only from SEED.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time

import tracer

IMPORTS_DONE = "perfbench-imports-done"

# Criterion-7 configuration (the ToyTrainConfig defaults) cut to 100 steps a
# run: the shortest run whose final cross-entropy reliably sits below the
# initial one, so every operation can be checked.
TOY_STEPS = 100
TOY_LAMS = (0.01, 0.0)  # each balanced run is paired with an unbalanced partner

# Criterion-3 variant matrix: top_k x normalized x shared, at tolerance 1e-5.
ORACLE_VARIANTS = tuple((top_k, normalized, shared)
                        for top_k in (1, 2, 4)
                        for normalized in (False, True)
                        if not (top_k == 1 and normalized)
                        for shared in (0, 4))
ORACLE_TOLERANCE = 1e-5


class ToyTrain:
    """An operation is one seeded run_toy_training run."""

    def __init__(self) -> None:
        from moebudget import toylab
        self.toylab = toylab

    def ops(self, rng: random.Random):
        while True:
            seed = rng.randrange(2**31)
            for lam in TOY_LAMS:
                yield seed, lam

    def warmup_op(self, rng: random.Random):
        return rng.randrange(2**31), TOY_LAMS[0]

    def run(self, op):
        config = self.toylab.ToyTrainConfig(steps=TOY_STEPS, seed=op[0], lam=op[1])
        report = self.toylab.run_toy_training(config)
        tokens = config.batch_sequences * (config.task.seq_len - 1)
        return report, len(report.steps) * tokens

    def check(self, op, report) -> str | None:
        config = report.config
        routed = config.top_k * config.batch_sequences * (config.task.seq_len - 1)
        for record in report.steps:
            if not (math.isfinite(record.ce_loss) and math.isfinite(record.balance_loss)):
                return f"run {op}: non-finite loss at step {record.step}"
            if sum(record.expert_load_histogram) != routed:
                return (f"run {op}: load histogram sums to "
                        f"{sum(record.expert_load_histogram)}, not {routed}, "
                        f"at step {record.step}")
        if not report.final.ce_loss < report.initial.ce_loss:
            return f"run {op}: final CE {report.final.ce_loss} >= initial {report.initial.ce_loss}"
        return None


class GradOracle:
    """An operation is one grad_check trial of one criterion-3 variant."""

    def __init__(self) -> None:
        from moebudget import kernel
        self.kernel = kernel

    def ops(self, rng: random.Random):
        while True:  # every block of ten operations covers each variant once
            for variant in rng.sample(ORACLE_VARIANTS, len(ORACLE_VARIANTS)):
                yield variant, rng.randrange(2**31)

    def warmup_op(self, rng: random.Random):
        return (2, False, 0), rng.randrange(2**31)

    def run(self, op):
        (top_k, normalized, shared), seed = op
        report = self.kernel.grad_check(self.kernel.GradCheckSettings(
            experts=4, top_k=top_k, model_dim=5, expert_dim=3, shared_dim=shared,
            normalized=normalized, seed=seed, trials=1, tolerance=ORACLE_TOLERANCE,
            lam=0.01))
        return report, 2 * report.checked_entries

    def check(self, op, report) -> str | None:
        if len(report.trials) == 1 and report.passed:
            return None
        return f"trial {op}: max relative error {report.max_rel_error:.3e} > {ORACLE_TOLERANCE}"


WORKLOADS = {"toy-train": ToyTrain, "grad-oracle": GradOracle}


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    workload = WORKLOADS[name]()
    print(IMPORTS_DONE, file=sys.stderr, flush=True)
    clock = time.perf_counter
    errors: list[str] = []
    attempted = 0

    def timed(op):
        nonlocal attempted
        start = clock()
        result, work = workload.run(op)
        elapsed = clock() - start
        attempted += 1
        error = workload.check(op, result)
        if error:
            errors.append(error)
        return elapsed, work, result

    timed(workload.warmup_op(random.Random(f"warm-up {seed}")))
    print("ready", flush=True)
    out = {"latencies": [], "work": 0, "layers": None, "notes": []}
    if mode != "setup":
        ops = workload.ops(random.Random(seed))
        done = []
        first = None
        deadline = clock() + (seconds / 2 if mode == "trace" else seconds)
        while not done or clock() < deadline:
            op = next(ops)
            elapsed, work, result = timed(op)
            first = first or (op, result)
            done.append(op)
            out["latencies"].append(elapsed)
            out["work"] += work
        attempted += 1  # the first operation again, untimed: same seed, same result
        again, _ = workload.run(first[0])
        if again != first[1]:
            errors.append(f"{first[0]}: repeat with the same seed differs")
        if mode == "trace":
            spans = tracer.Tracer()
            spans.install()
            traced = 0.0
            for index, op in enumerate(done):
                spans.op = index
                traced += timed(op)[0]
            out["layers"] = tracer.layer_metrics(spans.spans, len(done))
            out["layers"]["trace.overhead_pct"] = 100.0 * (traced / sum(out["latencies"]) - 1.0)
            out["notes"] = spans.notes
    out.update(attempted=attempted, failed=len(errors), errors=errors[:5],
               threads=_thread_count())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
