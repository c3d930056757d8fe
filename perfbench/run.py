"""moebudget benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a moebudget checkout; the program is imported from
the checkout's src/. Workloads (see BENCHMARK.json for why each exists):

- toy-train: seeded 100-step run_toy_training runs at the criterion-7
  configuration, each lam=0.01 run followed by its lam=0.0 partner;
- grad-oracle: single grad_check trials cycling through the ten criterion-3
  variants at tolerance 1e-5;
- cli-cold: one fresh `python -m moebudget.cli` process per request, running
  a planning subcommand with arguments drawn from the shipped fixture rows.

Load is a closed loop with one client. toy-train and grad-oracle run in a
fresh child interpreter (perfbench/child.py); cli-cold starts one process
per request. Every child gets BLAS capped at one thread. Every operation's
output is checked; a wrong output counts as a failed operation.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (perfbench/tracer.py)
and the tracing overhead. The line before it is a detail record: the
metrics under the names the workload gives them, the tail percentile and
sample count, failures, notes and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS, import_seconds, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
WORK = HERE / ".work"
PYTHON = sys.executable

SETUP_SPAWNS = 5      # set-up is measured this many times per run; the median is reported
TAIL_BEYOND = 10      # the tail is the highest percentile with this many samples beyond it
CHILD_GRACE_S = 60.0  # a child still running this long after its budget is killed
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORTS_DONE = "perfbench-imports-done"
SPANS_PREFIX = "perfbench-spans "
UNCONTROLLED = ("CPU frequency, cache state and co-tenant load on a shared machine are "
                "neither controlled nor pinned, so every figure carries their noise.")

CLI_COMMANDS = {  # subcommand -> schema its stdout must satisfy
    "plan": "budget_payload",
    "budget": "budget_payload",
    "search": "search_result",
    "dense-baseline": "budget_payload",
    "reuse": "reuse_plan",
    "sweep": "sweep_plan",
    "fit-hparams": "power_law_fit",
    "validate-fixtures": "fixture_report",
}
CLI_PER_COMMAND = 2  # distinct argument sets per subcommand; requests cycle through them

E2E_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "work_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
WORKLOAD_NAMES = {  # end-to-end metric -> (name and unit in the workload's own terms)
    "toy-train": {"work_per_s": ("toy_tokens_per_s", "tokens/s"),
                  "op_p50_ms": ("toy_run_p50_ms", "ms"),
                  "op_tail_ms": ("toy_run_tail_ms", "ms")},
    "grad-oracle": {"work_per_s": ("fd_evals_per_s", "evals/s"),
                    "op_p50_ms": ("oracle_trial_p50_ms", "ms"),
                    "op_tail_ms": ("oracle_trial_tail_ms", "ms")},
    "cli-cold": {"work_per_s": ("cli_requests_per_s", "requests/s"),
                 "op_p50_ms": ("cli_p50_ms", "ms"),
                 "op_tail_ms": ("cli_tail_ms", "ms")},
}


class BenchError(RuntimeError):
    """The benchmark could not run or a child process broke."""


class Tally:
    """Operations attempted, failures among them and the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.merge({"attempted": 1, "failed": int(bool(error)), "errors": [error] if error else []})

    def merge(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"][:10 - len(self.errors)]


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(cmd: list[str], stderr, limit_s: float) -> tuple[subprocess.Popen, threading.Timer]:
    """Start a child with piped stdout and a watchdog that kills it after limit_s."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=stderr)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    return proc, watchdog


def reap(proc: subprocess.Popen, watchdog: threading.Timer) -> tuple[int, int]:
    """Wait for the process; return its exit code and peak RSS in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def read_text(path: Path) -> str:
    return path.read_text(errors="replace") if path.exists() else ""


def split_stderr(text: str) -> tuple[list[str], list[str]]:
    """Lines before the imports-done marker, and the lines after it."""
    lines = text.splitlines()
    if IMPORTS_DONE in lines:
        cut = lines.index(IMPORTS_DONE)
        return lines[:cut], lines[cut + 1:]
    return lines, []


# ---------------------------------------------------------------------------
# toy-train and grad-oracle: one child interpreter per measurement
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float, int, str]:
    """Start child.py; return its result, set-up time, peak RSS and stderr."""
    traced = mode == "trace"
    cmd = [PYTHON] + (["-X", "importtime"] if traced else []) + [
        str(HERE / "child.py"), workload, str(seed), str(seconds), mode]
    err_path = WORK / "child.err"
    with open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc, watchdog = start(cmd, err, seconds * 2 + CHILD_GRACE_S)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - spawned
        lines = [ready] + proc.stdout.readlines()
        proc.stdout.close()
        code, rss_kb = reap(proc, watchdog)
    stderr = read_text(err_path)
    if code != 0 or ready.strip() != b"ready" or len(lines) < 2:
        raise BenchError(f"{workload} child ({mode}) exited with {code}: "
                         f"{stderr.strip().splitlines()[-1:]}")
    return json.loads(lines[-1]), setup, rss_kb, stderr


def python_workload(workload: str, seed: int, seconds: float, trace: bool, tally: Tally,
                    notes: list[str]) -> dict:
    setups = []
    for _ in range(0 if trace else SETUP_SPAWNS - 1):
        result, setup, _, _ = run_child(workload, seed, 0, "setup")
        setups.append(setup)
        tally.merge(result)
    result, setup, rss_kb, stderr = run_child(workload, seed, seconds,
                                              "trace" if trace else "measure")
    setups.append(setup)
    tally.merge(result)
    notes += result["notes"]
    layers = result["layers"]
    if trace:
        layers.update(import_seconds(split_stderr(stderr)[0]))
    return {"latencies": result["latencies"], "work": result["work"], "setups": setups,
            "rss_kb": rss_kb, "layers": layers, "threads": result["threads"]}


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per request
# ---------------------------------------------------------------------------

def cli_requests(rng: random.Random) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """The warm-up request and CLI_PER_COMMAND requests per subcommand.

    Arguments are drawn from the shipped fixture rows; shape files are
    written under perfbench/.work.
    """
    sys.path.insert(0, str(SRC))
    from moebudget import arch, fixtures

    tables = [fixtures.load_table(name) for name in fixtures.table_names()]
    moe = [t for t in tables if t.kind == "moe"]

    def shape_file(table, index: int) -> str:
        path = WORK / f"{table.name}-{index}.json"
        path.write_text(json.dumps(arch.shape_to_json(table.row_shape(table.rows[index]))))
        return str(path.relative_to(ROOT))

    def pick(pool):
        table = rng.choice(pool)
        index = rng.randrange(len(table.rows))
        return table, index, table.rows[index]

    def plan():
        table, index, row = pick(tables)
        return ("plan", table.kind, "--shape-file", shape_file(table, index),
                "--tokens", str(table.row_tokens(row)))

    def budget():
        table, index, row = pick(tables)
        return ("budget", "--compute", repr(row["C"]), "--shape-file", shape_file(table, index))

    def search():
        table, _, row = pick([t for t in moe if "mu" in t.rows[0]])
        meta = table.meta
        return ("search", "--target-n", repr(meta["total_params"]),
                "--target-ra", repr(row["r_a"] / 100),
                "--zeta", repr(round(meta["model_dim"] / meta["layers"], 1)),
                "--mu", repr(row["mu"]))

    def dense_baseline():
        _, _, row = pick([t for t in tables if t.kind == "dense"])
        return ("dense-baseline", "--target-n", repr(row["N"]),
                "--zeta", repr(round(row["D_m"] / row["L"], 1)),
                "--alpha", repr(round(row["D_ffn"] / row["D_m"], 2)))

    def reuse():
        table, _, row = pick(tables)
        tokens = str(table.row_tokens(row))
        if table.reuse_scheme == "strict":
            return ("reuse", "--scheme", "strict", "--tokens", tokens,
                    "--unique-tokens", repr(table.meta["unique_tokens"]))
        return ("reuse", "--scheme", "loose", "--tokens", tokens)

    def sweep():
        table, _, row = pick(moe)
        path = WORK / f"sweep-{table.name}.json"
        path.write_text(json.dumps([
            {"shape": arch.shape_to_json(table.row_shape(r)), "eta": r["eta"], "B": r["B"]}
            for r in table.rows]))
        fixed = rng.choice([f for f, col in (("c", "C"), ("d", "D")) if col in row])
        return ("sweep", "--fixed", fixed, "--value", repr(row[fixed.upper()]),
                "--shapes-file", str(path.relative_to(ROOT)))

    def fit_hparams():
        table, _, row = pick(tables)
        args = ("fit-hparams", "--from-fixture", table.name,
                "--target", rng.choice(("eta", "batch")))
        if table.kind == "moe" and rng.random() < 0.5:
            args += ("--ra", repr(row["r_a"]))
        return args

    def validate_fixtures():
        if rng.random() < 0.5:
            return ("validate-fixtures",)
        return ("validate-fixtures", "--table", rng.choice(tables).name)

    makers = {"plan": plan, "budget": budget, "search": search,
              "dense-baseline": dense_baseline, "reuse": reuse, "sweep": sweep,
              "fit-hparams": fit_hparams, "validate-fixtures": validate_fixtures}
    pool = [makers[command]() for command in CLI_COMMANDS for _ in range(CLI_PER_COMMAND)]
    warm_table = fixtures.load_table("moe_7b_fixed_compute")
    warm_up = ("plan", "moe", "--shape-file", shape_file(warm_table, 0),
               "--tokens", str(warm_table.row_tokens(warm_table.rows[0])))
    return warm_up, pool


def schema_validators() -> dict:
    try:
        import jsonschema
        from referencing import Registry, Resource
    except ImportError as exc:
        raise BenchError(f"cli-cold checks payloads with jsonschema: {exc}") from None
    schemas = {path.name: json.loads(path.read_text()) for path in SCHEMAS.glob("*.schema.json")}
    registry = Registry().with_resources(
        (name, Resource.from_contents(schema)) for name, schema in schemas.items())
    return {name.removesuffix(".schema.json"): jsonschema.Draft202012Validator(
        schema, registry=registry) for name, schema in schemas.items()}


def cli_call(argv: tuple[str, ...], traced: bool) -> tuple[float, int, bytes, str, int]:
    """One request: latency from spawn to exit, exit code, stdout, stderr, peak RSS."""
    if traced:
        cmd = [PYTHON, "-X", "importtime", str(HERE / "cli_traced.py"), *argv]
    else:
        cmd = [PYTHON, "-m", "moebudget.cli", *argv]
    err_path = WORK / "cli.err"
    with open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc, watchdog = start(cmd, err, CHILD_GRACE_S)
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss_kb = reap(proc, watchdog)
        latency = time.perf_counter() - spawned
    return latency, code, out, read_text(err_path), rss_kb


class CliChecker:
    """Exit code 0, schema-valid stdout, validate-fixtures ok, identical repeats."""

    def __init__(self) -> None:
        self.validators = schema_validators()
        self.first: dict[tuple[str, ...], bytes] = {}

    def __call__(self, argv: tuple[str, ...], code: int, out: bytes) -> str | None:
        if code != 0:
            return f"{' '.join(argv)}: exit code {code}"
        try:
            payload = json.loads(out)
        except ValueError:
            return f"{' '.join(argv)}: stdout is not JSON"
        error = next(self.validators[CLI_COMMANDS[argv[0]]].iter_errors(payload), None)
        if error is not None:
            return f"{' '.join(argv)}: payload breaks its schema: {error.message[:160]}"
        if argv[0] == "validate-fixtures" and payload.get("ok") is not True:
            return f"{' '.join(argv)}: fixtures do not validate"
        if self.first.setdefault(argv, out) != out:
            return f"{' '.join(argv)}: payload differs from an earlier identical request"
        return None


def cli_workload(seed: int, seconds: float, trace: bool, tally: Tally, notes: list[str]) -> dict:
    warm_up, pool = cli_requests(random.Random(seed))
    check = CliChecker()
    setups: list[float] = []
    rss_kb = 0
    for _ in range(0 if trace else SETUP_SPAWNS):
        latency, code, out, _, rss = cli_call(warm_up, traced=False)
        tally.add(check(warm_up, code, out))
        setups.append(latency)
        rss_kb = max(rss_kb, rss)

    order = random.Random(seed + 1)
    done: list[tuple[str, ...]] = []
    latencies: list[float] = []
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    while not done or time.perf_counter() < deadline:
        for argv in order.sample(pool, len(pool)):
            latency, code, out, _, rss = cli_call(argv, traced=False)
            tally.add(check(argv, code, out))
            done.append(argv)
            latencies.append(latency)
            rss_kb = max(rss_kb, rss)
            if time.perf_counter() >= deadline:
                break
    layers = None
    if trace:
        spans: list[list] = []
        imports = []
        traced_total = 0.0
        for index, argv in enumerate(done):
            latency, code, out, stderr, _ = cli_call(argv, traced=True)
            tally.add(check(argv, code, out))
            traced_total += latency
            before, after = split_stderr(stderr)
            imports.append(import_seconds(before))
            record = next((json.loads(line[len(SPANS_PREFIX):]) for line in after
                           if line.startswith(SPANS_PREFIX)), None)
            if record is None:
                raise BenchError(f"traced CLI request {argv} left no spans")
            offset = len(spans)
            for name, layer, begin, end, parent, _, attrs in record["spans"]:
                spans.append([name, layer, begin, end, parent + offset if parent >= 0 else -1,
                              index, attrs])
            notes += [note for note in record["notes"] if note not in notes]
        layers = layer_metrics(spans, len(done))
        for key in imports[0]:
            layers[key] = statistics.fmean(entry[key] for entry in imports)
        layers["trace.overhead_pct"] = 100.0 * (traced_total / sum(latencies) - 1.0)
    return {"latencies": latencies, "work": len(latencies), "setups": setups,
            "rss_kb": rss_kb, "layers": layers, "threads": None}


# ---------------------------------------------------------------------------
# machine record and output
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(child_threads: int | None) -> dict:
    import numpy  # imported here, after THREAD_ENV is set, like in the children

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": _blas_threads(), "thread_env": THREAD_ENV,
            "child_threads": child_threads, "cpu_model": cpu,
            "uncontrolled": UNCONTROLLED}


def end_to_end(run: dict, tally: Tally) -> dict[str, float]:
    latencies = run["latencies"]
    return {
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail(latencies)[0],
        "work_per_s": run["work"] / sum(latencies),
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moebudget").is_dir() or not SCHEMAS.is_dir():
        print(f"perfbench: no moebudget checkout around {HERE} (src/moebudget and "
              f"docs/schemas are needed)", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    tally = Tally()
    notes: list[str] = []
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "cli-cold":
            run = cli_workload(args.seed, args.seconds, bool(args.trace), tally, notes)
        else:
            run = python_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  tally, notes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": run["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        named = {}
    else:
        values = end_to_end(run, tally)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
        named = {alias: {"value": values[name], "unit": unit}
                 for name, (alias, unit) in WORKLOAD_NAMES[args.workload].items()}
        named["fail_ratio"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    percentile = tail(run["latencies"])[1]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": named,
        "tail": {"percentile": round(percentile, 2), "samples": len(run["latencies"])},
        "failures": tally.errors, "notes": notes,
        "machine": machine(run["threads"]),
    }
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
