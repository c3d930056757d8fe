"""Golden CLI corpus: argv lists whose exit code, stdout and stderr are pinned.

The argv lists come from the shipped fixture rows (``plan``, ``budget`` and
``reuse`` per row, JSON and ``--csv``), every ``fit-hparams`` table x target x
parameter column x ``--ra`` choice, a fixed grid of ``search``,
``dense-baseline`` and ``sweep`` cases, ``validate-fixtures``, usage errors of
every command, the bounds of every config record and every ``-h`` text.

The ``grad-check`` payloads (``GRAD_CHECK``) and a 200-step ``train-toy`` run
(``TRAIN_TOY``) depend on the numpy build, the BLAS build and the BLAS core
that runs them, and numpy words the diagnostic of an allocation too large for
the machine (``OUT_OF_MEMORY``), so ``digests.json`` keeps them apart, under
``numpy_records``: one record set per build that wrote them (``numpy_build``).
``--write`` replaces the running build's set and keeps the others.

Each argv runs in process through ``moebudget.cli.main``. Input files live in
a temporary directory, written as ``{tmp}`` in argv and outputs. The pinned
record of an argv is its exit code, the SHA-256 of its stdout (and of each file
written to its ``--out`` directory, if it has one) and its stderr.

Regenerate ``digests.json`` after a deliberate output change with::

    python tests/golden/corpus.py --write
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any
from unittest import mock

DIGESTS = Path(__file__).with_name("digests.json")
TMP = "{tmp}"
MOE = f"{TMP}/moe.json"
SHAPES = f"{TMP}/shapes.json"
COMMANDS = ("plan", "budget", "search", "dense-baseline", "reuse", "fit-hparams", "sweep",
            "grad-check", "train-toy", "validate-fixtures")
# command -> schema its JSON stdout satisfies
SCHEMAS = {"plan": "budget_payload", "budget": "budget_payload", "search": "search_result",
           "dense-baseline": "budget_payload", "reuse": "reuse_plan",
           "fit-hparams": "power_law_fit", "sweep": "sweep_plan",
           "grad-check": "grad_check_report", "train-toy": "toy_summary",
           "validate-fixtures": "fixture_report"}
# criterion 3's ten variants (top_k, normalized, shared_dim) at three trials each, the
# default settings and one CSV
_CRITERION_3 = [(top_k, normalized, shared) for top_k in (1, 2, 4)
                for normalized in (False, True) if not (top_k == 1 and normalized)
                for shared in (0, 4)]
GRAD_CHECK = [["grad-check", "--E", "4", "--D_m", "5", "--D_e", "3", "--K", str(top_k),
               *(["--normalized"] if normalized else []), "--D_se", str(shared),
               "--seed", str(100 + index), "--trials", "3"]
              for index, (top_k, normalized, shared) in enumerate(_CRITERION_3)]
GRAD_CHECK += [["grad-check"], ["grad-check", "--csv"],
               # a large shape, one expert, Top-K over every expert, and nine experts
               ["grad-check", "--E", "8", "--D_m", "32", "--D_e", "16", "--D_se", "32",
                "--trials", "1"],
               ["grad-check", "--E", "1", "--K", "1", "--D_m", "3", "--D_e", "2", "--trials", "3"],
               ["grad-check", "--E", "3", "--K", "3", "--normalized", "--D_m", "2", "--D_e", "1",
                "--D_se", "2", "--trials", "3"],
               ["grad-check", "--E", "9", "--K", "3", "--normalized", "--D_m", "3", "--D_e", "2",
                "--D_se", "2", "--trials", "3"]]
# a short run of the criterion-7 defaults, whose --out files are pinned too; build()
# writes its config
TRAIN_TOY = [["train-toy", "--config", f"{TMP}/toy-200.json", "--out", f"{TMP}/run"],
             ["train-toy", "--config", f"{TMP}/toy-200.json", "--csv"]]
# first allocations past the 128 TiB user address space; numpy words the diagnostic
OUT_OF_MEMORY = [["grad-check", "--D_m", "1000000", "--D_e", "1000000000", "--trials", "1"],
                 ["train-toy", "--config", f"{TMP}/toy-huge.json"]]
NUMPY_ARGVS = GRAD_CHECK + TRAIN_TOY + OUT_OF_MEMORY
# command -> (a valid argv tail, one of its required flags, a choice flag, a typed flag)
_USAGE = {
    "plan": (["moe", "--shape-file", MOE], "--shape-file", "--format", "--tokens"),
    "budget": (["--compute", "2.86e21", "--shape-file", MOE], "--compute", "--format",
               "--compute"),
    "search": (["--target-n", "6.52e9", "--target-ra", "0.2"], "--target-ra",
               "--arrangement", "--head-dim"),
    "dense-baseline": (["--target-n", "6.48e9", "--zeta", "128", "--alpha", "2.69"],
                       "--alpha", "--format", "--seq-len"),
    "reuse": (["--scheme", "loose", "--tokens", "3.16e11"], "--tokens", "--scheme",
              "--unique-tokens"),
    "fit-hparams": (["--from-fixture", "dense_baselines", "--target", "eta"], "--target",
                    "--n-column", "--ra"),
    "sweep": (["--fixed", "c", "--value", "2.86e21", "--shapes-file", SHAPES],
              "--shapes-file", "--reuse", "--value"),
    "grad-check": ([], None, "--format", "--E"),
    "train-toy": (["--config", f"{TMP}/toy.json"], "--config", "--format", "--seed"),
    "validate-fixtures": ([], None, "--format", None),
}


def _formats(argv: list[str]) -> list[list[str]]:
    return [argv, [*argv, "--csv"]]


def _usage_errors() -> list[list[str]]:
    cases: list[list[str]] = [[], ["bogus"], ["--bogus", "plan"], ["-h"]]
    for command in COMMANDS:
        tail, required, choice, typed = _USAGE[command]
        cases += [[command, "-h"], [command, *tail, "--bogus"], [command, *tail, "stray"],
                  [command, *tail, choice, "bogus"]]
        if required:
            at = tail.index(required)
            cases.append([command, *tail[:at], *tail[at + 2:]])
        if typed:
            cases.append([command, *tail, typed, "bogus"])
    return cases


def build(tmp: Path) -> list[list[str]]:
    """Write the corpus's input files under ``tmp`` and return its argv lists."""
    from moebudget import arch, fixtures

    def write(name: str, obj: Any) -> str:
        (tmp / name).write_text(json.dumps(obj))
        return f"{TMP}/{name}"

    tables = [fixtures.load_table(name) for name in fixtures.table_names()]
    moe = [t for t in tables if t.kind == "moe"]
    shape = {t.name: [arch.shape_to_json(t.row_shape(row)) for row in t.rows] for t in tables}
    write("moe.json", shape["moe_7b_fixed_compute"][0])
    write("shapes.json", shape["moe_7b_fixed_compute"])
    write("dense.json", shape["dense_baselines"][0])
    write("toy-200.json", {"steps": 200})
    write("toy-huge.json", {"model_dim": 10**13, "steps": 1})
    argvs: list[list[str]] = []

    for table in tables:
        for index, row in enumerate(table.rows):
            path = write(f"{table.name}-{index}.json", shape[table.name][index])
            tokens = str(table.row_tokens(row))
            argvs += _formats(["plan", table.kind, "--shape-file", path, "--tokens", tokens])
            argvs += _formats(["budget", "--compute", repr(row["C"]), "--shape-file", path])
            argvs += _formats(["reuse", "--scheme", "loose", "--tokens", tokens])
        if table.reuse_scheme == "strict":
            argvs += _formats(["reuse", "--scheme", "strict",
                               "--tokens", str(table.row_tokens(table.rows[0])),
                               "--unique-tokens", repr(table.meta["unique_tokens"])])

    for table in tables:
        ras = [None, "8.74"] + ([repr(table.rows[0]["r_a"])] if "r_a" in table.rows[0] else [])
        for target in ("eta", "batch"):
            for n_column in ("N", "N_a"):
                for ra in ras:
                    argvs.append(["fit-hparams", "--from-fixture", table.name, "--target",
                                  target, "--n-column", n_column,
                                  *(["--ra", ra] if ra else [])])

    for table in moe:
        if "mu" not in table.rows[0]:
            continue
        zeta = repr(round(table.meta["model_dim"] / table.meta["layers"], 1))
        for row in table.rows:
            argvs.append(["search", "--target-n", repr(table.meta["total_params"]),
                          "--target-ra", repr(row["r_a"] / 100), "--zeta", zeta,
                          "--mu", repr(row["mu"])])
    argvs += [
        *_formats(["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--limit", "3"]),
        ["search", "--target-n", "2.15e9", "--target-ra", "0.1", "--arrangement",
         "full", "--k-min", "2", "--k-max", "4"],
        ["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--de-multiple", "256",
         "--max-experts", "64", "--head-dim", "64", "--seq-len", "4096", "--alpha", "2.5"],
        ["search", "--target-n", "1000", "--target-ra", "0.2"],
        ["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--k-max", str(2**70),
         "--max-experts", "8"],
        ["search", "--target-n", "6.52e9", "--target-ra", "1.5"],
    ]

    dense = next(t for t in tables if t.kind == "dense")
    for row in dense.rows:
        argvs += _formats(["dense-baseline", "--target-n", repr(row["N"]),
                           "--zeta", repr(round(row["D_m"] / row["L"], 1)),
                           "--alpha", repr(round(row["D_ffn"] / row["D_m"], 2))])
    argvs += [["dense-baseline", "--target-n", "6.48e9", "--zeta", "128", "--alpha", "2.69",
               "--head-dim", "64", "--seq-len", "4096"],
              ["dense-baseline", "--target-n", "10", "--zeta", "128", "--alpha", "2.69"]]

    for table in moe:
        rows = table.rows
        with_hparams = write(f"sweep-{table.name}.json", [
            {"shape": s, "eta": row["eta"], "B": row["B"]}
            for s, row in zip(shape[table.name], rows)])
        bare = write(f"bare-{table.name}.json", shape[table.name])
        reuse = [] if table.reuse_scheme is None else ["--reuse", table.reuse_scheme]
        if table.reuse_scheme == "strict":
            reuse += ["--unique-tokens", repr(table.meta["unique_tokens"])]
        for fixed in ("c", "d"):
            column = fixed.upper() if fixed.upper() in rows[0] else "D_hat"
            sweep = ["sweep", "--fixed", fixed, "--value", repr(rows[0][column])]
            argvs += _formats([*sweep, "--shapes-file", with_hparams, *reuse])
            for n_column in ("N", "N_a"):
                argvs.append([*sweep, "--shapes-file", bare, "--hparams-from", table.name,
                              "--n-column", n_column])

    # one argv per bound of each config record, and a record with two bad fields; each
    # fails before any BLAS work, so these diagnostics are the same on every numpy build
    for kind, row, bad in (("dense", shape["dense_baselines"][0],
                            {"L": 0, "D_m": 0, "D_ffn": 0, "H": 0, "D_h": 0, "S": 0}),
                           ("moe", shape["moe_7b_fixed_compute"][0],
                            {"L_e": 0, "E": 0, "D_e": 0, "D_se": -1})):
        for key, value in bad.items():
            path = write(f"bad-{key}.json", {**row, key: value})
            argvs.append(["plan", kind, "--shape-file", path])
    for flag, value in (("--E", "0"), ("--D_m", "0"), ("--D_e", "0"), ("--D_se", "-1"),
                        ("--seed", "-1"), ("--trials", "0"), ("--lam", "-1"),
                        ("--tolerance", "0")):
        argvs.append(["grad-check", flag, value])
    argvs.append(["grad-check", "--lam", "-1", "--E", "0"])
    toy_bad = [{"vocab": 1}, {"seq_len": 1}, {"clusters": 1}, {"task_seed": -1},
               {"concentration": -1}, {"steps": -1}, {"lam": -1}, {"lam": float("nan")},
               {"lr": 0}, {"momentum": -1}, {"batch_sequences": 0}, {"model_dim": 0},
               {"expert_dim": 0}, {"experts": 0}, {"shared_dim": -1}, {"seed": -1},
               {"seed": -1, "steps": -1}, {"lam": float("inf")}]
    for index, config in enumerate(toy_bad):
        argvs.append(["train-toy", "--config", write(f"toy-bad-{index}.json", config)])
    argvs.append(["train-toy", "--config", write("toy-default.json", {}), "--seed", "-1"])
    target = ["--target-n", "6.52e9", "--target-ra", "0.2"]
    argvs += [["search", "--target-n", "0", "--target-ra", "0.2"],
              ["search", "--target-n", "6.52e9", "--target-ra", "0"],
              *(["search", *target, *tail] for tail in (
                  ["--zeta", "0"], ["--mu", "0"], ["--alpha", "0"], ["--k-min", "0"],
                  ["--k-max", "1", "--k-min", "2"], ["--head-dim", "0"],
                  ["--de-multiple", "0"], ["--max-experts", "0"], ["--limit", "0"],
                  ["--k-min", "0", "--head-dim", "0"], ["--seq-len", "0"])),
              ["search", "--target-n", "6.52e9", "--target-ra", "0.001", "--seq-len", "0"]]
    dense_target = ["dense-baseline", "--target-n", "6.48e9"]
    argvs += [["dense-baseline", "--target-n", "0", "--zeta", "128", "--alpha", "2.69"],
              [*dense_target, "--zeta", "0", "--alpha", "2.69"],
              [*dense_target, "--zeta", "128", "--alpha", "0"],
              [*dense_target, "--zeta", "128", "--alpha", "2.69", "--head-dim", "0"]]

    argvs += [*_formats(["validate-fixtures"]),
              *(["validate-fixtures", "--table", t.name] for t in tables),
              ["validate-fixtures", "--dir", f"{TMP}/missing"],
              ["plan", "moe", "--shape-file", f"{TMP}/missing.json"],
              ["plan", "moe", "--shape-file", f"{TMP}/dense.json"],
              ["plan", "dense", "--shape-file", MOE],
              # flag defaults: --tokens 0, --n-column N
              ["plan", "moe", "--shape-file", MOE],
              ["fit-hparams", "--from-fixture", "moe_7b_fixed_compute", "--target", "eta"],
              ["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file", SHAPES,
               "--hparams-from", "moe_7b_fixed_compute"]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs + _usage_errors()))]


def run(argv: list[str], tmp: Path) -> dict[str, Any]:
    """Exit code, stdout and stderr of one argv, with ``tmp`` written as ``{tmp}``."""
    from moebudget import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace(TMP, str(tmp)) for a in argv])
        except SystemExit as exc:  # -h prints its help, then exits
            code = exc.code
    result = {"argv": argv, "exit": code, "stdout": out.getvalue().replace(str(tmp), TMP),
              "stderr": err.getvalue().replace(str(tmp), TMP)}
    if "--out" in argv:
        out_dir = Path(argv[argv.index("--out") + 1].replace(TMP, str(tmp)))
        result["files"] = {path.name: path.read_text() for path in sorted(out_dir.iterdir())}
    return result


def record(result: dict[str, Any]) -> dict[str, Any]:
    """The pinned form of a ``run`` result."""
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    pinned = {"argv": result["argv"], "exit": result["exit"],
              "stdout_sha256": digest(result["stdout"])}
    if "files" in result:
        pinned["files_sha256"] = {name: digest(text) for name, text in result["files"].items()}
    return {**pinned, "stderr": result["stderr"]}


def run_corpus() -> list[dict[str, Any]]:
    """The results of every argv of ``build`` and then of ``NUMPY_ARGVS``."""
    # help text wraps at $COLUMNS, and $MOEBUDGET_FIXTURES would move the tables
    env = {k: v for k, v in os.environ.items() if k != "MOEBUDGET_FIXTURES"}
    with tempfile.TemporaryDirectory() as name, \
            mock.patch.dict(os.environ, {**env, "COLUMNS": "80"}, clear=True):
        tmp = Path(name)
        return [run(argv, tmp) for argv in build(tmp) + NUMPY_ARGVS]


def python_version() -> str:
    # argparse's usage and help texts differ between Python versions
    return "{}.{}".format(*sys.version_info)


def numpy_build() -> dict[str, Any]:
    """The numpy version, the BLAS it was built with, the core that BLAS runs on and
    the SIMD extensions numpy's own loops dispatch to, which the bits of
    ``NUMPY_ARGVS`` follow.

    OpenBLAS picks its kernels for the CPU at run time (``OPENBLAS_CORETYPE``
    overrides the choice), so the core is read from the loaded library; it is
    None where numpy ships no scipy-openblas or the library lacks the symbol.
    numpy picks its ufunc loops at run time too, apart from OpenBLAS
    (``NPY_DISABLE_CPU_FEATURES`` turns extensions off).
    """
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    core = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
            break
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "core": core, "simd": config["SIMD Extensions"]["found"]}


def write_digests(results: list[dict[str, Any]]) -> None:
    """Write the records of ``results``; the numpy records replace the set of the
    running build, and the sets of other builds are kept."""
    def lines(pinned: list[dict[str, Any]]) -> str:
        return ",\n".join(json.dumps(p) for p in pinned)

    build = numpy_build()
    fresh = {"build": build,
             "records": [record(r) for r in results if r["argv"] in NUMPY_ARGVS]}
    kept = json.loads(DIGESTS.read_text())["numpy_records"] if DIGESTS.exists() else []
    sets = [fresh if s["build"] == build else s for s in kept]
    if fresh not in sets:
        sets.append(fresh)
    rest = [record(r) for r in results if r["argv"] not in NUMPY_ARGVS]
    numpy = ",\n".join(f'{{"build": {json.dumps(s["build"])}, "records": [\n'
                       f'{lines(s["records"])}\n]}}' for s in sets)
    DIGESTS.write_text(f'{{"python": {json.dumps(python_version())}, "records": [\n'
                       f'{lines(rest)}\n], "numpy_records": [\n{numpy}\n]}}\n')


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden/corpus.py --write")
    corpus = run_corpus()
    write_digests(corpus)
    print(f"wrote {len(corpus)} records to {DIGESTS}")
