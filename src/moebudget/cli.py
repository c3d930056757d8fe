"""Command-line entry point.

Machine-readable payloads (JSON by default, CSV via --format csv or --csv) go
to standard output; diagnostics go to standard error. Exit codes: 0 success,
1 validation error, 2 infeasible request, 3 numerical failure. Repeating a
command with identical inputs and seed yields a byte-identical payload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

# every command needs these two; each _cmd_* imports the rest of what it runs
from . import arch
from .errors import CliUsageError, MoebudgetError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 and a usage block on bad flags; the CLI contract
    # wants exit 1 and one line
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(f"{self.prog}: error: {message}; "
                            f"see '{self.prog} -h' for usage")


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    payload: str = ""
    diagnostics: str = ""


def _json_payload(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _csv_payload(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _flat_csv(obj: dict[str, Any]) -> str:
    rows = [(key, json.dumps(value) if isinstance(value, (dict, list, tuple)) else value)
            for key, value in sorted(obj.items())]
    return _csv_payload(["key", "value"], rows)


def _payload(args: argparse.Namespace, obj: dict[str, Any],
             table: Callable[[], tuple[list[str], list[list[Any]]]] | None = None) -> str:
    """``obj`` as JSON, or under --csv the ``(header, rows)`` of ``table()``, else
    ``obj``'s key/value rows; JSON requests never build the table."""
    rows = table() if table and args.format == "csv" else None
    try:
        if args.format != "csv":
            return _json_payload(obj)
        return _csv_payload(*rows) if rows else _flat_csv(obj)
    except ValueError:  # writing JSON or CSV raises it only for an int past the digit limit
        raise CliUsageError(f"payload has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


@contextlib.contextmanager
def _numpy_run() -> Iterator[None]:
    """Non-finite results are reported as one diagnostic, without numpy's warnings, and
    an array size that numpy rejects before allocating, as past its index range, exits 1."""
    import numpy as np  # numpy loads only for the commands that compute with it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except ValueError as exc:
        if not str(exc).startswith(("Maximum allowed dimension exceeded", "array is too big")):
            raise
        raise CliUsageError(f"array too large: {exc}") from None


def _reader(kind: str) -> Callable[[str], Any]:
    """The argparse type of an "integer", a "count" (an exact non-negative int: integer
    text, or finite float text naming one) or a "real" (a finite float). Integer text past
    int()'s digit limit is named before it is parsed; text is echoed bounded."""
    def read(text: str) -> Any:
        echo, limit = reprlib.repr(text), sys.get_int_max_str_digits()
        digits = text.strip().lstrip("+-").replace("_", "")
        if kind != "real" and 0 < limit < len(digits) and digits.isdecimal():
            raise argparse.ArgumentTypeError(f"{kind} has more than {limit} digits")
        try:
            value = {"integer": int, "count": arch.exact_int, "real": float}[kind](text)
        except ValueError:
            if kind == "count":
                _real(text)  # raises the diagnostic of text that is no finite number
            raise argparse.ArgumentTypeError(f"invalid int value: {echo}" if kind == "integer"
                                             else f"expected a number, got {echo}") from None
        if kind == "real" and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {echo[1:-1]}")
        if kind == "count":
            if value is None:
                raise argparse.ArgumentTypeError(f"count must be an integer, got {echo[1:-1]}")
            arch.check_bounds({"count": value}, argparse.ArgumentTypeError, count=">= 0")
        return value
    return read


_int, _count, _real = _reader("integer"), _reader("count"), _reader("real")


def _given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The flags among ``names`` (every flag but the command and --format if none are
    named) that were given, by field name; an absent flag takes its owner's default."""
    names = names or tuple(name for name in vars(args) if name not in ("command", "format"))
    return {name: getattr(args, name) for name in names if name in args}


def _budget_payload(args: argparse.Namespace, shape: arch.DenseShape | arch.MoEShape,
                    budget: arch.DerivedBudget) -> str:
    obj = budget.to_json_dict()
    return _payload(args, {"shape": arch.shape_to_json(shape), "budget": obj},
                    lambda: (list(obj), [list(obj.values())]))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_plan(args: argparse.Namespace) -> CommandResult:
    shape = arch.shape_from_json(
        arch.read_json_file(args.shape_file, "shape file", CliUsageError))
    is_moe = isinstance(shape, arch.MoEShape)
    if args.kind == "moe" and not is_moe:
        raise CliUsageError(f"{args.shape_file} holds a dense shape, not MoE")
    if args.kind == "dense" and is_moe:
        raise CliUsageError(f"{args.shape_file} holds an MoE shape, not dense")
    budget = arch.derive_budget(shape, **_given(args, "tokens"))
    return CommandResult(EXIT_OK, _budget_payload(args, shape, budget))


def _cmd_budget(args: argparse.Namespace) -> CommandResult:
    from . import planner
    shape = arch.shape_from_json(
        arch.read_json_file(args.shape_file, "shape file", CliUsageError))
    probe = arch.derive_budget(shape)
    tokens = planner.tokens_for_compute(args.compute, probe.fwd_flops_per_token)
    budget = arch.derive_budget(shape, tokens=tokens)
    return CommandResult(EXIT_OK, _budget_payload(args, shape, budget))


def _cmd_search(args: argparse.Namespace) -> CommandResult:
    from .search import SearchSpec, search
    result = search(SearchSpec(**_given(args)))
    if not result.candidates:
        return CommandResult(EXIT_INFEASIBLE, _json_payload(result.to_json_dict()),
                             "; ".join(result.diagnostics))

    def table() -> tuple[list[str], list[list[Any]]]:
        names = ("L", "D_m", "D_ffn", "H", "D_h", "L_e", "L_d", "E", "K", "D_e", "D_se",
                 "N", "N_a", "r_a", "M")
        rows = []
        for rank, cand in enumerate(result.candidates):
            columns = arch.table_columns(cand.shape, cand.budget)
            columns["r_a"] = round(columns["r_a"], 2)
            rows.append([rank, *(columns[name] for name in names),
                         cand.delta_params_rel, cand.delta_activation_abs])
        return ["rank", *names, "delta_N_rel", "delta_ra_abs"], rows

    # a found result drops the skip summaries: they matter only when nothing was found
    return CommandResult(EXIT_OK, _payload(args, result.to_json_dict(), table))


def _cmd_dense_baseline(args: argparse.Namespace) -> CommandResult:
    from .search import dense_baseline
    shape = dense_baseline(**_given(args))
    budget = arch.derive_budget(shape)
    return CommandResult(EXIT_OK, _budget_payload(args, shape, budget))


def _cmd_reuse(args: argparse.Namespace) -> CommandResult:
    from . import planner
    plan = planner.reuse_plan(args.scheme, args.tokens, **_given(args, "unique_tokens"))
    return CommandResult(EXIT_OK, _payload(args, plan.to_json_dict()), plan.warning or "")


def _table_name(raw: str) -> str:
    return raw[:-4] if raw.endswith(".csv") else raw


def _cmd_fit_hparams(args: argparse.Namespace) -> CommandResult:
    from . import fixtures, planner
    table = fixtures.load_table(_table_name(args.from_fixture), **_given(args, "directory"))
    column = {"eta": "eta", "batch": "B"}[args.target]
    fit = planner.fit_hparam_power_law(table.fit_points(column, **_given(args, "n_column", "ra")),
                                       **_given(args, "n_column"))
    obj = fit.to_json_dict()
    obj["target"] = args.target
    # Residuals with the other parameter column, when the table offers one,
    # settle which count the law prefers.
    alt_column = "N_a" if fit.n_column == "N" else "N"
    try:
        obj["alt_n_column_residual_rms"] = planner.fit_hparam_power_law(
            table.fit_points(column, alt_column, **_given(args, "ra"))).residual_rms
    except (planner.PlannerError, fixtures.FixtureError):
        obj["alt_n_column_residual_rms"] = None
    return CommandResult(EXIT_OK, _payload(args, obj))


def _cmd_sweep(args: argparse.Namespace) -> CommandResult:
    from . import planner
    entries = arch.read_json_file(args.shapes_file, "shapes file", CliUsageError)
    if not isinstance(entries, list) or not entries:
        raise CliUsageError("shapes file must hold a nonempty JSON list")
    shapes, row_hparams, carries_hparams = [], [], False
    for entry in entries:
        wrapped = isinstance(entry, dict) and "shape" in entry
        if wrapped and not set(entry) <= {"shape", "eta", "B"}:
            raise CliUsageError(f"shapes file entry keys must be among shape, eta, B; "
                                f"got {sorted(entry)}")
        shapes.append(arch.shape_from_json(entry["shape"] if wrapped else entry))
        carries_hparams |= wrapped and ("eta" in entry or "B" in entry)
        if wrapped and "eta" in entry and "B" in entry:
            row_hparams.append((entry["eta"], entry["B"]))
    fits = None
    if "hparams_from" in args:
        if carries_hparams:
            raise CliUsageError("--hparams-from refits eta and B, so the shapes file "
                                "entries must not give them")
        from . import fixtures  # only a refit reads a fixture table
        table = fixtures.load_table(_table_name(args.hparams_from), **_given(args, "directory"))
        n_column = _given(args, "n_column")
        fits = tuple(planner.fit_hparam_power_law(table.fit_points(column, **n_column), **n_column)
                     for column in ("eta", "B"))
    elif len(row_hparams) < len(shapes):
        raise CliUsageError(
            "no eta/B source: give per-entry eta and B in the shapes file or "
            "--hparams-from <fixture table>")
    plan = planner.build_sweep(
        fixed=args.fixed.upper(), value=args.value, shapes=shapes, hparam_fits=fits,
        row_hparams=row_hparams or None, **_given(args, "reuse_scheme", "unique_tokens"))
    return CommandResult(EXIT_OK, _payload(args, plan.to_json_dict(),
                                           lambda: planner.sweep_to_csv_rows(plan)))


def _cmd_grad_check(args: argparse.Namespace) -> CommandResult:
    from . import kernel
    settings = kernel.GradCheckSettings(**_given(args))
    with _numpy_run():
        report = kernel.grad_check(settings)
    payload = _payload(args, report.to_json_dict())
    code = EXIT_OK if report.passed else EXIT_NUMERICAL
    diag = "" if report.passed else (
        f"gradient check failed: max relative error {report.max_rel_error:.3e} "
        f"exceeds tolerance {settings.tolerance:.1e}")
    return CommandResult(code, payload, diag)


def _cmd_train_toy(args: argparse.Namespace) -> CommandResult:
    from . import toylab
    config = toylab.toy_config_from_json(
        arch.read_json_file(args.config, "config file", CliUsageError))
    config = dataclasses.replace(config, **_given(args, "seed"))
    with _numpy_run():
        report = toylab.run_toy_training(config)
    if "out" in args:
        report.write(args.out)
    return CommandResult(EXIT_OK, _payload(args, report.summary_dict()))


def _cmd_validate_fixtures(args: argparse.Namespace) -> CommandResult:
    from . import fixtures
    report = fixtures.validate_fixture_tables(**_given(args))

    def table() -> tuple[list[str], list[list[Any]]]:
        # the columns of RowCheck.to_json_dict, named even when no table was checked
        header = [*(f.name for f in dataclasses.fields(fixtures.RowCheck)), "ok"]
        return header, [list(c.to_json_dict().values()) for c in report.checks]

    payload = _payload(args, report.to_json_dict(), table)
    if not report.ok:
        failing = ", ".join(sorted({f"{c.table}[{c.row}].{c.field}"
                                    for c in report.failures}))
        return CommandResult(EXIT_NUMERICAL, payload,
                             f"residuals exceed tolerance: {failing}")
    return CommandResult(EXIT_OK, payload)


# ---------------------------------------------------------------------------
# command table: name -> (help, handler, flags); a flag is (flag, add_argument keywords)
# ---------------------------------------------------------------------------

COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], CommandResult],
                          tuple[tuple[str, dict[str, Any]], ...]]] = {
    "plan": ("budget for a shape file", _cmd_plan, (
        ("kind", {"choices": ("moe", "dense")}),
        ("--shape-file", {"required": True}),
        ("--tokens", {"type": _count}))),
    "budget": ("token budget for a compute budget", _cmd_budget, (
        ("--compute", {"type": _count, "required": True}),
        ("--shape-file", {"required": True}))),
    "search": ("MoE configurations for a (N, r_a) target", _cmd_search, (
        ("--target-n", {"dest": "target_params", "type": _count, "required": True}),
        ("--target-ra", {"dest": "target_activation_rate", "type": _real, "required": True}),
        ("--zeta", {"dest": "aspect_ratio", "type": _real}),
        ("--mu", {"dest": "expert_width_ratio", "type": _real}),
        ("--alpha", {"dest": "dense_ffn_ratio", "type": _real}),
        ("--head-dim", {"type": _int}),
        ("--seq-len", {"type": _int}),
        ("--arrangement", {"choices": arch.ARRANGEMENTS}),
        ("--k-min", {"type": _int}),
        ("--k-max", {"type": _int}),
        ("--de-multiple", {"dest": "expert_dim_multiple", "type": _int}),
        ("--max-experts", {"type": _int}),
        ("--limit", {"dest": "max_candidates", "type": _int}))),
    "dense-baseline": ("dense shape for a parameter target", _cmd_dense_baseline, (
        ("--target-n", {"dest": "target_params", "type": _count, "required": True}),
        ("--zeta", {"dest": "aspect_ratio", "type": _real, "required": True}),
        ("--alpha", {"dest": "ffn_ratio", "type": _real, "required": True}),
        ("--head-dim", {"type": _int}),
        ("--seq-len", {"type": _int}))),
    "reuse": ("multi-epoch data-reuse schedule", _cmd_reuse, (
        ("--scheme", {"choices": ("strict", "loose"), "required": True}),
        ("--tokens", {"type": _count, "required": True, "help": "consumed token budget D"}),
        ("--unique-tokens", {"type": _count}))),
    "fit-hparams": ("power-law refit from a fixture table", _cmd_fit_hparams, (
        ("--from-fixture", {"required": True, "metavar": "TABLE"}),
        ("--target", {"choices": ("eta", "batch"), "required": True}),
        ("--n-column", {"choices": ("N", "N_a")}),
        ("--ra", {"type": _real, "help": "keep only rows with this r_a (percent)"}),
        ("--dir", {"dest": "directory", "metavar": "DIR", "help": "fixture directory override"}))),
    "sweep": ("activation-rate sweep at fixed C or D", _cmd_sweep, (
        ("--fixed", {"choices": ("c", "d"), "required": True}),
        ("--value", {"type": _count, "required": True}),
        ("--shapes-file", {"required": True}),
        ("--hparams-from", {"metavar": "TABLE"}),
        ("--n-column", {"choices": ("N", "N_a")}),
        ("--reuse", {"dest": "reuse_scheme", "choices": ("strict", "loose")}),
        ("--unique-tokens", {"type": _count}),
        ("--dir", {"dest": "directory", "metavar": "DIR"}))),
    "grad-check": ("finite-difference check of the kernel", _cmd_grad_check, (
        ("--E", {"dest": "experts", "type": _int}),
        ("--K", {"dest": "top_k", "type": _int}),
        ("--D_m", {"dest": "model_dim", "type": _int}),
        ("--D_e", {"dest": "expert_dim", "type": _int}),
        ("--D_se", {"dest": "shared_dim", "type": _int}),
        ("--normalized", {"action": "store_true"}),
        ("--seed", {"type": _int}),
        ("--trials", {"type": _int}),
        ("--tolerance", {"type": _real}),
        ("--lam", {"type": _real}))),
    "train-toy": ("synthetic MoE training run", _cmd_train_toy, (
        ("--config", {"required": True}),
        ("--out", {}),
        ("--seed", {"type": _int}))),
    "validate-fixtures": ("replay the golden tables", _cmd_validate_fixtures, (
        ("--dir", {"dest": "directory", "metavar": "DIR"}),
        ("--table", {"dest": "names", "metavar": "TABLE", "action": "append"}))),
}
_FORMAT_FLAGS = (("--format", {"choices": ("json", "csv"), "default": "json"}),
                 ("--json", {"dest": "format", "action": "store_const", "const": "json"}),
                 ("--csv", {"dest": "format", "action": "store_const", "const": "csv"}))


def dispatch(argv: Sequence[str]) -> CommandResult:
    """Run one command; never raises for expected failure modes."""
    try:
        parser = _Parser(prog="moebudget",
                         description="MoE/dense budget accounting, config search, "
                                     "experiment planning, and the reference kernel")
        sub = parser.add_subparsers(dest="command", required=True)
        named = bool(argv) and argv[0] in COMMANDS
        # only the named command's parser; if argv[0] names none, every command without
        # its flags, so the usage error or top-level help lists them, and an unknown
        # option before a command is reported, not that command's missing flags
        for name in (argv[:1] if named else COMMANDS):
            help_text, _, flags = COMMANDS[name]
            p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
            for flag, keywords in (flags + _FORMAT_FLAGS if named else ()):
                p.add_argument(flag, **keywords)
        args = parser.parse_args(argv)
        _, handler, _ = COMMANDS[args.command]
        return handler(args)
    except MoebudgetError as exc:
        return CommandResult(exc.exit_code, "", f"{exc.prefix}{exc}")
    except OSError as exc:
        return CommandResult(EXIT_VALIDATION, "", str(exc))
    except MemoryError as exc:  # an array too large for the machine
        return CommandResult(EXIT_VALIDATION, "", f"out of memory: {exc}")
    except OverflowError as exc:  # a count too large for a float
        return CommandResult(EXIT_VALIDATION, "", f"out of range: {exc}")


def main(argv: Sequence[str] | None = None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else list(argv))
    if result.payload:
        print(result.payload)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
