"""Command-line entry point.

Machine-readable payloads (JSON by default, CSV via --format csv or --csv) go
to standard output; diagnostics go to standard error. Exit codes: 0 success,
1 validation error, 2 infeasible request, 3 numerical failure. Repeating a
command with identical inputs and seed yields a byte-identical payload.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from . import arch, fixtures, planner
from .errors import CliUsageError, MoebudgetError
from .search import SearchSpec, dense_baseline, search

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

# numpy commands report non-finite results as one diagnostic, without numpy's warnings
_NUMPY_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(f"{self.format_usage()}{self.prog}: error: {message}")


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
    rows = [(key, json.dumps(value) if isinstance(value, (dict, list)) else value)
            for key, value in sorted(obj.items())]
    return _csv_payload(["key", "value"], rows)


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _count(text: str) -> int:
    """An exact non-negative int: integer text, or float text naming an integer."""
    try:
        value = int(text)
    except ValueError:
        if not _real(text).is_integer():
            raise argparse.ArgumentTypeError(f"count must be an integer, got {text}") from None
        value = int(float(text))
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {text}")
    return value


def _given(args: argparse.Namespace) -> dict[str, Any]:
    """The given flags of an ``argument_default=SUPPRESS`` subparser, by field name."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "format")}


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--json", dest="format", action="store_const", const="json")
    parser.add_argument("--csv", dest="format", action="store_const", const="csv")


def _read_json(path: str, what: str) -> Any:
    file_path = Path(path)
    if not file_path.is_file():
        raise CliUsageError(f"{what} not found: {file_path}")
    try:
        return json.loads(file_path.read_text())
    except ValueError as exc:  # invalid JSON or UTF-8
        raise CliUsageError(f"{what} {file_path} is not valid JSON: {exc}") from None


def _budget_payload(shape: arch.DenseShape | arch.MoEShape,
                    budget: arch.DerivedBudget, fmt: str) -> str:
    obj = {"shape": arch.shape_to_json(shape), "budget": budget.to_json_dict()}
    if fmt == "csv":
        head = list(obj["budget"])
        return _csv_payload(head, [[obj["budget"][k] for k in head]])
    return _json_payload(obj)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_plan(args: argparse.Namespace) -> CommandResult:
    shape = arch.shape_from_json(_read_json(args.shape_file, "shape file"))
    is_moe = isinstance(shape, arch.MoEShape)
    if args.kind == "moe" and not is_moe:
        raise CliUsageError(f"{args.shape_file} holds a dense shape, not MoE")
    if args.kind == "dense" and is_moe:
        raise CliUsageError(f"{args.shape_file} holds an MoE shape, not dense")
    budget = arch.derive_budget(shape, tokens=args.tokens)
    return CommandResult(EXIT_OK, _budget_payload(shape, budget, args.format))


def _cmd_budget(args: argparse.Namespace) -> CommandResult:
    shape = arch.shape_from_json(_read_json(args.shape_file, "shape file"))
    probe = arch.derive_budget(shape)
    tokens = planner.tokens_for_compute(args.compute, probe.fwd_flops_per_token)
    budget = arch.derive_budget(shape, tokens=tokens)
    return CommandResult(EXIT_OK, _budget_payload(shape, budget, args.format))


def _cmd_search(args: argparse.Namespace) -> CommandResult:
    result = search(SearchSpec(**_given(args)))
    if not result.candidates:
        diagnostics = "\n".join(result.diagnostics) or "no feasible configuration"
        return CommandResult(EXIT_INFEASIBLE, _json_payload(result.to_json_dict()),
                             diagnostics)
    diagnostics = ""  # skip summaries matter only when nothing was found
    if args.format == "csv":
        header = ["rank", "L", "D_m", "D_ffn", "H", "D_h", "L_e", "L_d", "E", "K",
                  "D_e", "D_se", "N", "N_a", "r_a", "M", "delta_N_rel", "delta_ra_abs"]
        rows = []
        for rank, cand in enumerate(result.candidates):
            s, budget = cand.shape, cand.budget
            rows.append([rank, s.base.layers, s.base.model_dim, s.base.ffn_dim,
                         s.base.heads, s.base.head_dim, s.moe_layers, s.dense_layers,
                         s.experts, s.top_k, s.expert_dim, s.shared_expert_dim,
                         budget.total_params, budget.active_params,
                         round(100 * budget.activation_rate, 2),
                         budget.train_flops_per_token,
                         cand.delta_params_rel, cand.delta_activation_abs])
        return CommandResult(EXIT_OK, _csv_payload(header, rows), diagnostics)
    return CommandResult(EXIT_OK, _json_payload(result.to_json_dict()), diagnostics)


def _cmd_dense_baseline(args: argparse.Namespace) -> CommandResult:
    shape = dense_baseline(**_given(args))
    budget = arch.derive_budget(shape)
    return CommandResult(EXIT_OK, _budget_payload(shape, budget, args.format))


def _cmd_reuse(args: argparse.Namespace) -> CommandResult:
    if args.scheme == "strict":
        if args.unique_tokens is None:
            raise CliUsageError("strict reuse requires --unique-tokens")
        plan = planner.strict_reuse(args.tokens, args.unique_tokens)
    else:
        plan = planner.loose_reuse(args.tokens)
    obj = plan.to_json_dict()
    payload = _flat_csv(obj) if args.format == "csv" else _json_payload(obj)
    return CommandResult(EXIT_OK, payload, plan.warning or "")


def _table_name(raw: str) -> str:
    return raw[:-4] if raw.endswith(".csv") else raw


def _cmd_fit_hparams(args: argparse.Namespace) -> CommandResult:
    table = fixtures.load_table(_table_name(args.from_fixture), args.dir)
    column = {"eta": "eta", "batch": "B"}[args.target]
    nominal = table.meta.get("total_params")
    points = planner.fit_points_from_table(table.rows, column, nominal_params=nominal,
                                           n_column=args.n_column, ra_filter=args.ra)
    fit = planner.fit_hparam_power_law(points)
    obj = fit.to_json_dict()
    obj["target"] = args.target
    obj["n_column"] = args.n_column
    # Residuals with the other parameter column, when the table offers one,
    # settle which count the law prefers.
    alt_column = "N_a" if args.n_column == "N" else "N"
    try:
        alt_points = planner.fit_points_from_table(
            table.rows, column, nominal_params=nominal, n_column=alt_column,
            ra_filter=args.ra)
        obj["alt_n_column_residual_rms"] = planner.fit_hparam_power_law(
            alt_points).residual_rms
    except planner.PlannerError:
        obj["alt_n_column_residual_rms"] = None
    payload = _flat_csv(obj) if args.format == "csv" else _json_payload(obj)
    return CommandResult(EXIT_OK, payload)


def _cmd_sweep(args: argparse.Namespace) -> CommandResult:
    entries = _read_json(args.shapes_file, "shapes file")
    if not isinstance(entries, list) or not entries:
        raise CliUsageError("shapes file must hold a nonempty JSON list")
    shapes = []
    row_hparams: list[tuple[Any, Any]] | None = []
    for entry in entries:
        if isinstance(entry, dict) and "shape" in entry:
            if not set(entry) <= {"shape", "eta", "B"}:
                raise CliUsageError(f"shapes file entry keys must be among shape, eta, B; "
                                    f"got {sorted(entry)}")
            shapes.append(arch.shape_from_json(entry["shape"]))
            if row_hparams is not None and "eta" in entry and "B" in entry:
                row_hparams.append((entry["eta"], entry["B"]))
            else:
                row_hparams = None
        else:
            shapes.append(arch.shape_from_json(entry))
            row_hparams = None
    fits = None
    if args.hparams_from is not None:
        table = fixtures.load_table(_table_name(args.hparams_from), args.dir)
        nominal = table.meta.get("total_params")
        eta_fit = planner.fit_hparam_power_law(planner.fit_points_from_table(
            table.rows, "eta", nominal_params=nominal, n_column=args.n_column))
        batch_fit = planner.fit_hparam_power_law(planner.fit_points_from_table(
            table.rows, "B", nominal_params=nominal, n_column=args.n_column))
        fits = (eta_fit, batch_fit)
        row_hparams = None
    if row_hparams is None and fits is None:
        raise CliUsageError(
            "no eta/B source: give per-entry eta and B in the shapes file or "
            "--hparams-from <fixture table>")
    plan = planner.build_sweep(
        fixed=args.fixed.upper(), value=args.value, shapes=shapes,
        hparam_fits=fits, row_hparams=row_hparams,
        reuse_scheme=args.reuse, unique_tokens=args.unique_tokens,
        n_source=args.n_source)
    plan.validate()
    if args.format == "csv":
        header, rows = planner.sweep_to_csv_rows(plan)
        return CommandResult(EXIT_OK, _csv_payload(header, rows))
    return CommandResult(EXIT_OK, _json_payload(plan.to_json_dict()))


def _cmd_grad_check(args: argparse.Namespace) -> CommandResult:
    import numpy as np  # numpy loads only for the commands that compute with it
    from . import kernel
    settings = kernel.GradCheckSettings(**_given(args))
    with np.errstate(**_NUMPY_QUIET):
        report = kernel.grad_check(settings)
    obj = report.to_json_dict()
    payload = _flat_csv(obj) if args.format == "csv" else _json_payload(obj)
    code = EXIT_OK if report.passed else EXIT_NUMERICAL
    diag = "" if report.passed else (
        f"gradient check failed: max relative error {report.max_rel_error:.3e} "
        f"exceeds tolerance {settings.tolerance:.1e}")
    return CommandResult(code, payload, diag)


def _cmd_train_toy(args: argparse.Namespace) -> CommandResult:
    import numpy as np
    from . import toylab
    config = toylab.toy_config_from_json(_read_json(args.config, "config file"))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    with np.errstate(**_NUMPY_QUIET):
        report = toylab.run_toy_training(config)
    if args.out is not None:
        report.write(args.out)
    obj = report.summary_dict()
    payload = _flat_csv(obj) if args.format == "csv" else _json_payload(obj)
    return CommandResult(EXIT_OK, payload)


def _cmd_validate_fixtures(args: argparse.Namespace) -> CommandResult:
    names = args.table if args.table else None
    report = fixtures.validate_fixture_tables(names, args.dir)
    if args.format == "csv":
        header = ["table", "row", "field", "expected", "computed", "residual",
                  "limit", "ok"]
        rows = [[c.table, c.row, c.field, c.expected, c.computed, c.residual,
                 c.limit, c.ok] for c in report.checks]
        payload = _csv_payload(header, rows)
    else:
        payload = _json_payload(report.to_json_dict())
    if not report.ok:
        failing = ", ".join(sorted({f"{c.table}[{c.row}].{c.field}"
                                    for c in report.failures}))
        return CommandResult(EXIT_NUMERICAL, payload,
                             f"residuals exceed tolerance: {failing}")
    return CommandResult(EXIT_OK, payload)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="moebudget",
                     description="MoE/dense budget accounting, config search, "
                                 "experiment planning, and the reference kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[], help="budget for a shape file")
    p.add_argument("kind", choices=("moe", "dense"))
    p.add_argument("--shape-file", required=True)
    p.add_argument("--tokens", type=_count, default=0)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("budget", help="token budget for a compute budget")
    p.add_argument("--compute", type=_count, required=True)
    p.add_argument("--shape-file", required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_budget)

    # search, dense-baseline and grad-check flags keep their owner's defaults: see _given
    p = sub.add_parser("search", help="MoE configurations for a (N, r_a) target",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--target-n", dest="target_params", type=_count, required=True)
    p.add_argument("--target-ra", dest="target_activation_rate", type=_real, required=True)
    p.add_argument("--zeta", dest="aspect_ratio", type=_real)
    p.add_argument("--mu", dest="expert_width_ratio", type=_real)
    p.add_argument("--alpha", dest="dense_ffn_ratio", type=_real)
    p.add_argument("--head-dim", type=int)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--arrangement", choices=arch.ARRANGEMENTS)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--de-multiple", dest="expert_dim_multiple", type=int)
    p.add_argument("--max-experts", type=int)
    p.add_argument("--limit", dest="max_candidates", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("dense-baseline", help="dense shape for a parameter target",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--target-n", dest="target_params", type=_count, required=True)
    p.add_argument("--zeta", dest="aspect_ratio", type=_real, required=True)
    p.add_argument("--alpha", dest="ffn_ratio", type=_real, required=True)
    p.add_argument("--head-dim", type=int)
    p.add_argument("--seq-len", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_dense_baseline)

    p = sub.add_parser("reuse", help="multi-epoch data-reuse schedule")
    p.add_argument("--scheme", choices=("strict", "loose"), required=True)
    p.add_argument("--tokens", type=_count, required=True,
                   help="consumed token budget D")
    p.add_argument("--unique-tokens", type=_count, default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_reuse)

    p = sub.add_parser("fit-hparams", help="power-law refit from a fixture table")
    p.add_argument("--from-fixture", required=True, metavar="TABLE")
    p.add_argument("--target", choices=("eta", "batch"), required=True)
    p.add_argument("--n-column", choices=("N", "N_a"), default="N")
    p.add_argument("--ra", type=_real, default=None,
                   help="keep only rows with this r_a (percent)")
    p.add_argument("--dir", default=None, help="fixture directory override")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_fit_hparams)

    p = sub.add_parser("sweep", help="activation-rate sweep at fixed C or D")
    p.add_argument("--fixed", choices=("c", "d"), required=True)
    p.add_argument("--value", type=_real, required=True)
    p.add_argument("--shapes-file", required=True)
    p.add_argument("--hparams-from", default=None, metavar="TABLE")
    p.add_argument("--n-column", choices=("N", "N_a"), default="N")
    p.add_argument("--n-source", choices=("total", "active"), default="total")
    p.add_argument("--reuse", choices=("strict", "loose"), default=None)
    p.add_argument("--unique-tokens", type=_count, default=None)
    p.add_argument("--dir", default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference check of the kernel",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--E", dest="experts", type=int)
    p.add_argument("--K", dest="top_k", type=int)
    p.add_argument("--D_m", dest="model_dim", type=int)
    p.add_argument("--D_e", dest="expert_dim", type=int)
    p.add_argument("--D_se", dest="shared_dim", type=int)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--tolerance", type=_real)
    p.add_argument("--lam", type=_real)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("train-toy", help="synthetic MoE training run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("validate-fixtures", help="replay the golden tables")
    p.add_argument("--dir", default=None)
    p.add_argument("--table", action="append", default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_validate_fixtures)

    return parser


def dispatch(argv: Sequence[str]) -> CommandResult:
    """Run one command; never raises for expected failure modes."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MoebudgetError as exc:
        return CommandResult(exc.exit_code, "", f"{exc.prefix}{exc}")
    except OSError as exc:
        return CommandResult(EXIT_VALIDATION, "", str(exc))


def main(argv: Sequence[str] | None = None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else list(argv))
    if result.payload:
        print(result.payload)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
