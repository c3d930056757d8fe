"""Golden fixture tables and the residual validator that replays them.

Each fixture CSV is one published experiment table; ``tables.json`` records
the hyperparameters shared by every row of a table (depth, widths, layer
arrangement, nominal total parameter count, reuse scheme). Validation
recomputes every budget column from the architecture formulas and reports
per-row residuals against fixed tolerances. The BPC column is carried
opaquely and never recomputed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .arch import DenseShape, MoEShape, derive_budget
from .planner import iterations

FIXTURES_ENV_VAR = "MOEBUDGET_FIXTURES"
_PACKAGED_DIR = Path(__file__).parent / "fixtures"

# Residual tolerances: tables round to three significant digits, so budget
# columns are compared relatively; r_a (reported in percent) and epoch counts
# absolutely; iteration counts inherit the rounding of the D column.
REL_TOL = 0.02
RA_TOL_PERCENT = 0.5
ITERS_REL_TOL = 0.005
EPOCH_ABS_TOL = 0.02


class FixtureError(ValueError):
    """A fixture file is missing, unreadable, or structurally corrupt."""


def fixtures_dir(override: str | os.PathLike | None = None) -> Path:
    """Fixture directory: explicit override, else $MOEBUDGET_FIXTURES, else packaged."""
    if override is not None:
        return Path(override)
    env = os.environ.get(FIXTURES_ENV_VAR)
    if env:
        return Path(env)
    return _PACKAGED_DIR


@dataclass(frozen=True)
class FixtureTable:
    name: str
    kind: str                     # "moe" or "dense"
    description: str
    rows: tuple[dict[str, float], ...]
    meta: dict[str, Any]

    @property
    def reuse_scheme(self) -> str | None:
        return self.meta.get("reuse_scheme")

    def row_shape(self, row: dict[str, float]) -> DenseShape | MoEShape:
        """Materialize the architecture of one table row."""
        m = self.meta
        if self.kind == "dense":
            model_dim = int(row["D_m"])
            heads = int(row["H"])
            return DenseShape(
                layers=int(row["L"]), model_dim=model_dim, ffn_dim=int(row["D_ffn"]),
                heads=heads, head_dim=model_dim // heads, seq_len=int(m["seq_len"]),
            )
        base = DenseShape(
            layers=int(m["layers"]), model_dim=int(m["model_dim"]),
            ffn_dim=int(m["ffn_dim"]), heads=int(m["heads"]),
            head_dim=int(m["head_dim"]), seq_len=int(m["seq_len"]),
        )
        return MoEShape(
            base=base, moe_layers=int(m["moe_layers"]), dense_layers=int(m["dense_layers"]),
            experts=int(row["E"]), top_k=int(row["K"]),
            expert_dim=int(row["D_e"]), shared_expert_dim=int(row["D_se"]),
            arrangement=m["arrangement"],
        )

    def row_tokens(self, row: dict[str, float]) -> int:
        """Consumed token count of a row; loose-reuse tables store unique tokens."""
        if self.reuse_scheme == "loose":
            return 2 * int(row["D_hat"])
        return int(row["D"])


def table_names(directory: str | os.PathLike | None = None) -> list[str]:
    return sorted(_load_index(fixtures_dir(directory)))


def _load_index(directory: Path) -> dict[str, Any]:
    index_path = directory / "tables.json"
    if not index_path.is_file():
        raise FixtureError(f"fixture index not found: {index_path}")
    try:
        return json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture index {index_path} is not valid JSON: {exc}") from None


def load_table(name: str, directory: str | os.PathLike | None = None) -> FixtureTable:
    base = fixtures_dir(directory)
    index = _load_index(base)
    if name not in index:
        raise FixtureError(f"unknown fixture table {name!r}; known: {sorted(index)}")
    meta = index[name]
    csv_path = base / meta["file"]
    if not csv_path.is_file():
        raise FixtureError(f"fixture file not found: {csv_path}")
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise FixtureError(f"fixture file {csv_path} has no header row")
        rows = []
        for line_no, raw in enumerate(reader, start=2):
            parsed: dict[str, float] = {}
            for key, value in raw.items():
                if key is None or value is None or value == "":
                    raise FixtureError(f"{csv_path}:{line_no}: ragged row")
                try:
                    parsed[key] = float(value)
                except ValueError:
                    raise FixtureError(
                        f"{csv_path}:{line_no}: non-numeric value {value!r} in column {key}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise FixtureError(f"fixture file {csv_path} has no data rows")
    return FixtureTable(
        name=name, kind=meta["kind"], description=meta.get("description", ""),
        rows=tuple(rows), meta=meta,
    )


@dataclass(frozen=True)
class RowCheck:
    table: str
    row: int
    field: str
    expected: float
    computed: float
    residual: float
    limit: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.limit

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "table": self.table, "row": self.row, "field": self.field,
            "expected": self.expected, "computed": self.computed,
            "residual": self.residual, "limit": self.limit, "ok": self.ok,
        }


@dataclass
class ValidationReport:
    checks: list[RowCheck] = field(default_factory=list)

    @property
    def failures(self) -> list[RowCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def rows_checked(self) -> int:
        return len({(c.table, c.row) for c in self.checks})

    def max_residual(self, normalized: bool = True) -> float:
        """Worst residual, expressed as a fraction of its own limit."""
        if not self.checks:
            return 0.0
        if normalized:
            return max(c.residual / c.limit for c in self.checks)
        return max(c.residual for c in self.checks)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "rows_checked": self.rows_checked,
            "checks": len(self.checks),
            "failures": [c.to_json_dict() for c in self.failures],
            "max_residual_vs_limit": self.max_residual(),
        }


def _rel(computed: float, expected: float) -> float:
    return abs(computed - expected) / abs(expected)


def validate_table(table: FixtureTable) -> ValidationReport:
    """Recompute every derivable column of a table and collect residuals."""
    report = ValidationReport()

    def check(row_idx: int, fname: str, expected: float, computed: float,
              limit: float, absolute: bool = False) -> None:
        residual = abs(computed - expected) if absolute else _rel(computed, expected)
        report.checks.append(RowCheck(
            table=table.name, row=row_idx, field=fname,
            expected=expected, computed=computed, residual=residual, limit=limit,
        ))

    for idx, row in enumerate(table.rows):
        shape = table.row_shape(row)
        tokens = table.row_tokens(row)
        budget = derive_budget(shape, tokens=tokens)

        if table.kind == "dense":
            check(idx, "N", row["N"], budget.total_params, REL_TOL)
        else:
            check(idx, "N", table.meta["total_params"], budget.total_params, REL_TOL)
            check(idx, "N_a", row["N_a"], budget.active_params, REL_TOL)
            check(idx, "r_a", row["r_a"], 100.0 * budget.activation_rate,
                  RA_TOL_PERCENT, absolute=True)
        check(idx, "M", row["M"], budget.train_flops_per_token, REL_TOL)
        check(idx, "C", row["C"], budget.train_compute, REL_TOL)
        check(idx, "D/N", row["D/N"], budget.tokens_per_param, REL_TOL)

        check(idx, "Iters", row["Iters"], iterations(tokens, int(row["B"]), shape.seq_len),
              ITERS_REL_TOL)

        if table.reuse_scheme == "strict":
            epochs = tokens / float(table.meta["unique_tokens"])
            check(idx, "Epoch", row["Epoch"], epochs, EPOCH_ABS_TOL, absolute=True)

    return report


def validate_fixture_tables(names: list[str] | None = None,
                            directory: str | os.PathLike | None = None) -> ValidationReport:
    """Validate several fixture tables (all of them by default)."""
    selected = names if names is not None else table_names(directory)
    combined = ValidationReport()
    for name in selected:
        combined.checks.extend(validate_table(load_table(name, directory)).checks)
    return combined
