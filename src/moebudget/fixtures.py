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
import io
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from .arch import (DENSE_KEYS, MOE_KEYS, DenseShape, MoEShape, check_bounds, derive_budget,
                   exact_int, json_value, read_json_file, shape_from_json, table_columns)
from .errors import FixtureError
from .planner import iterations

FIXTURES_ENV_VAR = "MOEBUDGET_FIXTURES"
_PACKAGED_DIR = Path(__file__).parent / "fixtures"

# An index entry holds these keys and shape fields that every row of its table shares.
_COUNT_KEYS = ("total_params", "unique_tokens")
# Row columns that hold counts; every reader takes their cells with FixtureRow.count.
_COUNT_COLUMNS = ("B", "D", "D_hat")
_SHAPE_FIELD_TYPES = {f.name: f.type for cls in (DenseShape, MoEShape) for f in fields(cls)
                      if f.name in {name for _, name in DENSE_KEYS + MOE_KEYS}}
_INDEX_KEYS = frozenset(("file", "kind", "description", "reuse_scheme", *_COUNT_KEYS,
                         *_SHAPE_FIELD_TYPES))

# Residual tolerances: tables round to three significant digits, so budget
# columns are compared relatively; r_a (reported in percent) and epoch counts
# absolutely; iteration counts inherit the rounding of the D column.
REL_TOL = 0.02
RA_TOL_PERCENT = 0.5
ITERS_REL_TOL = 0.005
EPOCH_ABS_TOL = 0.02


def fixtures_dir(override: str | os.PathLike | None = None) -> Path:
    """Fixture directory: explicit override, else $MOEBUDGET_FIXTURES, else packaged."""
    if override is not None:
        return Path(override)
    env = os.environ.get(FIXTURES_ENV_VAR)
    if env:
        return Path(env)
    return _PACKAGED_DIR


class FixtureRow(dict):
    """Row ``index`` of a parsed table, with the ``texts`` its values were read from;
    reading a column it lacks is a FixtureError."""

    def __init__(self, table: str, index: int, values: dict[str, float],
                 texts: dict[str, str]) -> None:
        super().__init__(values)
        self.table, self.texts = table, texts
        self.label = f"{table} row {index}"

    def __missing__(self, column: str) -> float:
        raise FixtureError(f"fixture table {self.table!r} has no column {column!r}")

    def count(self, column: str) -> int:
        """A count column's value, read exactly from its text; a fractional one, or one
        the row lacks, is a FixtureError."""
        value = exact_int(self.texts[column]) if column in self else self[column]
        if value is None:
            raise FixtureError(f"{self.label}: {column} must be int, got {self.texts[column]}")
        return value


@dataclass(frozen=True)
class FixtureTable:
    name: str
    kind: str                     # "moe" or "dense"
    rows: tuple[FixtureRow, ...]
    meta: dict[str, Any]

    @property
    def reuse_scheme(self) -> str | None:
        return self.meta.get("reuse_scheme")

    def row_shape(self, row: dict[str, float]) -> DenseShape | MoEShape:
        """Materialize one row: shape-field keys of the index entry plus row columns."""
        obj = {key: self.meta[name] for key, name in DENSE_KEYS + MOE_KEYS
               if name in self.meta}
        if self.kind == "dense":
            label = f"{self.name}: H"
            check_bounds({label: row["H"]}, FixtureError, **{label: ">= 1"})
            obj.update(L=row["L"], D_m=row["D_m"], D_ffn=row["D_ffn"], H=row["H"],
                       D_h=row["D_m"] // row["H"])
        else:
            obj.update(E=row["E"], K=row["K"], D_e=row["D_e"], D_se=row["D_se"])
        return shape_from_json(obj)

    def row_tokens(self, row: FixtureRow) -> int:
        """Consumed token count of a row; loose-reuse tables store unique tokens."""
        if self.reuse_scheme == "loose":
            return 2 * row.count("D_hat")
        return row.count("D")

    def fit_points(self, column: str, n_column: str = "N",
                   ra: float | None = None) -> list[tuple[float, float, float]]:
        """(N, D, value) power-law fit points of ``column``, one per row.

        N is the row's ``n_column``; a table without an "N" column states its
        total once, as ``total_params``. D is ``row_tokens``. A count column's value
        is read with ``FixtureRow.count``, so a fractional one is a FixtureError.
        ``ra`` keeps only rows whose r_a matches it to 0.01, and a FixtureError names
        the table's r_a values if none does.
        """
        points = []
        for row in self.rows:
            if ra is not None and abs(row["r_a"] - ra) > 0.01:
                continue
            if n_column == "N" and "N" not in row:
                n = _meta_count(self, "total_params")
            else:
                n = row[n_column]
            value = row.count(column) if column in _COUNT_COLUMNS else row[column]
            points.append((n, float(self.row_tokens(row)), value))
        if not points:
            values = ", ".join(f"{v:g}" for v in sorted({row["r_a"] for row in self.rows}))
            raise FixtureError(f"fixture table {self.name!r} has no row with r_a within 0.01 "
                               f"of --ra {ra:g}; its r_a values are {values}")
        return points


def table_names(directory: str | os.PathLike | None = None) -> list[str]:
    return sorted(_load_index(fixtures_dir(directory)))


def _load_index(directory: Path) -> dict[str, Any]:
    index_path = directory / "tables.json"
    index = read_json_file(index_path, "fixture index", FixtureError)
    if not isinstance(index, dict):
        raise FixtureError(f"fixture index {index_path} must hold a JSON object")
    return index


def load_table(name: str, directory: str | os.PathLike | None = None) -> FixtureTable:
    base = fixtures_dir(directory)
    index = _load_index(base)
    if name not in index:
        raise FixtureError(f"unknown fixture table {name!r}; known: {sorted(index)}")
    meta = index[name]
    if not isinstance(meta, dict) or not isinstance(meta.get("file"), str) \
            or meta.get("kind") not in ("moe", "dense"):
        raise FixtureError(f'index entry {name!r} needs a "file" and a "kind" of moe or dense')
    unknown = sorted(set(meta) - _INDEX_KEYS)
    if unknown:
        raise FixtureError(f"index entry {name!r} has unknown key {unknown[0]!r}")
    for key, kind in _SHAPE_FIELD_TYPES.items():
        if key in meta:
            json_value(f"index entry {name!r}: {key}", meta[key], kind, FixtureError)
    if meta.get("reuse_scheme", "strict") not in ("strict", "loose"):
        raise FixtureError(f'index entry {name!r}: reuse_scheme must be "strict" or "loose", '
                           f"got {meta['reuse_scheme']!r}")
    csv_path = base / meta["file"]
    if not csv_path.is_file():
        raise FixtureError(f"fixture file not found: {csv_path}")
    try:
        text = csv_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FixtureError(f"fixture file {csv_path} is not UTF-8: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
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
            if not math.isfinite(parsed[key]):
                raise FixtureError(
                    f"{csv_path}:{line_no}: non-finite value {value!r} in column {key}")
        rows.append(FixtureRow(name, len(rows), parsed, raw))
    if not rows:
        raise FixtureError(f"fixture file {csv_path} has no data rows")
    table = FixtureTable(name=name, kind=meta["kind"], rows=tuple(rows), meta=meta)
    for key in _COUNT_KEYS:
        if key in meta:
            _meta_count(table, key)
    return table


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
        return {**asdict(self), "ok": self.ok}


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

    def max_residual(self) -> float:
        """Worst residual, expressed as a fraction of its own limit."""
        if not self.checks:
            return 0.0
        return max(c.residual / c.limit for c in self.checks)

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


def _meta_count(table: FixtureTable, key: str) -> float:
    """A positive finite count the index entry must hold for this use of its table."""
    if key not in table.meta:
        raise FixtureError(f"index entry {table.name!r} needs {key!r}")
    # json accepts an Infinity literal, and inf would reach residuals and fits as NaN
    label = f"index entry {table.name!r}: {key}"
    value = json_value(label, table.meta[key], "float", FixtureError)
    check_bounds({label: value}, FixtureError, **{label: "> 0 and finite"})
    return value


def validate_table(table: FixtureTable) -> ValidationReport:
    """Recompute every derivable column of a table and collect residuals."""
    report = ValidationReport()
    total = _meta_count(table, "total_params") if table.kind == "moe" else None
    unique = _meta_count(table, "unique_tokens") if table.reuse_scheme == "strict" else None

    def check(row_idx: int, fname: str, expected: float, computed: float,
              limit: float, absolute: bool = False) -> None:
        if not absolute and expected == 0:
            raise FixtureError(f"{table.name} row {row_idx}: {fname} is 0, which has no "
                               "relative residual")
        residual = abs(computed - expected) if absolute else _rel(computed, expected)
        report.checks.append(RowCheck(
            table=table.name, row=row_idx, field=fname,
            expected=expected, computed=computed, residual=residual, limit=limit,
        ))

    for idx, row in enumerate(table.rows):
        shape = table.row_shape(row)
        tokens = table.row_tokens(row)
        columns = table_columns(shape, derive_budget(shape, tokens=tokens))

        if table.kind == "dense":
            check(idx, "N", row["N"], columns["N"], REL_TOL)
        else:
            check(idx, "N", total, columns["N"], REL_TOL)
            check(idx, "N_a", row["N_a"], columns["N_a"], REL_TOL)
            check(idx, "r_a", row["r_a"], columns["r_a"], RA_TOL_PERCENT, absolute=True)
        for name in ("M", "C", "D/N"):
            check(idx, name, row[name], columns[name], REL_TOL)

        check(idx, "Iters", row["Iters"], iterations(tokens, row.count("B"), shape.seq_len),
              ITERS_REL_TOL)

        if unique is not None:
            check(idx, "Epoch", row["Epoch"], tokens / unique, EPOCH_ABS_TOL, absolute=True)

    return report


def validate_fixture_tables(names: list[str] | None = None,
                            directory: str | os.PathLike | None = None) -> ValidationReport:
    """Validate several fixture tables (all of them by default)."""
    selected = names if names is not None else table_names(directory)
    combined = ValidationReport()
    for name in selected:
        combined.checks.extend(validate_table(load_table(name, directory)).checks)
    return combined
