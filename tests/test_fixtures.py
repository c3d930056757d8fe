"""Golden-table replay: residual gates, fault injection, directory plumbing."""

import csv
import json
import shutil

import pytest

from moebudget.arch import MoEShape, derive_budget
from moebudget.cli import dispatch
from moebudget.fixtures import (
    FIXTURES_ENV_VAR,
    FixtureError,
    fixtures_dir,
    load_table,
    table_names,
    validate_fixture_tables,
    validate_table,
)

ALL_TABLES = [
    "dense_baselines",
    "moe_2b_fixed_compute",
    "moe_2b_fixed_data",
    "moe_3b_strict_reuse_114b",
    "moe_3b_strict_reuse_65b",
    "moe_7b_fixed_compute",
    "moe_7b_fixed_data",
    "moe_7b_loose_reuse",
    "moe_7b_strict_reuse",
]


def test_table_inventory():
    assert table_names() == ALL_TABLES


@pytest.mark.parametrize("name", ALL_TABLES)
def test_each_table_validates(name):
    report = validate_table(load_table(name))
    assert report.ok, report.failures


def test_combined_report_shape():
    report = validate_fixture_tables()
    assert report.ok
    assert report.rows_checked == 80
    assert report.max_residual() < 1.0


def test_fault_injection_flags_only_corrupt_row(tmp_path):
    src = fixtures_dir()
    for item in src.iterdir():
        shutil.copy(item, tmp_path / item.name)
    target = tmp_path / "moe_7b_fixed_compute.csv"
    lines = target.read_text().splitlines()
    fields = lines[5].split(",")  # corrupt the best row.s expert width
    fields[9] = str(int(fields[9]) * 2)
    lines[5] = ",".join(fields)
    target.write_text("\n".join(lines) + "\n")

    report = validate_table(load_table("moe_7b_fixed_compute", tmp_path))
    assert not report.ok
    assert {c.row for c in report.failures} == {4}
    clean_rows = {c.row for c in report.checks if c.ok}
    assert clean_rows.issuperset(set(range(8)) - {4})


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FixtureError, match="index not found"):
        load_table("dense_baselines", tmp_path / "nowhere")


def test_unknown_table_raises():
    with pytest.raises(FixtureError, match="unknown fixture table"):
        load_table("no_such_table")


def test_env_var_override(tmp_path, monkeypatch):
    src = fixtures_dir()
    for item in src.iterdir():
        shutil.copy(item, tmp_path / item.name)
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(tmp_path))
    assert fixtures_dir() == tmp_path
    assert validate_fixture_tables().ok


def test_tokens_per_param_row_value():
    table = load_table("moe_2b_fixed_data")
    row = next(r for r in table.rows
               if abs(r["r_a"] - 8.74) < 0.01 and abs(r["D"] - 5.41e11) < 1e9)
    budget = derive_budget(table.row_shape(row), tokens=int(row["D"]))
    assert round(budget.tokens_per_param) == 252


def test_row_shapes_are_valid_moe():
    table = load_table("moe_3b_strict_reuse_65b")
    for row in table.rows:
        shape = table.row_shape(row)
        assert isinstance(shape, MoEShape)
        assert shape.base.layers == 24
        assert shape.moe_layers == 23 and shape.dense_layers == 1


def test_loose_table_consumes_double_the_unique_tokens():
    table = load_table("moe_7b_loose_reuse")
    for row in table.rows:
        assert table.row_tokens(row) == 2 * int(row["D_hat"])


def copy_tables(directory):
    for item in fixtures_dir().iterdir():
        shutil.copy(item, directory / item.name)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda entry: entry.pop("file"), id="no-file"),
    pytest.param(lambda entry: entry.pop("layers"), id="no-layers"),
    pytest.param(lambda entry: entry.update(layers="abc"), id="string-layers"),
    pytest.param(lambda entry: entry.update(layers=24.5), id="fractional-layers"),
    pytest.param(lambda entry: entry.update(kind="sparse"), id="unknown-kind"),
])
def test_corrupt_index_entry_is_a_validation_error(tmp_path, edit):
    copy_tables(tmp_path)
    index = json.loads((tmp_path / "tables.json").read_text())
    edit(index["moe_7b_fixed_compute"])
    (tmp_path / "tables.json").write_text(json.dumps(index))
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path),
                       "--table", "moe_7b_fixed_compute"])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics and "\n" not in result.diagnostics


@pytest.mark.parametrize("name,edit,message", [
    pytest.param("moe_7b_fixed_compute", lambda entry: entry.pop("total_params"),
                 "needs 'total_params'", id="no-total-params"),
    pytest.param("moe_7b_fixed_compute", lambda entry: entry.update(total_params="6.52e9"),
                 "total_params must be float", id="string-total-params"),
    pytest.param("moe_7b_strict_reuse", lambda entry: entry.pop("unique_tokens"),
                 "needs 'unique_tokens'", id="no-unique-tokens"),
    pytest.param("moe_7b_strict_reuse", lambda entry: entry.update(unique_tokens=0),
                 "unique_tokens must be > 0", id="zero-unique-tokens"),
])
def test_index_entry_lacking_a_validation_count_is_a_fixture_error(tmp_path, name, edit,
                                                                    message):
    copy_tables(tmp_path)
    index = json.loads((tmp_path / "tables.json").read_text())
    edit(index[name])
    (tmp_path / "tables.json").write_text(json.dumps(index))
    with pytest.raises(FixtureError, match=message):
        validate_table(load_table(name, tmp_path))
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path), "--table", name])
    assert result.exit_code == 1
    assert result.payload == ""
    assert message in result.diagnostics and "\n" not in result.diagnostics


def test_dense_row_with_zero_heads_is_a_fixture_error(tmp_path):
    copy_tables(tmp_path)
    path = tmp_path / "dense_baselines.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells["H"] = "0"
    path.write_text("\n".join([header, ",".join(cells.values()), *rest]) + "\n")
    with pytest.raises(FixtureError, match="H must be >= 1"):
        validate_table(load_table("dense_baselines", tmp_path))
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics == "dense_baselines: H must be >= 1, got 0.0"


def edit_csv(path, edit):
    """Rewrite a fixture CSV through edit(list of row dicts) -> list of row dicts."""
    with open(path, newline="") as fh:
        rows = edit(list(csv.DictReader(fh)))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("argv,table,column", [
    pytest.param(["validate-fixtures", "--table", "dense_baselines"], "dense_baselines", "M",
                 id="validate-M"),
    pytest.param(["validate-fixtures", "--table", "moe_7b_fixed_compute"],
                 "moe_7b_fixed_compute", "N_a", id="validate-N_a"),
    pytest.param(["validate-fixtures", "--table", "dense_baselines"], "dense_baselines", "H",
                 id="validate-shape-H"),
    pytest.param(["fit-hparams", "--from-fixture", "moe_2b_fixed_data", "--target", "eta"],
                 "moe_2b_fixed_data", "eta", id="fit-eta"),
    pytest.param(["fit-hparams", "--from-fixture", "moe_7b_fixed_data", "--target", "batch"],
                 "moe_7b_fixed_data", "B", id="fit-B"),
])
def test_missing_column_is_a_fixture_error(tmp_path, argv, table, column):
    copy_tables(tmp_path)
    edit_csv(tmp_path / f"{table}.csv",
             lambda rows: [{k: v for k, v in row.items() if k != column} for row in rows])
    result = dispatch([*argv, "--dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics == f"fixture table {table!r} has no column {column!r}"


@pytest.mark.parametrize("column", ["C", "M", "D/N"])
def test_zero_budget_column_is_a_fixture_error(tmp_path, column):
    copy_tables(tmp_path)

    def zero_first_row(rows):
        rows[0][column] = "0"
        return rows

    edit_csv(tmp_path / "moe_7b_fixed_compute.csv", zero_first_row)
    with pytest.raises(FixtureError, match=f"row 0: {column} is 0"):
        validate_table(load_table("moe_7b_fixed_compute", tmp_path))
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics.startswith(f"moe_7b_fixed_compute row 0: {column} is 0")
    assert "\n" not in result.diagnostics


@pytest.mark.parametrize("argv,column,value", [
    pytest.param(["validate-fixtures"], "C", "nan", id="validate-C-nan"),
    pytest.param(["validate-fixtures"], "D", "inf", id="validate-D-inf"),
    pytest.param(["fit-hparams", "--from-fixture", "moe_7b_fixed_compute", "--target", "eta"],
                 "D", "inf", id="fit-D-inf"),
])
def test_non_finite_cell_is_a_fixture_error(tmp_path, argv, column, value):
    copy_tables(tmp_path)
    path = tmp_path / "moe_7b_fixed_compute.csv"

    def set_first_row(rows):
        rows[0][column] = value
        return rows

    edit_csv(path, set_first_row)
    result = dispatch([*argv, "--dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics == f"{path}:2: non-finite value {value!r} in column {column}"
