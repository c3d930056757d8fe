"""Golden-table replay: residual gates, fault injection, directory plumbing."""

import csv
import json
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moebudget.arch import MoEShape, derive_budget, shape_to_json
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


def test_corrupt_row_exits_3_naming_its_failing_columns(tmp_path):
    copy_tables(tmp_path)

    def double_best_expert_width(rows):
        rows[4]["D_e"] = str(int(rows[4]["D_e"]) * 2)
        return rows

    edit_csv(tmp_path / "moe_7b_fixed_compute.csv", double_best_expert_width)
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path),
                       "--table", "moe_7b_fixed_compute"])
    payload = json.loads(result.payload)
    assert (result.exit_code, payload["ok"], len(payload["failures"])) == (3, False, 6)
    assert result.diagnostics == "residuals exceed tolerance: " + ", ".join(
        f"moe_7b_fixed_compute[4].{column}" for column in ("C", "D/N", "M", "N", "N_a", "r_a"))


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


@pytest.mark.parametrize("argv, table, column, value", [
    (["validate-fixtures", "--table", "moe_7b_strict_reuse"], "moe_7b_strict_reuse", "D",
     "511000000000.5"),
    (["validate-fixtures", "--table", "moe_7b_strict_reuse"], "moe_7b_strict_reuse", "B",
     "1344.5"),
    (["fit-hparams", "--from-fixture", "moe_7b_loose_reuse", "--target", "eta"],
     "moe_7b_loose_reuse", "D_hat", "256000000000.5"),
])
def test_fractional_count_is_a_fixture_error(tmp_path, argv, table, column, value):
    copy_tables(tmp_path)

    def set_first_row(rows):
        rows[0][column] = value
        return rows

    edit_csv(tmp_path / f"{table}.csv", set_first_row)
    result = dispatch([*argv, "--dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics == f"{table} row 0: {column} must be int, got {value}"


@pytest.mark.parametrize("argv, code", [
    (["fit-hparams", "--from-fixture", "moe_7b_strict_reuse", "--target", "batch"], 1),
    (["sweep", "--fixed", "c", "--value", "2.86e21", "--hparams-from",
      "moe_7b_strict_reuse"], 1),
    (["fit-hparams", "--from-fixture", "moe_7b_strict_reuse", "--target", "eta"], 0),
], ids=["fit-batch", "sweep", "fit-eta"])
def test_fractional_batch_cell_is_read_as_validation_reads_it(tmp_path, argv, code):
    copy_tables(tmp_path)

    def set_first_row(rows):
        rows[0]["B"] = "1344.5"
        return rows

    edit_csv(tmp_path / "moe_7b_strict_reuse.csv", set_first_row)
    table = load_table("moe_7b_strict_reuse")
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([shape_to_json(table.row_shape(table.rows[0]))]))
    if argv[0] == "sweep":
        argv = [*argv, "--shapes-file", str(shapes)]
    result = dispatch([*argv, "--dir", str(tmp_path)])
    assert result.exit_code == code, result.diagnostics
    if code:
        assert result.payload == ""
        assert result.diagnostics == "moe_7b_strict_reuse row 0: B must be int, got 1344.5"


@pytest.mark.parametrize("text", ["12345678901234567891", "1.2345678901234567891e19"])
def test_count_cell_is_read_exactly_beyond_float_precision(tmp_path, text):
    copy_tables(tmp_path)

    def set_first_row(rows):
        rows[0]["D"] = text
        return rows

    edit_csv(tmp_path / "moe_7b_fixed_compute.csv", set_first_row)
    table = load_table("moe_7b_fixed_compute", tmp_path)
    assert table.row_tokens(table.rows[0]) == 12345678901234567891


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


# -- the fixture index through every command that reads it --------------------

def index_commands(directory, table):
    """validate-fixtures, fit-hparams and sweep --hparams-from, each reading ``table``."""
    shapes = directory / "sweep-shapes.json"
    if not shapes.exists():
        packaged = load_table("moe_7b_fixed_compute")
        shapes.write_text(json.dumps([shape_to_json(packaged.row_shape(row))
                                      for row in packaged.rows]))
    return [
        ["validate-fixtures", "--table", table, "--dir", str(directory)],
        ["fit-hparams", "--from-fixture", table, "--target", "eta", "--dir", str(directory)],
        ["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file", str(shapes),
         "--hparams-from", table, "--dir", str(directory)],
    ]


def write_index_edit(directory, table, edit):
    index = json.loads((fixtures_dir() / "tables.json").read_text())
    edit(index[table])
    (directory / "tables.json").write_text(json.dumps(index))


@pytest.mark.parametrize("command", [0, 1, 2], ids=["validate", "fit-hparams", "sweep"])
@pytest.mark.parametrize("edit,key", [
    pytest.param(lambda entry: entry.update(total_params="abc"), "total_params",
                 id="total_params-string"),
    pytest.param(lambda entry: entry.update(total_params=True), "total_params",
                 id="total_params-true"),
    # json.dumps writes a float inf as the bare Infinity literal, which json.loads accepts
    pytest.param(lambda entry: entry.update(total_params=math.inf), "total_params",
                 id="total_params-Infinity"),
    pytest.param(lambda entry: entry.update(reuse_scheme="Strict"), "reuse_scheme",
                 id="reuse_scheme-Strict"),
    pytest.param(lambda entry: entry.update(seq_lne=2048), "seq_lne", id="unknown-key"),
])
def test_malformed_index_entry_exits_one(tmp_path, edit, key, command):
    copy_tables(tmp_path)
    write_index_edit(tmp_path, "moe_7b_strict_reuse", edit)
    result = dispatch(index_commands(tmp_path, "moe_7b_strict_reuse")[command])
    assert result.exit_code == 1
    assert result.payload == ""
    assert key in result.diagnostics and "\n" not in result.diagnostics


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} in a payload")


_PACKAGED_INDEX = json.loads((fixtures_dir() / "tables.json").read_text())
_EDIT_VALUES = ["x", True, None, -1, 0, 1.5, math.inf, [], {}]
_ADDED_KEYS = ["seq_lne", "description", "total_params", "unique_tokens", "reuse_scheme",
               "gate_normalized", "shared_expert_dim"]


@st.composite
def index_entry_edits(draw):
    """(table, edit) where edit drops, adds or sets one key of the table's entry."""
    table = draw(st.sampled_from(ALL_TABLES))
    present = sorted(_PACKAGED_INDEX[table])
    op = draw(st.sampled_from(["drop", "add", "set"]))
    if op == "drop":
        key = draw(st.sampled_from(present))
        return table, lambda entry: entry.pop(key)
    pool = present if op == "set" else [k for k in _ADDED_KEYS if k not in present]
    key, value = draw(st.sampled_from(pool)), draw(st.sampled_from(_EDIT_VALUES))
    return table, lambda entry: entry.update({key: value})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=index_entry_edits())
def test_any_one_key_index_edit_keeps_the_cli_contract(tmp_path, case):
    table, edit = case
    if not (tmp_path / "dense_baselines.csv").exists():
        copy_tables(tmp_path)
    write_index_edit(tmp_path, table, edit)
    for argv in index_commands(tmp_path, table):
        result = dispatch(argv)
        assert result.exit_code in (0, 1, 2, 3), (argv, result)
        assert "\n" not in result.diagnostics, (argv, result)
        if result.exit_code == 1:
            assert result.payload == "", (argv, result)
        if result.payload:
            json.loads(result.payload, parse_constant=_reject_constant)


def test_shape_field_of_the_wrong_type_fails_every_command_at_load(tmp_path):
    copy_tables(tmp_path)
    write_index_edit(tmp_path, "moe_7b_fixed_compute", lambda entry: entry.update(layers="x"))
    for argv in index_commands(tmp_path, "moe_7b_fixed_compute"):
        result = dispatch(argv)
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "index entry 'moe_7b_fixed_compute': layers must be int, got 'x'"), argv


def rewrite_fixture_csv(edit):
    """Directory edit that rewrites moe_7b_fixed_compute.csv through edit(text) -> text."""
    def rewrite(directory):
        path = directory / "moe_7b_fixed_compute.csv"
        path.write_text(edit(path.read_text()))
    return rewrite


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda d: (d / "tables.json").write_text("{"), "is not valid JSON",
                 id="index-not-json"),
    pytest.param(lambda d: (d / "tables.json").write_text("[]"), "must hold a JSON object",
                 id="index-not-an-object"),
    pytest.param(lambda d: (d / "tables.json").write_text("[" * 100_000),
                 "is not valid JSON: maximum recursion depth", id="index-nested-too-deep"),
    pytest.param(lambda d: (d / "tables.json").write_bytes(b"\xff\xfe{}"),
                 "is not valid JSON: 'utf-8' codec can't decode", id="index-not-utf8"),
    pytest.param(lambda d: (d / "moe_7b_fixed_compute.csv").unlink(), "fixture file not found",
                 id="csv-missing"),
    pytest.param(rewrite_fixture_csv(lambda text: ""), "has no header row", id="no-header"),
    pytest.param(rewrite_fixture_csv(lambda text: text + "1,2\n"), "ragged row", id="ragged"),
    pytest.param(rewrite_fixture_csv(lambda text: text.replace(",8.97,", ",x,", 1)),
                 "non-numeric value 'x' in column r_a", id="non-numeric"),
    pytest.param(rewrite_fixture_csv(lambda text: text.splitlines()[0] + "\n"),
                 "has no data rows", id="no-data-rows"),
    pytest.param(lambda d: (d / "moe_7b_fixed_compute.csv").write_bytes(
        (d / "moe_7b_fixed_compute.csv").read_bytes() + b"\xff\xfe"),
        "moe_7b_fixed_compute.csv is not UTF-8: 'utf-8' codec can't decode", id="csv-not-utf8"),
])
def test_unreadable_index_or_table_is_a_fixture_error(tmp_path, edit, message):
    copy_tables(tmp_path)
    edit(tmp_path)
    with pytest.raises(FixtureError, match=message):
        load_table("moe_7b_fixed_compute", tmp_path)
    result = dispatch(["validate-fixtures", "--dir", str(tmp_path),
                       "--table", "moe_7b_fixed_compute"])
    assert (result.exit_code, result.payload) == (1, "")
    assert message in result.diagnostics and "\n" not in result.diagnostics
