"""CLI dispatch: exit codes, payload formats, idempotence, schema conformance."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from moebudget.arch import shape_to_json
from moebudget.cli import dispatch

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"

MOE_7B_SHAPE = {
    "L": 24, "D_m": 2048, "D_ffn": 5464, "H": 16, "D_h": 128, "S": 2048,
    "L_e": 23, "L_d": 1, "E": 78, "K": 6, "D_e": 512, "D_se": 3072,
    "arrangement": "one_dense", "gate_normalized": False,
}
DENSE_7B_SHAPE = {"L": 32, "D_m": 4096, "D_ffn": 11008, "H": 32, "D_h": 128,
                  "S": 2048}


def make_validator(schema_name):
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    root = json.loads((SCHEMA_DIR / schema_name).read_text())
    return jsonschema.Draft202012Validator(root, registry=registry)


@pytest.fixture
def moe_shape_file(tmp_path):
    path = tmp_path / "moe.json"
    path.write_text(json.dumps(MOE_7B_SHAPE))
    return str(path)


@pytest.fixture
def dense_shape_file(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(DENSE_7B_SHAPE))
    return str(path)


class TestExitCodes:
    def test_missing_shape_file_names_it(self):
        result = dispatch(["plan", "moe", "--shape-file", "missing.json"])
        assert result.exit_code == 1
        assert "missing.json" in result.diagnostics
        assert result.payload == ""

    def test_unknown_flag(self):
        result = dispatch(["plan", "moe", "--no-such-flag"])
        assert result.exit_code == 1
        assert "usage" in result.diagnostics.lower()

    def test_unknown_subcommand(self):
        result = dispatch(["frobnicate"])
        assert result.exit_code == 1

    def test_kind_mismatch(self, dense_shape_file):
        result = dispatch(["plan", "moe", "--shape-file", dense_shape_file])
        assert result.exit_code == 1
        assert "dense" in result.diagnostics

    def test_infeasible_search_is_exit_two(self):
        result = dispatch(["search", "--target-n", "2.15e9", "--target-ra",
                           "0.001", "--zeta", "88", "--mu", "22.5"])
        assert result.exit_code == 2
        assert result.diagnostics

    def test_infeasible_dense_baseline(self):
        result = dispatch(["dense-baseline", "--target-n", "1000", "--zeta", "88",
                           "--alpha", "2.77"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--trials", "0"), ("--lam", "-1"), ("--tolerance", "0"),
    ])
    def test_invalid_grad_check_settings(self, flag, value):
        result = dispatch(["grad-check", flag, value])
        assert result.exit_code == 1
        assert result.payload == ""
        assert flag.lstrip("-") in result.diagnostics
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("field,value", [
        ("model_dim", 0), ("expert_dim", 0), ("lr", "nan"), ("momentum", "inf"),
        ("batch_sequences", 0),
    ])
    def test_invalid_toy_config(self, tmp_path, field, value):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({field: value, "steps": 1}))
        result = dispatch(["train-toy", "--config", str(config)])
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics.startswith(f"{field} must be")
        assert "\n" not in result.diagnostics


class TestPayloads:
    def test_plan_moe_budget(self, moe_shape_file):
        result = dispatch(["plan", "moe", "--shape-file", moe_shape_file,
                           "--tokens", "3.16e11"])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("budget_payload.schema.json").validate(payload)
        assert abs(payload["budget"]["N"] - 6.52e9) / 6.52e9 <= 0.02
        assert payload["budget"]["D"] == 316000000000

    def test_budget_from_compute(self, moe_shape_file):
        result = dispatch(["budget", "--compute", "2.86e21", "--shape-file",
                           moe_shape_file])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("budget_payload.schema.json").validate(payload)
        assert abs(payload["budget"]["D"] - 3.16e11) / 3.16e11 <= 0.01

    def test_search_payload(self):
        args = ["search", "--target-n", "6.52e9", "--target-ra", "0.20",
                "--zeta", "85.3", "--mu", "21"]
        result = dispatch(args)
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("search_result.schema.json").validate(payload)
        top = payload["candidates"][0]["shape"]
        assert (top["E"], top["K"], top["D_e"], top["D_se"]) == (78, 6, 512, 3072)

    def test_search_csv(self):
        result = dispatch(["search", "--target-n", "6.52e9", "--target-ra", "0.20",
                           "--zeta", "85.3", "--mu", "21", "--csv"])
        assert result.exit_code == 0
        lines = result.payload.splitlines()
        assert lines[0].startswith("rank,L,D_m")
        assert len(lines) > 1

    def test_reuse_payloads(self):
        strict = dispatch(["reuse", "--scheme", "strict", "--tokens", "5.11e11",
                           "--unique-tokens", "6.8e10"])
        assert strict.exit_code == 0
        payload = json.loads(strict.payload)
        make_validator("reuse_plan.schema.json").validate(payload)
        assert abs(payload["epochs"] - 7.51) < 0.02

        loose = dispatch(["reuse", "--scheme", "loose", "--tokens", "3.16e11"])
        payload = json.loads(loose.payload)
        make_validator("reuse_plan.schema.json").validate(payload)
        assert payload["unique_tokens"] == 158000000000

    def test_strict_reuse_needs_unique_tokens(self):
        result = dispatch(["reuse", "--scheme", "strict", "--tokens", "1e11"])
        assert result.exit_code == 1

    def test_fit_hparams_payload(self):
        result = dispatch(["fit-hparams", "--from-fixture", "moe_2b_fixed_data",
                           "--target", "eta", "--ra", "8.74"])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("power_law_fit.schema.json").validate(payload)
        assert abs(payload["exponent_tokens"] - 0.307) <= 0.01

    def test_sweep_payload(self, tmp_path):
        from moebudget.fixtures import load_table
        table = load_table("moe_7b_fixed_compute")
        entries = [{"shape": shape_to_json(table.row_shape(row)),
                    "eta": row["eta"], "B": row["B"]} for row in table.rows]
        shapes_file = tmp_path / "shapes.json"
        shapes_file.write_text(json.dumps(entries))
        result = dispatch(["sweep", "--fixed", "c", "--value", "2.86e21",
                           "--shapes-file", str(shapes_file)])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("sweep_plan.schema.json").validate(payload)
        assert len(payload["rows"]) == 8

        csv_result = dispatch(["sweep", "--fixed", "c", "--value", "2.86e21",
                               "--shapes-file", str(shapes_file), "--csv"])
        assert ",epochs," in csv_result.payload.splitlines()[0]

    def test_grad_check_payload(self):
        result = dispatch(["grad-check", "--E", "4", "--K", "2", "--D_m", "5",
                           "--D_e", "3", "--seed", "1", "--trials", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("grad_check_report.schema.json").validate(payload)
        assert payload["passed"]

    def test_validate_fixtures_payload(self):
        result = dispatch(["validate-fixtures"])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("fixture_report.schema.json").validate(payload)
        assert payload["ok"] and payload["rows_checked"] == 80

    def test_validate_fixtures_csv(self):
        result = dispatch(["validate-fixtures", "--table", "dense_baselines",
                           "--format", "csv"])
        assert result.exit_code == 0
        assert result.payload.splitlines()[0] == \
            "table,row,field,expected,computed,residual,limit,ok"

    def test_train_toy_payload(self, tmp_path):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"steps": 5, "seed": 3}))
        out_dir = tmp_path / "run"
        result = dispatch(["train-toy", "--config", str(config), "--out",
                           str(out_dir)])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("toy_summary.schema.json").validate(payload)
        assert (out_dir / "steps.jsonl").exists()
        assert (out_dir / "summary.json").exists()


class TestIdempotence:
    @pytest.mark.parametrize("args", [
        ["search", "--target-n", "2.15e9", "--target-ra", "0.199", "--zeta", "88",
         "--mu", "22.5"],
        ["validate-fixtures", "--table", "moe_7b_fixed_compute"],
        ["reuse", "--scheme", "loose", "--tokens", "3.16e11"],
        ["grad-check", "--trials", "2", "--seed", "9"],
    ])
    def test_byte_identical_repeats(self, args):
        first = dispatch(args)
        second = dispatch(args)
        assert first.exit_code == second.exit_code == 0
        assert first.payload == second.payload

    def test_train_toy_seeded_repeat(self, tmp_path):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"steps": 8, "seed": 11}))
        first = dispatch(["train-toy", "--config", str(config)])
        second = dispatch(["train-toy", "--config", str(config)])
        assert first.payload == second.payload
