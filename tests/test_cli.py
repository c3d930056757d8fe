"""CLI dispatch: exit codes, payload formats, idempotence, schema conformance."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import moebudget
from moebudget.arch import derive_budget, shape_from_json, shape_to_json
from moebudget.cli import dispatch
from moebudget.kernel import GradCheckSettings, grad_check
from moebudget.search import SearchSpec, search
from moebudget.toylab import ToyTrainConfig, run_toy_training

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
        ("--trials", "0"), ("--lam", "-1"), ("--tolerance", "0"), ("--seed", "-1"),
    ])
    def test_invalid_grad_check_settings(self, flag, value):
        result = dispatch(["grad-check", flag, value])
        assert result.exit_code == 1
        assert result.payload == ""
        assert flag.lstrip("-") in result.diagnostics
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("flag,value,field", [
        ("--D_e", "0", "expert_dim"), ("--D_m", "0", "model_dim"),
        ("--D_se", "-3", "shared_dim"),
    ])
    def test_invalid_grad_check_dimensions(self, flag, value, field):
        result = dispatch(["grad-check", flag, value])
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics.startswith(f"{field} must be")
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("field,value", [
        ("model_dim", 0), ("expert_dim", 0), ("lr", "nan"), ("momentum", "inf"),
        ("batch_sequences", 0), ("seed", -1),
        # json.dumps writes a float NaN as the bare NaN literal
        pytest.param("lr", float("nan"), id="lr-NaN-literal"),
        pytest.param("concentration", float("nan"), id="concentration-NaN-literal"),
    ])
    def test_invalid_toy_config(self, tmp_path, field, value):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({field: value, "steps": 1}))
        result = dispatch(["train-toy", "--config", str(config)])
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics.startswith(f"{field} must be")
        assert "\n" not in result.diagnostics


    @pytest.mark.parametrize("argv", [
        ["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--zeta", "1e308"],
        ["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--mu", "1e308"],
        ["dense-baseline", "--target-n", "6.52e9", "--zeta", "1e308", "--alpha", "2.77"],
    ])
    def test_grid_overflow_is_a_validation_error(self, argv):
        result = dispatch(argv)
        assert result.exit_code == 1
        assert result.payload == ""
        assert "not finite" in result.diagnostics
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("argv,message", [
        (["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--limit", "-1"],
         "max_candidates must be >= 1, got -1"),
        (["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--limit", "0"],
         "max_candidates must be >= 1, got 0"),
        (["search", "--target-n", "6.52e9", "--target-ra", "0.2", "--zeta", "1e300",
          "--mu", "21"], "the shape at 2 layers is too large"),
        (["dense-baseline", "--target-n", "6e9", "--zeta", "1e200", "--alpha", "2"],
         "the shape at 1 layers is too large"),
    ])
    def test_out_of_domain_flag_is_a_validation_error(self, argv, message):
        result = dispatch(argv)
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics.startswith(message)
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("config,flags", [
        ({"task_seed": -1}, []), ({}, ["--seed", "-1"]),
    ])
    def test_negative_toy_seed_is_a_validation_error(self, tmp_path, config, flags):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({**config, "steps": 1}))
        result = dispatch(["train-toy", "--config", str(path), *flags])
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics == "seed must be >= 0, got -1"


def _quiet_dispatch(argv):
    """dispatch(argv), asserting that it lets no warning escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = dispatch(argv)
    assert not caught, [str(w.message) for w in caught]
    return result


def _strict_json(payload):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(payload, parse_constant=reject)


class TestNumericalFailures:
    def test_grad_check_with_non_finite_gradients_is_a_validation_error(self):
        result = _quiet_dispatch(["grad-check", "--E", "2", "--K", "2", "--normalized",
                                  "--trials", "1", "--lam", "1e308"])
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics == ("grad-check trial 0: the analytic or finite-difference "
                                      "gradient is not finite at lam 1e+308")

    def test_diverging_run_prints_one_line_and_no_warning(self, tmp_path):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"lr": 1e300, "steps": 5}))
        result = _quiet_dispatch(["train-toy", "--config", str(config)])
        assert result.exit_code == 3
        assert result.payload == ""
        assert result.diagnostics == "loss became non-finite at step 2"

    @given(flags=st.fixed_dictionaries({}, optional={
        "--E": st.integers(-1, 4), "--K": st.integers(0, 4), "--D_m": st.integers(0, 3),
        "--D_e": st.integers(0, 3), "--D_se": st.integers(-1, 3), "--seed": st.integers(-1, 5),
        "--tolerance": st.sampled_from(["-1", "0", "1e-5", "1e308"]),
        "--lam": st.sampled_from(["-1", "0", "0.01", "1e10", "1e300", "1e308"])}),
        normalized=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_grad_check_keeps_the_cli_contract(self, flags, normalized):
        argv = ["grad-check", "--trials", "1", *[str(v) for kv in flags.items() for v in kv]]
        self._check_contract(argv + ["--normalized"] * normalized)

    @given(config=st.fixed_dictionaries({
        "steps": st.integers(0, 3), "batch_sequences": st.integers(1, 3),
        "model_dim": st.integers(0, 4)}, optional={
        "vocab": st.integers(1, 6), "seq_len": st.integers(1, 4), "clusters": st.integers(1, 3),
        "task_seed": st.integers(0, 3), "concentration": st.sampled_from([0.0, 1.0, 1e308]),
        "expert_dim": st.integers(0, 3), "shared_dim": st.integers(0, 2),
        "experts": st.integers(1, 4), "top_k": st.integers(0, 4), "normalized": st.booleans(),
        "lam": st.sampled_from([0.0, 0.01, 1e308]), "lr": st.sampled_from([0.2, 1e300, 1e308]),
        "momentum": st.sampled_from([0.0, 0.9, 1e308]), "seed": st.integers(0, 3)}))
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_train_toy_keeps_the_cli_contract(self, tmp_path, config):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(config))
        self._check_contract(["train-toy", "--config", str(path)])

    @staticmethod
    def _check_contract(argv):
        result = _quiet_dispatch(argv)
        assert result.exit_code in (0, 1, 2, 3)
        if result.exit_code == 1:
            assert result.payload == ""
        if result.payload:
            _strict_json(result.payload)


def _assert_rejected(result):
    assert result.exit_code == 1, result.diagnostics
    assert result.payload == ""
    assert result.diagnostics


class TestStrictInput:
    @pytest.mark.parametrize("obj", [
        pytest.param([1], id="not-an-object"),
        pytest.param({**MOE_7B_SHAPE, "L": "abc"}, id="string-int"),
        pytest.param({**MOE_7B_SHAPE, "L": 3.7}, id="fractional-int"),
        pytest.param({**MOE_7B_SHAPE, "L": 24.5}, id="fractional-int-near-valid"),
        pytest.param({**MOE_7B_SHAPE, "gate_normalized": "false"}, id="string-bool"),
        pytest.param({**MOE_7B_SHAPE, "arrangement": "full"}, id="full-split"),
        pytest.param({**MOE_7B_SHAPE, "arrangement": "interleave"}, id="interleave-split"),
        pytest.param({**MOE_7B_SHAPE, "L_x": 1}, id="unknown-key"),
        pytest.param({**DENSE_7B_SHAPE, "L_e": 31}, id="moe-key-without-E"),
    ])
    def test_malformed_shape_file(self, tmp_path, obj):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        result = dispatch(["budget", "--compute", "1e21", "--shape-file", str(path)])
        _assert_rejected(result)
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("obj", [
        pytest.param([1], id="not-an-object"),
        pytest.param({"stepz": 1}, id="unknown-key"),
        pytest.param({"steps": 2.9}, id="fractional-int"),
        pytest.param({"normalized": "false"}, id="string-bool"),
        pytest.param({"init_scale": 0.02}, id="unread-field"),
    ])
    def test_malformed_toy_config(self, tmp_path, obj):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(obj))
        result = dispatch(["train-toy", "--config", str(path)])
        _assert_rejected(result)
        assert "\n" not in result.diagnostics

    @pytest.mark.parametrize("entry", [
        pytest.param({"eta": 1e-3, "B": 24.5}, id="fractional-B"),
        pytest.param({"eta": "1e-3", "B": 24}, id="string-eta"),
        pytest.param({"eta": -1e-3, "B": 24}, id="negative-eta"),
        pytest.param({"eta": 1e-3, "B": 0}, id="zero-B"),
        pytest.param({"eta": 1e-3, "B": 24, "S": 4096}, id="unknown-key"),
    ])
    def test_malformed_sweep_entry(self, tmp_path, entry):
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps([{"shape": MOE_7B_SHAPE, **entry}]))
        _assert_rejected(dispatch(["sweep", "--fixed", "c", "--value", "2.86e21",
                                   "--shapes-file", str(path)]))

    @pytest.mark.parametrize("argv", [
        ["budget", "--compute", "nan"], ["budget", "--compute", "inf"],
        ["plan", "moe", "--tokens", "inf"], ["plan", "moe", "--tokens", "1.5"],
    ])
    def test_malformed_count(self, moe_shape_file, argv):
        _assert_rejected(dispatch(argv + ["--shape-file", moe_shape_file]))

    def test_non_finite_ratio(self):
        _assert_rejected(dispatch(["fit-hparams", "--from-fixture", "moe_2b_fixed_data",
                                   "--target", "eta", "--ra", "nan"]))

    # Every count flag (exact non-negative int) and real flag (finite float),
    # each with the other arguments of a valid command.
    FLAG_COMMANDS = {
        "--compute": ["budget", "--shape-file", "{moe}"],
        "--tokens": ["reuse", "--scheme", "loose"],
        "--unique-tokens": ["reuse", "--scheme", "strict", "--tokens", "5.11e11"],
        "--target-n": ["dense-baseline", "--zeta", "128", "--alpha", "2.69"],
        "--target-ra": ["search", "--target-n", "6.52e9"],
        "--zeta": ["search", "--target-n", "6.52e9", "--target-ra", "0.2"],
        "--mu": ["search", "--target-n", "6.52e9", "--target-ra", "0.2"],
        "--alpha": ["dense-baseline", "--target-n", "6.48e9", "--zeta", "128"],
        "--ra": ["fit-hparams", "--from-fixture", "moe_2b_fixed_data", "--target", "eta"],
        "--value": ["sweep", "--fixed", "d", "--shapes-file", "{sweep}"],
        "--tolerance": ["grad-check", "--trials", "1"],
        "--lam": ["grad-check", "--trials", "1"],
    }

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-1", "1.5", "1e400", "",
                                       "abc", str(2**70 + 1)])
    @pytest.mark.parametrize("flag", sorted(FLAG_COMMANDS))
    def test_count_and_real_flags(self, tmp_path, moe_shape_file, flag, token):
        sweep = tmp_path / "shapes.json"
        sweep.write_text(json.dumps([{"shape": MOE_7B_SHAPE, "eta": 1e-3, "B": 24}]))
        argv = [a.format(moe=moe_shape_file, sweep=sweep) for a in self.FLAG_COMMANDS[flag]]
        result = dispatch(argv + [f"{flag}={token}"])
        # a valid but huge lam (2**70 + 1) fails the gradient check numerically: exit 3
        codes = (0, 1, 2, 3) if argv[0] == "grad-check" else (0, 1, 2)
        assert result.exit_code in codes, result.diagnostics
        if result.exit_code == 1:
            assert result.payload == ""
        if result.exit_code == 0 or result.payload:
            json.loads(result.payload)

    def test_compute_budget_round_trips_beyond_float_precision(self, moe_shape_file):
        fwd = derive_budget(shape_from_json(MOE_7B_SHAPE)).fwd_flops_per_token
        tokens = 2**61 + 12345
        result = dispatch(["budget", "--compute", str(3 * fwd * tokens),
                           "--shape-file", moe_shape_file])
        assert result.exit_code == 0
        assert json.loads(result.payload)["budget"]["D"] == tokens


class TestDefaultsStatedOnce:
    """A flag or key left out takes the default of the dataclass that owns it."""

    def test_grad_check(self):
        assert json.loads(dispatch(["grad-check"]).payload) == \
            grad_check(GradCheckSettings()).to_json_dict()

    def test_search(self):
        result = dispatch(["search", "--target-n", "6.52e9", "--target-ra", "0.2"])
        assert json.loads(result.payload) == \
            search(SearchSpec(int(6.52e9), 0.2)).to_json_dict()

    def test_train_toy(self, tmp_path):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"steps": 5}))
        result = dispatch(["train-toy", "--config", str(config)])
        assert json.loads(result.payload) == \
            run_toy_training(ToyTrainConfig(steps=5)).summary_dict()


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


# Runs each command through cli.main in the interpreter it is started in and
# prints its exit code and which of the numpy-backed modules it loaded.
_PROBE = """
import contextlib, io, json, sys
from moebudget.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, [m for m in ("numpy", "moebudget.kernel", "moebudget.toylab")
                             if m in sys.modules]]))
"""


class TestNumpyFreeCommands:
    """The bookkeeping commands never import numpy, kernel or toylab."""

    def test_planning_commands_leave_numpy_unloaded(self, tmp_path, moe_shape_file):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"shape": MOE_7B_SHAPE, "eta": 1e-3, "B": 512}]))
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"steps": 2}))
        planning = [
            ["plan", "moe", "--shape-file", moe_shape_file, "--tokens", "1e9"],
            ["budget", "--compute", "2.86e21", "--shape-file", moe_shape_file],
            ["search", "--target-n", "6.52e9", "--target-ra", "0.2"],
            ["dense-baseline", "--target-n", "6.52e9", "--zeta", "128", "--alpha", "2.7"],
            ["reuse", "--scheme", "loose", "--tokens", "1000000"],
            ["validate-fixtures", "--table", "dense_baselines"],
            ["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file", str(shapes)],
        ]
        numeric = [
            ["fit-hparams", "--from-fixture", "moe_7b_fixed_compute", "--target", "eta"],
            ["grad-check", "--trials", "1"],
            ["train-toy", "--config", str(config)],
        ]
        src = str(Path(moebudget.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # one fresh interpreter per planning command, all started before any is awaited
        batches = [[argv] for argv in planning] + [numeric]
        procs = [subprocess.Popen([sys.executable, "-c", _PROBE, json.dumps(batch)],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for batch in batches]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        results = [json.loads(line) for out, _ in outputs for line in out.splitlines()]
        assert len(results) == len(planning) + len(numeric), [err for _, err in outputs]
        for argv, (code, loaded) in zip(planning, results):
            assert (argv[0], code, loaded) == (argv[0], 0, [])
        for argv, (code, _) in zip(numeric, results[len(planning):]):
            assert (argv[0], code) == (argv[0], 0)
