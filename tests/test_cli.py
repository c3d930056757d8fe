"""CLI dispatch: exit codes, payload formats, idempotence, schema conformance."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import moebudget
from moebudget.arch import derive_budget, shape_from_json, shape_to_json
from moebudget import cli
from moebudget.cli import CommandResult, dispatch
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

    def test_unknown_option_before_a_command_is_named(self):
        result = dispatch(["--bogus", "plan"])
        assert result.exit_code == 1
        assert result.diagnostics == ("moebudget: error: unrecognized arguments: --bogus; "
                                      "see 'moebudget -h' for usage")

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

    def test_a_concentration_whose_draws_overflow_is_a_validation_error(self, tmp_path):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"concentration": 1e308, "steps": 1}))
        result = dispatch(["train-toy", "--config", str(config)])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "concentration must give finite draws, got 1e+308")

    # each first allocation (28.4 and 4.55 PiB) is past the 128 TiB user address space,
    # so it fails at once on any machine
    @pytest.mark.parametrize("argv,config", [
        (["grad-check", "--D_m", "1000000", "--D_e", "1000000000", "--trials", "1"], None),
        (["train-toy"], {"model_dim": 10**13, "steps": 1}),
    ])
    def test_an_allocation_too_large_is_a_validation_error(self, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "toy.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        result = dispatch(argv)
        assert result.exit_code == 1
        assert result.payload == ""
        assert result.diagnostics.startswith("out of memory: Unable to allocate ")
        assert "\n" not in result.diagnostics

    # numpy rejects each size before it allocates anything: a dimension past the index
    # range, or a product of dimensions past it
    @pytest.mark.parametrize("argv,config,message", [
        *(pytest.param(["grad-check", flag, str(10**30)], None,
                       "Maximum allowed dimension exceeded", id=f"grad-check{flag}")
          for flag in ("--E", "--D_m", "--D_e", "--D_se")),
        pytest.param(["grad-check", "--D_e", str(10**17)], None, "array is too big; ",
                     id="grad-check--D_e-product"),
        *(pytest.param(["train-toy"], {key: 10**30}, "Maximum allowed dimension exceeded",
                       id=f"train-toy-{key}")
          for key in ("experts", "model_dim", "vocab", "batch_sequences", "seq_len",
                      "clusters")),
        pytest.param(["train-toy"], {"expert_dim": 10**17, "steps": 1}, "array is too big; ",
                     id="train-toy-expert_dim-product"),
    ])
    def test_an_array_numpy_cannot_index_is_a_validation_error(self, tmp_path, argv, config,
                                                               message):
        if config is not None:
            path = tmp_path / "toy.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        result = dispatch(argv)
        assert (result.exit_code, result.payload) == (1, "")
        assert result.diagnostics.startswith(f"array too large: {message}")
        assert "\n" not in result.diagnostics

    def test_an_output_path_that_is_a_file_is_a_validation_error(self, tmp_path):
        config, out = tmp_path / "toy.json", tmp_path / "out"
        config.write_text(json.dumps({"steps": 2}))
        out.write_text("")
        result = dispatch(["train-toy", "--config", str(config), "--out", str(out)])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", f"[Errno 17] File exists: '{out}'")

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

    @pytest.mark.parametrize("argv,what", [
        (["plan", "moe", "--shape-file"], "shape file"),
        (["budget", "--compute", "1e21", "--shape-file"], "shape file"),
        (["sweep", "--fixed", "c", "--value", "1e21", "--shapes-file"], "shapes file"),
        (["train-toy", "--config"], "config file"),
    ])
    def test_input_file_nested_too_deeply(self, tmp_path, argv, what):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        result = dispatch([*argv, str(path)])
        _assert_rejected(result)
        assert result.diagnostics.startswith(
            f"{what} {path} is not valid JSON: maximum recursion depth exceeded")
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

    @pytest.mark.parametrize("argv, key, obj", [
        (["plan", "moe", "--shape-file"], "L", MOE_7B_SHAPE),
        (["train-toy", "--config"], "steps", {}),
    ])
    def test_wrong_type_is_echoed_bounded(self, tmp_path, argv, key, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**obj, key: None}).replace("null", "[" * 100 + "]" * 100))
        result = dispatch([*argv, str(path)])
        _assert_rejected(result)
        assert result.diagnostics == f"{key} must be int, got [[[[[[[...]]]]]]]"

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
    # the field a count flag's str(10**400) overflows, where its command takes a float
    PAST_FLOAT_RANGE = {"--compute": "tokens", "--target-n": "target_params", "--value": "tokens"}

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-1", "1.5", "1e400", "",
                                       "abc", str(2**70 + 1),
                                       pytest.param(str(10**400), id="10**400")])
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
            if token == str(10**400):
                assert self.PAST_FLOAT_RANGE.get(flag, f"argument {flag}:") in result.diagnostics
        if result.exit_code == 0 or result.payload:
            json.loads(result.payload)

    @pytest.mark.parametrize("argv, message", [
        (["plan", "moe", "--shape-file", "{moe}", "--tokens", str(10**400)],
         "tokens is too large for a float, got 100000000000000000...0000000000000000000"),
        (["reuse", "--scheme", "strict", "--tokens", str(10**400), "--unique-tokens", "1"],
         "consumed_tokens is too large for a float epoch count"),
        (["search", "--target-n", str(10**400), "--target-ra", "0.2"],
         "target_params must be float, got 100000000000000000...0000000000000000000"),
        (["reuse", "--scheme", "loose", "--tokens", str(10**400)], None),
    ], ids=["plan", "reuse-strict", "search", "reuse-loose"])
    def test_count_past_the_float_range_is_named(self, moe_shape_file, argv, message):
        result = dispatch([a.format(moe=moe_shape_file) for a in argv])
        if message is None:  # loose reuse takes no float, so its counts stay exact
            assert result.exit_code == 0
            assert json.loads(result.payload)["consumed_tokens"] == 10**400
        else:
            assert (result.exit_code, result.payload, result.diagnostics) == (1, "", message)

    def test_other_overflow_is_out_of_range(self):
        # the head_dim grid divides a float by the flag's int, which no float holds
        result = dispatch(["search", "--target-n", "1e9", "--target-ra", "0.2",
                           "--head-dim", str(10**400)])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "out of range: int too large to convert to float")

    def test_float_text_count_is_read_exactly(self):
        result = dispatch(["reuse", "--scheme", "loose", "--tokens", "1e24"])
        assert result.exit_code == 0
        assert json.loads(result.payload)["consumed_tokens"] == 10**24

    def test_fractional_count_is_rejected_past_float_precision(self, moe_shape_file):
        result = dispatch(["plan", "moe", "--shape-file", moe_shape_file,
                           "--tokens", "9007199254740993.5"])
        assert (result.exit_code, result.payload) == (1, "")
        assert "argument --tokens: count must be an integer, got 9007199254740993.5" \
            in result.diagnostics

    def test_sweep_shapes_file_must_hold_a_list(self, tmp_path):
        path = tmp_path / "shapes.json"
        path.write_text("{}")
        result = dispatch(["sweep", "--fixed", "c", "--value", "2.86e21",
                           "--shapes-file", str(path)])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "shapes file must hold a nonempty JSON list")

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("argv, message", [
        (["reuse", "--scheme", "loose", "--tokens", "1" + "0" * 4400],
         f"argument --tokens: count has more than {LIMIT} digits"),
        (["reuse", "--scheme", "loose", "--tokens", "x" * 5000],
         "argument --tokens: expected a number, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (["grad-check", "--E", "9" * 5000],
         f"argument --E: integer has more than {LIMIT} digits"),
        (["grad-check", "--E", "9" * 5000 + "x"],
         "argument --E: invalid int value: '999999999999...999999999999x'"),
        (["reuse", "--scheme", "loose", "--tokens", "1." + "5" * 5000],
         "argument --tokens: count must be an integer, got 1.5555555555...5555555555555"),
        (["search", "--target-n", "6.52e9", "--target-ra", "1" + "0" * 5000],
         "argument --target-ra: expected a finite number, got 100000000000...000000000000"),
        (["reuse", "--scheme", "loose", "--tokens", "-" + "9" * 4299],
         "argument --tokens: count must be >= 0, got -99999999999999999...9999999999999999999"),
        (["grad-check", "--E", "-" + "9" * 4299],
         "experts must be >= 1, got -99999999999999999...9999999999999999999"),
        (["search", "--target-n", "1e9", "--target-ra", "0.2", "--k-min", "9" * 4299],
         "k_max must be >= 999999999...9999999999999, got 32"),
        (["train-toy", "--config", "{toy}"],
         "top_k must be in [1, 99999...999999999999], got 0"),
    ], ids=["count-digits", "count-text", "int-digits", "int-text", "fraction", "real",
            "count-bound", "int-bound", "bound-text", "config-bound-text"])
    def test_long_flag_text_is_named_and_echoed_bounded(self, tmp_path, argv, message):
        toy = tmp_path / "toy.json"
        toy.write_text(f'{{"experts": {"9" * 4299}, "top_k": 0}}')
        result = dispatch([str(toy) if a == "{toy}" else a for a in argv])
        assert (result.exit_code, result.payload) == (1, "")
        assert message in result.diagnostics
        assert len(result.diagnostics) < 200

    @pytest.mark.parametrize("argv", [
        ["search", "--target-n", "1e9", "--target-ra", "0.2", "--seq-len", "9" * 4299],
        ["dense-baseline", "--target-n", "1e9", "--zeta", "88", "--alpha", "2.77",
         "--seq-len", "9" * 4299],
        ["plan", "dense", "--shape-file", "{dense}"],
    ], ids=["search", "dense-baseline", "plan"])
    @pytest.mark.parametrize("csv_flag", [[], ["--csv"]], ids=["json", "csv"])
    def test_payload_integer_past_the_digit_limit_is_a_validation_error(self, tmp_path, argv,
                                                                         csv_flag):
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps({**DENSE_7B_SHAPE, "L": int("9" * 4299)}))
        result = dispatch([a.format(dense=dense) for a in argv] + csv_flag)
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", f"payload has an integer of more than {self.LIMIT} digits")

    def test_compute_budget_round_trips_beyond_float_precision(self, moe_shape_file):
        fwd = derive_budget(shape_from_json(MOE_7B_SHAPE)).fwd_flops_per_token
        tokens = 2**61 + 12345
        result = dispatch(["budget", "--compute", str(3 * fwd * tokens),
                           "--shape-file", moe_shape_file])
        assert result.exit_code == 0
        assert json.loads(result.payload)["budget"]["D"] == tokens


@pytest.fixture(scope="module")
def planning_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("planning")
    (directory / "moe.json").write_text(json.dumps(MOE_7B_SHAPE))
    (directory / "shapes.json").write_text(json.dumps([MOE_7B_SHAPE]))
    return {"moe": str(directory / "moe.json"), "shapes": str(directory / "shapes.json")}


def _sweep_argv(fixed, value):
    return ["sweep", "--fixed", fixed, "--value", value, "--shapes-file", "{shapes}",
            "--hparams-from", "moe_7b_fixed_compute", "--reuse", "strict",
            "--unique-tokens", "68000000000"]


_SEARCH = ["search", "--target-n", "6.52e9", "--target-ra", "0.2"]
_DENSE = ["dense-baseline", "--target-n", "6.48e9", "--zeta", "128", "--alpha", "2.69"]
_REUSE = ["reuse", "--scheme", "strict", "--tokens", "5.11e11", "--unique-tokens", "6.8e10"]
# valid argv lists of the seven planning commands
_PLANNING_BASES = {
    "plan": [["plan", "moe", "--shape-file", "{moe}", "--tokens", "3.16e11"]],
    "budget": [["budget", "--compute", "2.86e21", "--shape-file", "{moe}"]],
    "search": [_SEARCH],
    "dense-baseline": [_DENSE],
    "reuse": [_REUSE],
    "sweep": [_sweep_argv("c", "2.86e21"), _sweep_argv("d", "3.16e11")],
    "fit-hparams": [["fit-hparams", "--from-fixture", "moe_7b_fixed_compute", "--target", "eta"]],
}
# (valid command, flags set together to one value): each numeric flag of the planning
# commands' cli.COMMANDS rows alone, and the two caps on search's top_k together
PLANNING_FLAGS = [
    (base, flag) for command, bases in _PLANNING_BASES.items() for base in bases
    for flag, keywords in cli.COMMANDS[command][2]
    if keywords.get("type") in (cli._count, cli._real, cli._int)
] + [(_SEARCH, "--k-max", "--max-experts")]
FUZZ_VALUES = ["0", "1", "0.5", "1e-300", "1e300", "-1", str(2**70), str(10**400),
               "9" * 4299, "-" + "9" * 4299]


class TestPlanningCommandsContract:
    """A planning command keeps the CLI contract with any one flag, or search's two
    top_k caps together, set to an edge value."""

    @given(case=st.sampled_from(PLANNING_FLAGS), value=st.sampled_from(FUZZ_VALUES))
    @example(case=PLANNING_FLAGS[-1], value=str(2**70))
    @example(case=(_SEARCH, "--k-min"), value="9" * 4299)  # its bound text holds the value
    @settings(max_examples=200, deadline=3000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_edge_flag_values(self, planning_files, case, value):
        command, *flags = case
        argv = [a.format(**planning_files) for a in command] + [f"{flag}={value}"
                                                                for flag in flags]
        result = dispatch(argv)
        assert result.exit_code in (0, 1, 2, 3), (argv, result)
        assert "\n" not in result.diagnostics, (argv, result)
        if result.exit_code == 1:
            assert result.payload == "" and result.diagnostics, (argv, result)
            assert len(result.diagnostics) < 200, (argv, result)
        if result.payload:
            _strict_json(result.payload)

    def test_fuzzed_flags_cover_the_flags_once_listed_by_hand(self):
        by_hand = [
            (_PLANNING_BASES["plan"][0], "--tokens"),
            (_PLANNING_BASES["budget"][0], "--compute"),
            *[(_SEARCH, flag) for flag in ("--target-n", "--target-ra", "--zeta", "--mu",
                                           "--alpha", "--head-dim", "--seq-len", "--k-min",
                                           "--k-max", "--de-multiple", "--max-experts",
                                           "--limit")],
            *[(_DENSE, flag) for flag in ("--target-n", "--zeta", "--alpha", "--head-dim",
                                          "--seq-len")],
            (_REUSE, "--tokens"), (_REUSE, "--unique-tokens"),
            (_sweep_argv("c", "2.86e21"), "--value"), (_sweep_argv("d", "3.16e11"), "--value"),
            (_sweep_argv("c", "2.86e21"), "--unique-tokens"),
            (_SEARCH, "--k-max", "--max-experts"),
        ]
        assert [case for case in by_hand if case not in PLANNING_FLAGS] == []

    @pytest.mark.parametrize("fixed,value,message", [
        ("c", "1", "shape 0: compute 1 buys 0 tokens at 9034629120 FLOPs per token"),
        ("d", "0.5", "argument --value: count must be an integer, got 0.5"),
    ])
    def test_sweep_budget_of_no_whole_token(self, planning_files, fixed, value, message):
        argv = [a.format(**planning_files) for a in _sweep_argv(fixed, value)]
        result = dispatch(argv)
        assert (result.exit_code, result.payload) == (1, "")
        assert message in result.diagnostics and "\n" not in result.diagnostics

    @pytest.mark.parametrize("value", ["1", "1000"])
    def test_sweep_row_of_no_optimizer_step(self, planning_files, value):
        argv = [a.format(**planning_files) for a in _sweep_argv("d", value)]
        result = dispatch(argv)
        assert (result.exit_code, result.payload) == (1, "")
        assert result.diagnostics.startswith(f"shape 0: {value} tokens make no optimizer "
                                             f"step of ")

    @pytest.mark.parametrize("argv,scheme", [
        (["reuse", "--scheme", "loose", "--tokens", "10"], "loose"),
        (_sweep_argv("c", "2.86e21")[:-4], "no"),
        (_sweep_argv("c", "2.86e21")[:-4] + ["--reuse", "loose"], "loose"),
    ])
    def test_unique_tokens_outside_strict_reuse_rejected(self, planning_files, argv,
                                                         scheme):
        argv = [a.format(**planning_files) for a in argv] + ["--unique-tokens", "5"]
        assert dispatch(argv) == CommandResult(
            1, "", f"unique_tokens applies only to strict reuse, not to {scheme} reuse")

    def test_shapes_file_hparams_with_a_refit_rejected(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"shape": MOE_7B_SHAPE, "eta": 1e-3, "B": 24}]))
        result = dispatch(["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file",
                           str(shapes), "--hparams-from", "moe_7b_fixed_compute"])
        assert result == CommandResult(1, "", "--hparams-from refits eta and B, so the "
                                              "shapes file entries must not give them")

    @pytest.mark.parametrize("entry", [
        pytest.param(MOE_7B_SHAPE, id="bare-shape"),
        pytest.param({"shape": MOE_7B_SHAPE, "eta": 1e-3}, id="eta-without-B"),
    ])
    def test_sweep_without_an_hparam_source_rejected(self, tmp_path, entry):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([entry]))
        result = dispatch(["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file",
                           str(shapes)])
        assert result == CommandResult(1, "", "no eta/B source: give per-entry eta and B in "
                                              "the shapes file or --hparams-from <fixture "
                                              "table>")

    def test_ra_filter_needs_an_r_a_column(self):
        result = dispatch(["fit-hparams", "--from-fixture", "dense_baselines",
                           "--target", "eta", "--ra", "8.74"])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "fixture table 'dense_baselines' has no column 'r_a'")

    @pytest.mark.parametrize("ra", ["8.74", "20"])
    def test_ra_matching_no_row_names_the_table_values(self, ra):
        result = dispatch(["fit-hparams", "--from-fixture", "moe_7b_fixed_compute",
                           "--target", "eta", "--ra", ra])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", f"fixture table 'moe_7b_fixed_compute' has no row with r_a within 0.01 "
                   f"of --ra {ra}; its r_a values are 8.97, 11.19, 13.41, 15.63, 20.07, "
                   "26.18, 30.07, 53.38")

    def test_usage_error_is_one_line(self):
        result = dispatch(["search", "--zeta", "88"])
        assert (result.exit_code, result.payload) == (1, "")
        assert result.diagnostics == (
            "moebudget search: error: the following arguments are required: --target-n, "
            "--target-ra; see 'moebudget search -h' for usage")

    @pytest.mark.parametrize("flag", ["--target-n", "--target-ra"])
    def test_non_number_names_no_private_function(self, flag):
        result = dispatch([*_SEARCH, f"{flag}=x"])
        assert (result.exit_code, result.payload) == (1, "")
        assert f"argument {flag}: expected a number, got 'x'" in result.diagnostics
        assert "_count" not in result.diagnostics and "_real" not in result.diagnostics

    def test_negative_expert_cap_is_a_validation_error(self):
        result = dispatch([*_SEARCH, "--max-experts", "-1"])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, "", "max_experts must be >= 1, got -1")

    def test_infeasible_search_summarizes_its_skips_on_one_line(self):
        result = dispatch([*_SEARCH, "--target-ra", "0.06", "--max-experts", "8",
                           "--arrangement", "full"])
        assert result.exit_code == 2
        assert result.diagnostics == (
            "11 (layers, top_k) combinations skipped: expert count above the cap of 8; "
            "13 (layers, top_k) combinations skipped: expert_dim rounds to zero on the "
            "multiple-of-32 grid")
        assert _strict_json(result.payload)["candidates"] == []

    def test_huge_k_max_stops_at_the_expert_cap(self):
        capped = dispatch([*_SEARCH, "--k-max", "128"])
        result = dispatch([*_SEARCH, "--k-max", str(2**70)])
        assert result.exit_code == capped.exit_code == 0
        assert result.payload == capped.payload

    def test_huge_k_max_and_expert_cap_skip_in_one_step(self):
        # enumerating each top_k up to 2**70 never returns, so wait in a thread
        results = []
        argv = [*_SEARCH, "--k-max", str(2**70), "--max-experts", str(2**70)]
        worker = threading.Thread(target=lambda: results.append(dispatch(argv)), daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and results[0].exit_code == 0
        assert _strict_json(results[0].payload)["diagnostics"] == [
            "4722366482869645212870 (layers, top_k) combinations skipped: expert_dim rounds "
            "to zero on the multiple-of-32 grid"]


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

    def test_sweep_counts_stay_exact_above_2_53(self, tmp_path):
        shapes_file = tmp_path / "shapes.json"
        shapes_file.write_text(json.dumps([{"shape": MOE_7B_SHAPE, "eta": 1e-3, "B": 1}]))
        value = 2**70 + 2048  # float division gives 2**59 steps, not 2**59 + 1
        result = dispatch(["sweep", "--fixed", "d", "--value", str(value),
                           "--shapes-file", str(shapes_file)])
        payload = json.loads(result.payload)
        make_validator("sweep_plan.schema.json").validate(payload)
        assert (payload["fixed_value"], payload["rows"][0]["Iters"]) == (value, 2**59 + 1)

    def test_fit_hparams_records_its_parameter_count(self):
        result = dispatch(["fit-hparams", "--from-fixture", "moe_7b_fixed_compute",
                           "--target", "batch", "--n-column", "N_a"])
        assert result.exit_code == 0
        payload = json.loads(result.payload)
        make_validator("power_law_fit.schema.json").validate(payload)
        assert payload["n_column"] == "N_a"
        assert payload["alt_n_column_residual_rms"] is not None
        # the dense table has no active-count column, so it has no alternative fit
        dense = json.loads(dispatch(["fit-hparams", "--from-fixture", "dense_baselines",
                                     "--target", "eta"]).payload)
        assert (dense["n_column"], dense["alt_n_column_residual_rms"]) == ("N", None)

    def test_sweep_evaluates_the_fit_at_its_fitted_count(self, tmp_path):
        from moebudget.fixtures import load_table
        from moebudget.planner import fit_hparam_power_law
        table = load_table("moe_7b_fixed_compute")
        shapes_file = tmp_path / "shapes.json"
        shapes_file.write_text(json.dumps([shape_to_json(table.row_shape(row))
                                           for row in table.rows]))
        argv = ["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file",
                str(shapes_file), "--hparams-from", "moe_7b_fixed_compute"]
        result = dispatch([*argv, "--n-column", "N_a"])
        assert result.exit_code == 0
        fit = fit_hparam_power_law(table.fit_points("eta", "N_a"), "N_a")
        rows = json.loads(result.payload)["rows"]
        assert len(rows) == len(table.rows)
        for row in rows:
            assert row["eta"] == fit.predict(row["budget"]["N_a"], row["budget"]["D"])
        # the count follows from --n-column, so there is no flag to pick it
        removed = dispatch([*argv, "--n-source", "total"])
        assert (removed.exit_code, removed.payload) == (1, "")
        assert "unrecognized arguments: --n-source total" in removed.diagnostics

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
# prints its exit code, the moebudget modules loaded and whether numpy and
# fractions loaded.
_PROBE = """
import contextlib, io, json, sys
from moebudget.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("moebudget")),
                      "numpy" in sys.modules, "fractions" in sys.modules]))
"""


class TestNumpyFreeCommands:
    """Each planning command loads only the modules it runs; none imports
    numpy, kernel or toylab, and the exact power-law refit needs no fractions."""

    def test_planning_commands_leave_numpy_unloaded(self, tmp_path, moe_shape_file):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"shape": MOE_7B_SHAPE, "eta": 1e-3, "B": 512}]))
        bare_shapes = tmp_path / "bare_shapes.json"
        bare_shapes.write_text(json.dumps([MOE_7B_SHAPE]))
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"steps": 2}))
        # (argv, the modules it loads beyond arch, cli, errors and search)
        planning = [
            (["plan", "moe", "--shape-file", moe_shape_file, "--tokens", "1e9"], []),
            (["budget", "--compute", "2.86e21", "--shape-file", moe_shape_file], ["planner"]),
            (["search", "--target-n", "6.52e9", "--target-ra", "0.2"], []),
            (["dense-baseline", "--target-n", "6.52e9", "--zeta", "128", "--alpha", "2.7"],
             []),
            (["reuse", "--scheme", "loose", "--tokens", "1000000"], ["planner"]),
            (["validate-fixtures", "--table", "dense_baselines"], ["fixtures", "planner"]),
            (["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file", str(shapes)],
             ["planner"]),
            (["sweep", "--fixed", "c", "--value", "2.86e21", "--shapes-file",
              str(bare_shapes), "--hparams-from", "moe_7b_fixed_compute"],
             ["fixtures", "planner"]),
            (["fit-hparams", "--from-fixture", "moe_7b_fixed_compute", "--target", "eta"],
             ["fixtures", "planner"]),
        ]
        numeric = [
            ["grad-check", "--trials", "1"],
            ["train-toy", "--config", str(config)],
        ]
        src = str(Path(moebudget.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # one fresh interpreter per planning command, all started before any is awaited
        batches = [[argv] for argv, _ in planning] + [numeric]
        procs = [subprocess.Popen([sys.executable, "-c", _PROBE, json.dumps(batch)],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for batch in batches]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        results = [json.loads(line) for out, _ in outputs for line in out.splitlines()]
        assert len(results) == len(planning) + len(numeric), [err for _, err in outputs]
        for (argv, extra), result in zip(planning, results):
            modules = sorted(["moebudget", *(f"moebudget.{m}" for m in
                                             ["arch", "cli", "errors", "search", *extra])])
            assert [argv[0], *result] == [argv[0], 0, modules, False, False]
        for argv, (code, *_) in zip(numeric, results[len(planning):]):
            assert (argv[0], code) == (argv[0], 0)
