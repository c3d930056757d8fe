"""One error hierarchy: exit codes, bases, and the names modules re-export."""

import importlib
import sys

import pytest

import moebudget
from moebudget import cli, errors

# (owning module, class, standard base, CLI exit code)
CLASSES = [
    ("arch", "ShapeError", ValueError, 1),
    ("fixtures", "FixtureError", ValueError, 1),
    ("kernel", "KernelError", ValueError, 1),
    ("planner", "PlannerError", ValueError, 1),
    ("planner", "IdentifiabilityError", errors.PlannerError, 1),
    ("search", "SearchSpecError", ValueError, 1),
    ("search", "InfeasibleSpecError", ValueError, 2),
    ("toylab", "ToyConfigError", ValueError, 1),
    ("toylab", "DivergenceError", RuntimeError, 3),
    ("cli", "CliUsageError", ValueError, 1),
]


def test_every_error_class_is_pinned():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.MoebudgetError)}
    assert defined == {name for _, name, _, _ in CLASSES} | {"MoebudgetError"}


@pytest.mark.parametrize("module,name,base,exit_code", CLASSES)
def test_error_class(module, name, base, exit_code):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.MoebudgetError) and issubclass(cls, base)
    assert cls.exit_code == exit_code
    assert cls.prefix == ("infeasible: " if name == "InfeasibleSpecError" else "")
    assert getattr(importlib.import_module(f"moebudget.{module}"), name) is cls
    assert getattr(moebudget, name) is cls


@pytest.mark.parametrize("module,name,base,exit_code", CLASSES)
def test_dispatch_maps_each_class_to_its_exit_code(monkeypatch, module, name, base,
                                                   exit_code):
    cls = getattr(errors, name)
    exc = cls(7) if cls is errors.DivergenceError else cls("bad input")

    def fail(args):
        raise exc

    help_text, _, flags = cli.COMMANDS["reuse"]
    monkeypatch.setitem(cli.COMMANDS, "reuse", (help_text, fail, flags))
    result = cli.dispatch(["reuse", "--scheme", "loose", "--tokens", "1"])
    assert result.exit_code == exit_code
    assert result.payload == ""
    assert result.diagnostics == f"{cls.prefix}{exc}"


def test_every_lazy_export_resolves():
    # a stale entry in the export table would otherwise fail only when first used
    for module, names in moebudget._EXPORTS.items():
        owner = importlib.import_module(f"moebudget.{module}")
        if module != "search":
            assert getattr(moebudget, module) is owner
        for name in names:
            assert getattr(moebudget, name) is getattr(owner, name), name
    # the search entry point, not the submodule that importing it binds
    assert moebudget.search is sys.modules["moebudget.search"].search
