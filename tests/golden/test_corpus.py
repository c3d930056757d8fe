"""The golden CLI corpus keeps every pinned exit code, stdout and stderr."""

import json
from pathlib import Path

import pytest

import corpus

jsonschema = pytest.importorskip("jsonschema")
from referencing import Registry, Resource  # noqa: E402  (installed with jsonschema)

SCHEMA_DIR = Path(__file__).parents[2] / "docs" / "schemas"


@pytest.fixture(scope="module")
def results():
    return corpus.run_corpus()


def differing(pinned, results):
    """The argv lists, joined, whose pinned record and result differ or lack a partner."""
    expected = {tuple(r["argv"]): r for r in pinned}
    got = {tuple(r["argv"]): corpus.record(r) for r in results}
    return sorted(" ".join(argv) or "(empty argv)" for argv in expected.keys() | got.keys()
                  if expected.get(argv) != got.get(argv))


def test_every_argv_keeps_its_record(results):
    pinned = json.loads(corpus.DIGESTS.read_text())
    rest = [r for r in results if r["argv"] not in corpus.NUMPY_ARGVS]
    differ = differing(pinned["records"], rest)
    assert not differ, (
        f"{len(differ)} of {len(rest)} argv lists differ from {corpus.DIGESTS.name}, recorded "
        f"under Python {pinned['python']} (this is {corpus.python_version()}); after a "
        f"deliberate change run 'python tests/golden/corpus.py --write': " + "; ".join(differ))


def test_every_grad_check_payload_keeps_its_record(results):
    # the grad-check and train-toy payloads' last bits follow numpy's BLAS, the core it
    # runs on and numpy's SIMD dispatch, so they are pinned per build, core and dispatch
    sets = json.loads(corpus.DIGESTS.read_text())["numpy_records"]
    build = corpus.numpy_build()
    pinned = [s["records"] for s in sets if s["build"] == build]
    assert pinned, (
        f"{corpus.DIGESTS.name} has no numpy records written with {build}, only with "
        f"{[s['build'] for s in sets]}; compare them on a recorded build, or on another x86 "
        f"machine set OPENBLAS_CORETYPE to a recorded core and NPY_DISABLE_CPU_FEATURES to "
        f"turn off the SIMD extensions its record lacks")
    differ = differing(pinned[0], [r for r in results if r["argv"] in corpus.NUMPY_ARGVS])
    assert not differ, (
        f"{len(differ)} numpy argv lists differ from {corpus.DIGESTS.name}, recorded "
        f"with {build}: " + "; ".join(differ))


def test_every_json_payload_meets_its_schema(results):
    schemas = {p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.schema.json")}
    registry = Registry().with_resources(
        (name, Resource.from_contents(schema)) for name, schema in schemas.items())
    validators = {name.removesuffix(".schema.json"): jsonschema.Draft202012Validator(
        schema, registry=registry) for name, schema in schemas.items()}
    checked = 0
    for result in results:
        argv = result["argv"]
        if argv[:1] and argv[0] in corpus.SCHEMAS and result["stdout"] \
                and not {"-h", "--csv"} & set(argv):
            validators[corpus.SCHEMAS[argv[0]]].validate(json.loads(result["stdout"]))
            checked += 1
    assert checked >= 300
