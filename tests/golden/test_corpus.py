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


def test_every_argv_keeps_its_record(results):
    pinned = json.loads(corpus.DIGESTS.read_text())
    expected = {tuple(r["argv"]): r for r in pinned["records"]}
    got = {tuple(r["argv"]): corpus.record(r) for r in results}
    differ = sorted(" ".join(argv) or "(empty argv)" for argv in expected.keys() | got.keys()
                    if expected.get(argv) != got.get(argv))
    assert not differ, (
        f"{len(differ)} of {len(got)} argv lists differ from {corpus.DIGESTS.name}, recorded "
        f"under Python {pinned['python']} (this is {corpus.python_version()}); after a "
        f"deliberate change run 'python tests/golden/corpus.py --write': " + "; ".join(differ))


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
