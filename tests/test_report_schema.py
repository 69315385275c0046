"""The built-in payload validator against jsonschema, the reference
implementation of Draft 7, on real CLI payloads and on mutations of them;
its error messages against the recursive interpreter in conftest."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import powercrit.cli
from conftest import interpret_document
from powercrit.cli import main
from powercrit.errors import InternalConsistencyError
from powercrit.report import (
    ANALYSIS_REPORT_SCHEMA,
    CENSUS_LINE_SCHEMA,
    ELEMENT_REPORT_SCHEMA,
    GRAPH_EXPORT_SCHEMA,
    validate_document,
)

SCHEMAS = {
    "analysis": ANALYSIS_REPORT_SCHEMA,
    "element": ELEMENT_REPORT_SCHEMA,
    "census": CENSUS_LINE_SCHEMA,
    "export": GRAPH_EXPORT_SCHEMA,
}

# the keywords validate_document checks; any other keyword would be ignored
SUPPORTED = {
    "$schema",
    "type",
    "properties",
    "required",
    "additionalProperties",
    "items",
    "enum",
    "minimum",
    "minItems",
    "maxItems",
}


def unsupported(schema: dict) -> set[str]:
    """Keywords, or keyword forms, in `schema` that validate_document does not check."""
    bad = set(schema) - SUPPORTED
    if schema.get("additionalProperties", False) is not False:
        bad.add("additionalProperties")
    items = schema.get("items")
    if items is not None and not isinstance(items, dict):
        bad.add("items")
    if any(isinstance(v, (list, dict)) for v in schema.get("enum", ())):
        bad.add("enum")
    subs = list(schema.get("properties", {}).values())
    if isinstance(items, dict):
        subs.append(items)
    for sub in subs:
        bad |= unsupported(sub)
    return bad


# SHA-256 of json.dumps(schema, sort_keys=True), recorded at 8c44011 while
# the schemas were written out as literals; the order of each required list
# is part of the digest
SCHEMA_DIGESTS = {
    "analysis": "7957a62bce884293c5a9c50bf57fd16af8c5b151f8a31bd4bf6cf41fe3bc0325",
    "element": "d3c3a9904bd9579627cabf47b3f61b0b56e17a4157192d969317fcea20c3dcb7",
    "census": "6747831a73641edcd9f64ad32688f5729fbe0f49a5680aa37f424e07b50ecdda",
    "export": "8f06b772b5d64a87278235901a39812bbff6bf9b675adb4f162eafe95b881300",
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_pinned(name):
    text = json.dumps(SCHEMAS[name], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_valid_draft7_with_supported_keywords_only(name):
    jsonschema.Draft7Validator.check_schema(SCHEMAS[name])
    assert unsupported(SCHEMAS[name]) == set()


def test_unsupported_keyword_is_detected():
    schema = copy.deepcopy(ANALYSIS_REPORT_SCHEMA)
    schema["properties"]["classes"]["items"]["properties"]["kind"]["pattern"] = "^p"
    assert unsupported(schema) == {"pattern"}


RUNS = {
    "analyze D:15": ("analysis", ("analyze", "D:15", "--json")),
    "analyze M:5,2,2,2,7": ("analysis", ("analyze", "M:5,2,2,2,7", "--json", "--stable")),
    "analyze S:8 --element": (
        "element",
        ("analyze", "S:8", "--element", "(1 2 3)(4 5 6 7 8)", "--json"),
    ),
    "census to 200": (
        "census",
        ("census", "--max-order", "200", "--verify-up-to", "100", "--all-r", "--json"),
    ),
    "export S:4": ("export", ("export", "S:4", "--format", "json")),
}


@functools.cache
def payloads(label: str) -> tuple[dict, ...]:
    """The JSON documents one CLI run printed (one per line for census)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(RUNS[label][1])) == 0
    text = out.getvalue()
    return tuple(map(json.loads, text.splitlines() if label.startswith("census") else [text]))


def payload(label: str, i: int = 0) -> tuple[dict, dict]:
    """A fresh copy of one real payload, with its schema."""
    return copy.deepcopy(payloads(label)[i]), SCHEMAS[RUNS[label][0]]


def message(check, doc, schema: dict) -> str | None:
    """The error text `check` raises for `doc`, or None when it accepts it."""
    try:
        check(doc, schema)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


def ours(doc, schema: dict) -> bool:
    """The compiled validator's verdict, once its message (or its silence)
    equals the interpreter's."""
    got = message(validate_document, doc, schema)
    assert got == message(interpret_document, doc, schema)
    return got is None


def theirs(doc, schema: dict) -> bool:
    return jsonschema.Draft7Validator(schema).is_valid(doc)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_real_payloads_pass_both_validators(label):
    schema = SCHEMAS[RUNS[label][0]]
    for doc in payloads(label):
        validate_document(doc, schema)
        interpret_document(doc, schema)
        jsonschema.validate(doc, schema)


def test_census_payloads_cover_both_sides_of_the_null_unions():
    assert {line["graph_agrees"] is None for line in payloads("census to 200")} == {True, False}


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "label,path,value,expected",
    [
        # wrong type, bool for an int, integral float, value below the minimum
        ("analyze D:15", ("group",), 15, False),
        ("analyze D:15", ("order",), True, False),
        ("analyze D:15", ("order",), 30.0, True),
        ("analyze D:15", ("order",), 30.5, False),
        ("analyze D:15", ("timing_ms",), False, False),
        ("analyze D:15", ("timing_ms",), -0.5, False),
        ("analyze D:15", ("classes", 0, "representative_index"), -1, False),
        ("analyze D:15", ("pi", 0), 1, False),
        # bad enum values: True is not the string, and 1 is not True
        ("analyze D:15", ("classes", 0, "kind"), "other", False),
        ("analyze D:15", ("classes", 0, "kind"), True, False),
        ("analyze S:8 --element", ("is_critical",), 1, False),
        # unions with null
        ("analyze D:15", ("frobenius",), None, True),
        ("analyze D:15", ("frobenius",), [], False),
        ("analyze M:5,2,2,2,7", ("partition", "trivial"), None, True),
        ("analyze M:5,2,2,2,7", ("partition", "trivial"), 0, False),
        # wrong edges pair length
        ("export S:4", ("edges", 0), [1], False),
        ("export S:4", ("edges", 0), [1, 2, 3], False),
        ("export S:4", ("edges", 0), [1, 2], True),
        ("census to 200", ("graph_agrees",), "yes", False),
    ],
)
def test_field_mutations_match_jsonschema(label, path, value, expected):
    doc, schema = payload(label)
    _set(doc, path, value)
    assert ours(doc, schema) is expected
    assert theirs(doc, schema) is expected


@pytest.mark.parametrize(
    "schema,instance",
    [
        ({"enum": [1]}, True),
        ({"enum": [True]}, 1),
        ({"enum": [False, "a"]}, 0),
        ({"enum": [1]}, 1.0),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, False),
        ({"type": "number"}, True),
        ({"type": ["integer", "null"]}, None),
        ({"type": ["integer", "null"]}, "1"),
        ({"minimum": 5}, True),
        ({"minimum": 5}, "a"),
        ({"minimum": 5}, 4.5),
        ({"minItems": 1, "maxItems": 1}, "ab"),
        ({"minItems": 1, "maxItems": 1}, []),
        ({"required": ["a"], "additionalProperties": False}, [1]),
        ({"items": {"type": "string"}}, {"a": 1}),
    ],
)
def test_keyword_semantics_match_jsonschema(schema, instance):
    assert ours(instance, schema) == theirs(instance, schema)


@pytest.mark.parametrize(
    "label,edit,where",
    [
        ("analyze D:15", lambda d: d.pop("group"), "$: required property 'group'"),
        ("analyze D:15", lambda d: d["star"].pop("size"), "$.star: required"),
        ("analyze D:15", lambda d: d.update(extra=1), "$: property 'extra' is not allowed"),
        (
            "analyze M:5,2,2,2,7",
            lambda d: d["classes"][3]["params"].update(q=2),
            "$.classes[3].params: property 'q'",
        ),
        ("analyze M:5,2,2,2,7", lambda d: d["classes"][2].update(kind="x"), "$.classes[2].kind:"),
    ],
)
def test_error_names_the_json_path(label, edit, where):
    doc, schema = payload(label)
    edit(doc)
    with pytest.raises(InternalConsistencyError) as info:
        validate_document(doc, schema)
    assert str(info.value).startswith(f"payload at {where}")
    assert str(info.value) == message(interpret_document, doc, schema)
    assert not theirs(doc, schema)


def test_invalid_payload_is_a_bug_not_a_usage_error(monkeypatch):
    def broken(group, element):
        return {"group": group.descriptor}

    monkeypatch.setattr(powercrit.cli, "element_report", broken)
    # not the ValueError branch that exits 2: the error propagates
    with pytest.raises(InternalConsistencyError, match="required property"):
        main(["analyze", "S:4", "--element", "(1 2)", "--json"])


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0]),
    st.sampled_from(["", "plain", "compound", "(1,0)"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "size", "id", "order", "x"]), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_single_mutations_get_the_jsonschema_verdict(data):
    label = data.draw(st.sampled_from(sorted(RUNS)), label="run")
    i = data.draw(st.integers(0, len(payloads(label)) - 1), label="line")
    doc, schema = payload(label, i)
    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(["replace", "int", "delete", "add", "resize"]), label="kind")
    if kind == "replace":
        path, _ = data.draw(st.sampled_from(nodes[1:]), label="node")
        _set(doc, path, data.draw(VALUES, label="value"))
    elif kind == "int":
        # a bool for an int, a value below the minimum, an integral float
        ints = [(p, v) for p, v in nodes if isinstance(v, int) and not isinstance(v, bool)]
        path, v = data.draw(st.sampled_from(ints), label="node")
        new = st.booleans() | st.integers(-2, 2) | st.sampled_from([float(v), v - 1, v + 0.5])
        _set(doc, path, data.draw(new, label="value"))
    elif kind == "resize":
        lists = [(p, v) for p, v in nodes if isinstance(v, list)]
        assume(lists)
        path, seq = data.draw(st.sampled_from(lists), label="node")
        if seq and data.draw(st.booleans(), label="drop"):
            seq.pop()
        else:
            seq.append(data.draw(VALUES | st.integers(0, 9), label="value"))
    else:
        dicts = [(p, v) for p, v in nodes if isinstance(v, dict) and (kind == "add" or v)]
        path, obj = data.draw(st.sampled_from(dicts), label="node")
        if kind == "delete":
            del obj[data.draw(st.sampled_from(sorted(obj)), label="key")]
        else:
            keys = st.sampled_from(sorted(schema["properties"]) + ["extra", "timing_ms", "p"])
            obj[data.draw(keys, label="key")] = data.draw(VALUES, label="value")
    assert ours(doc, schema) == theirs(doc, schema)


def test_cli_import_does_not_load_jsonschema():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, powercrit.cli; print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "[]\n"
