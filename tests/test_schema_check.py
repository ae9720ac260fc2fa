"""`toposlang.schema_check` against jsonschema, its oracle.

Hypothesis mutates the fixture, a generated project shaped like the `cli`
benchmark's (a poset, two algebras, a system, a formula), and documents for a
small schema that puts `items` after `prefixItems`, overlapping `oneOf`
branches and `additionalProperties: false` together: it replaces a node with
junk, deletes a key or item, adds a key, or appends to a list, one to three
times. Accept/reject and the first (path, message) must equal what
`sorted(Draft202012Validator(schema).iter_errors(doc), key=path)` puts first,
which is what the project loader reported when it used jsonschema. The
differential tests skip where jsonschema is not installed.
"""
import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toposlang.project import ProjectError, _schema, validate_schema
from toposlang.schema_check import _INERT, _KEYWORDS, _TYPES, SchemaCheck

REPO = Path(__file__).resolve().parent.parent
FIXTURE = json.loads((REPO / "fixtures" / "two_point.json").read_text())
SCHEMA = _schema()

SMALL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "pair": {"type": "array", "prefixItems": [{"type": "string"}, {"type": "integer"}],
                 "items": {"const": 0}, "maxItems": 4},
        "either": {"oneOf": [{"type": "string"}, {"minLength": 2},
                             {"type": "array", "minItems": 1}]},
        "tag": {"enum": ["a", 1, [1]]},
    },
}

scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                    st.sampled_from([1.0, "", "a", "x1", "5/2", "-3", "1/", "powerset", "*"]),
                    st.text(max_size=3))
keys = st.one_of(st.sampled_from(["name", "kind", "order", "text", "pair", "either", "tag",
                                  "x", "y", "zz"]), st.text(max_size=2))
junk = st.recursive(scalars, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(keys, kids, max_size=3), max_leaves=6)


@st.composite
def small_docs(draw):
    doc = draw(st.fixed_dictionaries({}, optional={
        "pair": st.tuples(st.sampled_from(["a", None]),
                          st.lists(st.sampled_from(["a", 0, 1, 1.0, None]), max_size=4))
        .map(lambda t: [t[0], *t[1]]),
        "either": st.one_of(st.text(min_size=2, max_size=3), st.lists(scalars, max_size=2),
                            scalars),
        "tag": st.sampled_from(["a", "b", 1, 1.0, True, [1], [True]]),
    }))
    if draw(st.booleans()):
        doc.update(y=draw(junk), x=draw(junk))      # two extras, not in sorted order
    return doc


def oracle(schema, doc):
    jsonschema = pytest.importorskip("jsonschema")
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


@st.composite
def generated_project(draw):
    elements = [f"g{i}" for i in range(draw(st.integers(2, 5)))]
    order = [[a, b] for a, b in zip(elements, elements[1:])]
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    values = st.sampled_from(["0", "1", "-2", "5/2", "7/3"])
    return {
        "schema_version": 1,
        "posets": [{"name": "gen_poset", "elements": elements, "order": order}],
        "algebras": [
            {"name": "gen_lower", "kind": "lower_sets", "elements": elements, "order": order},
            {"name": "gen_sieves", "kind": "sieves", "category": "gen_poset",
             "object": elements[-1]},
        ],
        "systems": [{"name": "gen_system", "states": states,
                     "quantities": {q: {s: draw(values) for s in states} for q in "AB"}}],
        "formulas": [{"name": "gen_formula", "text": "A in [0,1] -> ~B in (2,5/2]"}],
    }


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent, node = None, doc
        for key in path:
            parent, node = node, node[key]
        op = data.draw(st.sampled_from(["replace", "delete", "add", "append"]))
        if op == "replace":
            if parent is None:
                doc = data.draw(junk)
            else:
                parent[path[-1]] = data.draw(junk)
        elif op == "delete" and parent is not None:
            del parent[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node[data.draw(keys)] = data.draw(junk)
        elif op == "append" and isinstance(node, list):
            node.append(data.draw(junk | st.sampled_from(node or [None])))
    return doc


def assert_agrees(schema, doc):
    want = oracle(schema, doc)
    assert SchemaCheck(schema).first_error(doc) == want
    return want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_fixture_gets_jsonschemas_first_error(data):
    doc = mutate(data, FIXTURE)
    want = assert_agrees(SCHEMA, doc)
    if want is not None:
        path, message = want
        with pytest.raises(ProjectError) as err:
            validate_schema(doc)
        # RFC 6901 spells "~" as "~0" and "/" as "~1" within a token.
        tokens = (str(key).replace("~", "~0").replace("/", "~1") for key in path)
        assert (err.value.pointer, str(err.value)) == \
            ("/" + "/".join(tokens), f"schema violation: {message}")


@settings(max_examples=100, deadline=None)
@given(generated_project(), st.data())
def test_mutated_generated_project_gets_jsonschemas_first_error(doc, data):
    assert_agrees(SCHEMA, doc)
    assert_agrees(SCHEMA, mutate(data, doc))


@settings(max_examples=100, deadline=None)
@given(small_docs(), st.data())
def test_items_after_prefix_items_and_overlapping_one_of(doc, data):
    assert_agrees(SMALL_SCHEMA, doc)
    assert_agrees(SMALL_SCHEMA, mutate(data, doc))


def test_valid_documents_pass_and_two_one_of_matches_fail():
    assert SchemaCheck(SCHEMA).first_error(FIXTURE) is None
    check = SchemaCheck(SMALL_SCHEMA)
    assert check.first_error({"pair": ["a", 1, 0], "either": "a"}) is None
    assert check.first_error({"either": "ab"}) == \
        (("either",), "'ab' is valid under each of {'minLength': 2}, {'type': 'string'}")


def _schemas(schema):
    """`schema` and every schema nested in it, where the check's keywords look."""
    assert isinstance(schema, dict), schema
    yield schema
    for key, value in schema.items():
        if key in ("$defs", "properties"):
            subs = value.values()
        elif key in ("prefixItems", "oneOf"):
            subs = value
        elif key in ("items", "additionalProperties") and value is not False:
            subs = [value]
        else:
            subs = ()
        for sub in subs:
            yield from _schemas(sub)


def test_the_shipped_schema_uses_only_what_the_check_interprets():
    # The check trusts the one schema it is given, so this holds that schema
    # to the keywords, type names and `$ref` form the interpreter knows.
    for schema in _schemas(SCHEMA):
        assert set(schema) <= _INERT | set(_KEYWORDS), schema
        types = schema.get("type", ())
        assert set([types] if isinstance(types, str) else types) <= set(_TYPES), schema
        if "$ref" in schema:
            ref = schema["$ref"]
            assert ref.startswith("#/$defs/") and ref[len("#/$defs/"):] in SCHEMA["$defs"], ref
