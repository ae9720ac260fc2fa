import json
from pathlib import Path

import pytest

from toposlang.project import ProjectError, build_project, element_from_json, load_project

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "two_point.json"


def base_doc():
    return json.loads(FIXTURE.read_text())


def test_fixture_loads_everything():
    project = load_project(str(FIXTURE))
    assert set(project.categories) == {"two_point", "chain3"}
    assert set(project.systems) == {"particle", "particle_small"}
    assert set(project.classical_reps) == {"classical"}
    assert set(project.topos_reps) == {"z3", "toy_presheaf"}
    assert project.counts()["proofs"] == 2


def test_element_round_trip():
    assert element_from_json("*") == ()
    assert element_from_json(["a", ["b", "*"]]) == ("a", ("b", ()))
    # The schema refuses such an element before the loader reads it.
    with pytest.raises(ProjectError, match=r"^not an element encoding: 3$"):
        element_from_json(3)


def test_custom_category_section():
    doc = base_doc()
    doc["categories"] = [{
        "name": "idem",
        "objects": ["x"],
        "morphisms": [
            {"id": "id[x]", "dom": "x", "cod": "x"},
            {"id": "e", "dom": "x", "cod": "x"},
        ],
        "identities": {"x": "id[x]"},
        "composition": [
            ["id[x]", "id[x]", "id[x]"], ["id[x]", "e", "e"],
            ["e", "id[x]", "e"], ["e", "e", "e"],
        ],
    }]
    doc["algebras"].append({"name": "idem_sieves", "kind": "sieves",
                            "category": "idem", "object": "x"})
    project = build_project(doc)
    assert len(project.algebras["idem_sieves"]) == 3  # {}, {e}, {id,e}


def test_custom_axiom_pack_with_typed_variables():
    doc = base_doc()
    doc["axiom_packs"].append({
        "name": "self_equality",
        "sequents": [{
            "name": "refl",
            "conclusion": "r = r",
            "variables": {"r": "R"},
        }],
    })
    z3 = next(r for r in doc["representations"] if r["name"] == "z3")
    z3["axiom_packs"] = ["abelian_r", "self_equality"]
    project = build_project(doc)
    assert "z3" in project.topos_reps


def test_inline_axiom_failure_is_reported_with_site():
    doc = base_doc()
    z3 = next(r for r in doc["representations"] if r["name"] == "z3")
    z3["axioms"] = [{
        "name": "broken",
        "conclusion": "add(<r, r>) = r",
        "variables": {"r": "R"},
    }]
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "broken" in str(err.value)
    assert err.value.pointer.startswith("/representations/")


def test_untyped_axiom_variable_rejected():
    doc = base_doc()
    z3 = next(r for r in doc["representations"] if r["name"] == "z3")
    z3["axioms"] = [{"name": "untyped", "conclusion": "r = r"}]
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "untyped free variable" in str(err.value)


def test_unknown_references_carry_pointers():
    doc = base_doc()
    doc["presheaves"][0]["base"] = "nowhere"
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert err.value.pointer == "/presheaves/0/base"

    doc = base_doc()
    doc["representations"][0]["system"] = "nowhere"
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert err.value.pointer == "/representations/0/system"

    doc = base_doc()
    doc["terms"][0]["signature"] = "nowhere"
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert err.value.pointer == "/terms/0/signature"


def cross_base_doc():
    """The fixture with toy_presheaf's R ground moved to a one-point poset."""
    doc = base_doc()
    doc["posets"].append({"name": "lone", "elements": ["o"], "order": []})
    doc["presheaves"].append({"name": "far", "base": "lone", "stages": {"o": ["*"]},
                              "restrictions": {}})
    toy = next(r for r in doc["representations"] if r["name"] == "toy_presheaf")
    toy["grounds"]["R"] = {"presheaf": "far"}
    return doc


def test_ground_on_another_base_names_its_representation():
    with pytest.raises(ProjectError) as err:
        build_project(cross_base_doc())
    assert str(err.value) == "representation 'toy_presheaf': ground 'R' lives on a different base"
    assert err.value.pointer == "/representations/2"


def test_system_value_with_a_zero_denominator_is_a_project_error():
    # The schema's rational pattern admits "1/0".
    doc = base_doc()
    doc["systems"][0]["quantities"]["p"]["s2"] = "1/0"
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == ("system 'particle': quantity 'p' has a value that is not "
                              "a rational at state 's2': '1/0'")
    assert err.value.pointer == "/systems/0/quantities"


def test_system_entry_for_an_unknown_state_keeps_the_project_message():
    doc = base_doc()
    doc["systems"][0]["quantities"]["p"]["s9"] = "1"
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == "quantity 'p' mentions unknown state 's9'"
    assert err.value.pointer == "/systems/0/quantities/p/s9"


def test_broken_presheaf_restriction_rejected():
    doc = base_doc()
    doc["presheaves"][0]["restrictions"]["le[p,q]"] = [["x0", "y0"]]  # not total
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == "presheaf 'X' violates functor laws: ('not-total', 'le[p,q]', 'x1')"
    assert err.value.pointer == "/presheaves/0"


def test_restriction_for_an_unknown_morphism_is_rejected():
    doc = base_doc()
    doc["presheaves"][0]["restrictions"]["le[nope]"] = []
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == "presheaf 'X' violates functor laws: ('unknown-morphism', 'le[nope]')"
    assert err.value.pointer == "/presheaves/0"


def test_stage_for_an_unknown_object_keeps_the_project_message():
    doc = base_doc()
    doc["presheaves"][0]["stages"]["nowhere"] = ["n0"]
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == "stages mention unknown objects ['nowhere']"
    assert err.value.pointer == "/presheaves/0/stages"


def test_loading_checks_each_presheaf_once(monkeypatch):
    # Two project presheaves and two inline sets: four law checks.  The
    # classical representation builds its two stages itself, from a
    # validated system, so it checks neither.
    from toposlang import presheaf
    calls = []
    check = presheaf.validate_presheaf
    monkeypatch.setattr(presheaf, "validate_presheaf",
                        lambda x, **filled: calls.append(x) or check(x, **filled))
    load_project(str(FIXTURE))
    assert len(calls) == 4


def test_loading_builds_one_representation_per_declaration(monkeypatch):
    # Three representations: two on the presheaf backend and the classical
    # one.  Each symbol arrow is built on the types its own representation
    # interprets, so every type is interpreted into that one's cache.
    from toposlang import rep
    built, interpreted = [], []
    init, interpret = rep.ToposRep.__init__, rep.interpret_type
    monkeypatch.setattr(rep.ToposRep, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(rep, "interpret_type",
                        lambda t, r: interpreted.append(r) or interpret(t, r))
    project = load_project(str(FIXTURE))
    assert len(built) == 3
    assert {id(r) for r in built} == \
        {id(r) for r in project.topos_reps.values()} | {id(project.classical_reps["classical"].rep)}
    assert {id(r) for r in interpreted} <= {id(r) for r in built}


def test_duplicate_error_names_both_sites():
    doc = base_doc()
    doc["posets"].append(dict(doc["posets"][0]))
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "/posets/0" in str(err.value) and "/posets/2" in str(err.value)


@pytest.mark.parametrize("copied, name", [(0, "classical"), (1, "z3"), (2, "classical")],
                         ids=["classical-classical", "topos-topos", "classical-topos"])
def test_a_duplicate_representation_names_both_sites(copied, name):
    # A name declared twice is refused whether both declarations are of one
    # kind or one is classical and the other topos.
    doc = base_doc()
    first = next(i for i, r in enumerate(doc["representations"]) if r["name"] == name)
    doc["representations"].append(dict(doc["representations"][copied], name=name))
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert str(err.value) == (f"duplicate representation name {name!r}: declared at "
                              f"/representations/{first} and again at /representations/3")
    assert err.value.pointer == "/representations/3"


def test_symbol_table_on_presheaf_backend_rejected():
    doc = base_doc()
    toy = next(r for r in doc["representations"] if r["name"] == "toy_presheaf")
    toy["symbols"]["A"] = {"table": [["x0", "*"]]}
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "set backend" in str(err.value)


def test_undeclared_symbol_arrow_rejected():
    doc = base_doc()
    z3 = next(r for r in doc["representations"] if r["name"] == "z3")
    z3["symbols"]["ghost"] = {"table": [["s0", "0"]]}
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "undeclared symbol" in str(err.value)


def test_a_symbol_arrow_that_is_not_natural_is_reported_after_every_table_error():
    # The symbols' tables are read in file order, then the arrows built in
    # the signature's order: a later table error is reported before an
    # earlier arrow's naturality, and of two arrows that are not natural
    # the signature's first is.
    doc = base_doc()
    z3 = next(r for r in doc["representations"] if r["name"] == "z3")
    z3["symbols"]["A"] = {"table": [["s0", "junk"]]}
    z3["symbols"]["ghost"] = {"table": [["s0", "0"]]}
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert (str(err.value), err.value.pointer) == \
        ("arrow for undeclared symbol 'ghost'", "/representations/1/symbols/ghost")
    del z3["symbols"]["ghost"]
    z3["symbols"] = {"neg": {"table": [["0", "0"], ["1", "2"]]}, **z3["symbols"]}
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert (str(err.value), err.value.pointer) == (
        "representation 'z3': arrow for 'A' is invalid in a component: "
        "('bad-codomain', 'pt', 's0')",
        "/representations/1")


def test_a_component_under_an_unknown_object_or_a_junk_row_is_refused():
    # Both loaded before: the component under `zz` was dropped without a
    # word, and the row for `x9` was kept in the arrow.
    for edit, fault in [(lambda c: c.update(zz=[["x0", "*"]]), "('unknown-object', 'zz')"),
                        (lambda c: c["q"].append(["x9", "*"]), "('junk-domain', 'q', 'x9')")]:
        doc = base_doc()
        toy = next(r for r in doc["representations"] if r["name"] == "toy_presheaf")
        edit(toy["symbols"]["A"]["components"])
        with pytest.raises(ProjectError) as err:
            build_project(doc)
        assert (str(err.value), err.value.pointer) == (
            f"representation 'toy_presheaf': arrow for 'A' is invalid in a component: {fault}",
            "/representations/2")


def _rep(doc, name):
    return next(r for r in doc["representations"] if r["name"] == name)


def _drop(container, key):
    del container[key]


_UNIT_LAW_CATEGORY = {
    "name": "c", "objects": ["a", "b"],
    "morphisms": [{"id": "ia", "dom": "a", "cod": "a"}, {"id": "ib", "dom": "b", "cod": "b"},
                  {"id": "f", "dom": "a", "cod": "b"}, {"id": "g", "dom": "a", "cod": "b"}],
    "identities": {"a": "ia", "b": "ib"},
    "composition": [["ia", "ia", "ia"], ["ib", "ib", "ib"], ["f", "ia", "f"], ["g", "ia", "g"],
                    ["ib", "f", "g"], ["ib", "g", "f"]]}
_MISSING = object()

# One case per site at which the loader refuses a file, each a one-edit
# variant of the fixture: the edit changes the document in place, or returns
# the bytes to write in its place, or _MISSING for no file at all.  "{path}"
# in an error stands for the file's path.  An element that is neither a
# string nor a list is refused by the schema before `element_from_json` can
# refuse it; test_element_round_trip covers that refusal.
REFUSALS = [
    ("schema", lambda d: d.update(schema_version=2),
     "schema violation: 1 was expected", "/schema_version"),
    ("schema-escaped", lambda d: d["presheaves"][0]["stages"].update({"p/q": 5}),
     "schema violation: 5 is not of type 'array'", "/presheaves/0/stages/p~1q"),
    ("duplicate-name", lambda d: d["posets"].append(dict(d["posets"][0])),
     "duplicate category name 'two_point': declared at /posets/0 and again at /posets/2",
     "/posets/2"),
    ("unreadable", lambda d: _MISSING,
     "cannot read project file: [Errno 2] No such file or directory: '{path}'", None),
    ("not-json", lambda d: b"{",
     "not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
     None),
    ("not-utf8", lambda d: b"\xff\xfe{}",
     "not JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", None),
    ("poset", lambda d: d["posets"][0]["order"].append(["p", "z"]),
     "poset 'two_point': order pair ('p', 'z') mentions unknown element", "/posets/0"),
    ("poset-repeated-element", lambda d: d["posets"][0]["elements"].append("p"),
     "poset 'two_point': element 'p' occurs twice", "/posets/0"),
    ("poset-colliding-arrow-ids", lambda d: d["posets"].append(
        {"name": "clash", "elements": ["a", "b,c", "a,b", "c"],
         "order": [["a", "b,c"], ["a,b", "c"]]}),
     "poset 'clash': arrow id 'le[a,b,c]' occurs twice", "/posets/2"),
    ("category-law", lambda d: d.update(categories=[_UNIT_LAW_CATEGORY]),
     "category 'c' violates the category laws: ('left-unit', 'f', 'g')", "/categories/0"),
    ("category-names", lambda d: d.update(categories=[dict(_UNIT_LAW_CATEGORY,
                                                          objects=["a", "b", "a"])]),
     "category 'c': duplicate object ids", "/categories/0"),
    ("category-identity-key", lambda d: d.update(categories=[{
        "name": "c", "objects": ["x"], "morphisms": [{"id": "i", "dom": "x", "cod": "x"}],
        "identities": {"x": "i", "y": "i"}, "composition": [["i", "i", "i"]]}]),
     "category 'c': identity for unknown object 'y'", "/categories/0"),
    ("presheaf-base", lambda d: d["presheaves"][0].update(base="nowhere"),
     "unknown base category 'nowhere'", "/presheaves/0/base"),
    ("presheaf-stages", lambda d: d["presheaves"][0]["stages"].update(nowhere=["n0"]),
     "stages mention unknown objects ['nowhere']", "/presheaves/0/stages"),
    ("presheaf-laws", lambda d: _drop(d["presheaves"][0]["restrictions"]["le[p,q]"], -1),
     "presheaf 'X' violates functor laws: ('not-total', 'le[p,q]', 'x1')", "/presheaves/0"),
    ("algebra-category", lambda d: d["algebras"][3].update(category="nowhere"),
     "unknown category 'nowhere'", "/algebras/3/category"),
    ("algebra-object", lambda d: d["algebras"][3].update(object="z"),
     "unknown object 'z'", "/algebras/3/object"),
    ("algebra-key", lambda d: _drop(d["algebras"][0], "base"),
     "algebra 'bool3': 'base'", "/algebras/0"),
    ("algebra-order", lambda d: d["algebras"][2]["order"].append(["q", "p"]),
     "algebra 'two_chain_lower': cycle detected through 'p' and 'q'", "/algebras/2"),
    ("system-state", lambda d: d["systems"][0]["quantities"]["p"].update(s9="1"),
     "quantity 'p' mentions unknown state 's9'", "/systems/0/quantities/p/s9"),
    ("system-state-escaped", lambda d: d["systems"][0]["quantities"].update(
        {"x/y": {"s1": "0", "s2": "0", "s3": "0", "s9": "1"}}),
     "quantity 'x/y' mentions unknown state 's9'", "/systems/0/quantities/x~1y/s9"),
    ("system-repeated-state", lambda d: d["systems"][0]["states"].append("s1"),
     "system 'particle': state 's1' occurs twice", "/systems/0/states"),
    ("system-value", lambda d: d["systems"][0]["quantities"]["p"].update(s2="1/0"),
     "system 'particle': quantity 'p' has a value that is not a rational at state 's2': '1/0'",
     "/systems/0/quantities"),
    ("signature", lambda d: d["signatures"][0]["symbols"].update(A=["Sigma", "P("]),
     "signature 'point_particle': expected a type at column 2, got ''", "/signatures/0"),
    ("axiom-pack-kind", lambda d: _drop(d["axiom_packs"][0], "builtin"),
     "axiom pack needs either builtin or sequents", "/axiom_packs/0"),
    ("classical-system", lambda d: _rep(d, "classical").update(system="nowhere"),
     "unknown system 'nowhere'", "/representations/0/system"),
    ("classical-build", lambda d: d["systems"][1]["quantities"].update(
        B={"s1": "1", "s2": "5/2", "s3": "4"}),
     "representation 'classical': quantity symbols 'A' and 'B' share one arrow; "
     "the representation is not faithful",
     "/representations/0"),
    ("formula", lambda d: d["formulas"][0].update(text="A in ["),
     "formula 'window': expected a rational or inf at column 6, got ''", "/formulas/0/text"),
    ("term-signature", lambda d: d["terms"][0].update(signature="nowhere"),
     "unknown signature 'nowhere'", "/terms/0/signature"),
    ("term-text", lambda d: d["terms"][0].update(text="A(s"),
     "term 'prop': expected ')' at column 3, got ''", "/terms/0/text"),
    ("term-context", lambda d: d["terms"][0]["context"].update(D="P("),
     "term 'prop': expected a type at column 2, got ''", "/terms/0/context/D"),
    ("term-context-escaped", lambda d: d["terms"][0]["context"].update({"a~b": "P("}),
     "term 'prop': expected a type at column 2, got ''", "/terms/0/context/a~0b"),
    ("proof-line", lambda d: d["proofs"][0]["lines"][0].update(formula="a ->"),
     "proof 'identity' line 1: expected a formula at column 4, got ''",
     "/proofs/0/lines/0/formula"),
    ("sequent", lambda d: _rep(d, "z3").update(axioms=[{"conclusion": "r ="}]),
     "sequent: expected a term at column 3, got ''", "/representations/1/axioms/0"),
    ("sequent-variables", lambda d: _rep(d, "z3").update(
        axioms=[{"conclusion": "r = r", "variables": {"r": "P("}}]),
     "sequent: expected a type at column 2, got ''",
     "/representations/1/axioms/0/variables/r"),
    ("topos-signature", lambda d: _rep(d, "z3").update(signature="nowhere"),
     "unknown signature 'nowhere'", "/representations/1/signature"),
    ("topos-category", lambda d: _rep(d, "toy_presheaf")["backend"].update(category="nowhere"),
     "unknown category 'nowhere'", "/representations/2/backend/category"),
    ("topos-axiom-pack", lambda d: _rep(d, "z3").update(axiom_packs=["nowhere"]),
     "unknown axiom pack 'nowhere'", "/representations/1/axiom_packs"),
    ("topos-pack-clash", lambda d: d["signatures"][1]["symbols"].update(add=["R", "R"]),
     "representation 'z3': axiom pack symbol 'add' clashes with the signature",
     "/representations/1"),
    ("ground-presheaf", lambda d: _rep(d, "toy_presheaf")["grounds"]["Sigma"].update(
        presheaf="nowhere"),
     "unknown presheaf 'nowhere'", "/representations/2/grounds/Sigma"),
    ("ground-inline-set", lambda d: _rep(d, "toy_presheaf")["grounds"].update(
        R={"set": ["0"]}),
     "inline sets need the set backend", "/representations/2/grounds/R"),
    ("ground-kind", lambda d: _rep(d, "z3")["grounds"].update(R={}),
     "ground needs a presheaf or a set", "/representations/1/grounds/R"),
    ("topos-base", lambda d: _rep(d, "toy_presheaf")["backend"].update(category="chain3"),
     "representation 'toy_presheaf': ground 'Sigma' lives on a different base",
     "/representations/2"),
    ("symbol-undeclared", lambda d: _rep(d, "z3")["symbols"].update(
        ghost={"table": [["s0", "0"]]}),
     "arrow for undeclared symbol 'ghost'", "/representations/1/symbols/ghost"),
    ("symbol-type", lambda d: _drop(_rep(d, "z3")["grounds"], "R"),
     "symbol 'A': ground type 'R' has no assigned object", "/representations/1/symbols/A"),
    ("symbol-plain-table", lambda d: _rep(d, "toy_presheaf")["symbols"].update(
        A={"table": [["x0", "*"]]}),
     "plain tables need the set backend", "/representations/2/symbols/A"),
    ("symbol-kind", lambda d: _rep(d, "z3")["symbols"].update(A={}),
     "symbol needs a table or components", "/representations/1/symbols/A"),
    ("symbol-arrow", lambda d: _drop(_rep(d, "z3")["symbols"]["neg"]["table"], -1),
     "representation 'z3': arrow for 'neg' is invalid in a component: "
     "('not-total', 'pt', '2')",
     "/representations/1"),
    ("topos-complete", lambda d: _drop(_rep(d, "z3")["symbols"], "neg"),
     "representation 'z3': function symbol 'neg' has no assigned arrow", "/representations/1"),
]


@pytest.mark.hash_seeds
@pytest.mark.parametrize("edit, error, pointer", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_each_loader_refusal_reads_its_message_at_its_pointer(tmp_path, capsys, edit, error,
                                                               pointer):
    from toposlang.cli import main
    doc = base_doc()
    content = edit(doc)
    path = tmp_path / "case.json"
    if content is not _MISSING:
        path.write_bytes(json.dumps(doc).encode() if content is None else content)
    code = main(["validate", str(path)])
    expected = {"error": error.format(path=path)}
    if pointer is not None:
        expected["pointer"] = pointer
    assert (code, json.loads(capsys.readouterr().out)) == (2, expected)


def test_a_proof_citation_written_as_a_float_proves_as_the_integer(tmp_path, capsys):
    # The schema takes 2.0 for an integer, as jsonschema does.
    from toposlang.cli import main
    doc = base_doc()
    doc["proofs"][0]["lines"][2]["refs"] = [2.0, 1.0]
    doc["proofs"][0]["lines"][4]["refs"] = [4.0, 3.0]
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(doc))
    assert main(["pl", "prove", str(path), "--proof", "identity"]) == 0
    floats = capsys.readouterr().out
    assert main(["pl", "prove", str(FIXTURE), "--proof", "identity"]) == 0
    assert floats == capsys.readouterr().out


def test_an_integer_past_the_digit_limit_is_refused_as_not_json(tmp_path, capsys):
    # json reads digits through int(), which refuses more than
    # sys.get_int_max_str_digits() of them (4300 by default) with ValueError.
    from toposlang.cli import main
    path = tmp_path / "long.json"
    path.write_text('{"schema_version": ' + "1" * 5000 + "}")
    assert main(["validate", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"error"} and payload["error"].startswith("not JSON: Exceeds the limit")
