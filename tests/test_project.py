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
    with pytest.raises(ProjectError):
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
