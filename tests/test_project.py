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


def test_broken_presheaf_restriction_rejected():
    doc = base_doc()
    doc["presheaves"][0]["restrictions"]["le[p,q]"] = [["x0", "y0"]]  # not total
    with pytest.raises(ProjectError) as err:
        build_project(doc)
    assert "functor laws" in str(err.value)


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
