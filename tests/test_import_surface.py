"""The package's export surface, and what each cold command imports.

`toposlang/__init__.py` exports its names lazily and `cli.py` imports each
command's dependencies inside the command, so a cold process loads only what
its command uses. The import checks run in fresh interpreters and compare
module names, which, unlike a time budget, does not depend on the host.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toposlang

REPO = Path(__file__).resolve().parent.parent
FIXTURE = str(REPO / "fixtures" / "two_point.json")

EXPORTS = (
    "BoundedLattice", "CapExceeded", "ClassicalSystem", "DownsetAlgebra",
    "EffectiveClassicalRep", "FiniteCategory", "InputError",
    "Interval", "IntervalSet", "KripkeModel", "Morphism", "NatTransform", "Presheaf",
    "Project", "Proof", "ProofLine", "Sequent", "Signature", "Subobject",
    "ToposRep", "ToposlangError", "abelian_axiom_pack", "build_rep", "char_morphism",
    "check_derivation", "check_optional_axioms", "check_proof", "classical_rep",
    "classifier_kit", "decide", "desugar_connectives", "excluded_middle_demo",
    "exponential", "format_formula", "format_term", "from_poset", "global_elements",
    "infer_type", "interpret_term", "interpret_type", "is_axiom_instance",
    "load_project", "lower_set_algebra", "lset_intersection", "nondistributivity_demo",
    "one_object_category", "open_set_algebra", "parse_formula", "parse_term",
    "parse_type", "pl_represent", "power_object", "power_transpose", "powerset_algebra",
    "product", "prop_family", "sieve_heyting",
    "sieves_on", "sub_heyting", "subobject_of_char", "subspace_lattice_2d",
    "substitute", "truth_value", "validate_axioms", "validate_category", "validate_nat",
    "validate_presheaf",
)

SCRIPT = """
import contextlib, io, sys
from toposlang.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
"""

NOT_FOR_PROP = ("jsonschema", "dataclasses", "inspect", "toposlang.category",
                "toposlang.presheaf", "toposlang.rep", "toposlang.project", "toposlang.local")


def test_exports_are_the_67_names_of_their_defining_modules():
    assert len(EXPORTS) == 67
    assert sorted(toposlang.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        obj = getattr(toposlang, name)
        assert obj.__module__.startswith("toposlang.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(EXPORTS) <= set(dir(toposlang))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toposlang.no_such_name


def _modules_loaded(code, *argv, flags=()):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=REPO, check=True)
    return set(proc.stdout.split())


def _loaded(modules, name):
    return any(m == name or m.startswith(name + ".") for m in modules)


@pytest.mark.parametrize("argv, forbidden, needed", [
    (["pl", "parse", "~A in [0,1] -> b"], NOT_FOR_PROP + ("toposlang.heyting",),
     "toposlang.prop.syntax"),
    (["pl", "decide", "((a -> b) -> a) -> a"], NOT_FOR_PROP, "toposlang.prop.decide"),
    (["validate", FIXTURE], ("jsonschema", "dataclasses", "inspect"), "toposlang.project"),
], ids=["pl-parse", "pl-decide", "validate"])
def test_cold_command_imports_only_its_share(argv, forbidden, needed):
    modules = _modules_loaded(SCRIPT, *argv)
    assert needed in modules
    assert [name for name in forbidden if _loaded(modules, name)] == []


def test_no_command_loads_dataclasses_or_inspect():
    # Every golden command, run in turn in one process: the record classes
    # need neither module, and `dataclasses` would load `inspect`.
    script = """
import contextlib, io, json, sys
from toposlang.cli import main
for case in json.load(open("tests/golden/cases.json")):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(case["argv"])
print(" ".join(sorted(sys.modules)))
"""
    modules = _modules_loaded(script)
    assert {"toposlang.project", "toposlang.rep", "toposlang.prop.decide"} <= modules
    assert [name for name in ("dataclasses", "inspect") if _loaded(modules, name)] == []


def test_no_command_loads_the_resource_and_archive_modules():
    # Every golden command, run in turn in one process without `site`, which
    # on some hosts imports packages that load these modules first: the
    # schema is read by its path beside `project.py`.
    script = """
import contextlib, io, json, sys
from toposlang.cli import main
for case in json.load(open("tests/golden/cases.json")):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(case["argv"])
print(" ".join(sorted(sys.modules)))
"""
    modules = _modules_loaded(script, flags=("-S",))
    assert {"toposlang.project", "toposlang.schema_check"} <= modules
    assert "site" not in modules
    assert [name for name in ("importlib.resources", "tempfile", "zipfile")
            if _loaded(modules, name)] == []


def test_validate_loads_only_the_layers_a_project_declares(tmp_path):
    # posets, algebras, systems and formulas, as in the benchmark's generated
    # project: no presheaf, local-language or representation code is needed
    elements, order = ["g0", "g1", "g2"], [["g0", "g1"], ["g1", "g2"]]
    doc = {
        "schema_version": 1,
        "posets": [{"name": "chain", "elements": elements, "order": order}],
        "algebras": [
            {"name": "lower", "kind": "lower_sets", "elements": elements, "order": order},
            {"name": "sieves", "kind": "sieves", "category": "chain", "object": "g2"},
            {"name": "subsets", "kind": "powerset", "base": ["p", "q"]},
        ],
        "systems": [{"name": "sys", "states": ["s0", "s1", "s2"],
                     "quantities": {"A": {"s0": "1", "s1": "5/2", "s2": "3"}}}],
        "formulas": [{"name": "f", "text": "A in [1,3] -> ~A in (2,3]"}],
    }
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    modules = _modules_loaded(SCRIPT, "validate", str(path))
    assert {"toposlang.project", "toposlang.category", "toposlang.heyting",
            "toposlang.prop.semantics"} <= modules
    assert [name for name in ("toposlang.local", "toposlang.presheaf", "toposlang.rep")
            if _loaded(modules, name)] == []


def test_importing_the_package_loads_no_submodule():
    modules = _modules_loaded("import sys, toposlang; print(' '.join(sys.modules))")
    assert sorted(m for m in modules if m.startswith("toposlang")) == ["toposlang"]
