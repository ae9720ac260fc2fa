"""toposlang: exact tooling for propositional and typed higher-order
languages interpreted in Heyting algebras and finite presheaf topoi.

The package is organized in layers:

- `intervals`: exact rational interval sets (the value descriptions that
  primitive propositions quantify over).
- `heyting`: `DownsetAlgebra`, the one Heyting algebra class: the
  down-sets of a finite preorder, computed on as bitmasks, with its
  preorder certified at construction and its carrier listed and certified
  only when asked for, with builders for powerset, open-set and lower-set instances; and the
  generic bounded lattice behind the rank-two subspace lattice of the
  non-distributivity demonstration.
- `category`: finite categories as composition tables, plus sieves, each
  the frozenset of its members, and the sieve Heyting algebras.
- `presheaf`: the computational topos of presheaves on a finite base:
  classifier, characteristic morphisms, sub-object algebras, products,
  exponentials, power objects, transposes and global elements.
- `prop`: the propositional language: parser and printer, Heyting-valued
  and classical semantics, Hilbert proof checking, the intuitionistic
  decision procedure with Kripke countermodels, and the demos.
- `local`: the typed higher-order language: types, terms, type checking,
  substitution, axiom schemas, derivation checking and axiom packs.
- `rep`: representations of the typed language in a chosen backend, with
  the classical finite-state backend as a special case.
- `project` / `cli`: the JSON project-file format and the command-line
  front door; `schema_check` checks project files against their JSON
  Schema without a third-party package.
- `_lex` and `_record`: the token cursor under both languages' parsers, and
  the record decorator their syntax trees and the reports are built with.

The names below are exported lazily (PEP 562): `import toposlang` loads no
submodule, and `toposlang.X` imports the module that defines X on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining submodule -> the names the package exports from it.
_EXPORTS = {
    "errors": ("CapExceeded", "InputError", "ToposlangError"),
    "intervals": ("Interval", "IntervalSet"),
    "heyting": ("BoundedLattice", "DownsetAlgebra", "lower_set_algebra", "open_set_algebra",
                "powerset_algebra", "subspace_lattice_2d"),
    "category": ("FiniteCategory", "Morphism", "from_poset", "one_object_category",
                 "sieve_heyting", "sieves_on", "validate_category"),
    "presheaf": ("NatTransform", "Presheaf", "Subobject", "char_morphism",
                 "classifier_kit", "exponential", "global_elements", "power_object",
                 "power_transpose", "product", "sub_heyting", "subobject_of_char",
                 "validate_nat", "validate_presheaf"),
    "prop.syntax": ("format_formula", "parse_formula"),
    "prop.semantics": ("ClassicalSystem", "check_optional_axioms", "classical_rep",
                       "pl_represent", "truth_value"),
    "prop.proofs": ("Proof", "ProofLine", "check_proof"),
    "prop.decide": ("decide",),
    "prop.kripke": ("KripkeModel",),
    "prop.demo": ("excluded_middle_demo", "nondistributivity_demo"),
    "local.axioms": ("Sequent", "abelian_axiom_pack", "check_derivation",
                     "is_axiom_instance", "lset_intersection"),
    "local.syntax": ("Signature", "format_term", "parse_term", "parse_type"),
    "local.check": ("desugar_connectives", "infer_type", "substitute"),
    "rep": ("EffectiveClassicalRep", "ToposRep", "build_rep", "interpret_term",
            "interpret_type", "prop_family", "validate_axioms"),
    "project": ("Project", "load_project"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached in this namespace: the package hands out whatever the
    # defining module holds at the time, also when a name there is rebound.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
