"""Project files: a single JSON document declaring posets, categories,
presheaves, algebras, classical systems, signatures, axiom packs,
representations, formulas, terms and proofs.

Loading is deterministic and eager: every declared object is constructed
and validated in a fixed order, cross-references resolve by name, and any
failure carries its location as a JSON pointer (RFC 6901, a name's `~` and
`/` written `~0` and `~1`): an undeclared name reads `unknown <what> <name>`
at the field that referred to it, and a library error reads at its
declaration's pointer.  Exact rationals travel as strings in lowest terms
("5/2"); the terminal point prints as "*".

The document is first checked against `schema/project-v1.schema.json` by
`schema_check`, which needs no third-party package and reports the first
violation with the message and pointer jsonschema 4.x would give.

Each section imports the layer that builds its declarations, so a project
without presheaves, signatures or representations never loads the presheaf,
local-language or representation code.
"""
from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Mapping

from ._record import field, record
from .errors import InputError, ToposlangError
from .schema_check import SchemaCheck

if TYPE_CHECKING:
    from .category import FiniteCategory
    from .heyting import DownsetAlgebra
    from .local.axioms import AxiomPack, Sequent
    from .local.syntax import Signature
    from .presheaf import Presheaf
    from .prop.proofs import Proof
    from .prop.semantics import ClassicalSystem
    from .prop.syntax import Formula
    from .rep import EffectiveClassicalRep, ToposRep


class ProjectError(InputError):
    """Schema violation or unresolved reference, with a pointer to the site."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


def element_from_json(value):
    """Inverse of the element projection: "*" is the terminal point, lists
    are tuples, strings are opaque ids."""
    if value == "*":
        return ()
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return tuple(element_from_json(v) for v in value)
    raise ProjectError(f"not an element encoding: {value!r}")


def _table_from_json(rows) -> dict:
    return {element_from_json(k): element_from_json(v) for k, v in rows}


@record
class LoadedTerm:
    signature_name: str
    context: tuple[tuple[str, object], ...]
    term: object
    text: str


@record
class Project:
    categories: dict[str, FiniteCategory] = field(default_factory=dict)
    presheaves: dict[str, Presheaf] = field(default_factory=dict)
    algebras: dict[str, DownsetAlgebra] = field(default_factory=dict)
    systems: dict[str, ClassicalSystem] = field(default_factory=dict)
    signatures: dict[str, Signature] = field(default_factory=dict)
    axiom_packs: dict[str, AxiomPack] = field(default_factory=dict)
    classical_reps: dict[str, EffectiveClassicalRep] = field(default_factory=dict)
    topos_reps: dict[str, ToposRep] = field(default_factory=dict)
    formulas: dict[str, Formula] = field(default_factory=dict)
    terms: dict[str, LoadedTerm] = field(default_factory=dict)
    proofs: dict[str, Proof] = field(default_factory=dict)
    notes: list[dict] = field(default_factory=list)

    def counts(self) -> dict:
        return {
            "categories": len(self.categories),
            "presheaves": len(self.presheaves),
            "algebras": len(self.algebras),
            "systems": len(self.systems),
            "signatures": len(self.signatures),
            "axiom_packs": len(self.axiom_packs),
            "representations": len(self.classical_reps) + len(self.topos_reps),
            "formulas": len(self.formulas),
            "terms": len(self.terms),
            "proofs": len(self.proofs),
        }


# Beside this module in the source tree and in an installed copy alike, read
# by path: `importlib.resources` would load `pathlib`, `tempfile` and
# `zipfile` on every cold start.
_SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schema",
                           "project-v1.schema.json")


def _schema() -> dict:
    with open(_SCHEMA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _token(name) -> str:
    """`name` as one JSON-pointer reference token: `~` as `~0`, `/` as `~1`."""
    return str(name).replace("~", "~0").replace("/", "~1")


def validate_schema(document) -> None:
    """Raise the first schema violation, as jsonschema would report it."""
    error = SchemaCheck(_schema()).first_error(document)
    if error is not None:
        path, message = error
        raise ProjectError(f"schema violation: {message}", "/" + "/".join(map(_token, path)))


class _Registry:
    """Tracks declaration sites by (kind, name) so duplicates can name both."""

    def __init__(self):
        self.sites: dict[tuple[str, str], str] = {}

    def add(self, table: dict, name: str, value, pointer: str, kind: str):
        key = (kind, name)
        if key in self.sites:
            raise ProjectError(
                f"duplicate {kind} name {name!r}: declared at {self.sites[key]} "
                f"and again at {pointer}", pointer)
        self.sites[key] = pointer
        table[name] = value


def _named(table: Mapping, name, what: str, pointer: str = ""):
    """`table[name]`; an undeclared name is refused at `pointer`, the field
    that referred to it."""
    if name not in table:
        raise ProjectError(f"unknown {what} {name!r}", pointer)
    return table[name]


class _refusal:
    """A block whose library error (`catch`) is re-raised as a ProjectError
    at `pointer`, its message after `prefix`, chained from the original; a
    ProjectError from the block passes unchanged."""

    def __init__(self, pointer: str, prefix: str, catch=ToposlangError):
        self.pointer, self.prefix, self.catch = pointer, prefix, catch

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, self.catch) and not isinstance(exc, ProjectError):
            raise ProjectError(f"{self.prefix}{exc}", self.pointer) from exc


def load_project(path: str) -> Project:
    """Read, schema-check and construct every object in a project file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ProjectError(f"cannot read project file: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bytes not UTF-8, an int past the digit limit
        raise ProjectError(f"not JSON: {exc}") from exc
    validate_schema(document)
    return build_project(document)


def _types_from_json(types: Mapping, pointer: str, prefix: str) -> dict:
    """Each variable's parsed type, a type that does not parse refused at
    `pointer`/<variable>."""
    from .local.syntax import parse_type
    parsed = {}
    for vname, tname in types.items():
        with _refusal(f"{pointer}/{_token(vname)}", prefix):
            parsed[vname] = parse_type(tname)
    return parsed


def build_project(document: Mapping) -> Project:
    project = Project()
    registry = _Registry()

    for i, spec in enumerate(document.get("posets", ())):
        from .category import from_poset
        ptr = f"/posets/{i}"
        with _refusal(ptr, f"poset {spec['name']!r}: "):
            cat = from_poset(spec["elements"], [tuple(p) for p in spec.get("order", ())])
        registry.add(project.categories, spec["name"], cat, ptr, "category")

    for i, spec in enumerate(document.get("categories", ())):
        from .category import FiniteCategory, Morphism, _LawViolation
        ptr, name = f"/categories/{i}", spec["name"]
        # "category 'c' violates the category laws: ...", any other fault
        # "category 'c': ...".
        with _refusal(ptr, f"category {name!r}: "), \
                _refusal(ptr, f"category {name!r} ", _LawViolation):
            cat = FiniteCategory(
                spec["objects"],
                [Morphism(m["id"], m["dom"], m["cod"]) for m in spec["morphisms"]],
                spec["identities"],
                {(f, g): fg for f, g, fg in spec["composition"]})
        registry.add(project.categories, name, cat, ptr, "category")

    for i, spec in enumerate(document.get("presheaves", ())):
        from .presheaf import Presheaf, PresheafError
        ptr = f"/presheaves/{i}"
        base = _named(project.categories, spec["base"], "base category", f"{ptr}/base")
        stages = {obj: [element_from_json(e) for e in elems]
                  for obj, elems in spec["stages"].items()}
        unknown = set(stages) - set(base.objects)
        if unknown:
            raise ProjectError(f"stages mention unknown objects {sorted(unknown)}",
                               f"{ptr}/stages")
        maps = {mid: _table_from_json(rows)
                for mid, rows in spec.get("restrictions", {}).items()}
        with _refusal(ptr, f"presheaf {spec['name']!r} ", PresheafError):
            x = Presheaf(base, stages, maps)
        registry.add(project.presheaves, spec["name"], x, ptr, "presheaf")

    for i, spec in enumerate(document.get("algebras", ())):
        from .heyting import lower_set_algebra, open_set_algebra, powerset_algebra
        ptr = f"/algebras/{i}"
        kind = spec["kind"]
        with _refusal(ptr, f"algebra {spec['name']!r}: ", (ToposlangError, KeyError)):
            if kind == "powerset":
                alg = powerset_algebra(spec["base"])
            elif kind == "open_sets":
                alg = open_set_algebra([frozenset(s) for s in spec["sets"]])
            elif kind == "lower_sets":
                alg = lower_set_algebra(spec["elements"],
                                        [tuple(p) for p in spec.get("order", ())])
            else:
                from .category import sieve_heyting
                cat = _named(project.categories, spec.get("category"), "category",
                             f"{ptr}/category")
                _named(dict.fromkeys(cat.objects), spec.get("object"), "object", f"{ptr}/object")
                alg = sieve_heyting(cat, spec["object"])
        registry.add(project.algebras, spec["name"], alg, ptr, "algebra")

    for i, spec in enumerate(document.get("systems", ())):
        from .prop.semantics import ClassicalSystem, _distinct_states
        ptr, prefix = f"/systems/{i}", f"system {spec['name']!r}: "
        states = tuple(spec["states"])
        with _refusal(f"{ptr}/states", prefix):
            known = _distinct_states(states)
        for qname, table in spec["quantities"].items():
            bad_states = set(table) - known
            if bad_states:
                bad = sorted(bad_states)[0]
                raise ProjectError(
                    f"quantity {qname!r} mentions unknown state {bad!r}",
                    f"{ptr}/quantities/{_token(qname)}/{_token(bad)}")
        with _refusal(f"{ptr}/quantities", prefix):
            system = ClassicalSystem(states, spec["quantities"])
        registry.add(project.systems, spec["name"], system, ptr, "system")

    for i, spec in enumerate(document.get("signatures", ())):
        from .local.syntax import Signature, parse_type
        ptr = f"/signatures/{i}"
        with _refusal(ptr, f"signature {spec['name']!r}: "):
            symbols = {name: (parse_type(dom), parse_type(cod))
                       for name, (dom, cod) in spec["symbols"].items()}
            signature = Signature(symbols, tuple(spec.get("grounds", ())))
        registry.add(project.signatures, spec["name"], signature, ptr, "signature")

    for i, spec in enumerate(document.get("axiom_packs", ())):
        from .local.axioms import AxiomPack, abelian_axiom_pack
        ptr = f"/axiom_packs/{i}"
        if spec.get("builtin") == "abelian":
            pack = abelian_axiom_pack()
        elif "sequents" in spec:
            sequents = []
            for j, sq in enumerate(spec["sequents"]):
                sequents.append((sq.get("name", f"sequent{j}"),
                                 _sequent_from_json(sq, f"{ptr}/sequents/{j}")))
            pack = AxiomPack(spec["name"], (), tuple(sequents))
        else:
            raise ProjectError("axiom pack needs either builtin or sequents", ptr)
        registry.add(project.axiom_packs, spec["name"], pack, ptr, "axiom pack")

    for i, spec in enumerate(document.get("representations", ())):
        from .rep import EffectiveClassicalRep
        ptr = f"/representations/{i}"
        name = spec["name"]
        if spec["kind"] == "classical":
            system = _named(project.systems, spec.get("system"), "system", f"{ptr}/system")
            with _refusal(ptr, f"representation {name!r}: "):
                rep, table = EffectiveClassicalRep.build(system), project.classical_reps
        else:
            rep, table = _topos_rep_from_json(project, spec, ptr), project.topos_reps
        registry.add(table, name, rep, ptr, "representation")

    for i, spec in enumerate(document.get("formulas", ())):
        from .prop.syntax import format_formula, parse_formula
        ptr = f"/formulas/{i}"
        with _refusal(f"{ptr}/text", f"formula {spec['name']!r}: "):
            formula = parse_formula(spec["text"])
        canonical = format_formula(formula)
        if canonical != spec["text"]:
            project.notes.append({"kind": "normalized", "pointer": f"{ptr}/text",
                                  "name": spec["name"], "canonical": canonical})
        registry.add(project.formulas, spec["name"], formula, ptr, "formula")

    for i, spec in enumerate(document.get("terms", ())):
        from .local.syntax import parse_term
        ptr, prefix = f"/terms/{i}", f"term {spec['name']!r}: "
        signature = _named(project.signatures, spec["signature"], "signature",
                           f"{ptr}/signature")
        context = tuple(_types_from_json(spec.get("context", {}), f"{ptr}/context",
                                         prefix).items())
        with _refusal(f"{ptr}/text", prefix):
            term = parse_term(spec["text"], signature)
        registry.add(project.terms, spec["name"],
                     LoadedTerm(spec["signature"], context, term, spec["text"]),
                     ptr, "term")

    for i, spec in enumerate(document.get("proofs", ())):
        from .prop.proofs import Proof, ProofLine
        from .prop.syntax import parse_formula
        ptr = f"/proofs/{i}"
        lines = []
        for j, line in enumerate(spec["lines"]):
            with _refusal(f"{ptr}/lines/{j}/formula", f"proof {spec['name']!r} line {j + 1}: "):
                formula = parse_formula(line["formula"])
            # The schema, as jsonschema, takes 2.0 for an integer.
            lines.append(ProofLine(formula, line["rule"],
                                   tuple(map(int, line.get("refs", ()))), line.get("schema")))
        registry.add(project.proofs, spec["name"], Proof(tuple(lines)), ptr, "proof")

    return project


def _sequent_from_json(spec: Mapping, pointer: str) -> Sequent:
    from .local.axioms import Sequent
    from .local.check import annotate
    from .local.syntax import parse_term
    with _refusal(pointer, "sequent: "):
        conclusion = parse_term(spec["conclusion"])
        context = frozenset(parse_term(t) for t in spec.get("context", ()))
    var_types = _types_from_json(spec.get("variables", {}), f"{pointer}/variables", "sequent: ")
    return Sequent(frozenset(annotate(t, var_types) for t in context),
                   annotate(conclusion, var_types))


def _topos_rep_from_json(project: Project, spec: Mapping, ptr: str) -> ToposRep:
    from .category import one_object_category
    from .local.axioms import pack_signature
    from .presheaf import NatTransform, Presheaf, PresheafError
    from .rep import ToposRep, _completed, interpret_type
    prefix = f"representation {spec['name']!r}: "
    signature = _named(project.signatures, spec.get("signature"), "signature",
                       f"{ptr}/signature")
    backend = spec.get("backend", {"kind": "set"})
    if backend["kind"] == "set":
        base = one_object_category()
    else:
        base = _named(project.categories, backend.get("category"), "category",
                      f"{ptr}/backend/category")
    axioms: list[tuple[str, Sequent]] = []
    for pack_name in spec.get("axiom_packs", ()):
        pack = _named(project.axiom_packs, pack_name, "axiom pack", f"{ptr}/axiom_packs")
        with _refusal(ptr, prefix):
            signature = pack_signature(signature, pack)
        axioms.extend((f"{pack_name}.{seq_name}", seq) for seq_name, seq in pack.sequents)
    for j, sq in enumerate(spec.get("axioms", ())):
        axioms.append((sq.get("name", f"axiom{j}"),
                       _sequent_from_json(sq, f"{ptr}/axioms/{j}")))

    grounds: dict[str, Presheaf] = {}
    for gname, gspec in spec.get("grounds", {}).items():
        gptr = f"{ptr}/grounds/{_token(gname)}"
        if "presheaf" in gspec:
            grounds[gname] = _named(project.presheaves, gspec["presheaf"], "presheaf", gptr)
        elif "set" in gspec:
            if backend["kind"] != "set":
                raise ProjectError("inline sets need the set backend", gptr)
            elements = tuple(element_from_json(e) for e in gspec["set"])
            grounds[gname] = Presheaf(base, {base.objects[0]: elements}, {})
        else:
            raise ProjectError("ground needs a presheaf or a set", gptr)

    # The symbol arrows are built on the types this representation
    # interprets, and assigned to it once built: their tables are read in
    # file order, then the arrows built, each checked for naturality, in
    # the signature's order.
    with _refusal(ptr, prefix):
        rep = ToposRep(signature, base, grounds, {}, tuple(axioms))
    tables = {}
    for sname, sspec in spec.get("symbols", {}).items():
        sptr = f"{ptr}/symbols/{_token(sname)}"
        if sname not in signature.symbols:
            raise ProjectError(f"arrow for undeclared symbol {sname!r}", sptr)
        dom, cod = signature.symbols[sname]
        with _refusal(sptr, f"symbol {sname!r}: "):
            source = interpret_type(dom, rep)
            target = interpret_type(cod, rep)
        if "table" in sspec:
            if backend["kind"] != "set":
                raise ProjectError("plain tables need the set backend", sptr)
            components = {base.objects[0]: _table_from_json(sspec["table"])}
        elif "components" in sspec:
            components = {obj: _table_from_json(rows)
                          for obj, rows in sspec["components"].items()}
        else:
            raise ProjectError("symbol needs a table or components", sptr)
        tables[sname] = (source, target, components)
    symbols: dict[str, NatTransform] = {}
    for sname in signature.symbols:
        if sname in tables:
            with _refusal(ptr, f"{prefix}arrow for {sname!r} is ", PresheafError):
                symbols[sname] = NatTransform(*tables[sname])

    with _refusal(ptr, prefix):
        rep._assign(symbols)
        return _completed(rep)
