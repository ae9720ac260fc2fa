"""Project files: a single JSON document declaring posets, categories,
presheaves, algebras, classical systems, signatures, axiom packs,
representations, formulas, terms and proofs.

Loading is deterministic and eager: every declared object is constructed
and validated in a fixed order, cross-references resolve by name, and any
failure carries a JSON-pointer-style location.  Exact rationals travel as
strings in lowest terms ("5/2"); the terminal point prints as "*".

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


def validate_schema(document) -> None:
    """Raise the first schema violation, as jsonschema would report it."""
    error = SchemaCheck(_schema()).first_error(document)
    if error is not None:
        path, message = error
        raise ProjectError(f"schema violation: {message}", "/" + "/".join(map(str, path)))


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


def load_project(path: str) -> Project:
    """Read, schema-check and construct every object in a project file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ProjectError(f"cannot read project file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProjectError(f"not JSON: {exc}") from exc
    validate_schema(document)
    return build_project(document)


def build_project(document: Mapping) -> Project:
    project = Project()
    registry = _Registry()

    for i, spec in enumerate(document.get("posets", ())):
        from .category import from_poset
        ptr = f"/posets/{i}"
        try:
            cat = from_poset(spec["elements"], [tuple(p) for p in spec.get("order", ())])
        except ToposlangError as exc:
            raise ProjectError(f"poset {spec['name']!r}: {exc}", ptr) from exc
        registry.add(project.categories, spec["name"], cat, ptr, "category")

    for i, spec in enumerate(document.get("categories", ())):
        from .category import FiniteCategory, Morphism, _LawViolation
        ptr = f"/categories/{i}"
        try:
            cat = FiniteCategory(
                spec["objects"],
                [Morphism(m["id"], m["dom"], m["cod"]) for m in spec["morphisms"]],
                spec["identities"],
                {(f, g): fg for f, g, fg in spec["composition"]})
        except _LawViolation as exc:
            raise ProjectError(f"category {spec['name']!r} {exc}", ptr) from exc
        except ToposlangError as exc:
            raise ProjectError(f"category {spec['name']!r}: {exc}", ptr) from exc
        registry.add(project.categories, spec["name"], cat, ptr, "category")

    for i, spec in enumerate(document.get("presheaves", ())):
        from .presheaf import Presheaf, PresheafError
        ptr = f"/presheaves/{i}"
        base = project.categories.get(spec["base"])
        if base is None:
            raise ProjectError(f"unknown base category {spec['base']!r}", f"{ptr}/base")
        stages = {obj: [element_from_json(e) for e in elems]
                  for obj, elems in spec["stages"].items()}
        unknown = set(stages) - set(base.objects)
        if unknown:
            raise ProjectError(f"stages mention unknown objects {sorted(unknown)}",
                               f"{ptr}/stages")
        maps = {mid: _table_from_json(rows)
                for mid, rows in spec.get("restrictions", {}).items()}
        try:
            x = Presheaf(base, stages, maps)
        except PresheafError as exc:
            raise ProjectError(f"presheaf {spec['name']!r} {exc}", ptr) from exc
        registry.add(project.presheaves, spec["name"], x, ptr, "presheaf")

    for i, spec in enumerate(document.get("algebras", ())):
        from .heyting import lower_set_algebra, open_set_algebra, powerset_algebra
        ptr = f"/algebras/{i}"
        kind = spec["kind"]
        try:
            if kind == "powerset":
                alg = powerset_algebra(spec["base"])
            elif kind == "open_sets":
                alg = open_set_algebra([frozenset(s) for s in spec["sets"]])
            elif kind == "lower_sets":
                alg = lower_set_algebra(spec["elements"],
                                        [tuple(p) for p in spec.get("order", ())])
            else:
                cat = project.categories.get(spec.get("category", ""))
                if cat is None:
                    raise ProjectError(
                        f"unknown category {spec.get('category')!r}", f"{ptr}/category")
                if spec.get("object") not in cat.objects:
                    raise ProjectError(
                        f"unknown object {spec.get('object')!r}", f"{ptr}/object")
                from .category import sieve_heyting
                alg = sieve_heyting(cat, spec["object"])
        except ProjectError:
            raise
        except (ToposlangError, KeyError) as exc:
            raise ProjectError(f"algebra {spec['name']!r}: {exc}", ptr) from exc
        registry.add(project.algebras, spec["name"], alg, ptr, "algebra")

    for i, spec in enumerate(document.get("systems", ())):
        from .prop.semantics import ClassicalSystem
        ptr = f"/systems/{i}"
        states = tuple(spec["states"])
        for qname, table in spec["quantities"].items():
            bad_states = set(table) - set(states)
            if bad_states:
                bad = sorted(bad_states)[0]
                raise ProjectError(
                    f"quantity {qname!r} mentions unknown state {bad!r}",
                    f"{ptr}/quantities/{qname}/{bad}")
        try:
            system = ClassicalSystem(states, spec["quantities"])
        except ToposlangError as exc:
            raise ProjectError(f"system {spec['name']!r}: {exc}",
                               f"{ptr}/quantities") from exc
        registry.add(project.systems, spec["name"], system, ptr, "system")

    for i, spec in enumerate(document.get("signatures", ())):
        from .local.syntax import Signature, parse_type
        ptr = f"/signatures/{i}"
        try:
            symbols = {name: (parse_type(dom), parse_type(cod))
                       for name, (dom, cod) in spec["symbols"].items()}
            signature = Signature(symbols, tuple(spec.get("grounds", ())))
        except ToposlangError as exc:
            raise ProjectError(f"signature {spec['name']!r}: {exc}", ptr) from exc
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
            system = project.systems.get(spec.get("system", ""))
            if system is None:
                raise ProjectError(f"unknown system {spec.get('system')!r}",
                                   f"{ptr}/system")
            try:
                rep, table = EffectiveClassicalRep.build(system), project.classical_reps
            except ToposlangError as exc:
                raise ProjectError(f"representation {name!r}: {exc}", ptr) from exc
        else:
            rep, table = _topos_rep_from_json(project, spec, ptr), project.topos_reps
        registry.add(table, name, rep, ptr, "representation")

    for i, spec in enumerate(document.get("formulas", ())):
        from .prop.syntax import format_formula, parse_formula
        ptr = f"/formulas/{i}"
        try:
            formula = parse_formula(spec["text"])
        except ToposlangError as exc:
            raise ProjectError(f"formula {spec['name']!r}: {exc}", f"{ptr}/text") from exc
        canonical = format_formula(formula)
        if canonical != spec["text"]:
            project.notes.append({"kind": "normalized", "pointer": f"{ptr}/text",
                                  "name": spec["name"], "canonical": canonical})
        registry.add(project.formulas, spec["name"], formula, ptr, "formula")

    for i, spec in enumerate(document.get("terms", ())):
        from .local.syntax import parse_term, parse_type
        ptr = f"/terms/{i}"
        signature = project.signatures.get(spec["signature"])
        if signature is None:
            raise ProjectError(f"unknown signature {spec['signature']!r}",
                               f"{ptr}/signature")
        try:
            context = tuple((vname, parse_type(tname))
                            for vname, tname in spec.get("context", {}).items())
            term = parse_term(spec["text"], signature)
        except ToposlangError as exc:
            raise ProjectError(f"term {spec['name']!r}: {exc}", f"{ptr}/text") from exc
        registry.add(project.terms, spec["name"],
                     LoadedTerm(spec["signature"], context, term, spec["text"]),
                     ptr, "term")

    for i, spec in enumerate(document.get("proofs", ())):
        from .prop.proofs import Proof, ProofLine
        from .prop.syntax import parse_formula
        ptr = f"/proofs/{i}"
        lines = []
        for j, line in enumerate(spec["lines"]):
            try:
                formula = parse_formula(line["formula"])
            except ToposlangError as exc:
                raise ProjectError(f"proof {spec['name']!r} line {j + 1}: {exc}",
                                   f"{ptr}/lines/{j}/formula") from exc
            lines.append(ProofLine(formula, line["rule"],
                                   tuple(line.get("refs", ())), line.get("schema")))
        registry.add(project.proofs, spec["name"], Proof(tuple(lines)), ptr, "proof")

    return project


def _sequent_from_json(spec: Mapping, pointer: str) -> Sequent:
    from .local.axioms import Sequent
    from .local.check import annotate
    from .local.syntax import parse_term, parse_type
    try:
        conclusion = parse_term(spec["conclusion"])
        context = frozenset(parse_term(t) for t in spec.get("context", ()))
    except ToposlangError as exc:
        raise ProjectError(f"sequent: {exc}", pointer) from exc
    var_types = {vname: parse_type(tname)
                 for vname, tname in spec.get("variables", {}).items()}
    return Sequent(frozenset(annotate(t, var_types) for t in context),
                   annotate(conclusion, var_types))


def _topos_rep_from_json(project: Project, spec: Mapping, ptr: str) -> ToposRep:
    from .category import one_object_category
    from .local.axioms import pack_signature
    from .presheaf import NatTransform, Presheaf, PresheafError
    from .rep import ToposRep, _completed, interpret_type
    name = spec["name"]
    signature = project.signatures.get(spec.get("signature", ""))
    if signature is None:
        raise ProjectError(f"unknown signature {spec.get('signature')!r}",
                           f"{ptr}/signature")
    backend = spec.get("backend", {"kind": "set"})
    if backend["kind"] == "set":
        base = one_object_category()
    else:
        base = project.categories.get(backend.get("category", ""))
        if base is None:
            raise ProjectError(f"unknown category {backend.get('category')!r}",
                               f"{ptr}/backend/category")
    axioms: list[tuple[str, Sequent]] = []
    for pack_name in spec.get("axiom_packs", ()):
        pack = project.axiom_packs.get(pack_name)
        if pack is None:
            raise ProjectError(f"unknown axiom pack {pack_name!r}",
                               f"{ptr}/axiom_packs")
        try:
            signature = pack_signature(signature, pack)
        except ToposlangError as exc:
            raise ProjectError(f"representation {name!r}: {exc}", ptr) from exc
        axioms.extend((f"{pack_name}.{seq_name}", seq) for seq_name, seq in pack.sequents)
    for j, sq in enumerate(spec.get("axioms", ())):
        axioms.append((sq.get("name", f"axiom{j}"),
                       _sequent_from_json(sq, f"{ptr}/axioms/{j}")))

    grounds: dict[str, Presheaf] = {}
    for gname, gspec in spec.get("grounds", {}).items():
        if "presheaf" in gspec:
            presheaf = project.presheaves.get(gspec["presheaf"])
            if presheaf is None:
                raise ProjectError(f"unknown presheaf {gspec['presheaf']!r}",
                                   f"{ptr}/grounds/{gname}")
            grounds[gname] = presheaf
        elif "set" in gspec:
            if backend["kind"] != "set":
                raise ProjectError("inline sets need the set backend",
                                   f"{ptr}/grounds/{gname}")
            elements = tuple(element_from_json(e) for e in gspec["set"])
            grounds[gname] = Presheaf(base, {base.objects[0]: elements}, {})
        else:
            raise ProjectError("ground needs a presheaf or a set",
                               f"{ptr}/grounds/{gname}")

    # The symbol arrows are built on the types this representation
    # interprets, and assigned to it once built: their tables are read in
    # file order, then the arrows built, each checked for naturality, in
    # the signature's order.
    try:
        rep = ToposRep(signature, base, grounds, {}, tuple(axioms))
    except ToposlangError as exc:
        raise ProjectError(f"representation {name!r}: {exc}", ptr) from exc
    tables = {}
    for sname, sspec in spec.get("symbols", {}).items():
        if sname not in signature.symbols:
            raise ProjectError(f"arrow for undeclared symbol {sname!r}",
                               f"{ptr}/symbols/{sname}")
        dom, cod = signature.symbols[sname]
        try:
            source = interpret_type(dom, rep)
            target = interpret_type(cod, rep)
        except ToposlangError as exc:
            raise ProjectError(f"symbol {sname!r}: {exc}", f"{ptr}/symbols/{sname}") from exc
        if "table" in sspec:
            if backend["kind"] != "set":
                raise ProjectError("plain tables need the set backend",
                                   f"{ptr}/symbols/{sname}")
            components = {base.objects[0]: _table_from_json(sspec["table"])}
        elif "components" in sspec:
            components = {obj: _table_from_json(rows)
                          for obj, rows in sspec["components"].items()}
        else:
            raise ProjectError("symbol needs a table or components",
                               f"{ptr}/symbols/{sname}")
        tables[sname] = (source, target, components)
    symbols: dict[str, NatTransform] = {}
    for sname in signature.symbols:
        if sname in tables:
            try:
                symbols[sname] = NatTransform(*tables[sname])
            except PresheafError as exc:
                raise ProjectError(f"representation {name!r}: arrow for {sname!r} is {exc}",
                                   ptr) from exc

    try:
        rep._assign(symbols)
        return _completed(rep)
    except ToposlangError as exc:
        raise ProjectError(f"representation {name!r}: {exc}", ptr) from exc
