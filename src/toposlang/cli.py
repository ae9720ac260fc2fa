"""Command-line front door.

Subcommands: `validate`, `omega`, `sub classify`, `pl
parse|represent|truth|decide|prove`, `ls typecheck|represent|check-axioms`,
and `demo excluded-middle|nondistributivity`.

Exit codes: 0 for success or a positive verdict, 1 for well-formed input
with a negative verdict (invalid formula, rejected proof, failed axiom),
2 for input errors (bad syntax, schema violations, dangling references)
and for inputs past a resource cap (`"kind": "resource-cap"`).
Canonical JSON goes to stdout (sorted keys, no whitespace, one trailing
newline) so identical inputs and seeds are byte-identical; a one-line human
summary goes to stderr.

Each command imports what it uses inside its own function, so a cold
process loads only that command's modules: `pl parse` loads the formula
parser alone, and only the commands that read a project file load the
project loader.
"""
from __future__ import annotations

import argparse
import sys

from ._canon import canon_sorted, canonical_json, jsonable
from .errors import CapExceeded, InputError, ToposlangError

OK, NEGATIVE, BAD_INPUT = 0, 1, 2


def _emit(payload, summary: str) -> None:
    sys.stdout.write(canonical_json(payload))
    sys.stderr.write(summary + "\n")


def _fail(exc: Exception) -> int:
    """Exit 2; a cap hit, raised or wrapped by the loader, is a resource-cap."""
    payload = {"error": str(exc)}
    capped = isinstance(exc, CapExceeded) or isinstance(exc.__cause__, CapExceeded)
    if capped:
        payload["kind"] = "resource-cap"
    pointer = getattr(exc, "pointer", "")
    if pointer:
        payload["pointer"] = pointer
    _emit(payload, f"{'cap exceeded' if capped else 'error'}: {exc}")
    return BAD_INPUT


def _formula_ast(node) -> dict:
    from .prop import syntax as s
    if isinstance(node, s.Prim):
        return {"op": "prim", "quantity": node.quantity, "delta": str(node.delta)}
    if isinstance(node, s.Atom):
        return {"op": "atom", "name": node.name}
    if isinstance(node, s.Not):
        return {"op": "not", "operand": _formula_ast(node.operand)}
    name = {s.And: "and", s.Or: "or", s.Implies: "implies"}[type(node)]
    return {"op": name, "left": _formula_ast(node.left), "right": _formula_ast(node.right)}


def cmd_validate(args) -> int:
    from .project import load_project
    from .prop.semantics import check_optional_axioms
    project = load_project(args.file)
    reports = {}
    for name, system in sorted(project.systems.items()):
        report = check_optional_axioms(system, seed=args.seed)
        reports[name] = {"checked": report.checked, "ok": report.ok,
                         "failures": [list(f) for f in report.failures]}
    payload = {"valid": True, "counts": project.counts(), "notes": project.notes,
               "interval_axiom_checks": reports}
    _emit(payload, f"ok: {sum(project.counts().values())} objects validated")
    return OK


def cmd_omega(args) -> int:
    from .presheaf import classifier_kit
    from .project import load_project
    project = load_project(args.file)
    cat = project.categories.get(args.category)
    if cat is None:
        return _fail(InputError(f"unknown category {args.category!r}"))
    kit = classifier_kit(cat)
    stages = {obj: [jsonable(s) for s in kit.omega.stage(obj)] for obj in cat.objects}
    restrictions = {
        m.id: [[jsonable(s), jsonable(kit.omega.apply(m.id, s))]
               for s in kit.omega.stage(m.cod)]
        for m in cat.morphisms}
    payload = {
        "category": args.category,
        "stages": stages,
        "true": {obj: jsonable(kit.true_arrow.apply(obj, ())) for obj in cat.objects},
        "restrictions": restrictions,
    }
    _emit(payload, f"classifier over {args.category}: " +
          ", ".join(f"{obj}:{len(kit.omega.stage(obj))}" for obj in cat.objects))
    return OK


def cmd_sub_classify(args) -> int:
    from .presheaf import (
        char_morphism, classifier_kit, enumerate_nats, enumerate_subobjects, subobject_of_char)
    from .project import load_project
    project = load_project(args.file)
    x = project.presheaves.get(args.presheaf)
    if x is None:
        return _fail(InputError(f"unknown presheaf {args.presheaf!r}"))
    subs = enumerate_subobjects(x)
    homs = enumerate_nats(x, classifier_kit(x.base).omega)
    entries = []
    round_trip = True
    for k in subs:
        chi = char_morphism(k)
        round_trip &= subobject_of_char(chi) == k
        entries.append({
            "parts": {obj: [jsonable(e) for e in canon_sorted(k.parts[obj])]
                      for obj in x.base.objects},
            "char": {obj: [[jsonable(e), jsonable(chi.apply(obj, e))]
                           for e in x.stage(obj)]
                     for obj in x.base.objects},
        })
    payload = {"presheaf": args.presheaf, "count": len(subs),
               "hom_count": len(homs), "bijection": len(subs) == len(homs),
               "round_trip_ok": round_trip, "subobjects": entries}
    _emit(payload, f"{len(subs)} sub-objects, {len(homs)} characteristic arrows")
    return OK if round_trip and len(subs) == len(homs) else NEGATIVE


def cmd_pl_parse(args) -> int:
    from .prop.syntax import format_formula, parse_formula
    formula = parse_formula(args.formula)
    payload = {"text": format_formula(formula), "ast": _formula_ast(formula)}
    _emit(payload, f"parsed: {payload['text']}")
    return OK


def _resolve_formula(project, text: str):
    from .prop.syntax import parse_formula
    if text in project.formulas:
        return project.formulas[text]
    return parse_formula(text)


def cmd_pl_represent(args) -> int:
    from .project import load_project
    from .prop.semantics import classical_rep
    from .prop.syntax import format_formula
    project = load_project(args.file)
    system = project.systems.get(args.system)
    if system is None:
        return _fail(InputError(f"unknown system {args.system!r}"))
    formula = _resolve_formula(project, args.formula)
    rep = classical_rep(system)
    subset = rep.represent(formula)
    payload = {"formula": format_formula(formula), "system": args.system,
               "element": sorted(subset), "top": sorted(system.states),
               "is_top": subset == frozenset(system.states)}
    _emit(payload, f"represented as {sorted(subset)}")
    return OK


def cmd_pl_truth(args) -> int:
    from .project import load_project
    from .prop.semantics import truth_value
    from .prop.syntax import format_formula
    project = load_project(args.file)
    system = project.systems.get(args.system)
    if system is None:
        return _fail(InputError(f"unknown system {args.system!r}"))
    formula = _resolve_formula(project, args.formula)
    value = truth_value(formula, args.state, system)
    payload = {"formula": format_formula(formula), "state": args.state, "value": value}
    _emit(payload, f"truth value at {args.state}: {value}")
    return OK


def cmd_pl_decide(args) -> int:
    from .prop.decide import decide
    from .prop.syntax import format_formula, parse_formula
    formula = parse_formula(args.formula)
    verdict = decide(formula, max_worlds=args.max_worlds)
    payload = verdict.to_json()
    payload["formula"] = format_formula(formula)
    if verdict.valid:
        _emit(payload, "valid")
        return OK
    _emit(payload, f"invalid: fails at {verdict.fails_at} in a "
          f"{len(verdict.countermodel.worlds)}-world model")
    return NEGATIVE


def cmd_pl_prove(args) -> int:
    from .project import load_project
    from .prop.proofs import check_proof
    from .prop.syntax import format_formula
    project = load_project(args.file)
    proof = project.proofs.get(args.proof)
    if proof is None:
        return _fail(InputError(f"unknown proof {args.proof!r}"))
    verdict = check_proof(proof)
    payload = verdict.to_json()
    payload["proof"] = args.proof
    payload["conclusion"] = format_formula(proof.conclusion)
    if verdict.accepted:
        _emit(payload, f"accepted: {payload['conclusion']}")
        return OK
    _emit(payload, f"rejected at line {verdict.bad_line}: {verdict.reason}")
    return NEGATIVE


def _context_from_args(args):
    from .local.syntax import parse_type
    context = []
    for binding in args.context or ():
        if "=" not in binding:
            raise InputError(f"context bindings look like var=Type, got {binding!r}")
        vname, tname = binding.split("=", 1)
        context.append((vname.strip(), parse_type(tname.strip())))
    return tuple(context)


def cmd_ls_typecheck(args) -> int:
    from .local.check import LsTypeError, infer_type
    from .local.syntax import format_term, parse_term
    from .project import load_project
    project = load_project(args.file)
    if args.term in project.terms:
        loaded = project.terms[args.term]
        signature = project.signatures[loaded.signature_name]
        term, context = loaded.term, loaded.context
    else:
        signature = project.signatures.get(args.signature or "")
        if signature is None:
            return _fail(InputError(
                f"unknown signature {args.signature!r}; name one with --signature"))
        term = parse_term(args.term, signature)
        context = _context_from_args(args)
    try:
        inferred = infer_type(term, dict(context), signature)
    except LsTypeError as exc:
        payload = {"well_typed": False, "error": exc.message,
                   "subterm": format_term(exc.subterm)}
        _emit(payload, f"type error: {exc}")
        return NEGATIVE
    payload = {"well_typed": True, "term": format_term(term), "type": str(inferred),
               "context": {v: str(t) for v, t in context}}
    _emit(payload, f"type: {inferred}")
    return OK


def _find_rep(project, name: str):
    if name in project.topos_reps:
        return project.topos_reps[name]
    if name in project.classical_reps:
        return project.classical_reps[name].rep
    raise InputError(f"unknown representation {name!r}")


def cmd_ls_represent(args) -> int:
    from .local.syntax import format_term, parse_term
    from .project import load_project
    from .rep import interpret_term
    project = load_project(args.file)
    rep = _find_rep(project, args.rep)
    if args.term in project.terms:
        loaded = project.terms[args.term]
        term, context = loaded.term, loaded.context
    else:
        term = parse_term(args.term, rep.signature)
        context = _context_from_args(args)
    arrow = interpret_term(term, context, rep)
    payload = {
        "term": format_term(term),
        "context": {v: str(t) for v, t in context},
        "arrow": {obj: [[jsonable(env), jsonable(arrow.apply(obj, env))]
                        for env in arrow.source.stage(obj)]
                  for obj in rep.base.objects},
    }
    _emit(payload, f"interpreted over {len(rep.base.objects)} stage(s)")
    return OK


def cmd_ls_check_axioms(args) -> int:
    from .project import load_project
    from .rep import validate_axioms
    project = load_project(args.file)
    rep = _find_rep(project, args.rep)
    report = validate_axioms(rep)
    payload = {
        "representation": args.rep,
        "checked": report.checked,
        "ok": report.ok,
        "failures": [{"axiom": w.axiom, "stage": w.stage,
                      "environment": jsonable(w.environment),
                      "got": jsonable(w.got), "expected": jsonable(w.expected)}
                     for w in report.failures],
    }
    if report.ok:
        _emit(payload, f"all {report.checked} axiom instances hold")
        return OK
    _emit(payload, f"{len(report.failures)} axiom failure(s)")
    return NEGATIVE


def cmd_demo(args) -> int:
    from .prop.demo import excluded_middle_demo, nondistributivity_demo
    if args.which == "nondistributivity":
        payload = nondistributivity_demo().to_json()
        _emit(payload, f"lhs {payload['lhs']} != rhs {payload['rhs']}")
        return OK
    payload = excluded_middle_demo()
    _emit(payload, "powerset obeys excluded middle; witnesses fail it elsewhere")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposlang",
        description="exact tooling for propositional and typed higher-order "
                    "languages in Heyting algebras and finite presheaf topoi")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized suites (default 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="load and validate a project file")
    validate.add_argument("file")
    validate.set_defaults(run=cmd_validate)

    omega = commands.add_parser("omega", help="print the sub-object classifier")
    omega.add_argument("file")
    omega.add_argument("--category", required=True)
    omega.set_defaults(run=cmd_omega)

    sub = commands.add_parser("sub", help="sub-object operations")
    sub_commands = sub.add_subparsers(dest="sub_command", required=True)
    classify = sub_commands.add_parser(
        "classify", help="enumerate sub-objects with their characteristic arrows")
    classify.add_argument("file")
    classify.add_argument("--presheaf", required=True)
    classify.set_defaults(run=cmd_sub_classify)

    pl = commands.add_parser("pl", help="propositional language")
    pl_commands = pl.add_subparsers(dest="pl_command", required=True)
    p = pl_commands.add_parser("parse", help="parse and canonically print")
    p.add_argument("formula")
    p.set_defaults(run=cmd_pl_parse)
    p = pl_commands.add_parser("represent", help="classical representation of a formula")
    p.add_argument("file")
    p.add_argument("--system", required=True)
    p.add_argument("formula", help="formula text or a formula name from the file")
    p.set_defaults(run=cmd_pl_represent)
    p = pl_commands.add_parser("truth", help="two-valued truth at a state")
    p.add_argument("file")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("formula")
    p.set_defaults(run=cmd_pl_truth)
    p = pl_commands.add_parser("decide", help="intuitionistic validity")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=4)
    p.set_defaults(run=cmd_pl_decide)
    p = pl_commands.add_parser("prove", help="check a named proof from the file")
    p.add_argument("file")
    p.add_argument("--proof", required=True)
    p.set_defaults(run=cmd_pl_prove)

    ls = commands.add_parser("ls", help="typed local language")
    ls_commands = ls.add_subparsers(dest="ls_command", required=True)
    p = ls_commands.add_parser("typecheck", help="infer the type of a term")
    p.add_argument("file")
    p.add_argument("term", help="term text or a term name from the file")
    p.add_argument("--signature")
    p.add_argument("--context", action="append", metavar="VAR=TYPE")
    p.set_defaults(run=cmd_ls_typecheck)
    p = ls_commands.add_parser("represent", help="interpret a term in a representation")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("--rep", required=True)
    p.add_argument("--context", action="append", metavar="VAR=TYPE")
    p.set_defaults(run=cmd_ls_represent)
    p = ls_commands.add_parser("check-axioms", help="validate a representation's axioms")
    p.add_argument("file")
    p.add_argument("--rep", required=True)
    p.set_defaults(run=cmd_ls_check_axioms)

    demo = commands.add_parser("demo", help="headline demonstrations")
    demo.add_argument("which", choices=["excluded-middle", "nondistributivity"])
    demo.set_defaults(run=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except ToposlangError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
