"""Representations of the typed language in a presheaf-topos backend.

A representation assigns presheaves to the ground types and natural
transformations to the function symbols; types are interpreted structurally
(products as products, power types as power objects, the truth type as the
classifier, the unit type as the terminal object) and terms compositionally
as arrows out of the product of their free-variable context.  A term is
typed once, by the typechecker, before anything is built; the interpreter
types nothing and reads all else off the presheaves.  Each subterm is
interpreted once, as one column per stage: its values listed in the order
of that stage's environments.  A context is the empty one extended one
variable at a time, so its environments come in the order of the elements
of the context product.  Variables, application, tuples and projections
map over a column; restricting the environments along an arrow is an index
list into the environments at its domain, built once per context and arrow.

A formula is decided at the identity first: one truth bit per environment,
whether it is forced there (Kripke-Joyal; Mac Lane & Moerdijk, "Sheaves in
Geometry and Logic", VI).  A natural chi: X -> Omega holds f: B -> A in
chi(x) exactly when X(f)(x) forces it at B, so the bits fix chi.  `true` is
every bit, `&` the pointwise and, and an equality is forced exactly where
its two sides are equal, with no restriction read; membership and any other
formula read the identity off their sieves.  A sieve is decoded from the
bits, through those index lists, only where a value in Omega is needed, and
looked up by its mask among Omega's own elements.
Membership is evaluation PX x X -> Omega: it reads the evaluation cells of
the container's elements, which carry their own keys.  Comprehension builds
the power transpose from blocks of its body's column over the context
extended by the binder, through the kernel under `exp_transpose`.  Every
registered axiom sequent must hold: every environment that forces its
premises forces its conclusion, decided on the bits alone, with no product
presheaf built.

A representation assigns objects and arrows of the topos, so a `ToposRep`
is valid by construction: its constructor checks that each ground lives on
the base and that each assigned symbol arrow is declared and has its
declared shape.  Every `Presheaf` is functorial and every `NatTransform`
natural by construction, so every interpreted type is a presheaf and every
interpretation natural, and `interpret_term` builds its result unchecked.
`build_rep` adds what a representation need not have: an arrow for every
declared symbol, faithfulness, and the axioms.

A proposition family, the power transpose P(R) -> P(Sigma) of ``A(s) in
D``, is typed once, and the classical preimage reads it at one value set zv
(Mac Lane & Moerdijk, I.6): the term is interpreted over <zv> x Sigma only,
<zv> the sub-presheaf of P(R) that zv generates, and transposed over <zv>.
The whole family is listed when its components are read, `apply` included.

This module builds no presheaf structure of its own: an interpreted term's
source is `presheaf.product_presheaf`, <zv> is `presheaf`'s too, and
power-object elements are built and read only through
`presheaf.exp_from_blocks`, `_transpose_columns` and `exp_column`, which
own their format.

The one-object backend gives classical set semantics.  A finite-state
system with rational value tables becomes such a representation through
`EffectiveClassicalRep`, which keeps interval arguments intensional: the
quantity-value stage holds the attained values only, and an interval set
denotes the power-object element deciding membership against them.
"""
from __future__ import annotations

import itertools
from operator import and_, eq, itemgetter, not_, or_
from typing import Mapping, Sequence

from ._canon import canon_sorted
from ._record import field, record
from .category import FiniteCategory, one_object_category, principal_sieve
from .errors import ToposlangError
from .intervals import IntervalSet
from .local.axioms import Sequent
from .local.check import LsTypeError, _infer_type, free_vars, infer_type
from .local.syntax import (
    AndT,
    App,
    Compr,
    Eq,
    In,
    Proj,
    Signature,
    Star,
    Term,
    TrueLit,
    Tup,
    Var,
    format_term,
)
from .local.types import (
    OMEGA,
    RQ,
    SIGMA,
    GroundType,
    PowerType,
    ProductType,
    QuantityType,
    StateType,
    TruthType,
    TypeExpr,
    UnitType,
)
from .presheaf import (
    ClassifierKit,
    NatTransform,
    Presheaf,
    _product_base,
    _transpose_columns,
    classifier_kit,
    exp_column,
    exp_from_blocks,
    exponential,
    power_object,
    power_transpose,
    product_presheaf,
)
from .prop.semantics import ClassicalSystem


class RepresentationError(ToposlangError):
    pass


class FaithfulnessError(RepresentationError):
    pass


@record
class AxiomWitness:
    axiom: str
    stage: str
    environment: tuple
    got: frozenset
    expected: frozenset


@record
class AxiomReport:
    checked: int = 0
    failures: list[AxiomWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class ToposRep:
    """A representation: backend category, ground and symbol arrows, and the
    axiom sequents it is required to satisfy.

    RepresentationError unless each ground lives on the base and each
    assigned symbol arrow is declared and has the shape `interpret_type`
    gives its declared type; presheaves and arrows are lawful by
    construction, so nothing else is checked.  Symbols may be left
    unassigned and the axioms are not checked: `build_rep` does both."""

    def __init__(self, signature: Signature, base: FiniteCategory,
                 grounds: Mapping[str, Presheaf],
                 symbols: Mapping[str, NatTransform],
                 axioms: Sequence[tuple[str, Sequent]] = ()):
        self.signature = signature
        self.base = base
        self.kit = classifier_kit(base)
        self.grounds = dict(grounds)
        self.symbols: dict[str, NatTransform] = {}
        self.axioms = tuple(axioms)
        self._type_cache: dict[TypeExpr, Presheaf] = {}
        for name, presheaf in self.grounds.items():
            if presheaf.base != base:
                raise RepresentationError(f"ground {name!r} lives on a different base")
        self._assign(symbols)

    def _assign(self, symbols: Mapping[str, NatTransform]) -> None:
        """Check the symbol arrows as the constructor does, then assign them.
        A caller that needs the interpreted types to build its arrows builds
        the representation with none and assigns them here, so the types
        are interpreted once, into this representation's cache."""
        for name, (dom, cod) in self.signature.symbols.items():
            arrow = symbols.get(name)
            if arrow is None:
                continue
            if arrow.source != interpret_type(dom, self) or \
                    arrow.target != interpret_type(cod, self):
                raise RepresentationError(f"arrow for {name!r} has the wrong shape")
        extra = set(symbols) - set(self.signature.symbols)
        if extra:
            raise RepresentationError(f"arrows assigned to undeclared symbols {sorted(extra)}")
        self.symbols.update(symbols)

    def ground(self, name: str) -> Presheaf:
        if name not in self.grounds:
            raise RepresentationError(f"ground type {name!r} has no assigned object")
        return self.grounds[name]


def interpret_type(t: TypeExpr, rep: ToposRep) -> Presheaf:
    """Structural interpretation of a type expression as a presheaf."""
    cached = rep._type_cache.get(t)
    if cached is not None:
        return cached
    if isinstance(t, UnitType):
        out = rep.kit.terminal
    elif isinstance(t, TruthType):
        out = rep.kit.omega
    elif isinstance(t, StateType):
        out = rep.ground("Sigma")
    elif isinstance(t, QuantityType):
        out = rep.ground("R")
    elif isinstance(t, GroundType):
        out = rep.ground(t.name)
    elif isinstance(t, ProductType):
        out = product_presheaf([interpret_type(f, rep) for f in t.factors])
    elif isinstance(t, PowerType):
        out = power_object(interpret_type(t.inner, rep))
    else:
        raise RepresentationError(f"unknown type expression {t!r}")
    rep._type_cache[t] = out
    return out


class _Context:
    """A context as the interpretation walks it, with no types: each
    variable's slot in an environment and each stage's environments in
    order.  Every context is the empty one, one environment () per stage,
    extended one variable at a time (`extend`): a context
    extended by a variable over the presheaf `binder` lists, at each stage
    B, each environment of the `outer` context with every xv of X(B) in
    turn, so the variable's slot is the outer environments' `width`, a count
    of extensions: a comprehension binder may shadow a name.  A term's own
    context so lists its environments in `itertools.product` order, that of
    `product_presheaf`, and a comprehension's body is walked in its context
    extended by the binder."""

    def __init__(self, cat: FiniteCategory, names: dict, envs: Mapping[str, Sequence],
                 outer: "_Context | None" = None, binder: Presheaf | None = None):
        self.cat, self.names, self.envs = cat, names, envs
        self.outer, self.binder = outer, binder
        self.width = 0 if outer is None else outer.width + 1
        self._reads: dict[str, list[int]] = {}
        self._vars: dict[str, dict[str, list]] = {}

    def extend(self, name: str, x: Presheaf) -> "_Context":
        envs = {b: [env + (xv,) for env in self.envs[b] for xv in x.stage(b)]
                for b in self.cat.objects}
        return _Context(self.cat, {**self.names, name: self.width}, envs, outer=self, binder=x)

    def column(self, name: str) -> dict[str, list]:
        """The variable's column: per stage, its value in each environment.
        Read once per context and shared, so no caller may mutate it."""
        out = self._vars.get(name)
        if out is None:
            get = itemgetter(self.names[name])
            out = self._vars[name] = {obj: list(map(get, envs)) for obj, envs in self.envs.items()}
        return out

    def reads(self, f: str) -> Sequence[int]:
        """For each environment at cod(f), the position of its restriction
        along f among the environments at dom(f).  Every slot's type is a
        presheaf, so an identity keeps each environment in place."""
        dom = self.cat.morphism(f).dom
        if f == self.cat.id_of(dom):
            return range(len(self.envs[dom]))
        out = self._reads.get(f)
        if out is None:
            out = self._reads[f] = self._restrict(f)
        return out

    def _restrict(self, f: str) -> list[int]:
        if self.outer is None:
            return [0]  # the empty context's one environment restricts to itself
        m = self.cat.morphism(f)
        # Outer position j and binder position t sit at j * |X(dom)| + t.
        x = self.binder
        position = {xv: t for t, xv in enumerate(x.stage(m.dom))}
        width = len(x.stage(m.dom))
        col = [position[x.apply(f, xv)] for xv in x.stage(m.cod)]
        return [j * width + t for j in self.outer.reads(f) for t in col]


def interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                   rep: ToposRep) -> NatTransform:
    """Compositional semantics: an arrow from the context product to the
    interpretation of the term's type.  Closed truth-valued terms come out
    as global elements of the classifier (arrows from the terminal object).

    Each subterm is interpreted once, as the columns {stage: [value, ...]}
    of an arrow out of its context's product, aligned with the context's
    environments at that stage (see `_Context`).  Its parent reads those
    columns: a comprehension its body's column over the context extended by
    the binder, one block of |X(B)| values per environment.  A formula is
    decided at the identity first (`_truth`), and `true`, `&` and `=` decode
    their sieves from that, through the index lists restricting
    environments along each arrow; `true` and `&` are interpreted as they
    stand, not through `desugar_connectives`.  The root's columns are the
    components, natural because the grounds are presheaves and the symbol
    arrows natural, so the result is built unchecked.  The term is typed
    here, once, before anything but the context's types is built.
    """
    factors = [interpret_type(t, rep) for _, t in context]
    target = interpret_type(infer_type(term, dict(context), rep.signature), rep)
    return _interpret_term(term, context, rep, factors, target)


def _interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                    rep: ToposRep, factors: Sequence[Presheaf],
                    target: Presheaf) -> NatTransform:
    """`interpret_term` out of the product of `factors`, one sub-presheaf of
    each variable's type, into `target`, which the caller interprets from
    the term's type.  A term's value at an environment reads only that
    environment and its restrictions, which stay in the product, so the
    result is the whole interpretation restricted to it."""
    source = product_presheaf(factors) if factors else rep.kit.terminal
    ctx = _Context(rep.base, {}, {b: [()] for b in rep.base.objects})
    for (name, _), x in zip(context, factors):  # admitted by `product_presheaf`
        ctx = ctx.extend(name, x)
    columns = _columns(term, ctx, rep)
    return NatTransform._certified(
        source, target, {obj: dict(zip(source.at[obj], columns[obj])) for obj in rep.base.objects})


def _truth(n: Term, ctx: _Context, rep: ToposRep) -> dict[str, list[bool]]:
    """Per stage, whether each environment of ctx forces the formula n: that
    is, whether the identity lies in the sieve n takes there.  A natural
    chi: X -> Omega holds f: B -> A in chi(x) exactly when the identity of
    B lies in chi(X(f)(x)), so these bits fix chi (`_sieves` reads it back).
    An equality holds at the identity exactly when its sides are equal."""
    cat, envs = rep.base, ctx.envs
    if isinstance(n, TrueLit):
        return {obj: [True] * len(envs[obj]) for obj in cat.objects}
    if isinstance(n, AndT):
        left, right = _truth(n.left, ctx, rep), _truth(n.right, ctx, rep)
        return {obj: list(map(and_, left[obj], right[obj])) for obj in cat.objects}
    if isinstance(n, Eq):
        left, right = _columns(n.left, ctx, rep), _columns(n.right, ctx, rep)
        return {obj: list(map(eq, left[obj], right[obj])) for obj in cat.objects}
    sieves = _columns(n, ctx, rep)
    return {obj: [cat.id_of(obj) in s for s in sieves[obj]] for obj in cat.objects}


def _sieves(truth: Mapping[str, Sequence[bool]], ctx: _Context,
            kit: ClassifierKit) -> dict[str, list[frozenset]]:
    """The sieve column of a formula from its truth column (see `_truth`):
    at an environment x of stage A, the arrows f: B -> A whose restriction
    of x forces the formula, read through the index lists of ctx.  Each
    distinct pattern is looked up by its mask over `cat.into(A)` in the
    kit's `sieves`, so every value is one of Omega's elements."""
    cat, out = ctx.cat, {}
    for obj in cat.objects:
        into = cat.into(obj)
        patterns = list(zip(*(map(truth[cat.morphism(f).dom].__getitem__, ctx.reads(f))
                              for f in into)))
        bits, by_mask = [1 << k for k in range(len(into))], kit.sieves[obj]
        sieves = {p: by_mask[sum(itertools.compress(bits, p))] for p in set(patterns)}
        out[obj] = list(map(sieves.__getitem__, patterns))
    return out


def _columns(n: Term, ctx: _Context, rep: ToposRep) -> dict[str, list]:
    """The columns {stage: [value, ...]} of term n, aligned with the
    environments of ctx at each stage (see `interpret_term`)."""
    cat, envs = rep.base, ctx.envs
    if isinstance(n, Var):
        if n.name not in ctx.names:
            raise RepresentationError(f"unbound variable {n.name!r}")
        return ctx.column(n.name)
    if isinstance(n, Star):
        return {obj: [()] * len(envs[obj]) for obj in cat.objects}
    if isinstance(n, App):
        if n.symbol not in rep.symbols:
            raise RepresentationError(f"unassigned function symbol {n.symbol!r}")
        components, arg = rep.symbols[n.symbol].components, _columns(n.arg, ctx, rep)
        return {obj: list(map(components[obj].__getitem__, arg[obj])) for obj in cat.objects}
    if isinstance(n, Tup):
        items = [_columns(t, ctx, rep) for t in n.items]
        return {obj: list(zip(*(t[obj] for t in items))) for obj in cat.objects}
    if isinstance(n, Proj):
        item, get = _columns(n.item, ctx, rep), itemgetter(n.index - 1)
        return {obj: list(map(get, item[obj])) for obj in cat.objects}
    if isinstance(n, (TrueLit, AndT, Eq)):
        return _sieves(_truth(n, ctx, rep), ctx, rep.kit)
    if isinstance(n, In):
        container, element = _columns(n.container, ctx, rep), _columns(n.element, ctx, rep)
        return {obj: exp_column(cat, obj, container[obj], element[obj]) for obj in cat.objects}
    if isinstance(n, Compr):
        # The body's column over ctx extended by the binder holds |X(B)|
        # values per outer environment, so it is transposed over ctx.
        x = interpret_type(n.var.vtype, rep)
        body = _columns(n.body, ctx.extend(n.var.name, x), rep)
        return _transpose_columns(cat, x, {b: len(envs[b]) for b in cat.objects}, body,
                                  ctx.reads)
    raise RepresentationError(f"cannot interpret term former {type(n).__name__}")


def validate_axioms(rep: ToposRep,
                    axioms: Sequence[tuple[str, Sequent]] | None = None) -> AxiomReport:
    """Each sequent must hold at every stage and environment: the meet of its
    premises' truth values lies below its conclusion's, and with no premises
    the conclusion is the principal sieve outright.

    By the fact behind `_truth`, that holds exactly when every environment
    forcing the premises forces the conclusion, so each formula is decided
    at the identity alone, over the sequent's context, and no product
    presheaf is built.  The context comes from one typing walk per formula
    (`_sequent_context`).  Its variables are sorted, and it is built by
    extending the longest of its prefixes that an earlier sequent of this
    call built, one variable at a time; each new context is admitted by
    `_product_base` before any of its environments is built.  Only a
    failing sequent decodes its sieve columns, to list every failing
    environment as a witness.  RepresentationError names a formula whose
    type is not Omega."""
    report = AxiomReport()
    cat = rep.base
    built: dict[tuple, _Context] = {(): _Context(cat, {}, {b: [()] for b in cat.objects})}
    for name, seq in (rep.axioms if axioms is None else tuple(axioms)):
        premises = sorted(seq.context, key=_premise_order)
        context = _sequent_context(name, [seq.conclusion] + premises, rep)
        ctx = built.get(context)
        if ctx is None:
            factors = [interpret_type(t, rep) for _, t in context]
            _product_base(factors)  # CapExceeded before any environment is built
            k = len(context) - 1
            while context[:k] not in built:
                k -= 1
            ctx = built[context[:k]]
            for i in range(k, len(context)):
                ctx = built[context[:i + 1]] = ctx.extend(context[i][0], factors[i])
        concl = _truth(seq.conclusion, ctx, rep)
        held = [_truth(p, ctx, rep) for p in premises]
        report.checked += sum(map(len, ctx.envs.values()))
        if all(_holds(concl[obj], [p[obj] for p in held]) for obj in cat.objects):
            continue
        got, bounds = _sieves(concl, ctx, rep.kit), [_sieves(p, ctx, rep.kit) for p in held]
        for obj in cat.objects:
            top = principal_sieve(cat, obj)
            for i, env in enumerate(ctx.envs[obj]):
                bound = top
                for p in bounds:
                    bound = bound & p[obj][i]
                if not bound <= got[obj][i]:
                    report.failures.append(AxiomWitness(name, obj, env, got[obj][i], bound))
    return report


def _premise_order(formula: Term) -> tuple[str, str]:
    """Premises are checked in `format_term` order, and premises that print
    alike, differing only in annotations, in `repr` order, so the error a
    sequent raises does not depend on the hash seed."""
    return format_term(formula), repr(formula)


def _sequent_context(name: str, formulas: Sequence[Term],
                     rep: ToposRep) -> tuple[tuple[str, TypeExpr], ...]:
    """The typed free variables of a sequent's formulas, sorted, each formula
    checked to be of type Omega.  One typing walk per formula records the
    variables' annotations as it types it.  If anything is irregular (an
    LsTypeError, a formula not of type Omega, a bare free variable or one
    typed two ways), the formulas are walked again in two passes, free
    variables then types, in the same order, so the first error is raised
    as those passes find it, and a variable annotated at one occurrence
    and bare at another takes its annotation."""
    var_types: dict[str, TypeExpr] = {}
    try:
        if all(_infer_type(f, None, rep.signature, var_types) == OMEGA for f in formulas):
            return tuple(sorted(var_types.items()))
    except LsTypeError:
        pass
    var_types = {}
    for formula in formulas:
        for vname, annots in free_vars(formula).items():
            types = {t for t in annots if t is not None}
            if not types:
                raise RepresentationError(
                    f"axiom {name!r} has untyped free variable {vname!r}")
            if len(types) > 1 or (vname in var_types and var_types[vname] not in types):
                raise RepresentationError(
                    f"axiom {name!r} types variable {vname!r} inconsistently")
            var_types[vname] = types.pop()
    for formula in formulas:
        got = infer_type(formula, var_types, rep.signature)
        if got != OMEGA:
            raise RepresentationError(
                f"axiom {name!r} has formula {format_term(formula)!r} of type {got}, "
                "not Omega")
    return tuple(sorted(var_types.items()))


def _holds(conclusion: Sequence[bool], premises: Sequence[Sequence[bool]]) -> bool:
    """Whether every environment forcing all the premises forces the
    conclusion, given their truth columns at one stage."""
    if premises:
        conclusion = map(or_, conclusion, map(not_, map(all, zip(*premises))))
    return all(conclusion)


def build_rep(signature: Signature, base: FiniteCategory,
              grounds: Mapping[str, Presheaf],
              symbols: Mapping[str, NatTransform],
              axioms: Sequence[tuple[str, Sequent]] = ()) -> ToposRep:
    """Construct a representation, which checks its grounds and symbol
    arrows (see `ToposRep`), then check the rest: every declared symbol has
    an arrow, quantity symbols are assigned faithfully, and every axiom
    holds."""
    return _completed(ToposRep(signature, base, grounds, symbols, axioms))


def _completed(rep: ToposRep) -> ToposRep:
    """`rep` once `build_rep`'s own checks pass on it."""
    signature = rep.signature
    for name in signature.symbols:
        if name not in rep.symbols:
            raise RepresentationError(f"function symbol {name!r} has no assigned arrow")
    quantity = signature.quantity_symbols()
    for i, a in enumerate(quantity):
        for b in quantity[i + 1:]:
            if rep.symbols[a] == rep.symbols[b]:
                raise FaithfulnessError(
                    f"quantity symbols {a!r} and {b!r} share one arrow; "
                    "the representation is not faithful")
    report = validate_axioms(rep)
    if not report.ok:
        w = report.failures[0]
        raise RepresentationError(
            f"axiom {w.axiom!r} fails at stage {w.stage!r}, environment {w.environment!r}: "
            f"got {sorted(w.got)}, needed at least {sorted(w.expected)}")
    return rep


# -- proposition families ---------------------------------------------------------

# The context of the proposition ``A(s) in D`` that a family transposes.
_FAMILY_CONTEXT = (("D", PowerType(RQ)), ("s", SIGMA))


class _PropFamily(NatTransform):
    """The power transpose P(R) -> P(Sigma) of the arrow P(R) x Sigma ->
    Omega interpreting ``symbol(s) in D``, its components listed when
    first read.

    The term is typed once, here.  By the Yoneda lemma the value at zv in
    P(R)(A) needs only <zv>, the sub-presheaf of P(R) that zv generates
    (`_Exponential._generated`): `_value` interprets the term over <zv> x
    Sigma, transposes that over <zv> and reads the value at zv, so it lists
    neither P(R) nor P(Sigma), and no hom-search cap applies to it.  A
    caller that built zv in P(R)(A), as the classical preimage does, reads
    `_value` alone.  The first read of `components`, through `apply`,
    equality or the hash too, lists P(R), with the CapExceeded of its hom
    search where that passes a cap, and applies `_value` to each element;
    `apply` is `NatTransform.apply` on those components.  Natural, as every
    power transpose is, so built unchecked."""

    def __init__(self, symbol: str, rep: ToposRep):
        self._term = In(App(symbol, Var("s")), Var("D"))
        infer_type(self._term, dict(_FAMILY_CONTEXT), rep.signature)
        self.source = interpret_type(PowerType(RQ), rep)
        self._sigma = interpret_type(SIGMA, rep)
        if symbol not in rep.symbols:
            raise RepresentationError(f"unassigned function symbol {symbol!r}")
        # P(Sigma) as the transposes make it, from the kit already held:
        # `interpret_type` would read `classifier_kit` again.
        self.target = exponential(self._sigma, rep.kit.omega)
        self._rep, self._hash = rep, None

    def __getattr__(self, name):
        # Called only for an attribute not yet set: `components` until the
        # first read lists it.
        if name != "components":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.components = {obj: {zv: self._value(obj, zv) for zv in self.source.stage(obj)}
                           for obj in self.source.base.objects}
        return self.components

    def _value(self, obj: str, zv):
        generated = self.source._generated(obj, zv)
        flipped = _interpret_term(self._term, _FAMILY_CONTEXT, self._rep,
                                  (generated, self._sigma), self._rep.kit.omega)
        return power_transpose(flipped, generated, self._sigma).components[obj][zv]


def prop_family(symbol: str, rep: ToposRep) -> NatTransform:
    """Power transpose of the arrow P(R) x Sigma -> Omega interpreting
    ``symbol(s) in D``, as a family of state subsets indexed by value sets,
    listed when its components are first read, `apply` included (see
    `_PropFamily`).  Built anew on each call, which costs little:
    the interpreted types and both power objects are kept where they were
    already, and nothing on the representation refers back to a family, so
    both are freed by reference counting."""
    return _PropFamily(symbol, rep)


# -- classical backend --------------------------------------------------------------

@record(frozen=True)
class EffectiveClassicalRep:
    """A finite-state system lifted to the one-object backend.

    The value stage holds exactly the attained quantity values, so the real
    line is never enumerated: an interval set stays intensional until
    `delta_element` decides it on those values.  The stage and the symbol
    arrows hold the system's own value objects, one hash-keeping
    `intervals.Rational` per distinct value (see `ClassicalSystem`), so the
    power object's cells and every lookup of a value find it by identity
    and hash it once.  The system is validated, so its stages and arrows
    are built unchecked.  A preimage reads a `prop_family`, built for it and
    dropped after it, at the interval set's element alone: on the one
    object that element generates only itself, so membership is
    interpreted over one environment per state and transposed into one
    subset of states.  Neither P(R), 2^values subsets, nor P(Sigma),
    2^states, is listed, so a preimage costs time linear in the states.
    Only reading the family's components, through its `apply`, equality
    or hash too, lists P(R), refused from 18 values on, past the hom
    search's cell cap.  Nothing the representation holds refers back to
    the family.
    """
    system: ClassicalSystem
    rep: ToposRep

    @property
    def point(self) -> str:
        return self.rep.base.objects[0]

    @staticmethod
    def build(system: ClassicalSystem) -> "EffectiveClassicalRep":
        base = one_object_category()
        pt = base.objects[0]
        signature = Signature({name: (SIGMA, RQ) for name in system.quantities})
        states = Presheaf._canonical(base, {pt: tuple(canon_sorted(set(system.states)))}, {})
        value_obj = Presheaf._canonical(base, {pt: tuple(canon_sorted(
            {v for table in system.quantities.values() for v in table.values()}))}, {})
        # Total functions on the one object's stage: natural, so unchecked.
        arrows = {name: NatTransform._certified(states, value_obj, {pt: {
                      s: table[s] for s in system.states}})
                  for name, table in system.quantities.items()}
        built = build_rep(signature, base, {"Sigma": states, "R": value_obj}, arrows)
        return EffectiveClassicalRep(system, built)

    def delta_element(self, delta: IntervalSet):
        """The power-object element of the value stage deciding membership in
        the interval set: its cells hold Omega's top and empty sieves."""
        base, pt, values, kit = self.rep.base, self.point, self.rep.ground("R"), self.rep.kit
        top, bottom = kit.true_arrow.components[pt][()], kit.sieves[pt][0]
        row = [[top if delta.member(v) else bottom for v in values.stage(b)]
               for b, _ in base.into_by_key(pt)]
        return exp_from_blocks(base, pt, values, [row])[0]

    def preimage(self, symbol: str, delta: IntervalSet) -> frozenset:
        """States whose value lands in the interval set, through the power
        transpose of the proposition arrow."""
        pt, base = self.point, self.rep.base
        states = self.rep.ground("Sigma").stage(pt)
        # `delta_element` builds a member of P(R)'s stage: read at it alone.
        subset_element = prop_family(symbol, self.rep)._value(pt, self.delta_element(delta))
        truth = exp_column(base, pt, [subset_element] * len(states), states)
        top = self.rep.kit.true_arrow.components[pt][()]
        return frozenset(s for s, value in zip(states, truth) if value == top)
