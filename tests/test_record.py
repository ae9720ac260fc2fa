"""The record classes against their `dataclasses` twins.

Every `@record` class under src/ is compared with the class that
`dataclasses.dataclass` builds from the same class statement (see
`helpers.record_twins`): constructor outcomes, `__post_init__` rejections
included, `repr`, `==` and `!=` within and across classes, `hash` and
hashability, frozen assignment and deletion, exception `args`, defaults and
the independence of `default_factory` values.  Hashes hash strings, so the
comparison also runs under several hash seeds in CI.
"""
import dataclasses
from fractions import Fraction

import pytest
from helpers import SRC, record_twins

from toposlang.heyting import powerset_algebra
from toposlang.local.types import RQ, SIGMA
from toposlang.prop.semantics import ClassicalSystem

pytestmark = pytest.mark.hash_seeds

TWINS = record_twins()
SYSTEM = ClassicalSystem(("s0", "s1"), {"A": {"s0": Fraction(1), "s1": Fraction(5, 2)}})

# Arguments that pass the `__post_init__` checks, and some that fail them;
# the generic arguments below fail most of those checks already.
EXTRA_ARGS = {
    "Interval": [(Fraction(0), True, Fraction(1), False), (None, False, None, False),
                 (None, True, Fraction(1), False), (Fraction(0), True, None, True)],
    "Signature": [({"A": (SIGMA, RQ)},), ({"A": (SIGMA, RQ)}, ("G", "H")),
                  ({"A": (SIGMA, SIGMA)},), ({"A": (SIGMA, RQ)}, ("Omega",))],
    "KripkeModel": [(("w",), frozenset({("w", "w")}), {}),
                    (("w", "v"), frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
                     {"a": frozenset({"w", "v"})}),
                    (("w",), frozenset(), {}),
                    (("w",), frozenset({("w", "w"), ("w", "u")}), {}),
                    (("w", "v"), frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
                     {"a": frozenset({"w"})})],
    "ClassicalSystem": [(SYSTEM.states, SYSTEM.quantities), (("s0", "s9"), SYSTEM.quantities)],
    "ClassicalRep": [(SYSTEM, powerset_algebra(SYSTEM.states))],
}


def outcome(thunk):
    """A call's value, or the kind and message of what it raised; the
    frozen-field error is an AttributeError under either decorator."""
    try:
        return "ok", thunk()
    except AttributeError as exc:
        return AttributeError, str(exc)
    except Exception as exc:
        return type(exc), str(exc)


def argument_sets(twin) -> list[tuple]:
    fields = dataclasses.fields(twin)
    generic = tuple(f"v{i}" for i in range(len(fields)))
    required = tuple(f"v{i}" for i, f in enumerate(fields)
                     if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    other = generic[:-1] + ("w",) if generic else generic
    return [generic, other, required] + EXTRA_ARGS.get(twin.__name__, [])


def test_every_record_class_has_a_twin_and_src_imports_no_dataclasses():
    assert len(TWINS) == 51
    assert len({cls for cls, _ in TWINS}) == 51
    for cls, twin in TWINS:
        assert twin is not cls and dataclasses.is_dataclass(twin)
        assert (twin.__qualname__, twin.__module__) == (cls.__qualname__, cls.__module__)
    sources = [p for p in SRC.rglob("*.py")
               if "import dataclasses" in p.read_text(encoding="utf-8")
               or "from dataclasses" in p.read_text(encoding="utf-8")]
    assert sources == []


@pytest.mark.parametrize("cls, twin", TWINS, ids=[cls.__name__ for cls, _ in TWINS])
def test_record_class_behaves_as_its_dataclass_twin(cls, twin):
    frozen = twin.__dataclass_params__.frozen
    names = [f.name for f in dataclasses.fields(twin)]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    for args in argument_sets(twin):
        made, twin_made = outcome(lambda: cls(*args)), outcome(lambda: twin(*args))
        if twin_made[0] != "ok":
            assert made == twin_made
            continue
        assert made[0] == "ok"
        ours, theirs = made[1], twin_made[1]
        again, twin_again = cls(*args), twin(*args)
        assert repr(ours) == repr(theirs)
        assert outcome(lambda: str(ours)) == outcome(lambda: str(theirs))
        assert (ours == again, ours != again) == (theirs == twin_again, theirs != twin_again)
        assert (ours == args, ours != args) == (theirs == args, theirs != args)
        assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))
        if isinstance(theirs, BaseException):
            assert ours.args == theirs.args
        for name in names:
            assert getattr(ours, name) == getattr(theirs, name)
            if name not in dict(zip(names, args)):
                # a default; a factory's value is new for each instance
                assert (getattr(ours, name) is getattr(again, name)) == \
                    (getattr(theirs, name) is getattr(twin_again, name))
        for target in (ours, theirs):
            target.__dict__.setdefault("extra", None)
        for name in names + ["extra"]:
            assert outcome(lambda: setattr(ours, name, "x")) == \
                outcome(lambda: setattr(theirs, name, "x"))
            assert outcome(lambda: delattr(ours, name)) == \
                outcome(lambda: delattr(theirs, name))
        assert frozen == (outcome(lambda: setattr(ours, names[0] if names else "x", 1))[0]
                          is AttributeError)


def test_equality_across_classes_matches_the_twins():
    # Records of different classes never compare equal, even with equal
    # fields, which is why they are not named tuples.
    ours, theirs = [], []
    for cls, twin in TWINS:
        args = argument_sets(twin)[0]
        made, twin_made = outcome(lambda: cls(*args)), outcome(lambda: twin(*args))
        if made[0] == twin_made[0] == "ok":
            ours.append(made[1])
            theirs.append(twin_made[1])
    assert len(ours) >= 45
    for a, twin_a in zip(ours, theirs):
        for b, twin_b in zip(ours, theirs):
            assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b)
            assert (a == b) == (a is b)


def test_written_methods_win_over_generated_ones():
    # No record class under src/ writes these, so both decorators get the
    # same small classes here.
    from toposlang._record import record

    def classes(build):
        @build(frozen=True)
        class Written:
            x: int

            def __repr__(self):
                return "written"

            def __eq__(self, other):
                return True

        @build
        class Hashed:
            x: int

            def __hash__(self):
                return 7

        return Written, Hashed

    for written, hashed in (classes(record), classes(dataclasses.dataclass)):
        assert repr(written(1)) == "written" and written(1) == written(2)
        assert hash(written(1)) == hash((1,))
        assert hash(hashed(1)) == 7 and hashed(1) == hashed(1) and hashed(1) != hashed(2)
