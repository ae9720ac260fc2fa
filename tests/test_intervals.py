import copy
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_contains
from toposlang._canon import canon_key, jsonable
from toposlang.intervals import Interval, IntervalSet, Rational


def iv(lo, lc, hi, hc):
    return IntervalSet.interval(lo, lc, hi, hc)


def test_intersection_of_overlapping_closed_intervals():
    assert iv(1, True, 3, True).intersect(iv(2, True, 5, True)) == iv(2, True, 3, True)


def test_member_decides_exactly():
    assert iv(2, True, 5, True).member(Fraction(5, 2))
    assert not iv(2, True, 5, True).member(Fraction(11, 2))
    assert iv(2, True, 5, True).member(2) and iv(2, True, 5, True).member(5)
    assert not iv(2, False, 5, True).member(2)


def test_complement_of_open_unit_interval():
    # endpoint case analysis: 0 and 1 flip to closed, interior drops out
    expected = IntervalSet.from_parts([
        Interval(None, False, Fraction(0), True),
        Interval(Fraction(1), True, None, False),
    ])
    assert iv(0, False, 1, False).complement() == expected


def test_union_merges_adjacent_intervals():
    assert iv(1, True, 2, True).union(iv(2, False, 3, False)) == iv(1, True, 3, False)
    # both ends open at the shared point: the gap point stays out
    two = iv(1, True, 2, False).union(iv(2, False, 3, False))
    assert len(two.parts) == 2
    assert not two.member(2)


def test_degenerate_and_empty_normal_forms():
    assert iv(1, False, 1, False).is_empty
    assert iv(1, False, 1, True).is_empty
    assert IntervalSet.point(1) == iv(1, True, 1, True)
    assert str(IntervalSet.empty()) == "empty"
    assert str(IntervalSet.full()) == "(-inf,+inf)"


def test_interval_set_operations():
    a, b = iv(1, True, 3, True), iv(2, True, 5, True)
    assert a.intersect(b) == iv(2, True, 3, True)
    assert a.union(b) == iv(1, True, 5, True)
    assert IntervalSet.empty().complement() == IntervalSet.full()
    assert a.member(2) is True


# -- property tests against a membership-probe oracle -------------------------

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def interval_sets(draw):
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.one_of(st.none(), fractions_st))
        hi = draw(st.one_of(st.none(), fractions_st))
        lc = lo is not None and draw(st.booleans())
        hc = hi is not None and draw(st.booleans())
        parts.append(Interval(lo, lc, hi, hc))
    return IntervalSet.from_parts(parts)


def probes(*sets):
    """Endpoints, midpoints between consecutive endpoints, and outer points."""
    pts = set()
    for s in sets:
        for p in s.parts:
            if p.lo is not None:
                pts.add(p.lo)
            if p.hi is not None:
                pts.add(p.hi)
    if not pts:
        return [Fraction(0)]
    ordered = sorted(pts)
    out = [ordered[0] - 1, ordered[-1] + 1] + ordered
    out += [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return out


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_boolean_semantics_via_probes(a, b):
    u, i, c = a.union(b), a.intersect(b), a.complement()
    for q in probes(a, b, u, i, c):
        assert u.member(q) == (a.member(q) or b.member(q))
        assert i.member(q) == (a.member(q) and b.member(q))
        assert c.member(q) == (not a.member(q))


@settings(max_examples=200, deadline=None)
@given(interval_sets())
def test_normal_form_is_sorted_disjoint_nonadjacent(a):
    assert a.complement().complement() == a
    for p in a.parts:
        assert not p.is_empty
    for cur, nxt in zip(a.parts, a.parts[1:]):
        assert cur.hi_key < nxt.lo_key
        # a shared endpoint with at least one closed side would have merged
        if cur.hi is not None and nxt.lo is not None and cur.hi == nxt.lo:
            assert not cur.hi_closed and not nxt.lo_closed


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), fractions_st), st.booleans(), st.one_of(st.none(), fractions_st),
       st.booleans(), st.lists(fractions_st, max_size=3),
       st.sampled_from([Fraction, Rational]), st.sampled_from([Fraction, Rational]))
def test_contains_matches_the_endpoint_key_oracle(lo, lc, hi, hc, others, end_type, value_type):
    """Open, closed and unbounded ends, empty intervals among them, probed
    at values equal to an endpoint that are not the endpoint object."""
    lo = None if lo is None else end_type(lo)
    hi = None if hi is None else end_type(hi)
    part = Interval(lo, lo is not None and lc, hi, hi is not None and hc)
    ends = [value_type(e) for e in (lo, hi) if e is not None]
    assert all(q is not lo and q is not hi for q in ends)
    for q in ends + [value_type(q) for q in others]:
        assert part.contains(q) is reference_contains(part, q)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), st.booleans(), st.integers(-3, 3), st.booleans(),
       st.sampled_from([int, Fraction, Rational]), st.sampled_from([int, Fraction, Rational]))
def test_contains_matches_the_oracle_on_int_fraction_and_rational_ends(
        lo, lc, hi, hc, end_type, value_type):
    """Each end probed at a value equal to it, of each of the three types,
    and at the halves on either side of it."""
    part = Interval(end_type(lo), lc, end_type(hi), hc)
    for end in (lo, hi):
        for q in (value_type(end), Fraction(2 * end - 1, 2), Fraction(2 * end + 1, 2)):
            assert part.contains(q) is reference_contains(part, q), (part, q)


def test_contains_makes_no_fraction_comparison(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction comparison ran")

    part = Interval(Rational(1, 3), True, Fraction(5, 2), False)
    for name in ("_richcmp", "__eq__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert [part.contains(q) for q in (Rational(1, 3), Fraction(5, 2), Fraction(1), 0, 2)] == \
        [True, False, True, False, True]


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_rational_behaves_as_the_fraction_of_its_value(a, b):
    r, s = Rational(a), Rational(b)
    for mine, plain in ((r, a), (s, b)):
        assert type(mine) is Rational and mine == plain and plain == mine
        assert hash(mine) == hash(plain) and hash(mine) == hash(plain)
        assert (str(mine), repr(mine)) == (str(plain), repr(plain))
        assert canon_key(mine) == canon_key(plain) and jsonable(mine) == jsonable(plain)
        for again in (pickle.loads(pickle.dumps(mine)), copy.deepcopy(mine), copy.copy(mine)):
            assert type(again) is Rational and again == plain and hash(again) == hash(plain)
    assert (r < s, r <= s, r == s, r != s) == (a < b, a <= b, a == b, a != b)
    results = [r + s, r - s, r * s, -r, abs(r), r ** 2, r + 1, 1 - s]
    expected = [a + b, a - b, a * b, -a, abs(a), a ** 2, a + 1, 1 - b]
    if b:
        results.append(r / s)
        expected.append(a / b)
    for got, want in zip(results, expected):
        assert got == want and type(got) is Fraction and repr(got) == repr(want)


def test_rational_keeps_the_hash_of_its_value():
    r = Rational("-5/2")
    assert repr(r) == "Fraction(-5, 2)" and str(r) == "-5/2"
    assert hash(r) == hash(Fraction(-5, 2)) != hash(r.numerator)
    assert r._hash == hash(Fraction(-5, 2))
    assert {Fraction(-5, 2): "x"}[r] == "x" and {r: "y"}[Fraction(-5, 2)] == "y"


def test_interval_sets_keep_the_rationals_they_are_given():
    q = Rational(5, 2)
    assert IntervalSet.point(q).parts[0].lo is q
    assert iv(q, True, None, False).parts[0].lo is q
    assert IntervalSet.point(q) == IntervalSet.point(Fraction(5, 2))
    assert str(iv(1, False, q, True)) == "(1,5/2]"
