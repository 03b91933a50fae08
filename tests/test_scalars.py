from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforms.errors import FormatError
from nilforms.scalars import (
    DetRng,
    GaussianRational,
    ParamScalar,
    PolyRing,
    QI,
    format_gaussian,
    format_scalar,
    parse_gaussian,
    parse_scalar,
)

from oracles import qi_general

fractions = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 12)
)
#: int parts as well as Fraction ones (integral Fractions included)
rationals = st.one_of(st.integers(-40, 40), fractions)
gaussians = st.builds(GaussianRational, rationals, rationals)

RING = PolyRing(2, 3)


@st.composite
def scalars(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(4))
        if sum(expo) > RING.order:
            continue
        z = draw(gaussians)
        if z:
            terms[expo] = z
    return ParamScalar(RING, terms)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QI(0) == a
    assert a * QI(1) == a
    if a:
        assert a * (QI(1) / a) == QI(1)


#: half of these are real, and zero is drawn often, so the real fast
#: paths and the zero divisor are both exercised
mixed_gaussians = st.one_of(
    st.builds(GaussianRational, rationals),
    gaussians,
    st.sampled_from([GaussianRational(0), GaussianRational(0, 1), GaussianRational(-1)]),
)
operands = st.one_of(mixed_gaussians, fractions, st.integers(-3, 3))


def _int_parts(z):
    return type(z.re) is int and type(z.im) is int


def _assert_part_types(got, x, y):
    """Each part is an int or a Fraction, never a float; on operands with
    int parts every part is an int, except a quotient part that is not
    integral, which is a Fraction."""
    assert type(got.re) in (int, Fraction) and type(got.im) in (int, Fraction)
    if _int_parts(x) and _int_parts(y):
        for part in (got.re, got.im):
            assert (type(part) is int) == (part.denominator == 1)


@given(mixed_gaussians, operands, st.sampled_from(["+", "-", "*", "/"]))
@settings(max_examples=300, deadline=None)
def test_gaussian_fast_paths_equal_general_formulas(a, b, op):
    qb = b if isinstance(b, GaussianRational) else GaussianRational(b)
    apply = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
        "/": lambda x, y: x / y,
    }[op]
    for x, y, qx, qy in ((a, b, a, qb), (b, a, qb, a)):
        try:
            expected = qi_general(op, qx, qy)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match=r"division by zero in Q\(i\)"):
                apply(x, y)
            continue
        got = apply(x, y)
        assert isinstance(got, GaussianRational)
        assert (got.re, got.im) == expected
        _assert_part_types(got, qx, qy)


@given(mixed_gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_negation_fast_path(a):
    neg = -a
    assert isinstance(neg, GaussianRational)
    assert (neg.re, neg.im) == (-a.re, -a.im)
    _assert_part_types(neg, a, a)


def test_int_parts_are_kept_and_other_parts_become_fractions():
    assert _int_parts(QI(2, -3)) and _int_parts(QI())
    # a bool is not an int part, and a Fraction part stays a Fraction
    assert type(QI(True).re) is Fraction and type(QI(Fraction(2)).re) is Fraction


@given(gaussians)
@settings(max_examples=40, deadline=None)
def test_gaussian_conjugation(a):
    assert a.conj().conj() == a
    assert a.conj().im == -a.im
    assert (a * a.conj()).im == 0
    assert a.norm2() == (a * a.conj()).re


@given(gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_string_roundtrip(a):
    assert parse_gaussian(format_gaussian(a)) == a


def test_gaussian_parse_examples():
    assert parse_gaussian("-1/2") == QI(Fraction(-1, 2))
    assert parse_gaussian("i") == QI(0, 1)
    assert parse_gaussian("3-i") == QI(3, -1)
    assert parse_gaussian("1/2+3/4i") == QI(Fraction(1, 2), Fraction(3, 4))
    # integral parts are read as ints, so parsed input takes the int paths
    assert _int_parts(parse_gaussian("3-i")) and _int_parts(parse_gaussian("4/2+0i"))
    assert type(parse_gaussian("1/2+3i").re) is Fraction and type(parse_gaussian("1/2+3i").im) is int
    with pytest.raises(FormatError):
        parse_gaussian("banana")


@given(scalars(), scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_param_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_conj_is_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def _max_deg(s):
    return max((sum(k) for k in s.terms), default=0)


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_eval_ring_homomorphism(a, b):
    pt = (QI(Fraction(1, 3), Fraction(1, 5)), QI(Fraction(-2, 7)))
    assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
    # products truncate, so compare only when degrees cannot overflow
    if _max_deg(a) + _max_deg(b) <= RING.order:
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
    assert a.conj().eval(pt) == a.eval(pt).conj()


def test_truncation_kills_high_degree():
    r = PolyRing(1, 2)
    t = r.t(1)
    assert (t * t * t).terms == {}
    assert (t * t) * r.const(5) == r.const(5) * t * t


def test_scalar_string_roundtrip_examples():
    r = PolyRing(4, 4)
    s = r.const(QI(1, 1)) + r.t(1) * r.tbar(2) - r.t(3) * r.t(3)
    assert parse_scalar(format_scalar(s), r) == s
    assert format_scalar(r.zero()) == "0"
    assert parse_scalar("-t1", r) == -r.t(1)
    assert parse_scalar("(1/2+3i)*t2^2", r) == r.t(2) * r.t(2) * QI(Fraction(1, 2), 3)


def test_min_order_and_homogeneous_parts():
    r = PolyRing(2, 3)
    s = r.t(1) + r.t(1) * r.tbar(2)
    assert s.min_order() == 1
    assert s.homogeneous_part(2) == r.t(1) * r.tbar(2)
    assert s.homogeneous_part(0).terms == {}


def test_det_rng_reproducible():
    rng_a, rng_b = DetRng(11), DetRng(11)
    a = [rng_a.gaussian() for _ in range(8)]
    b = [rng_b.gaussian() for _ in range(8)]
    assert a == b
    assert [DetRng(12).gaussian() for _ in range(8)] != a
