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
gaussians = st.builds(GaussianRational, fractions, fractions)

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
    st.builds(GaussianRational, fractions),
    gaussians,
    st.sampled_from([GaussianRational(0), GaussianRational(0, 1), GaussianRational(-1)]),
)
operands = st.one_of(mixed_gaussians, fractions, st.integers(-3, 3))


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
        assert type(got.re) is Fraction and type(got.im) is Fraction


@given(mixed_gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_negation_fast_path(a):
    neg = -a
    assert isinstance(neg, GaussianRational)
    assert (neg.re, neg.im) == (-a.re, -a.im)
    assert type(neg.re) is Fraction and type(neg.im) is Fraction


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
