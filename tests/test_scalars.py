import operator
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforms.algebra import FormAlgebra, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex
from nilforms.errors import FormatError
from nilforms.positivity import hermitian_matrix_of, volume_coefficient
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

from oracles import FractionPartGaussian, TupleScalar

fractions = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 12)
)
#: int parts as well as Fraction ones (integral Fractions included)
rationals = st.one_of(st.integers(-40, 40), fractions)
gaussians = st.builds(GaussianRational, rationals, rationals)

RING = PolyRing(2, 3)


@st.composite
def scalars(draw):
    """A ParamScalar of RING, its monomial keys built by ``PolyRing.key``."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(4))
        if sum(expo) > RING.order:
            continue
        z = draw(gaussians)
        if z:
            terms[RING.key(expo)] = z
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


def _assert_part_rule(z):
    """Each part is an int exactly when it is integral, and a Fraction
    otherwise (never a float)."""
    for part in (z.re, z.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (part.denominator == 1)


def _oracle(x):
    return FractionPartGaussian(x.re, x.im) if isinstance(x, GaussianRational) else x


def _assert_same(got, expected):
    """got, a GaussianRational, has the value, string and truth value of
    expected, a FractionPartGaussian."""
    assert isinstance(got, GaussianRational)
    assert (got.re, got.im) == (expected.re, expected.im)
    assert str(got) == str(expected) and bool(got) == bool(expected)
    _assert_part_rule(got)


_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _assert_op_matches_oracle(op, x, y):
    """x op y equals the oracle's, or both divide by zero."""
    apply = _APPLY[op]
    try:
        expected = apply(_oracle(x), _oracle(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match=r"division by zero in Q\(i\)"):
            apply(x, y)
        return
    _assert_same(apply(x, y), expected)


@given(mixed_gaussians, operands, st.sampled_from(sorted(_APPLY)))
@settings(max_examples=300, deadline=None)
def test_gaussian_fast_paths_equal_general_formulas(a, b, op):
    """The Gaussian-integer and real paths give what the oracle's general
    formulas give, both ways round."""
    _assert_op_matches_oracle(op, a, b)
    _assert_op_matches_oracle(op, b, a)


@given(mixed_gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_negation_fast_path(a):
    neg = -a
    assert isinstance(neg, GaussianRational)
    assert (neg.re, neg.im) == (-a.re, -a.im)
    _assert_part_rule(neg)


def test_int_parts_are_kept_and_other_parts_become_fractions():
    """A part is an int exactly when it is integral, whatever built the
    value, and a Fraction otherwise."""
    assert _int_parts(QI(2, -3)) and _int_parts(QI())
    assert _int_parts(QI(True)) and _int_parts(QI(Fraction(2), Fraction(-4, 2)))
    half = QI(Fraction(1, 2), 3)
    assert type(half.re) is Fraction and type(half.im) is int
    assert _int_parts(half * 2) and _int_parts(QI(4, 6) / 2) and _int_parts(QI(0, 1) / QI(0, 1))
    assert type((QI(1) / 2).re) is Fraction and type(QI(0.5).re) is Fraction
    _assert_part_rule(QI(Fraction(6, 4), Fraction(-5, 3)) * QI(Fraction(2, 3), Fraction(1, 5)))


#: parts of up to 20 bits, with zero drawn often, so purely real and
#: purely imaginary values come up as well as full ones
parts20 = st.one_of(
    st.just(0),
    st.integers(-(2**20), 2**20),
    st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(1, 2**20)),
)
wide_gaussians = st.one_of(
    st.builds(GaussianRational, parts20),
    st.builds(lambda im: GaussianRational(0, im), parts20),
    st.builds(GaussianRational, parts20, parts20),
)


@given(wide_gaussians, wide_gaussians, st.one_of(parts20, st.integers(-3, 3)))
@settings(max_examples=200, deadline=None)
def test_gaussian_rational_equals_fraction_part_oracle(a, b, r):
    """Every operation agrees with the Fraction-part class it replaced:
    + - * / between two values and, both ways round, with an int or a
    Fraction; negation, conj, norm2, ==, bool, str and the parse
    round trip."""
    oa, ob = _oracle(a), _oracle(b)
    for op in _APPLY:
        _assert_op_matches_oracle(op, a, b)
        _assert_op_matches_oracle(op, a, r)
        _assert_op_matches_oracle(op, r, a)
    _assert_same(-a, -oa)
    _assert_same(a.conj(), oa.conj())
    assert a.norm2() == oa.norm2() and type(a.norm2()) in (int, Fraction)
    assert (a == b) == (oa == ob) and (a == r) == (oa == r) and (a == a.conj()) == (oa == oa.conj())
    _assert_same(a, oa)
    parsed = parse_gaussian(str(a))
    assert parsed == a
    _assert_part_rule(parsed)


@st.composite
def equal_forms(draw):
    """Two forms of one value: a GaussianRational, the constant ParamScalar
    holding it, and for a real value its Fraction and, when integral, its
    int."""
    re = draw(rationals)
    im = draw(st.one_of(st.just(0), rationals))
    forms = [GaussianRational(re, im), GaussianRational(Fraction(re), Fraction(im)), RING.const(QI(re, im))]
    if im == 0:
        forms.append(Fraction(re))
        if Fraction(re).denominator == 1:
            forms.append(int(re))
    return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))


#: operands of the hash test: those above, ParamScalars, and constant
#: ParamScalars, zero among them
hash_operands = st.one_of(operands, scalars(), st.builds(RING.const, mixed_gaussians))


@given(hash_operands, hash_operands, equal_forms())
@settings(max_examples=200, deadline=None)
def test_equal_values_hash_alike(a, b, same):
    """== implies equal hashes over mixed GaussianRational, ParamScalar,
    int and Fraction operands, so a dict keyed by one finds the other; a
    constant ParamScalar hashes like its constant."""
    for x, y in ((a, b), same):
        if x == y:
            assert hash(x) == hash(y)
    x, y = same
    assert x == y and {x: "found"}.get(y) == "found"
    assert {QI(1): "x"}.get(1) == "x" and {Fraction(1, 2): "y"}.get(QI(Fraction(1, 2))) == "y"
    assert len({RING.const(3), 3}) == 1 and len({RING.zero(), 0}) == 1
    assert {RING.const(QI(1, 2)): "z"}.get(QI(1, 2)) == "z"


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
    return max((sum(s.ring.exponents(k)) for k in s.terms), default=0)


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
    assert s.by_degree() == [(1, r.t(1)), (2, r.t(1) * r.tbar(2))]
    t = r.t(2) * r.tbar(1) + r.t(1) * r.t(1)
    assert t.by_degree() == [(2, t)] and t.by_degree()[0][1] is t
    assert r.zero().by_degree() == []


def test_det_rng_reproducible():
    rng_a, rng_b = DetRng(11), DetRng(11)
    a = [rng_a.gaussian() for _ in range(8)]
    b = [rng_b.gaussian() for _ in range(8)]
    assert a == b
    assert [DetRng(12).gaussian() for _ in range(8)] != a


def test_each_caller_refuses_a_parameter_through_one_constant_test():
    """ParamScalar.is_constant holds for constants and 0 and fails once a
    term carries t or tbar.  The four callers that need a constant read it
    and keep their own ValueError: a ring change, a form taken into a
    complex, which has no parameters, a volume coefficient and a
    Hermitian extraction."""
    ring = PolyRing(1, 2)
    assert ring.const(QI(3)).is_constant() and ring.zero().is_constant()
    assert not ring.t(1).is_constant() and not (ring.tbar(1) + ring.one()).is_constant()
    assert ring.const(QI(3)).lift(PolyRing(0, 0)).constant_term() == QI(3)
    with pytest.raises(ValueError, match="only constant scalars can move between rings"):
        ring.t(1).lift(PolyRing(0, 0))
    alg = FormAlgebra(1, ring)
    const, param = alg.monomial((1,), (1,), ring.const(QI(2))), alg.monomial((1,), (1,), ring.t(1) + ring.one())
    ec = EvaluatedComplex(build_complex(catalog_load("abelian_1").se), ())
    assert ec.form_to_vec(const, 1, 1) == {0: QI(2)}
    with pytest.raises(ValueError, match="a t-dependent form has no value on a complex without parameters"):
        ec.form_to_vec(param, 1, 1)
    assert volume_coefficient(const) != 0 and hermitian_matrix_of(const, 1).matrix[0][0] != 0
    with pytest.raises(ValueError, match="volume coefficient of a parameter-dependent form"):
        volume_coefficient(param)
    with pytest.raises(ValueError, match="extraction of a parameter-dependent form"):
        hermitian_matrix_of(param, 1)


# -- packed monomial keys against the tuple-keyed route they replaced -------

#: rings of every small shape: no parameter (m = 0), orders 0 and 1, and
#: higher orders with one and two parameters
RINGS = [PolyRing(0, 0), PolyRing(0, 2), PolyRing(1, 0), PolyRing(1, 1), PolyRing(2, 1), PolyRing(1, 3), PolyRing(2, 3)]


def _assert_same_scalar(got, want):
    """got, a ParamScalar, holds the terms of want, a TupleScalar: each
    exponent tuple at its key, and each key decodes to its tuple."""
    ring = got.ring
    assert isinstance(got, ParamScalar) and ring == want.ring
    assert got.terms == {ring.key(e): v for e, v in want.terms.items()}
    assert {ring.exponents(k): v for k, v in got.terms.items()} == want.terms


@st.composite
def scalar_pairs(draw, ring):
    """One polynomial of ring on both routes: a ParamScalar whose keys are
    built by the ring, and the TupleScalar on the exponent tuples."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, ring.order)) for _ in range(2 * ring.m))
        z = draw(gaussians)
        if sum(expo) <= ring.order and z:
            terms[expo] = z
    return ParamScalar(ring, {ring.key(e): z for e, z in terms.items()}), TupleScalar(ring, terms)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_keys_equal_the_tuple_route(data):
    """+, -, *, conj, eval, by_degree, min_order, is_constant, lift
    and the format_scalar/parse_scalar round trip give on packed keys what
    the tuple-keyed route gives, on rings with m = 0 and of order 0 and 1
    among others."""
    ring = data.draw(st.sampled_from(RINGS), label="ring")
    (a, ta), (b, tb) = data.draw(scalar_pairs(ring), label="a"), data.draw(scalar_pairs(ring), label="b")
    point = tuple(data.draw(gaussians, label="point") for _ in range(ring.m))
    for got, want in ((a + b, ta + tb), (a - b, ta - tb), (a * b, ta * tb), (-a, -ta), (a.conj(), ta.conj())):
        _assert_same_scalar(got, want)
    assert a.eval(point) == ta.eval(point)
    parts = dict(a.by_degree())
    assert all(parts.values()) and set(parts) <= set(range(ring.order + 1))
    for degree in range(ring.order + 2):
        _assert_same_scalar(parts.get(degree, ring.zero()), ta.homogeneous_part(degree))
    assert a.min_order() == ta.min_order() and a.is_constant() == ta.is_constant()
    assert a.constant_term() == ta.constant_term()
    for target in (ring, PolyRing(ring.m, ring.order), PolyRing(ring.m + 1, ring.order + 1)):
        if ta.is_constant() or target == ring:
            _assert_same_scalar(a.lift(target), ta.lift(target))
        else:
            with pytest.raises(ValueError, match="only constant scalars can move between rings"):
                a.lift(target)
    text = format_scalar(a)
    assert text == ta.format() and parse_scalar(text, ring) == a


def _monomials(ring):
    return [e for e in product(range(ring.order + 1), repeat=2 * ring.m) if sum(e) <= ring.order]


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_every_monomial_product_at_and_past_the_cap(ring):
    """Each pair of monomials of a ring multiplies as on the tuple route:
    the product survives exactly when the degrees sum to at most the
    order, at a key that is the sum of the two keys.  Every monomial
    conjugates as there, its key decodes to its exponents, and keys sort
    as (degree, exponents) do.  The pairs at the cap and one past it both
    occur wherever the ring has a monomial of positive degree.  The
    square of the sum of all monomials agrees too."""
    monos = _monomials(ring)
    keys = [ring.key(e) for e in monos]
    assert [ring.exponents(k) for k in keys] == monos
    assert [ring.exponents(k) for k in sorted(keys)] == sorted(monos, key=lambda e: (sum(e), e))
    excess = set()
    for e1, k1 in zip(monos, keys):
        a, ta = ParamScalar(ring, {k1: QI(2, 1)}), TupleScalar(ring, {e1: QI(2, 1)})
        _assert_same_scalar(a.conj(), ta.conj())
        for e2, k2 in zip(monos, keys):
            got = a * ParamScalar(ring, {k2: QI(0, 3)})
            _assert_same_scalar(got, ta * TupleScalar(ring, {e2: QI(0, 3)}))
            assert got.terms.keys() == ({k1 + k2} if sum(e1) + sum(e2) <= ring.order else set())
            excess.add(sum(e1) + sum(e2) - ring.order)
    if ring.m and ring.order:
        assert {0, 1} <= excess
    # the sum of every monomial, squared: many terms times many, with sums
    total, ttotal = ParamScalar(ring, dict.fromkeys(keys, QI(1, 2))), TupleScalar(ring, dict.fromkeys(monos, QI(1, 2)))
    _assert_same_scalar(total * total, ttotal * ttotal)


def test_ring_key_refuses_what_the_layout_cannot_hold():
    r = PolyRing(2, 3)
    assert r.key((0, 0, 0, 0)) == 0 and r.key((1, 0, 0, 2)) == 3 * r.unit + r.base**3 + 2
    for bad in ((0, 0, 0), (1, 0, 0, -1), (2, 0, 0, 2)):
        with pytest.raises(ValueError):
            r.key(bad)
