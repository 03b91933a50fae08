"""Exact scalars: Gaussian rationals and truncated (t, tbar)-polynomials.

Everything downstream is built over these two rings.  ``GaussianRational``
is the coefficient field Q(i), stored as (a + b*i)/d with three ints in
lowest terms, so its arithmetic is int arithmetic and builds no
``Fraction``.  Its parts read as an ``int`` when integral and a
``Fraction`` otherwise, never a float.
``ParamScalar`` is the ring Q(i)[t_1..t_m, tbar_1..tbar_m] truncated at
a fixed total degree.  The deformation parameters t_nu and their formal
conjugates tbar_nu are independent commuting variables; conjugation
swaps them, and evaluation at a point z substitutes t_nu -> z_nu,
tbar_nu -> conj(z_nu).
Its terms are keyed by one int per monomial, laid out by its
``PolyRing``: the total degree above the exponents, which are base-B
digits for B = order + 1.  The key of a product is the sum of the keys,
and the product is truncated exactly when that sum reaches the ring's
``cap``, so the extension solver's many term products pay one int add
and one compare.  Only ``eval``, ``format_scalar`` and ``parse_scalar``
decode or encode exponents (``PolyRing.exponents`` and ``PolyRing.key``);
every other reader treats a key as an opaque label.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import FormatError

__all__ = [
    "GaussianRational",
    "QI",
    "PolyRing",
    "ParamScalar",
    "DetRng",
    "parse_gaussian",
    "format_gaussian",
]


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as the three ints a, b, d.

    d > 0 and gcd(a, b, d) = 1, so each value has one representation and
    == compares ints.  +, - and * of two Gaussian integers (d = 1) take
    no gcd, and the product of two integers (b = 0 too) is one int
    product; every other result is brought to lowest terms with one
    three-argument gcd.  The read-only parts ``re`` and ``im`` are each
    an int when the part is integral and a Fraction otherwise, never a
    float, and a real value hashes like the rational it equals.
    ``_reduced`` and ``_new`` are the one normaliser; the one reader of
    the triple outside this module is ``linalg``'s elimination kernel,
    ``_reduce_meeting``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        p, q = _ratio(re)
        r, s = _ratio(im)
        # two parts in lowest terms over the lcm of their denominators
        # are in lowest terms together
        d = lcm(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self):
        d = self._d
        return self._a if d == 1 else _div(self._a, d)

    @property
    def im(self):
        d = self._d
        return self._b if d == 1 else _div(self._b, d)

    # -- ring operations -------------------------------------------------
    #
    # The Gaussian-integer paths build their result in place: a helper
    # call would cost about a fifth of a real-integer product.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == 1 and f == 1:
            z = _new(GaussianRational)
            z._a = self._a + other._a
            z._b = self._b + other._b
            z._d = 1
            return z
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        z = _new(GaussianRational)
        z._a = -self._a
        z._b = -self._b
        z._d = self._d
        return z

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == 1 and f == 1:
            z = _new(GaussianRational)
            z._a = self._a - other._a
            z._b = self._b - other._b
            z._d = 1
            return z
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == 1 and f == 1:
            z = _new(GaussianRational)
            if not b and not e:
                z._a = a * c
                z._b = 0
            else:
                z._a = a * c - b * e
                z._b = a * e + b * c
            z._d = 1
            return z
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quotient(self, _coerce(other))

    def __rtruediv__(self, other):
        return _quotient(_coerce(other), self)

    def conj(self):
        z = _new(GaussianRational)
        z._a = self._a
        z._b = -self._b
        z._d = self._d
        return z

    def norm2(self):
        """|z|^2 as an exact rational (an int or a Fraction)."""
        a, b, d = self._a, self._b, self._d
        return _div(a * a + b * b, d * d)

    # -- predicates / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._a == other and self._b == 0 and self._d == 1
        if isinstance(other, Fraction):
            return self._a == other.numerator and self._b == 0 and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the rational it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self.re)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"QI({format_gaussian(self)})"

    def __str__(self):
        return format_gaussian(self)


_new = object.__new__


def _reduced(a, b, d) -> GaussianRational:
    """(a + b*i)/d in lowest terms, for ints with d > 0."""
    g = gcd(a, b, d)
    z = _new(GaussianRational)
    if g == 1:
        z._a = a
        z._b = b
        z._d = d
    else:
        z._a = a // g
        z._b = b // g
        z._d = d // g
    return z


def _quotient(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """x / y: (a + b*i)/d over (c + e*i)/f is f(a + b*i)(c - e*i) / (d(c^2 + e^2))."""
    a, b, d = x._a, x._b, x._d
    c, e, f = y._a, y._b, y._d
    if not e:
        if not c:
            raise ZeroDivisionError("division by zero in Q(i)")
        if c < 0:
            c, f = -c, -f
        return _reduced(a * f, b * f, d * c)
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


def _ratio(x) -> Tuple[int, int]:
    """(numerator, denominator) of a rational in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _div(a, b):
    """a / b, exactly: an int when a and b are ints and b divides a, a
    Fraction for any other pair of rationals (a bare int / int would give
    a float).  Other operands, such as a GaussianRational, divide as
    they do."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


#: the short name that reprs and tests write Gaussian rationals with
QI = GaussianRational


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_MINUS_ONE = GaussianRational(-1)
QI_I = GaussianRational(0, 1)


_FRAC = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(rf"^([+-]?)(?:({_FRAC.lstrip('-?')})\s*\*?\s*)?(i)?$")


def parse_gaussian(s: str) -> GaussianRational:
    """Parse strings like ``-1/2``, ``i``, ``2i``, ``1/2+3/4i``, ``3-i``."""
    text = s.strip().replace(" ", "")
    if not text:
        raise FormatError("empty scalar string")
    # split into signed terms at top level
    terms = re.findall(r"[+-]?[^+-]+", text)
    if "".join(terms) != text:
        raise FormatError(f"cannot parse scalar {s!r}")
    re_part = im_part = 0
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise FormatError(f"cannot parse scalar term {term!r} in {s!r}")
        sign, mag, imag = m.groups()
        if mag is None and imag is None:
            raise FormatError(f"cannot parse scalar term {term!r} in {s!r}")
        try:
            value = Fraction(mag) if mag is not None else Fraction(1)
        except ZeroDivisionError:
            raise FormatError(f"zero denominator in scalar {s!r}") from None
        if sign == "-":
            value = -value
        if imag:
            im_part += value
        else:
            re_part += value
    return GaussianRational(re_part, im_part)


def format_gaussian(z: GaussianRational) -> str:
    """Canonical emission; inverse of :func:`parse_gaussian`."""
    if not z:
        return "0"
    re, im = z.re, z.im
    parts = []
    if re != 0:
        parts.append(str(re))
    if im != 0:
        mag = im
        if not parts:
            head = "" if mag > 0 else "-"
        else:
            head = "+" if mag > 0 else "-"
        mag = abs(mag)
        body = "i" if mag == 1 else f"{mag}i"
        parts.append(head + body)
    return "".join(parts)


class PolyRing:
    """Truncated polynomial ring Q(i)[t_1..t_m, tbar_1..tbar_m] / (deg > N),
    and the one owner of the int keys of its monomials.

    A monomial of total degree d <= N with exponents e_1..e_2m (those of
    t_1..t_m, then of tbar_1..tbar_m) has the key
    d*B^(2m) + sum_i e_i*B^(2m-i), with base B = N + 1 (at least 2).  Each
    exponent is at most d <= N < B, so below ``unit`` = B^(2m) the key
    holds the exponents as base-B digits, t's above ``half`` = B^m and
    tbar's below it, and d is the key floor-divided by ``unit``.  Keys
    sort as (degree, exponent tuple) do, and the constant monomial is 0.

    The key of the product of two monomials is the sum of their keys, and
    the product survives the truncation exactly when that sum is below
    ``cap`` = (N+1)*B^(2m): if d1 + d2 <= N, every digit sum is at most
    N < B, so no digit carries and the sum, below (d1+d2+1)*B^(2m), is the
    product's key; if d1 + d2 > N, the sum is at least (d1+d2)*B^(2m).  No
    sum of two keys equals ``cap``, so the test reads the same with <=.

    Only ``key`` and ``exponents`` encode and decode; the variables,
    ``ParamScalar.eval`` and the text form (``format_scalar``,
    ``parse_scalar``) call them, and the ring operations read keys as
    ints.  An instance is a descriptor (m, N); rings with equal m and N
    are equal and share the layout, and ParamScalars refuse mixed-ring
    arithmetic.
    """

    __slots__ = ("m", "order", "base", "places", "half", "unit", "cap")

    def __init__(self, m: int, order: int):
        if m < 0 or order < 0:
            raise ValueError("ring parameters must be non-negative")
        self.m = m
        self.order = order
        self.base = b = max(order + 1, 2)
        self.places = tuple(b**i for i in range(2 * m - 1, -1, -1))
        self.half = b**m
        self.unit = self.half * self.half
        self.cap = (order + 1) * self.unit

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.m == other.m
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.m, self.order))

    def __repr__(self):
        return f"PolyRing(m={self.m}, order={self.order})"

    # -- monomial keys ----------------------------------------------------

    def key(self, exponents: Sequence[int]) -> int:
        """The key of the monomial with exponents e_1..e_2m; ValueError
        for a wrong length, a negative exponent or a degree past N."""
        if len(exponents) != 2 * self.m or min(exponents, default=0) < 0:
            raise ValueError(f"exponents {tuple(exponents)} do not fit m={self.m}")
        k = sum(exponents)
        if k > self.order:
            raise ValueError(f"degree {k} exceeds the truncation order {self.order}")
        for e in exponents:
            k = k * self.base + e
        return k

    def exponents(self, key: int) -> Tuple[int, ...]:
        """The exponents e_1..e_2m of a key: its base-B digits below B^(2m)."""
        b = self.base
        return tuple([key // p % b for p in self.places])

    # -- constructors -----------------------------------------------------

    def zero(self) -> "ParamScalar":
        return ParamScalar(self, {})

    def const(self, c) -> "ParamScalar":
        c = _coerce(c)
        if not c:
            return self.zero()
        return ParamScalar(self, {0: c})

    def one(self) -> "ParamScalar":
        return self.const(1)

    def t(self, nu: int) -> "ParamScalar":
        """The variable t_nu, 1-based."""
        return self._var(nu - 1)

    def tbar(self, nu: int) -> "ParamScalar":
        """The variable tbar_nu, 1-based."""
        return self._var(self.m + nu - 1)

    def _var(self, slot: int) -> "ParamScalar":
        if not 0 <= slot < 2 * self.m:
            raise ValueError(f"variable index out of range for m={self.m}")
        if self.order < 1:
            return self.zero()
        exp = [0] * (2 * self.m)
        exp[slot] = 1
        return ParamScalar(self, {self.key(exp): QI_ONE})


class ParamScalar:
    """Sparse truncated polynomial: ``terms`` maps the key of each monomial
    (``PolyRing``'s layout) to its coefficient, never 0.

    The product of two terms costs one int add for its key and one compare
    with the ring's ``cap`` for the truncation.  ``by_degree`` and
    ``min_order`` read a degree with one floor division, ``conj`` swaps the
    t and tbar digits with one divmod, and ``is_constant`` and
    ``constant_term`` read key 0.  A constant equals its Q(i) value and
    hashes like it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Dict[int, GaussianRational]):
        self.ring = ring
        self.terms = terms

    # -- helpers ----------------------------------------------------------

    def _check(self, other: "ParamScalar"):
        """Refuse a ring unequal to self's; + and * call it only for a
        ring that is not self's by identity."""
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ParamScalar):
            other = self.ring.const(other)
        elif other.ring is not self.ring:
            self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return ParamScalar(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ParamScalar):
            c = _coerce(other)
            if not c:
                return self.ring.zero()
            return ParamScalar(self.ring, {k: v * c for k, v in self.terms.items()})
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        cap = ring.cap
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        out: Dict[int, GaussianRational] = {}
        if len(b) == 1:
            # one monomial keeps distinct keys distinct: nothing to sum
            ((k2, v2),) = b.items()
            room = cap - k2
            for k1, v1 in a.items():
                if k1 < room:
                    out[k1 + k2] = v1 * v2
            return ParamScalar(ring, out)
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                if k >= cap:
                    continue
                v = v1 * v2
                s = out.get(k)
                if s is None:
                    out[k] = v
                else:
                    s = s + v
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return ParamScalar(ring, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ring.const(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return (other.ring is self.ring or other.ring == self.ring) and self.terms == other.terms

    def __hash__(self):
        if self.is_constant():
            return hash(self.terms.get(0, 0))
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def conj(self) -> "ParamScalar":
        """Swap t_nu <-> tbar_nu and conjugate coefficients.  With H =
        B^m, a key d*H^2 + T*H + Tb (T the t digits, Tb the tbar digits)
        becomes d*H^2 + Tb*H + T, that is, the key plus (Tb - T)(H - 1)."""
        half = self.ring.half
        out = {}
        for k, v in self.terms.items():
            q, tb = divmod(k, half)
            out[k + (tb - q % half) * (half - 1)] = v.conj()
        return ParamScalar(self.ring, out)

    def eval(self, point: Iterable[GaussianRational]) -> GaussianRational:
        """Evaluate with t_nu = point[nu], tbar_nu = conj(point[nu])."""
        pt = [_coerce(z) for z in point]
        if len(pt) != self.ring.m:
            raise ValueError("evaluation point has wrong length")
        values = pt + [z.conj() for z in pt]
        total = GaussianRational(0)
        for k, v in self.terms.items():
            term = v
            if k:
                for z, e in zip(values, self.ring.exponents(k)):
                    while e:
                        term = term * z
                        e -= 1
            total = total + term
        return total

    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, QI_ZERO)

    def is_constant(self) -> bool:
        """Whether no term carries a parameter: every key is 0."""
        return not any(self.terms)

    def min_order(self) -> int:
        """Lowest total degree among stored terms (0 for the zero scalar):
        the degree of the smallest key."""
        return min(self.terms, default=0) // self.ring.unit

    def by_degree(self) -> List[Tuple[int, "ParamScalar"]]:
        """(degree, homogeneous part) pairs; itself alone if homogeneous."""
        parts: Dict[int, Dict[int, GaussianRational]] = {}
        for k, v in self.terms.items():
            parts.setdefault(k // self.ring.unit, {})[k] = v
        return [(d, self if len(parts) == 1 else ParamScalar(self.ring, t)) for d, t in parts.items()]

    def lift(self, ring: PolyRing) -> "ParamScalar":
        """Re-interpret in another ring; only constants may change ring."""
        if ring is self.ring or ring == self.ring:
            return self
        if not self.is_constant():
            raise ValueError("only constant scalars can move between rings")
        return ring.const(self.constant_term())

    # -- io -------------------------------------------------------------------

    def __repr__(self):
        return f"ParamScalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


def format_scalar(s: ParamScalar) -> str:
    """Canonical string: monomials by (degree, exponents), which is key
    order, as ``coef*t1^2*tbar3`` style terms."""
    if not s.terms:
        return "0"
    m = s.ring.m
    chunks = []
    for key in sorted(s.terms):
        v = s.terms[key]
        k = s.ring.exponents(key)
        names = []
        for nu in range(m):
            if k[nu]:
                names.append(f"t{nu + 1}" + (f"^{k[nu]}" if k[nu] > 1 else ""))
        for nu in range(m):
            e = k[m + nu]
            if e:
                names.append(f"tbar{nu + 1}" + (f"^{e}" if e > 1 else ""))
        coeff = format_gaussian(v)
        if names:
            if coeff == "1":
                body = "*".join(names)
            elif coeff == "-1":
                body = "-" + "*".join(names)
            else:
                if v.re != 0 and v.im != 0:
                    coeff = f"({coeff})"
                body = coeff + "*" + "*".join(names)
        else:
            body = coeff
        chunks.append(body)
    out = chunks[0]
    for c in chunks[1:]:
        out += c if c.startswith("-") else "+" + c
    return out


_VAR_RE = re.compile(r"^(t|tbar)(\d+)(?:\^(\d+))?$")


def parse_scalar(text: str, ring: PolyRing) -> ParamScalar:
    """Parse the output of :func:`format_scalar` (and plain Q(i) strings)."""
    raw = text.strip().replace(" ", "")
    if not raw:
        raise FormatError("empty scalar string")
    total = ring.zero()
    # split into signed top-level terms, respecting parentheses
    terms, depth, start = [], 0, 0
    for pos, ch in enumerate(raw):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start:
            prev = raw[pos - 1]
            if prev not in "+-*^(":
                terms.append(raw[start:pos])
                start = pos
    terms.append(raw[start:])
    for term in terms:
        sign = QI_ONE
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = QI_ONE
        mono = [0] * (2 * ring.m)
        for factor in term.split("*") if term else []:
            if not factor:
                raise FormatError(f"bad scalar term in {text!r}")
            mvar = _VAR_RE.match(factor)
            if mvar:
                kind, idx, power = mvar.groups()
                nu = int(idx)
                if not 1 <= nu <= ring.m:
                    raise FormatError(f"variable {factor!r} outside ring m={ring.m}")
                slot = nu - 1 if kind == "t" else ring.m + nu - 1
                mono[slot] += int(power) if power else 1
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                coeff = coeff * parse_gaussian(factor)
        if sum(mono) > ring.order:
            raise FormatError(f"term exceeds truncation order {ring.order}")
        piece = ParamScalar(ring, {ring.key(mono): sign * coeff}) if sign * coeff else ring.zero()
        total = total + piece
    return total


class DetRng:
    """Tiny deterministic 64-bit LCG; bit-stable across platforms.

    Used wherever seeded reproducible sampling is required.
    """

    __slots__ = ("state",)

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        self.next_int(64)  # burn-in

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return (self.state >> 17) % bound

    def rational(self, span: int = 9) -> Fraction:
        num = self.next_int(2 * span + 1) - span
        den = self.next_int(span) + 1
        return Fraction(num, den)

    def gaussian(self, span: int = 9) -> GaussianRational:
        return GaussianRational(self.rational(span), self.rational(span))
