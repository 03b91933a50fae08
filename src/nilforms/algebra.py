"""Bigraded exterior algebra of an invariant complex structure.

The coframe is gamma^1..gamma^n (type (1,0)) and their conjugates
gammabar^1..gammabar^n (type (0,1)).  Monomials are pairs of strictly
ascending index tuples (I, J) representing
gamma^{i_1} ^ ... ^ gamma^{i_p} ^ gammabar^{j_1} ^ ... ^ gammabar^{j_q},
the canonical order being (1,0)-factors first.  Forms are sparse maps
from monomials to truncated-polynomial scalars; d = del + delbar acts on
them through column tables the structure equations own, assembled by
the one Leibniz rule (``leibniz.Layout.assemble``).

Coframe symbols are indexed 0..2n-1: symbol i-1 is gamma^i, symbol
n+j-1 is gammabar^j.  Endomorphisms of the coframe span (used by the
simultaneous contraction and the Neumann inversion) are column-sparse
matrices over the scalar ring.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import FlatnessError, IntegrabilityError, NotPerturbative
from .leibniz import EMPTY_ROW, Layout, merge_indices
from .scalars import ParamScalar, PolyRing, QI_ONE

Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]

T10 = "T10"
T01 = "T01"

_CONSTANT_RING = PolyRing(0, 0)


def wedge_mono(m1: Mono, m2: Mono):
    """Canonicalize m1 ^ m2; returns (sign, mono) or None if it vanishes."""
    i1, j1 = m1
    i2, j2 = m2
    ri = merge_indices(i1, i2)
    if ri is None:
        return None
    rj = merge_indices(j1, j2)
    if rj is None:
        return None
    sign = ri[0] * rj[0]
    # moving the (1,0)-block of m2 left past the (0,1)-block of m1
    if (len(j1) * len(i2)) % 2:
        sign = -sign
    return sign, (ri[1], rj[1])


class FormAlgebra:
    """Context object: complex dimension n plus the scalar ring.

    ``constant`` is the algebra over PolyRing(0, 0) of the same n, where
    an evaluated form lives: built once, and the algebra itself when its
    ring is that one.  ``layout`` is the one ``leibniz.Layout`` of n, the
    subset table and assembly plans that every structure equations over
    this algebra, their lifts and their fibers read; it depends on n
    only, so the constant algebra's is shared with it."""

    __slots__ = ("n", "ring", "constant", "layout")

    def __init__(self, n: int, ring: PolyRing):
        self.n = n
        self.ring = ring
        if ring == _CONSTANT_RING:
            self.constant, self.layout = self, Layout(n)
        else:
            self.constant = FormAlgebra(n, _CONSTANT_RING)
            self.layout = self.constant.layout

    def __eq__(self, other):
        return isinstance(other, FormAlgebra) and self.n == other.n and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.n, self.ring))

    def __repr__(self):
        return f"FormAlgebra(n={self.n}, ring={self.ring})"

    # -- constructors ----------------------------------------------------

    def zero(self) -> "Form":
        return Form(self, {})

    def scalar_form(self, c) -> "Form":
        c = self._scalar(c)
        return Form(self, {((), ()): c} if c else {})

    def monomial(self, I: Sequence[int], J: Sequence[int], coeff=1) -> "Form":
        m = (tuple(I), tuple(J))
        for idx in m[0] + m[1]:
            if not 1 <= idx <= self.n:
                raise ValueError(f"coframe index {idx} out of range 1..{self.n}")
        if list(m[0]) != sorted(set(m[0])) or list(m[1]) != sorted(set(m[1])):
            raise ValueError("monomial indices must be strictly ascending")
        c = self._scalar(coeff)
        return Form(self, {m: c} if c else {})

    def gamma(self, i: int) -> "Form":
        return self.monomial((i,), ())

    def gammabar(self, j: int) -> "Form":
        return self.monomial((), (j,))

    def _scalar(self, c) -> ParamScalar:
        if isinstance(c, ParamScalar):
            if c.ring is not self.ring and c.ring != self.ring:
                raise ValueError("scalar from a different ring")
            return c
        return self.ring.const(c)

    def dim(self, p: int, q: int) -> int:
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            return 0
        return comb(self.n, p) * comb(self.n, q)


class Form:
    """Sparse exterior-algebra element with ParamScalar coefficients.

    Usually homogeneous of one bidegree (p, q); sums of mixed type arise
    from d and from simultaneous contraction by type-mixing operators,
    and are carried by the same container.  ``coeffs`` is the dict it is
    handed, as is: no caller stores a zero coefficient.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: FormAlgebra, coeffs: Dict[Mono, ParamScalar]):
        self.algebra = algebra
        self.coeffs = coeffs

    # -- linear structure --------------------------------------------------

    def _check(self, other: "Form"):
        # operands nearly always share one algebra object; equal ones pass too
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("forms from different algebras")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Form(self.algebra, out)

    def __neg__(self) -> "Form":
        return Form(self.algebra, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        if isinstance(c, ParamScalar) and c.ring is not self.algebra.ring and c.ring != self.algebra.ring:
            raise ValueError("scalar from a different ring")
        # a zero c, or a product the truncation drops, gives zeros to leave out
        return Form(self.algebra, {m: p for m, v in self.coeffs.items() if (p := v * c)})

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.algebra is other.algebra or self.algebra == other.algebra) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- grading -----------------------------------------------------------

    def component(self, p: int, q: int) -> "Form":
        return Form(
            self.algebra,
            {m: c for m, c in self.coeffs.items() if len(m[0]) == p and len(m[1]) == q},
        )

    def bidegree(self) -> Tuple[int, int]:
        degs = {(len(m[0]), len(m[1])) for m in self.coeffs}
        if len(degs) > 1:
            raise ValueError(f"form is not homogeneous: {sorted(degs)}")
        if not degs:
            raise ValueError("zero form has no bidegree")
        return degs.pop()

    def is_homogeneous(self, p: int, q: int) -> bool:
        return all(len(m[0]) == p and len(m[1]) == q for m in self.coeffs)

    # -- algebra operations --------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        out: Dict[Mono, ParamScalar] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                r = wedge_mono(m1, m2)
                v = None if r is None else c1 * c2
                if v:
                    _accumulate(out, r[1], v if r[0] > 0 else -v)
        return Form(self.algebra, out)

    def conj(self) -> "Form":
        out: Dict[Mono, ParamScalar] = {}
        for (I, J), c in self.coeffs.items():
            v = c.conj()
            if (len(I) * len(J)) % 2:
                v = -v
            out[(J, I)] = v
        return Form(self.algebra, out)

    # -- parameter structure ---------------------------------------------------

    def by_degree(self) -> Dict[int, "Form"]:
        """The nonzero homogeneous parts by t-degree (``ParamScalar.by_degree``)."""
        parts: Dict[int, Dict[Mono, ParamScalar]] = {}
        for m, c in self.coeffs.items():
            for d, p in c.by_degree():
                parts.setdefault(d, {})[m] = p
        return {d: Form(self.algebra, p) for d, p in parts.items()}

    def homogeneous_part(self, order: int) -> "Form":
        return self.by_degree().get(order, self.algebra.zero())

    def eval(self, point) -> "Form":
        """Evaluate parameters; result lives in the constant algebra."""
        alg0 = self.algebra.constant
        out: Dict[Mono, ParamScalar] = {}
        for m, c in self.coeffs.items():
            v = c.eval(point)
            if v:
                out[m] = alg0.ring.const(v)
        return Form(alg0, out)

    def lift(self, algebra: FormAlgebra) -> "Form":
        """Move a constant-coefficient form into another scalar ring."""
        if algebra is self.algebra or algebra == self.algebra:
            return self
        if algebra.n != self.algebra.n:
            raise ValueError("cannot lift between different dimensions")
        return Form(algebra, {m: c.lift(algebra.ring) for m, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "Form(0)"
        bits = []
        for m in sorted(self.coeffs):
            I, J = m
            name = "".join(map(str, I)) + ("," + "".join(map(str, J)) if J else "")
            bits.append(f"({self.coeffs[m]})*g[{name}]")
        return "Form(" + " + ".join(bits) + ")"


class VectorValuedForm:
    """Form with values in T^{1,0} (valence T10) or T^{0,1} (valence T01).

    components[i] is the form attached to theta_i (resp. thetabar_i);
    the components of a well-formed object share one bidegree.  A
    Beltrami differential owns its ``deformation.BeltramiOperators``,
    built on first use into ``operators``, and in ``integrable_on`` the
    structure equations its last symbolic deformation passed on
    (``deformation.deform_complex``), compared by identity; a failure is
    never stored (components are never mutated).
    """

    __slots__ = ("algebra", "valence", "components", "operators", "integrable_on")

    def __init__(self, algebra: FormAlgebra, valence: str, components: Dict[int, Form]):
        if valence not in (T10, T01):
            raise ValueError("valence must be T10 or T01")
        self.algebra = algebra
        self.valence = valence
        self.components = {i: f for i, f in components.items() if f}
        self.operators = None
        self.integrable_on = None

    def component(self, i: int) -> Form:
        return self.components.get(i, self.algebra.zero())

    def __bool__(self):
        return bool(self.components)

    def __add__(self, other: "VectorValuedForm") -> "VectorValuedForm":
        if self.valence != other.valence:
            raise ValueError("valence mismatch")
        out = dict(self.components)
        for i, f in other.components.items():
            out[i] = out.get(i, self.algebra.zero()) + f
        return VectorValuedForm(self.algebra, self.valence, out)

    def __neg__(self):
        return VectorValuedForm(
            self.algebra, self.valence, {i: -f for i, f in self.components.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "VectorValuedForm":
        return VectorValuedForm(
            self.algebra,
            self.valence,
            {i: f.scale(c) for i, f in self.components.items()},
        )

    def form_bidegree(self) -> Optional[Tuple[int, int]]:
        degs = set()
        for f in self.components.values():
            degs.update((len(m[0]), len(m[1])) for m in f.coeffs)
        if len(degs) > 1:
            raise ValueError("vector-valued form has mixed component bidegrees")
        return degs.pop() if degs else None

    def eval(self, point) -> "VectorValuedForm":
        alg0 = self.algebra.constant
        return VectorValuedForm(
            alg0, self.valence, {i: f.eval(point) for i, f in self.components.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        same = self.algebra is other.algebra or self.algebra == other.algebra
        return same and self.valence == other.valence and self.components == other.components

    def __repr__(self):
        kind = "theta" if self.valence == T10 else "thetabar"
        bits = [f"({f!r})(x){kind}_{i}" for i, f in sorted(self.components.items())]
        return "VVF[" + " + ".join(bits) + "]" if bits else "VVF[0]"


def interior_mono(valence: str, i: int, mono: Mono):
    """theta_i (or thetabar_i) hooked into a monomial: (sign, mono) or None."""
    I, J = mono
    if valence == T10:
        if i not in I:
            return None
        pos = I.index(i)
        sign = -1 if pos % 2 else 1
        return sign, (I[:pos] + I[pos + 1:], J)
    if i not in J:
        return None
    pos = J.index(i)
    sign = -1 if (len(I) + pos) % 2 else 1
    return sign, (I, J[:pos] + J[pos + 1:])


def contract(theta: VectorValuedForm, a: Form) -> Form:
    """iota_theta a = sum_i theta^i ^ (e_i _| a).

    For components of total degree r this is a derivation of degree
    r - 1, even when r is odd (the Beltrami case) and odd when r is
    even (the (0,2)-valued case in the extended Leibniz identity).
    """
    alg = theta.algebra
    if a.algebra is not alg and a.algebra != alg:
        raise ValueError("mismatched algebras")
    total = alg.zero()
    for i, comp in theta.components.items():
        hooked: Dict[Mono, ParamScalar] = {}
        for m, c in a.coeffs.items():
            r = interior_mono(theta.valence, i, m)
            if r is not None:
                _accumulate(hooked, r[1], -c if r[0] < 0 else c)
        if hooked:
            total = total + comp.wedge(Form(alg, hooked))
    return total


def contraction_series(theta: VectorValuedForm, a: Form) -> List[Form]:
    """[a, iota a, iota^2 a/2!, ...]: the terms of e^{iota_theta} a, up to
    the last nonzero one.

    Each power is contracted from the unscaled previous power and scaled
    once by 1/k!.  The series is finite when theta lowers a bounded
    degree or is O(t); the guard turns any other theta into an error.
    """
    out = [a]
    power = a
    k = 0
    guard = 2 * theta.algebra.n + theta.algebra.ring.order + 2
    while power:
        k += 1
        power = contract(theta, power)
        if power:
            out.append(power.scale(QI_ONE / factorial(k)))
        if k > guard:
            raise RuntimeError("contraction series failed to terminate")
    return out


class CoframeEndo:
    """Linear map on the 2n-dimensional coframe span, column-sparse.

    ``cols`` is never mutated after construction; every operation returns
    a new endomorphism.  So it owns what ``simultaneous_contract`` reads
    off its columns on first use: ``moved``, the gamma^i and gammabar^j
    whose column is not exactly themselves, as index sets (i's, j's);
    ``images``, the image of each monomial of moved factors with its
    negative, at most 2^{#moved}; and ``terms``, each monomial's merged
    (target, coefficient) terms, whose coefficients are those of images.
    A new endomorphism starts with none of them.
    """

    __slots__ = ("algebra", "cols", "moved", "images", "terms")

    def __init__(self, algebra: FormAlgebra, cols: Dict[int, Dict[int, ParamScalar]]):
        self.algebra = algebra
        self.moved = self.images = self.terms = None
        self.cols = {}
        for b, col in cols.items():
            cleaned = {a: c for a, c in col.items() if c}
            if cleaned:
                self.cols[b] = cleaned

    @classmethod
    def identity(cls, algebra: FormAlgebra) -> "CoframeEndo":
        one = algebra.ring.one()
        return cls(algebra, {s: {s: one} for s in range(2 * algebra.n)})

    def __add__(self, other: "CoframeEndo") -> "CoframeEndo":
        out = {b: dict(col) for b, col in self.cols.items()}
        for b, col in other.cols.items():
            for a, c in col.items():
                _accumulate(out.setdefault(b, {}), a, c)
        return CoframeEndo(self.algebra, out)

    def __neg__(self):
        return CoframeEndo(self.algebra, {b: {a: -c for a, c in col.items()} for b, col in self.cols.items()})

    def __sub__(self, other):
        return self + (-other)

    def compose(self, other: "CoframeEndo") -> "CoframeEndo":
        """self after other."""
        out: Dict[int, Dict[int, ParamScalar]] = {}
        for b, col in other.cols.items():
            acc: Dict[int, ParamScalar] = {}
            for mid, c in col.items():
                for a, d in self.cols.get(mid, {}).items():
                    v = d * c
                    if v:
                        _accumulate(acc, a, v)
            if acc:
                out[b] = acc
        return CoframeEndo(self.algebra, out)

    def image(self, part: Mono) -> Tuple[Form, Form]:
        """The image of a monomial of moved factors, its prefix's image
        wedged with the image of its last factor, and its negative; kept
        in ``images``."""
        out = self.images.get(part)
        if out is None:
            I, J = part
            prefix, s = ((I, J[:-1]), self.algebra.n + J[-1] - 1) if J else ((I[:-1], ()), I[-1] - 1)
            image = self.image(prefix)[0].wedge(self.column_form(s))
            out = self.images[part] = (image, -image)
        return out

    def column_form(self, symbol: int) -> Form:
        col = self.cols.get(symbol, {})
        coeffs: Dict[Mono, ParamScalar] = {}
        n = self.algebra.n
        for a, c in col.items():
            mono = ((a + 1,), ()) if a < n else ((), (a - n + 1,))
            coeffs[mono] = c
        return Form(self.algebra, coeffs)

    def conj(self) -> "CoframeEndo":
        """The gamma and gammabar blocks swapped (symbol s to s + n mod 2n),
        each entry conjugated."""
        n, n2 = self.algebra.n, 2 * self.algebra.n
        cols = {(b + n) % n2: {(a + n) % n2: c.conj() for a, c in col.items()} for b, col in self.cols.items()}
        return CoframeEndo(self.algebra, cols)

    def is_zero(self) -> bool:
        return not self.cols

    def min_order(self) -> int:
        orders = [c.min_order() for col in self.cols.values() for c in col.values()]
        return min(orders) if orders else 0


def endo_of_vvf(v: VectorValuedForm) -> CoframeEndo:
    """View a vector-valued form with 1-form components as a coframe map.

    A T10-valued v sends gamma^i to v^i and kills the gammabar block;
    mirrored for T01.
    """
    alg = v.algebra
    n = alg.n
    cols: Dict[int, Dict[int, ParamScalar]] = {}
    for i, f in v.components.items():
        col: Dict[int, ParamScalar] = {}
        for (I, J), c in f.coeffs.items():
            if len(I) + len(J) != 1:
                raise ValueError("endo_of_vvf needs 1-form components")
            sym = I[0] - 1 if I else n + J[0] - 1
            col[sym] = c
        src = i - 1 if v.valence == T10 else n + i - 1
        cols[src] = col
    return CoframeEndo(alg, cols)


def vvf_of_endo(e: CoframeEndo, valence: str) -> VectorValuedForm:
    """Columns of a block-supported endomorphism as a vector-valued form."""
    alg = e.algebra
    n = alg.n
    comps: Dict[int, Form] = {}
    for b in e.cols:
        if valence == T10 and b >= n:
            raise ValueError("endo has gammabar columns; not T10-supported")
        if valence == T01 and b < n:
            raise ValueError("endo has gamma columns; not T01-supported")
        i = b + 1 if valence == T10 else b - n + 1
        comps[i] = e.column_form(b)
    return VectorValuedForm(alg, valence, comps)


def split_mono(mono: Mono, moved: Tuple[FrozenSet[int], FrozenSet[int]]) -> Tuple[Mono, Mono, int]:
    """(a, b, sign) with mono = sign a ^ b: a its factors gamma^i, i in
    moved[0], and gammabar^j, j in moved[1]; b the rest."""
    I, J = mono
    mi, mj = moved
    a = (tuple(i for i in I if i in mi), tuple(j for j in J if j in mj))
    b = (tuple(i for i in I if i not in mi), tuple(j for j in J if j not in mj))
    return a, b, wedge_mono(a, b)[0]


def wedge_terms(f: Tuple[Form, Form], b: Mono, sign: int) -> List[Tuple[Mono, ParamScalar]]:
    """The (target, coefficient) terms of sign f ^ b, one per monomial of
    f that b does not meet (``split_mono``), for f given with its
    negative: each coefficient is one of theirs, shared, not a copy."""
    out = []
    for m, v in f[0].coeffs.items():
        r = wedge_mono(m, b)
        if r is not None:
            out.append((r[1], v if r[0] == sign else f[1].coeffs[m]))
    return out


def simultaneous_contract(b: CoframeEndo, a: Form) -> Form:
    """Algebra homomorphism applying b to every 1-form factor.

    b fixes the passive part of each monomial, so its image is
    +-(image of the moved part) ^ (passive part) (``split_mono``,
    ``CoframeEndo.image``), merged once per monomial (``wedge_terms``)
    into ``b.terms`` for every later call; a monomial's coefficient
    scales its terms once.  Truncation (degree > N) is an ideal, so the
    truncated product is associative and the values exact.
    """
    alg = a.algebra
    if b.algebra is not alg and b.algebra != alg:
        raise ValueError("mismatched algebras")
    if b.terms is None:
        one, n = alg.ring.one(), alg.n
        b.moved = tuple(frozenset(i for i in range(1, n + 1) if b.cols.get(o + i - 1) != {o + i - 1: one}) for o in (0, n))
        b.images, b.terms = {((), ()): (alg.scalar_form(1), alg.scalar_form(-1))}, {}
    total: Dict[Mono, ParamScalar] = {}
    for m, c in a.coeffs.items():
        terms = b.terms.get(m)
        if terms is None:
            part, rest, sign = split_mono(m, b.moved)
            terms = b.terms[m] = wedge_terms(b.image(part), rest, sign)
        for target, v in terms:
            v = v * c
            if v:
                _accumulate(total, target, v)
    return Form(alg, total)


def neumann_invert(e: CoframeEndo) -> CoframeEndo:
    """(1 - e)^{-1} = sum e^k, truncated by the ring order.

    Requires e = O(t); raises NotPerturbative if e has a constant term,
    since order-0 invertibility is asserted rather than assumed.
    """
    if not e.is_zero() and e.min_order() == 0:
        raise NotPerturbative("operator has a constant term; refusing Neumann series")
    acc = CoframeEndo.identity(e.algebra)
    power = e
    guard = e.algebra.ring.order + 1
    k = 0
    while not power.is_zero():
        acc = acc + power
        power = power.compose(e)
        k += 1
        if k > guard:
            raise RuntimeError("Neumann series failed to truncate")
    return acc


# -- structure equations and the invariant complex -----------------------


class StructureEquations:
    """A complex Lie algebra with complex structure via d of the coframe.

    d_coframe[i] is d(gamma^i), a sum of a (2,0)-part and a (1,1)-part;
    d(gammabar^i) is its conjugate.  d_coframe is never mutated, so the
    equations own what is read off it: the del and delbar parts of d of
    each symbol (``symbol_terms``), the column tables of del and delbar
    by source bidegree (``tables``) that ``apply_del``, ``apply_delbar``
    and ``apply_d`` multiply by, assembled along the algebra's layout
    (``FormAlgebra.layout``), and the pass of ``require_flat`` or an
    inherited one (``flat``); ``with_algebra`` keeps one lift per algebra
    in ``lifts``.
    """

    __slots__ = ("name", "n", "algebra", "d_coframe", "flat", "lifts", "terms", "tables")

    def __init__(self, name: str, algebra: FormAlgebra, d_coframe: Dict[int, Form]):
        self.name = name
        self.n = algebra.n
        self.algebra = algebra
        self.d_coframe = {
            i: d_coframe.get(i, algebra.zero()) for i in range(1, algebra.n + 1)
        }
        for f in self.d_coframe.values():
            if f.algebra is not algebra and f.algebra != algebra:
                raise ValueError("structure form from a different algebra")
        self.flat = False
        self.lifts: Dict[FormAlgebra, "StructureEquations"] = {}
        self.terms: Optional[Dict[str, List[list]]] = None
        self.tables: Dict[Tuple[str, int, int], List[tuple]] = {}

    def with_algebra(self, algebra: FormAlgebra) -> "StructureEquations":
        """The same equations over another scalar ring, built once per
        algebra and kept in ``lifts``; self for its own."""
        lifted = self.lifts.get(algebra)
        if lifted is None:
            if algebra is self.algebra or algebra == self.algebra:
                return self
            lifted = self.lifts[algebra] = StructureEquations(
                self.name, algebra, {i: f.lift(algebra) for i, f in self.d_coframe.items()}
            )
        # lifting moves constants only, an injective ring map, so a pass holds there
        lifted.flat = lifted.flat or self.flat
        return lifted

    def d_symbol(self, s: int) -> Form:
        """d of coframe symbol s (0-based; gammabar block by conjugation)."""
        n = self.n
        if s < n:
            return self.d_coframe[s + 1]
        return self.d_coframe[s - n + 1].conj()

    def symbol_terms(self, op: str) -> List[list]:
        """Per coframe symbol, the (I, J, c) terms of the del or delbar part
        of its d, split once into ``terms``, the one split d = del + delbar:
        del takes the (2,0)-part of d gamma^i and the (1,1)-part of d
        gammabar^i.  A part of d gamma^i outside (2,0) + (1,1) raises
        IntegrabilityError, and nothing is kept."""
        if self.terms is None:
            for i, f in self.d_coframe.items():
                # a (2,0)- or (1,1)-monomial has degree 2 and a gamma factor
                stray = {m: c for m, c in f.coeffs.items() if len(m[0] + m[1]) != 2 or not m[0]}
                if stray:
                    raise IntegrabilityError(f"{self.name}: d gamma^{i} has parts outside (2,0) + (1,1): {Form(self.algebra, stray)!r}")
            terms: Dict[str, List[list]] = {"del": [], "delbar": []}
            for s in range(2 * self.n):
                ds = [(I, J, c) for (I, J), c in self.d_symbol(s).coeffs.items()]
                terms["del"].append([t for t in ds if len(t[0]) == 2 - (s >= self.n)])
                terms["delbar"].append([t for t in ds if len(t[0]) != 2 - (s >= self.n)])
            self.terms = terms
        return self.terms[op]

    def _assemble_table(self, op: str, p: int, q: int) -> List[tuple]:
        """The column table of op from (p,q), kept in ``tables``: per monomial
        position, its (target, coefficient) pairs, from ``symbol_terms``,
        each term negated once, by the rule of ``EvaluatedComplex.rows``
        (``Layout.assemble``)."""
        tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
        terms = [[(I, J, c, -c) for I, J, c in sterms] for sterms in self.symbol_terms(op)]
        layout = self.algebra.layout
        subsets = layout.subsets
        cols: List[list] = [[] for _ in range(self.algebra.dim(p, q))]
        rows = [EMPTY_ROW] * self.algebra.dim(tp, tq)
        if rows:
            layout.assemble(rows, terms, p, q, tq)
        ctq = comb(self.n, tq)
        # ascending rows, so each column lists its targets in row order
        for i, row in enumerate(rows):
            if row:
                target = (subsets[tp][i // ctq], subsets[tq][i % ctq])
                for j, c in row.items():
                    cols[j].append((target, c))
        table = self.tables[op, p, q] = [tuple(col) for col in cols]
        return table

    def _derive(self, a: Form, ops: Tuple[str, ...]) -> Form:
        """The sum of the derivations ops on a: each monomial times its
        column of each table, assembled on first use."""
        rank = self.algebra.layout.subset_rank
        out: Dict[Mono, ParamScalar] = {}
        for (I, J), c in a.coeffs.items():
            p, q = len(I), len(J)
            j = rank[p][I] * len(rank[q]) + rank[q][J]
            for op in ops:
                table = self.tables.get((op, p, q))
                if table is None:
                    table = self._assemble_table(op, p, q)
                for target, v in table[j]:
                    v = v * c
                    if v:
                        _accumulate(out, target, v)
        return Form(self.algebra, out)

    def apply_d(self, a: Form) -> Form:
        """d = del + delbar on a form of any bidegrees (``symbol_terms``)."""
        return self._derive(a, ("del", "delbar"))

    def apply_del(self, a: Form) -> Form:
        return self._derive(a, ("del",))

    def apply_delbar(self, a: Form) -> Form:
        return self._derive(a, ("delbar",))

    def require_flat(self) -> None:
        """Decide that these equations define a complex: IntegrabilityError
        unless every d gamma^i is a (2,0)- plus a (1,1)-form (from
        ``symbol_terms``), FlatnessError unless d^2 vanishes on the 2n
        coframe generators: d of generator s is its structure form
        (``d_symbol``), so d^2 of it is one derivation, of degree 2.

        d^2 is an even derivation, so vanishing on the generators means
        vanishing everywhere, and with no (0,2)-part so do its three
        bidegree parts del^2, delbar^2 and del delbar + delbar del, the
        identities every rank verdict of ``lemmata`` rests on; on the
        generators it is the Jacobi identity of the brackets dual to d.
        With ``symbol_terms`` this is the one decider of either condition,
        for families too: deformed equations (``deformation.deform_complex``)
        inherit se's pass where it is exact, and their (0,2)-part is the
        Beltrami differential's non-integrability.  A pass is kept in
        ``flat``; a failure is never stored.  The degree-2 tables the check
        assembles are dropped, pass or fail.
        """
        if self.flat:
            return
        kept, self.tables = self.tables, dict(self.tables)
        try:
            for s in range(2 * self.n):
                dd = self.apply_d(self.d_symbol(s))
                if dd:
                    name = f"gamma^{s + 1}" if s < self.n else f"gammabar^{s - self.n + 1}"
                    raise FlatnessError(f"{self.name} is not flat: d^2 {name} = {dd!r} is nonzero")
        finally:
            self.tables = kept
        self.flat = True


def _accumulate(out: Dict, key, v) -> None:
    """out[key] += v, dropping the key when the sum vanishes."""
    s = out.get(key)
    s = v if s is None else s + v
    if s:
        out[key] = s
    elif key in out:
        del out[key]


class InvariantComplex:
    """Bigraded complex of invariant forms: structure equations without
    parameters that define a complex, decided on construction
    (``require_flat``: no (0,2)-part, d^2 = 0), so every number and
    verdict read from it rests on d^2 = 0, and their algebra's ``layout``
    (``leibniz.Layout``), whose plans serve the equations' column tables
    and ``cohomology.EvaluatedComplex`` alike.  Equations with parameters
    raise ValueError first: d^2 = 0 modulo the ring's truncation does not
    give it at a point, so a fiber is evaluated and decided on its own."""

    def __init__(self, se: StructureEquations):
        if se.algebra.ring.m:
            raise ValueError(f"{se.name}: a complex has no parameters, but these equations have m = "
                             f"{se.algebra.ring.m}; use deformation.evaluate_se or deformation.fiber_complex")
        se.require_flat()
        self.se = se
        self.algebra = se.algebra
        self.n = se.n
        self.layout = se.algebra.layout


#: ``InvariantComplex`` under the name README's examples and the
#: benchmark build a complex by: its constructor is the validation
#: (``StructureEquations.require_flat``)
build_complex = InvariantComplex
