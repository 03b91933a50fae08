"""Beltrami-differential calculus on invariant complexes.

Lie brackets are read off the structure equations through the pairing
d omega(x, y) = -omega([x, y]); the Schouten bracket of two
Beltrami differentials is extracted by contracting the Tian-Todorov
identity against the coframe, which reduces to the familiar
wedge-of-components formula on abelian complex structures and adds the
del gamma correction on non-abelian ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    FormAlgebra,
    StructureEquations,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    endo_of_vvf,
    exp_contract,
    neumann_invert,
    simultaneous_contract,
)
from .cohomology import EvaluatedComplex, zero_point
from .errors import IntegrabilityError, NonInvertibleCoframe
from .linalg import Rows
from .scalars import GaussianRational, ParamScalar, PolyRing

HALF = GaussianRational(Fraction(1, 2))

BeltramiDifferential = VectorValuedForm


def as_beltrami(v: VectorValuedForm) -> VectorValuedForm:
    """Validate that v is a (1,0)-vector-valued (0,1)-form."""
    if v.valence != T10:
        raise ValueError("a Beltrami differential takes values in T^{1,0}")
    deg = v.form_bidegree()
    if deg not in (None, (0, 1)):
        raise ValueError(f"Beltrami components must be (0,1)-forms, got {deg}")
    return v


def evaluate_se(se: StructureEquations, point) -> StructureEquations:
    """Structure equations with parameters fixed (constant scalar ring).

    The copy starts unchecked even when se passed ``require_flat``:
    evaluation at a point is not a ring map of the truncated ring, so
    d^2 = 0 modulo the truncation does not give d^2 = 0 at the point.
    """
    alg0 = FormAlgebra(se.n, PolyRing(0, 0))
    return StructureEquations(
        se.name, alg0, {i: f.eval(point) for i, f in se.d_coframe.items()}
    )


# -- Lie brackets ----------------------------------------------------------


class LieBracketTable:
    """Structure constants of the complexified Lie algebra.

    bracket(a, b) maps frame symbols (0..2n-1, the thetas then the
    thetabars) to the coefficient dict of [e_a, e_b] over the frame.  By
    d omega(x, y) = -omega([x, y]), each monomial c omega^a ^ omega^b
    (symbols a < b) of d(omega^s) is [e_a, e_b]^s = -c, and the table
    reads each monomial once.  It validates the equations first
    (``StructureEquations.require_flat``): d^2 = 0 on the generators is
    the Jacobi identity of these brackets.
    """

    def __init__(self, se: StructureEquations):
        se.require_flat()
        self.algebra = se.algebra
        self.n = n = se.n
        self._table: Dict[Tuple[int, int], Dict[int, ParamScalar]] = {}
        for s in range(2 * n):
            for (I, J), c in se.d_symbol(s).coeffs.items():
                a, b = [i - 1 for i in I] + [n + j - 1 for j in J]
                self._table.setdefault((a, b), {})[s] = -c

    def bracket(self, a: int, b: int) -> Dict[int, ParamScalar]:
        if a == b:
            return {}
        if a < b:
            return dict(self._table.get((a, b), {}))
        return {s: -c for s, c in self._table.get((b, a), {}).items()}


def lie_brackets(se: StructureEquations) -> LieBracketTable:
    """Brackets dual to d, read once per structure equations and kept in
    ``se.brackets``.  Equations that ``require_flat`` refuses store
    nothing, so every call on them raises its error again.
    """
    if se.brackets is None:
        se.brackets = LieBracketTable(se)
    return se.brackets


# -- differentials on vector-valued forms ---------------------------------


def _frame_derivative(se: StructureEquations, v: VectorValuedForm, holomorphic: bool) -> VectorValuedForm:
    """delbar (holomorphic=False) or del (True) on a vector-valued form.

    delbar(omega (x) e) = delbar omega (x) e + (-1)^|omega| omega ^
    gammabar^k (x) [thetabar_k, e] (valence-respecting part), and the
    mirrored formula with gamma^k and [theta_k, e] for del.
    """
    alg = v.algebra
    n = alg.n
    table = lie_brackets(se)
    apply_scalar = se.apply_del if holomorphic else se.apply_delbar
    out: Dict[int, Form] = {}

    def add(i: int, f: Form):
        if f:
            out[i] = out.get(i, alg.zero()) + f

    for i, comp in v.components.items():
        add(i, apply_scalar(comp))
        deg = _total_degree(comp)
        sign = -1 if deg % 2 else 1
        e_sym = (i - 1) if v.valence == T10 else (n + i - 1)
        for k in range(1, n + 1):
            frame_sym = (k - 1) if holomorphic else (n + k - 1)
            br = table.bracket(frame_sym, e_sym)
            part = (
                {s: c for s, c in br.items() if s < n}
                if v.valence == T10
                else {s: c for s, c in br.items() if s >= n}
            )
            if not part:
                continue
            one_form = alg.gamma(k) if holomorphic else alg.gammabar(k)
            wedge = comp.wedge(one_form)
            if sign < 0:
                wedge = -wedge
            if not wedge:
                continue
            for s, c in part.items():
                tgt = (s + 1) if v.valence == T10 else (s - n + 1)
                add(tgt, wedge.scale(c))
    return VectorValuedForm(alg, v.valence, out)


def _total_degree(f: Form) -> int:
    degs = {len(m[0]) + len(m[1]) for m in f.coeffs}
    if len(degs) > 1:
        raise ValueError("component of mixed total degree")
    return degs.pop() if degs else 0


def delbar_on_vectors(se: StructureEquations, v: VectorValuedForm) -> VectorValuedForm:
    return _frame_derivative(se, v, holomorphic=False)


# -- Schouten bracket -------------------------------------------------------


def schouten(
    se: StructureEquations, phi: VectorValuedForm, psi: VectorValuedForm
) -> VectorValuedForm:
    """Schouten-Nijenhuis bracket of two Beltrami differentials.

    Extracted from the Tian-Todorov identity against the coframe:
    [phi,psi]^j = -iota_psi iota_phi del gamma^j + iota_phi del psi^j
    + iota_psi del phi^j.  Symmetric and bilinear; the full identity on
    arbitrary forms is exercised by the test suite.
    """
    as_beltrami(phi)
    as_beltrami(psi)
    alg = phi.algebra
    comps: Dict[int, Form] = {}
    for j in range(1, alg.n + 1):
        val = alg.zero()
        dgj = se.apply_del(alg.gamma(j))
        if dgj:
            val = val - contract(psi, contract(phi, dgj))
        psi_j = psi.component(j)
        if psi_j:
            val = val + contract(phi, se.apply_del(psi_j))
        phi_j = phi.component(j)
        if phi_j:
            val = val + contract(psi, se.apply_del(phi_j))
        if val:
            comps[j] = val
    return VectorValuedForm(alg, T10, comps)


def check_integrability(se: StructureEquations, phi: VectorValuedForm) -> Tuple[bool, VectorValuedForm]:
    """Residual delbar phi - (1/2)[phi, phi], exactly; zero iff integrable.

    Stores nothing; ``require_integrable`` keeps phi's passing verdict.
    """
    as_beltrami(phi)
    se_lifted = se.with_algebra(phi.algebra)
    residual = delbar_on_vectors(se_lifted, phi) - schouten(se_lifted, phi, phi).scale(HALF)
    return residual.is_zero(), residual


def require_integrable(se: StructureEquations, phi: VectorValuedForm) -> None:
    """IntegrabilityError, with the residual, unless phi is integrable on se.

    phi owns the verdict: the first passing ``check_integrability``
    against se is kept in ``phi.integrable_on``, so later calls with the
    same se object check nothing.  Any other se object is checked again,
    and a failure is never stored, so a non-integrable phi is checked
    and refused on every call.
    """
    if phi.integrable_on is se:
        return
    ok, residual = check_integrability(se, phi)
    if not ok:
        raise IntegrabilityError(
            f"phi is not integrable; delbar phi - (1/2)[phi,phi] = {residual!r}"
        )
    phi.integrable_on = se


# -- the extension map and deformed complexes -------------------------------


def coframe_transform(phi: VectorValuedForm) -> CoframeEndo:
    """1 + phi + conj(phi) acting on the coframe span."""
    alg = phi.algebra
    p_endo = endo_of_vvf(phi)
    return CoframeEndo.identity(alg) + p_endo + p_endo.conj()


def main1_residual(se: StructureEquations, phi: VectorValuedForm, alpha: Form) -> Form:
    """Residual of the extended Leibniz identity
    d(e^{iota_phi} a) = e^{iota_phi}((d + del iota_phi - iota_phi del
    + iota_{delbar phi - (1/2)[phi,phi]}) a), for arbitrary phi.

    The orientation of the correction term is forced by the two pinned
    conventions: iota_phi gamma^i = phi^i (the deformed-coframe fixture)
    and the bracket extracted from the contraction identity
    iota_[phi,psi] = [iota_phi, [del, iota_psi]].  With those,
    [delbar, iota_phi] = +iota_{delbar phi} on generators, hence the
    plus sign; a global flip of the vector-valued sign conventions flips
    it back.  For integrable phi the correction vanishes either way.
    """
    as_beltrami(phi)
    se = se.with_algebra(phi.algebra)
    alpha = alpha.lift(phi.algebra)
    theta = delbar_on_vectors(se, phi) - schouten(se, phi, phi).scale(HALF)
    lhs = se.apply_d(exp_contract(phi, alpha))
    inner = (
        se.apply_d(alpha)
        + se.apply_del(contract(phi, alpha))
        - contract(phi, se.apply_del(alpha))
        + contract(theta, alpha)
    )
    return lhs - exp_contract(phi, inner)


def deform_complex(
    se: StructureEquations,
    phi: VectorValuedForm,
    point: Optional[Sequence[GaussianRational]] = None,
) -> StructureEquations:
    """Structure equations in the deformed coframe gamma^i(t) = (1+phi) gamma^i.

    point=None keeps coefficients in the truncated ring (symbolic mode);
    otherwise everything is evaluated exactly at the point first.  phi
    must be integrable: this operation refuses to produce a non-complex
    almost-complex object, through ``require_integrable``, so it reads
    the verdict phi owns for se and checks only when none is stored.  The
    equations it returns have passed ``require_flat``, so
    ``build_complex`` on them checks nothing again.
    """
    as_beltrami(phi)
    require_integrable(se, phi)
    se_r = se.with_algebra(phi.algebra)
    if point is not None:
        phi0 = phi.eval(point)
        se0 = evaluate_se(se_r, point)
        alg0 = phi0.algebra
        c = coframe_transform(phi0).cols
        n2 = 2 * alg0.n
        cols = [{a: x.eval(()) for a, x in c.get(b, {}).items() if x} for b in range(n2)]
        inv = linalg.solve_square(cols, linalg.identity_rows(n2))
        if inv is None:
            raise NonInvertibleCoframe(
                "1 + phi + conj(phi) is singular at the evaluation point"
            )
        d_endo = CoframeEndo(
            alg0,
            {b: {a: alg0.ring.const(x) for a, x in col.items()} for b, col in enumerate(inv)},
        )
        return _deformed_equations(se0, phi0, d_endo)
    p_endo = endo_of_vvf(phi)
    d_endo = neumann_invert(-(p_endo + p_endo.conj()))
    return _deformed_equations(se_r, phi, d_endo)


def fiber_complex(
    se: StructureEquations, phi: Optional[VectorValuedForm], point: Sequence[GaussianRational]
) -> EvaluatedComplex:
    """The evaluated complex of the fiber at point: se's own when its ring
    has no parameters, so se's ``require_flat`` pass is reused; se
    deformed along phi (``deform_complex``) when phi is given and the
    point is not t = 0; else se evaluated at the point."""
    if se.algebra.ring.m == 0:
        fiber = se
    elif phi is not None and any(point):
        fiber = deform_complex(se, phi, point=point)
    else:
        fiber = evaluate_se(se, point)
    return EvaluatedComplex(build_complex(fiber), ())


def _deformed_equations(
    se: StructureEquations, phi: VectorValuedForm, inverse_transform: CoframeEndo
) -> StructureEquations:
    """d of the new coframe re-expressed in the new coframe basis,
    validated (``require_flat``)."""
    alg = se.algebra
    out: Dict[int, Form] = {}
    for i in range(1, se.n + 1):
        d_new = se.apply_d(alg.gamma(i) + phi.component(i))
        out[i] = simultaneous_contract(inverse_transform, d_new)
    deformed = StructureEquations(f"{se.name}:deformed", alg, out)
    deformed.require_flat()
    return deformed


# -- Kuranishi recursion -----------------------------------------------------


class VectorHodge:
    """Hodge machinery for A^{0,q}(T^{1,0}) in the orthonormal frame
    {gammabar^J (x) theta_i}, over a constant scalar ring."""

    def __init__(self, se: StructureEquations):
        if se.algebra.ring.m != 0:
            raise ValueError("VectorHodge runs at a fixed structure (constant ring)")
        self.se = se
        self.alg = se.algebra
        self.n = se.n
        self._basis: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        self._rows: Dict[int, Rows] = {}

    def basis(self, q: int) -> List[Tuple[int, Tuple[int, ...]]]:
        if q not in self._basis:
            self._basis[q] = [
                (i, J)
                for i in range(1, self.n + 1)
                for J in combinations(range(1, self.n + 1), q)
            ]
        return self._basis[q]

    def dim(self, q: int) -> int:
        return self.n * comb(self.n, q)

    def vvf_to_vec(self, v: VectorValuedForm, q: int) -> Dict[int, object]:
        index = {bk: pos for pos, bk in enumerate(self.basis(q))}
        out: Dict[int, object] = {}
        for i, comp in v.components.items():
            for (I, J), c in comp.coeffs.items():
                if I or len(J) != q:
                    raise ValueError("component outside A^{0,q}")
                out[index[(i, J)]] = c
        return out

    def vec_to_vvf(self, vec: Dict[int, object], q: int, alg: FormAlgebra) -> VectorValuedForm:
        basis = self.basis(q)
        comps: Dict[int, Form] = {}
        for pos, c in vec.items():
            i, J = basis[pos]
            scalar = c if isinstance(c, ParamScalar) else alg.ring.const(c)
            mono_form = Form(alg, {((), J): scalar})
            comps[i] = comps.get(i, alg.zero()) + mono_form
        return VectorValuedForm(alg, T10, comps)

    def delbar_rows(self, q: int) -> Rows:
        if q not in self._rows:
            rows: Rows = [{} for _ in range(self.dim(q + 1))]
            index = {bk: pos for pos, bk in enumerate(self.basis(q + 1))}
            for col, (i, J) in enumerate(self.basis(q)):
                v = VectorValuedForm(
                    self.alg, T10, {i: Form(self.alg, {((), J): self.alg.ring.one()})}
                )
                dv = delbar_on_vectors(self.se, v)
                for ii, comp in dv.components.items():
                    for (I2, J2), c in comp.coeffs.items():
                        rows[index[(ii, J2)]][col] = c.constant_term()
            self._rows[q] = rows
        return self._rows[q]

    def laplacian_rows(self, q: int) -> Rows:
        total = linalg.zero_rows(self.dim(q))
        if q + 1 <= self.n:
            d = self.delbar_rows(q)
            dstar = linalg.conj_transpose(d, self.dim(q))
            total = linalg.mat_add(total, linalg.mat_mul(dstar, d))
        if q >= 1:
            dprev = self.delbar_rows(q - 1)
            dprev_star = linalg.conj_transpose(dprev, self.dim(q - 1))
            total = linalg.mat_add(total, linalg.mat_mul(dprev, dprev_star))
        return total


@dataclass
class KuranishiResult:
    """Power-series family phi(t) plus the per-order obstruction data."""

    harmonic_basis: List[VectorValuedForm]
    phi: VectorValuedForm
    obstructions: List[VectorValuedForm]  # harm. projection of [phi,phi]_k
    ring: PolyRing

    @property
    def unobstructed_through_order(self) -> bool:
        return all(ob.is_zero() for ob in self.obstructions)


def kuranishi_expand(
    se: StructureEquations,
    basis_directions: Optional[Sequence[int]] = None,
    order: int = 4,
) -> KuranishiResult:
    """phi_1 = sum t_nu eta_nu plus the recursive higher-order corrections
    phi_k = (1/2) delbar* G sum_{i+j=k} [phi_i, phi_j], with the harmonic
    projections of [phi,phi] reported order by order."""
    se0 = se if se.algebra.ring.m == 0 else evaluate_se(se, zero_point(se.algebra.ring.m))
    vh = VectorHodge(se0)
    harm_vecs = linalg.nullspace(vh.laplacian_rows(1), vh.dim(1))
    if basis_directions is not None:
        harm_vecs = [harm_vecs[i] for i in basis_directions]
    m = len(harm_vecs)
    ring = PolyRing(m, order)
    alg = FormAlgebra(se0.n, ring)
    se_r = se0.with_algebra(alg)
    eta = [vh.vec_to_vvf(v, 1, FormAlgebra(se0.n, PolyRing(0, 0))) for v in harm_vecs]

    # phi_1 = sum t_nu eta_nu
    phi_orders: List[VectorValuedForm] = []
    phi1 = VectorValuedForm(alg, T10, {})
    for nu, h in enumerate(harm_vecs):
        t = ring.t(nu + 1)
        lifted = vh.vec_to_vvf({k: t * c for k, c in h.items()}, 1, alg)
        phi1 = phi1 + lifted
    phi_orders.append(phi1)

    dstar_rows = linalg.conj_transpose(vh.delbar_rows(1), vh.dim(1))
    hproj2, green2 = linalg.harmonic_green(vh.laplacian_rows(2), vh.dim(2))
    solve_rows = linalg.mat_mul(dstar_rows, green2)

    obstructions: List[VectorValuedForm] = []
    for k in range(2, order + 1):
        bracket_k = VectorValuedForm(alg, T10, {})
        for i in range(1, k):
            j = k - i
            if i <= len(phi_orders) and j <= len(phi_orders):
                bracket_k = bracket_k + schouten(se_r, phi_orders[i - 1], phi_orders[j - 1])
        bvec = vh.vvf_to_vec(bracket_k, 2)
        obs_vec = linalg.mat_vec(hproj2, bvec)
        obstructions.append(vh.vec_to_vvf(obs_vec, 2, alg))
        corr_vec = linalg.mat_vec(solve_rows, bvec)
        corr = vh.vec_to_vvf(corr_vec, 1, alg).scale(HALF)
        phi_orders.append(corr)

    phi = phi_orders[0]
    for extra in phi_orders[1:]:
        phi = phi + extra
    return KuranishiResult(eta, phi, obstructions, ring)
