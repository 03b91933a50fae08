"""Beltrami-differential calculus on invariant complexes.

Lie brackets are recovered from the structure equations through the
pairing d omega(x, y) = -omega([x, y]); the Schouten bracket of two
Beltrami differentials is extracted by contracting the Tian-Todorov
identity against the coframe, which reduces to the familiar
wedge-of-components formula on abelian complex structures and adds the
del gamma correction on non-abelian ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    FormAlgebra,
    StructureEquations,
    T10,
    VectorValuedForm,
    contract,
    endo_of_vvf,
    exp_contract,
    neumann_invert,
    simultaneous_contract,
)
from .cohomology import zero_point
from .errors import IntegrabilityError, JacobiError, NonInvertibleCoframe
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
    """Structure equations with parameters fixed (constant scalar ring)."""
    alg0 = FormAlgebra(se.n, PolyRing(0, 0))
    return StructureEquations(
        se.name, alg0, {i: f.eval(point) for i, f in se.d_coframe.items()}
    )


# -- Lie brackets ----------------------------------------------------------


def _two_form_eval(f: Form, a: int, b: int, n: int) -> Optional[ParamScalar]:
    """Evaluate a 2-form on frame vectors (e_a, e_b), symbols 0..2n-1."""
    acc = None
    for (I, J), c in f.coeffs.items():
        syms = [i - 1 for i in I] + [n + j - 1 for j in J]
        s1, s2 = syms
        if s1 == a and s2 == b:
            acc = c if acc is None else acc + c
        elif s1 == b and s2 == a:
            acc = -c if acc is None else acc - c
    return acc


class LieBracketTable:
    """Structure constants of the complexified Lie algebra.

    bracket(a, b) maps frame symbols (0..2n-1, the thetas then the
    thetabars) to the coefficient dict of [e_a, e_b] over the frame.
    """

    def __init__(self, se: StructureEquations):
        self.algebra = se.algebra
        self.n = se.n
        self._table: Dict[Tuple[int, int], Dict[int, ParamScalar]] = {}
        n = se.n
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                out: Dict[int, ParamScalar] = {}
                for s in range(2 * n):
                    val = _two_form_eval(se.d_symbol(s), a, b, n)
                    if val:
                        out[s] = -val
                if out:
                    self._table[(a, b)] = out

    def bracket(self, a: int, b: int) -> Dict[int, ParamScalar]:
        if a == b:
            return {}
        if a < b:
            return dict(self._table.get((a, b), {}))
        return {s: -c for s, c in self._table.get((b, a), {}).items()}

    def check_jacobi(self) -> None:
        n2 = 2 * self.n
        for a in range(n2):
            for b in range(a + 1, n2):
                for c in range(b + 1, n2):
                    acc: Dict[int, ParamScalar] = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        inner = self.bracket(y, z)
                        for mid, coeff in inner.items():
                            outer = self.bracket(x, mid)
                            for s, c2 in outer.items():
                                v = coeff * c2
                                if not v:
                                    continue
                                tot = acc.get(s)
                                tot = v if tot is None else tot + v
                                if tot:
                                    acc[s] = tot
                                elif s in acc:
                                    del acc[s]
                    if acc:
                        raise JacobiError(
                            f"Jacobi identity fails on frame triple {(a, b, c)}"
                        )

    def reconstruct_d(self) -> Dict[int, Form]:
        """Rebuild d gamma^i from the brackets (duality round-trip)."""
        alg = self.algebra
        n = self.n
        out = {}
        for i in range(1, n + 1):
            total = alg.zero()
            for a in range(2 * n):
                for b in range(a + 1, 2 * n):
                    coeff = self.bracket(a, b).get(i - 1)
                    if not coeff:
                        continue
                    wa = alg.symbol_form(a)
                    wb = alg.symbol_form(b)
                    total = total + wa.wedge(wb).scale(-coeff)
            out[i] = total
        return out


def lie_brackets(se: StructureEquations) -> LieBracketTable:
    """Brackets dual to d; Jacobi verified (JacobiError on failure).

    The table is built and checked once per structure equations and kept
    in ``se.brackets``; a Jacobi failure stores nothing, so every call on
    such equations raises.
    """
    if se.brackets is None:
        table = LieBracketTable(se)
        table.check_jacobi()
        se.brackets = table
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


def del_on_vectors(se: StructureEquations, v: VectorValuedForm) -> VectorValuedForm:
    return _frame_derivative(se, v, holomorphic=True)


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
    the verdict phi owns for se and checks only when none is stored.
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


def _deformed_equations(
    se: StructureEquations, phi: VectorValuedForm, inverse_transform: CoframeEndo
) -> StructureEquations:
    """d of the new coframe re-expressed in the new coframe basis."""
    alg = se.algebra
    out: Dict[int, Form] = {}
    for i in range(1, se.n + 1):
        new_i = alg.gamma(i) + phi.component(i)
        d_new = se.apply_d(new_i)
        in_new_basis = simultaneous_contract(inverse_transform, d_new)
        bad = in_new_basis.component(0, 2)
        if bad:
            raise IntegrabilityError(
                f"deformed d gamma^{i} acquired a (0,2)-part: {bad!r}"
            )
        stray = in_new_basis - in_new_basis.component(2, 0) - in_new_basis.component(1, 1)
        if stray:
            raise IntegrabilityError(
                f"deformed d gamma^{i} left degree 2: {stray!r}"
            )
        out[i] = in_new_basis
    return StructureEquations(f"{se.name}:deformed", alg, out)


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
            from itertools import combinations

            self._basis[q] = [
                (i, J)
                for i in range(1, self.n + 1)
                for J in combinations(range(1, self.n + 1), q)
            ]
        return self._basis[q]

    def dim(self, q: int) -> int:
        from math import comb

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


def mat_vec_param(rows: Rows, x: Dict[int, ParamScalar], ring: PolyRing) -> Dict[int, ParamScalar]:
    """Constant QI matrix applied to a vector of truncated polynomials."""
    out: Dict[int, ParamScalar] = {}
    for i, r in enumerate(rows):
        acc = ring.zero()
        for k, c in r.items():
            xk = x.get(k)
            if xk:
                acc = acc + xk * c
        if acc:
            out[i] = acc
    return out


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
        obs_vec = mat_vec_param(hproj2, bvec, ring)
        obstructions.append(vh.vec_to_vvf(obs_vec, 2, alg))
        corr_vec = mat_vec_param(solve_rows, bvec, ring)
        corr = vh.vec_to_vvf(corr_vec, 1, alg).scale(HALF)
        phi_orders.append(corr)

    phi = phi_orders[0]
    for extra in phi_orders[1:]:
        phi = phi + extra
    return KuranishiResult(eta, phi, obstructions, ring)
