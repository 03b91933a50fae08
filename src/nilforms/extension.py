"""Order-by-order extension of d-closed (p,q)-forms to deformed fibers.

Working state is the transformed series W = (series the obstruction
system is written for): the extension on the deformed fiber is
e^{iota_phi} e^{iota_B} W with B = phibar (1 - phi phibar-block)^{-1},
and the original-side form is recovered by the inverse gammabar-block
substitution (``simultaneous_contract`` with phi's ``shrink`` and
``unshrink``).  Both exponentials are the one contraction power series
``algebra.contraction_series``: the ladder A_k = iota_B^k W/k! is its
series in B, and the k-sums nest it, in B and then in phi.  Each order
solves two del-delbar equations with the canonical minimal-norm
solution (``EvaluatedComplex.ddbar_preimage``, whose one exact
reduction per coefficient slice both decides solvability and solves).
The k-sums are linear in W and O(t), so the solver keeps running sums
and adds the k-sums of each new homogeneous piece of W once, instead of
recomputing them over the whole series at every order.  The final
d-residual is recomputed from scratch, from omega alone, both directly
and through the graded k-sums.  Data that depends only on (se, phi) is
built once, by its owner: se keeps its Lie bracket table, phi its
``BeltramiOperators`` (so every helper here takes phi itself) and its
integrability verdict for se (``deformation.require_integrable``, which
checks once per se object and never stores a failure), and each of
their coframe maps its prefix images, so a solve pays for its own form
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    StructureEquations,
    T01,
    VectorValuedForm,
    build_complex,
    contraction_series,
    endo_of_vvf,
    neumann_invert,
    simultaneous_contract,
    vvf_of_endo,
)
from .cohomology import EvaluatedComplex, zero_point
from .deformation import (
    as_beltrami,
    coframe_transform,
    evaluate_se,
    require_integrable,
)
from .errors import IntegrabilityError, ObstructionNonvanishing, PreconditionFailed
from .scalars import GaussianRational, ParamScalar


@dataclass
class BeltramiOperators:
    """Derived contraction data shared by the ladder and the solver."""

    b_field: VectorValuedForm  # phibar corrected by the Neumann factor
    ext_transform: CoframeEndo  # 1 + phi + phibar on the coframe
    shrink: CoframeEndo  # gammabar-block factor (1 - phi phibar): omega -> W
    unshrink: CoframeEndo  # its Neumann inverse: W -> omega


def beltrami_operators(phi: VectorValuedForm) -> BeltramiOperators:
    """phi's contraction data, built once into ``phi.operators``."""
    if phi.operators is None:
        as_beltrami(phi)
        p_endo = endo_of_vvf(phi)
        q_endo = p_endo.conj()
        pq = p_endo.compose(q_endo)
        unshrink = neumann_invert(pq)
        phi.operators = BeltramiOperators(
            b_field=vvf_of_endo(q_endo.compose(unshrink), T01),
            ext_transform=coframe_transform(phi),
            shrink=CoframeEndo.identity(phi.algebra) - pq,
            unshrink=unshrink,
        )
    return phi.operators


def extension_map(phi: VectorValuedForm, omega: Form) -> Form:
    """e^{iota_phi | iota_phibar}: substitute gamma -> (1+phi)(gamma) on
    holomorphic factors and the conjugate on anti-holomorphic factors,
    through phi's cached ``ext_transform``.

    For invariant forms the coefficient pullback is the identity, so the
    map is exactly the simultaneous coframe substitution.
    """
    return simultaneous_contract(beltrami_operators(phi).ext_transform, omega.lift(phi.algebra))


def a_ladder(phi: VectorValuedForm, omega_tilde: Form) -> List[Form]:
    """A_k = iota_B^k(W)/k!; nonzero only for 0 <= k <= min(q, n-p)."""
    return contraction_series(beltrami_operators(phi).b_field, omega_tilde)


def ladder_sums(phi: VectorValuedForm, omega_tilde: Form) -> Tuple[Form, Form, Form]:
    """The three k-sums of the obstruction system applied to W:

    S1 = sum_{k>=1} iota_phi^k/k! iota_B^k/k! W      (type-preserving)
    S2 = sum_{k>=1} iota_phi^{k-1}/(k-1)! iota_B^k/k! W   (shift (+1,-1))
    S3 = sum_{k>=0} iota_phi^{k+1}/(k+1)! iota_B^k/k! W   (shift (-1,+1))
    """
    zero = omega_tilde.algebra.zero()
    s1 = s2 = s3 = zero
    b_field = beltrami_operators(phi).b_field
    for k, a_k in enumerate(contraction_series(b_field, omega_tilde)):
        # terms[j] = iota_phi^j/j! iota_B^k/k! W, zero past the series
        terms = contraction_series(phi, a_k)
        terms += [zero] * (k + 2 - len(terms))
        if k:
            s1, s2 = s1 + terms[k], s2 + terms[k - 1]
        s3 = s3 + terms[k + 1]
    return s1, s2, s3


def obstruction_residual(
    se: StructureEquations, phi: VectorValuedForm, omega: Form
) -> Tuple[Form, Form, Form]:
    """(left, right, full) residuals of d(extension of omega) = 0.

    left and right are the (p+1,q)- and (p,q+1)-graded components
    computed through the k-sums; full is d of the extension computed
    directly.  The two routes are asserted to agree component by
    component before returning.
    """
    ops = beltrami_operators(phi)
    se_r = se.with_algebra(phi.algebra)
    omega = omega.lift(phi.algebra)
    p, q = omega.bidegree()
    omega_tilde = simultaneous_contract(ops.shrink, omega)
    full = se_r.apply_d(extension_map(phi, omega))
    s1, s2, s3 = ladder_sums(phi, omega_tilde)
    left = se_r.apply_del(omega_tilde + s1) + se_r.apply_delbar(s2)
    right = se_r.apply_delbar(omega_tilde + s1) + se_r.apply_del(s3)
    if full.component(p + 1, q) != left:
        raise AssertionError("direct and k-sum (p+1,q) residuals disagree")
    if full.component(p, q + 1) != right:
        raise AssertionError("direct and k-sum (p,q+1) residuals disagree")
    return left, right, full


def residual_norms_by_order(f: Form, order: int) -> List[Fraction]:
    """Exact squared coefficient norms of the homogeneous pieces."""
    out = []
    for l in range(order + 1):
        piece = f.homogeneous_part(l)
        total = Fraction(0)
        for c in piece.coeffs.values():
            for v in c.terms.values():
                total += v.norm2()
        out.append(total)
    return out


@dataclass
class ExtensionState:
    """Solver output: the series state, the recovered form and the
    per-order residuals of the two obstruction components.  The ladder
    of W is ``a_ladder(phi, omega_tilde)``, built only where asked for."""

    omega0: Form
    omega_tilde: Form
    omega: Form
    bidegree: Tuple[int, int]
    order: int
    residual_left_by_order: List[Fraction]
    residual_right_by_order: List[Fraction]
    full_residual: Form

    @property
    def d_closed_through_order(self) -> bool:
        return all(x == 0 for x in self.residual_left_by_order) and all(
            x == 0 for x in self.residual_right_by_order
        )

    def extension_at(self, point) -> Form:
        """Coefficients of the extension on the deformed fiber at a point.

        In the deformed coframe the extension map is the identity on
        coefficients, so this is just omega evaluated at the point and
        reread against the deformed basis monomials.
        """
        return self.omega.eval(point)


def solve_extension(
    se: StructureEquations,
    phi: VectorValuedForm,
    omega0: Form,
    order: Optional[int] = None,
    check_lemmata: bool = True,
    ec0: Optional[EvaluatedComplex] = None,
) -> ExtensionState:
    """Extend a d-closed (p,q)-form to the deformed fibers through the
    requested order, solving each order with the canonical minimal-norm
    del-delbar preimage.

    The k-sums are linear in W and every term is O(t), so their degree-l
    part depends only on the pieces of W below degree l: the solver keeps
    running sums and adds the k-sums of the newest piece (omega0, then
    each nonzero correction) once.

    Raises PreconditionFailed when the order exceeds the ring truncation,
    omega0 is not d-closed, phi is not integrable, or a required mild
    lemma fails at t = 0, and
    ObstructionNonvanishing(order, component) when an order equation is
    exactly unsolvable.
    """
    se_r, omega0, order, ec0 = _checked_inputs(se, phi, omega0, order, check_lemmata, ec0)
    p, q = omega0.bidegree()
    s1 = s2 = s3 = omega0.algebra.zero()
    omega_tilde = piece = omega0
    for l in range(1, order + 1):
        if piece:
            t1, t2, t3 = ladder_sums(phi, piece)
            s1, s2, s3 = s1 + t1, s2 + t2, s3 + t3
        piece = _order_correction(se_r, ec0, (s1, s2, s3), p, q, l)
        omega_tilde = omega_tilde + piece
    return _extension_state(se_r, phi, omega0, omega_tilde, order)


def _checked_inputs(se, phi, omega0, order, check_lemmata, ec0):
    """solve_extension's preconditions; returns (se, omega0, order, ec0)
    over phi's algebra, building the t = 0 complex when ec0 is None."""
    as_beltrami(phi)
    alg = phi.algebra
    ring = alg.ring
    order = ring.order if order is None else order
    if order > ring.order:
        raise PreconditionFailed(
            f"requested order {order} exceeds the ring truncation {ring.order}"
        )
    se_r = se.with_algebra(alg)
    omega0 = omega0.lift(alg)
    p, q = omega0.bidegree()
    if se_r.apply_d(omega0):
        raise PreconditionFailed("omega0 is not d-closed")
    try:
        require_integrable(se, phi)
    except IntegrabilityError:
        raise PreconditionFailed("phi is not integrable") from None

    if ec0 is None:
        se0 = evaluate_se(se_r, zero_point(ring.m))
        ec0 = EvaluatedComplex(build_complex(se0), ())
    if check_lemmata:
        from .lemmata import mild

        for (mp, mq) in {(p, q + 1), (q, p + 1)}:
            ok_m, _ = mild(ec0, mp, mq)
            if not ok_m:
                raise PreconditionFailed(
                    f"the ({mp},{mq})-th mild lemma fails at t = 0"
                )
    return se_r, omega0, order, ec0


def _order_correction(
    se_r: StructureEquations, ec0: EvaluatedComplex, sums: Tuple[Form, Form, Form], p: int, q: int, l: int
) -> Form:
    """The order-l correction of W, read off the degree-l parts of the
    k-sums of the series below order l."""
    s1l, s2l, s3l = (s.homogeneous_part(l) for s in sums)
    # solvability identities: del delbar of both sums vanish at this order
    if se_r.apply_del(se_r.apply_delbar(s2l)):
        raise AssertionError(f"del delbar of the left sum nonzero at order {l}")
    if se_r.apply_del(se_r.apply_delbar(s3l)):
        raise AssertionError(f"del delbar of the right sum nonzero at order {l}")
    correction = -s1l
    z_left = se_r.apply_delbar(s2l)
    if z_left:
        correction = correction - _ddbar_correction(ec0, z_left, "left", p, q, l)
    z_right = se_r.apply_del(s3l)
    if z_right:
        correction = correction + _ddbar_correction(ec0, z_right, "right", p, q, l)
    return correction


def _extension_state(se_r, phi, omega0, omega_tilde, order) -> ExtensionState:
    """Recover omega from W and recompute its residuals from scratch."""
    omega = simultaneous_contract(beltrami_operators(phi).unshrink, omega_tilde)
    left, right, full = obstruction_residual(se_r, phi, omega)
    return ExtensionState(
        omega0=omega0,
        omega_tilde=omega_tilde,
        omega=omega,
        bidegree=omega0.bidegree(),
        order=order,
        residual_left_by_order=residual_norms_by_order(left, order),
        residual_right_by_order=residual_norms_by_order(right, order),
        full_residual=full,
    )


def _ddbar_correction(
    ec: EvaluatedComplex, z: Form, side: str, p: int, q: int, order: int
) -> Form:
    """delbar x (left side) or del x (right side) in (p,q) for the
    minimal-norm x with del delbar x = z at t = 0, where z lies in
    (p+1,q) or (p,q+1).  z is solved one coefficient slice (monomial in
    t) at a time; a slice outside im del delbar raises
    ObstructionNonvanishing(order, side)."""
    op, sp, sq = ("delbar", p, q - 1) if side == "left" else ("del", p - 1, q)
    index = ec.cx.index(sp + 1, sq + 1)
    slices: Dict[Tuple[int, ...], Dict[int, GaussianRational]] = {}
    for m, c in z.coeffs.items():
        for expo, val in c.terms.items():
            slices.setdefault(expo, {})[index[m]] = val
    cols = ec.columns(op, sp, sq)
    out: Dict[int, Dict[Tuple[int, ...], GaussianRational]] = {}
    for expo, y in slices.items():
        x = ec.ddbar_preimage(sp + 1, sq + 1, y)
        if x is None:
            raise ObstructionNonvanishing(order, side)
        for i, c in linalg.columns_vec(cols, x).items():
            out.setdefault(i, {})[expo] = c
    basis = ec.cx.basis(p, q)
    ring = z.algebra.ring
    return Form(z.algebra, {basis[i]: ParamScalar(ring, out[i]) for i in sorted(out)})


def bc_nontriviality(ec_t: EvaluatedComplex, ext: Form) -> bool:
    """True iff ext is not del_t delbar_t-exact on the deformed fiber."""
    if not ext:
        return False
    p, q = ext.bidegree()
    v = ec_t.form_to_vec(ext, p, q)
    return not ec_t.image_echelon("ddbar", p, q).contains(v)


@dataclass
class PKahlerExtension:
    state: ExtensionState
    symmetrized: Form  # real corrected form on the reference side
    verdicts: List  # transversality verdicts at sampled points
    points: List[Tuple[GaussianRational, ...]]

    @property
    def transverse_at_all_points(self) -> bool:
        return all(v.holds for v in self.verdicts)


def small_points(m: int) -> List[Tuple[GaussianRational, ...]]:
    """A few real points with every norm convention below 1/100."""
    return [
        tuple(GaussianRational(Fraction((-1) ** k, d + 2 * k)) for k in range(m))
        for d in (251, 253, 255)
    ]


def pkahler_extend(
    se: StructureEquations,
    phi: VectorValuedForm,
    omega0: Form,
    order: Optional[int] = None,
    samples: int = 200,
    seed: int = 7,
) -> PKahlerExtension:
    """Extend a p-Kaehler form and sample transversality on nearby fibers.

    omega0 must be real, d-closed and transverse with p <= n-1; the
    solver runs on omega0 directly and the result is symmetrized to
    restore literal realness before the positivity checks.
    """
    from .positivity import check_pkahler_degree, is_transverse

    alg = phi.algebra
    omega0 = omega0.lift(alg)
    p = omega0.bidegree()[0]
    check_pkahler_degree(omega0, p, alg.n)
    if omega0.conj() != omega0:
        raise PreconditionFailed("omega0 is not real")
    se_r = se.with_algebra(alg)
    base_verdict = is_transverse(omega0.eval(zero_point(alg.ring.m)), p, samples=samples, seed=seed)
    if not base_verdict.holds:
        raise PreconditionFailed("omega0 is not transverse at t = 0")

    state = solve_extension(se, phi, omega0, order=order)
    sym = state.omega + state.omega.conj()
    sym = sym.scale(GaussianRational(Fraction(1, 2)))
    # symmetrization must not break d-closedness of the extension
    _, _, full = obstruction_residual(se_r, phi, sym)
    for l in range(state.order + 1):
        if full.homogeneous_part(l):
            raise AssertionError("symmetrized extension lost d-closedness")

    pts = small_points(alg.ring.m)
    verdicts = [is_transverse(sym.eval(pt), p, samples=samples, seed=seed) for pt in pts]
    return PKahlerExtension(state=state, symmetrized=sym, verdicts=verdicts, points=pts)
