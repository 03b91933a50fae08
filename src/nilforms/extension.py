"""Order-by-order extension of d-closed (p,q)-forms to deformed fibers.

Working state is the transformed series W = (series the obstruction
system is written for): the extension on the deformed fiber is
e^{iota_phi} e^{iota_B} W with B = phibar (1 - phi phibar-block)^{-1},
and the original-side form is recovered by the inverse gammabar-block
substitution (``simultaneous_contract`` with phi's ``shrink`` and
``unshrink``).  Both exponentials are the one contraction power series
``algebra.contraction_series``: the ladder A_k = iota_B^k W/k! is its
series in B, and the k-sums nest it, in B and then in phi, on the
coframe factors the two hook (``ladder_sums``).  The solver keeps
running k-sums of W by t-degree (``solve_extension``), and its final
d-residual is computed directly and through them and asserted equal
(``_residuals``).  Data that depends only on (se, phi) is built once, by
its owner: se keeps the del and delbar parts of d (``symbol_terms``) and
their column tables, phi its ``deformation.BeltramiOperators`` (so every
helper here takes phi itself) and its integrability verdict for se, the
pass of se's symbolic deformation (``deformation.require_integrable``);
the operators and each coframe map keep the merged terms of each
monomial they act on, so a warm solve merges no monomials.

Each order solves the paper's conjugate system del x = delbar zeta,
delbar x = del conj(xi) on the t = 0 complex, one t-slice at a time
(``_conjugate_solution``, with the canonical minimal-norm del-delbar
preimage ``EvaluatedComplex.ddbar_preimage``); ``solve_conjugate_system``
is that solve with its hypotheses checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import (
    Form,
    Mono,
    StructureEquations,
    _accumulate,
    VectorValuedForm,
    contraction_series,
    simultaneous_contract,
    split_mono,
    wedge_terms,
)
from .cohomology import EvaluatedComplex, zero_point
from .deformation import BeltramiOperators, as_beltrami, beltrami_operators, fiber_complex, require_integrable
from .errors import IntegrabilityError, ObstructionNonvanishing, PreconditionFailed
from .lemmata import _mild_holds
from .linalg import Vec
from .positivity import is_transverse, pkahler_degree
from .scalars import QI_ONE, GaussianRational, ParamScalar


def extension_map(phi: VectorValuedForm, omega: Form) -> Form:
    """e^{iota_phi | iota_phibar}: substitute gamma -> (1+phi)(gamma) on
    holomorphic factors and the conjugate on anti-holomorphic factors,
    through phi's cached ``ext_transform``.

    For invariant forms the coefficient pullback is the identity, so the
    map is exactly the simultaneous coframe substitution.
    """
    return simultaneous_contract(beltrami_operators(phi).ext_transform, omega.lift(phi.algebra))


def ladder_sums(phi: VectorValuedForm, w: Form) -> Tuple[Dict[int, Form], ...]:
    """The three k-sums of the obstruction system applied to W, each by
    t-degree (sums[k][l] its degree-l part, present where nonzero):

    S1 = sum_{k>=1} iota_phi^k/k! iota_B^k/k! W      (type-preserving)
    S2 = sum_{k>=1} iota_phi^{k-1}/(k-1)! iota_B^k/k! W   (shift (+1,-1))
    S3 = sum_{k>=0} iota_phi^{k+1}/(k+1)! iota_B^k/k! W   (shift (-1,+1))

    Each monomial of W is +-a ^ b, with a its factors that phi or B hooks
    (``BeltramiOperators.phi_hooks`` and ``b_hooks``) and b the rest
    (``algebra.split_mono``).  iota_phi and iota_B are even derivations
    that vanish on b, so iota(x ^ b) = iota(x) ^ b at every step of the
    ladder, and each k-sum of the monomial is +-(that k-sum of a) ^ b;
    truncation in t is an ideal, so the truncated wedge is exact.  Each
    monomial's merged terms are built once, by t-degree
    (``_monomial_terms``), and degrees add under products.
    """
    ops = beltrami_operators(phi)
    alg = phi.algebra
    if w.algebra is not alg and w.algebra != alg:
        raise ValueError("mismatched algebras")
    sums: Tuple[Dict[int, Dict[Mono, ParamScalar]], ...] = ({}, {}, {})
    for m, c in w.coeffs.items():
        terms = ops.terms.get(m)
        if terms is None:
            terms = ops.terms[m] = _monomial_terms(phi, ops, m)
        for d, cd in c.by_degree():
            for out, k_terms in zip(sums, terms):
                for e, target, v in k_terms:
                    if d + e <= alg.ring.order:
                        _accumulate(out.setdefault(d + e, {}), target, v * cd)
    return tuple({l: Form(alg, part) for l, part in out.items() if part} for out in sums)


def _monomial_terms(phi: VectorValuedForm, ops: BeltramiOperators, m: Mono) -> Tuple[list, ...]:
    """The merged (t-degree, target, coefficient) terms of the three
    k-sums of the monomial m: those of its hooked part a, the contraction
    series of B on a and of phi on each of its terms, kept by t-degree
    with their negatives in ``ops.k_sums``, wedged with the rest."""
    a, b, sign = split_mono(m, (ops.phi_hooks, ops.b_hooks))
    if a not in ops.k_sums:
        zero = phi.algebra.zero()
        s1 = s2 = s3 = zero
        for k, a_k in enumerate(contraction_series(ops.b_field, Form(phi.algebra, {a: phi.algebra.ring.one()}))):
            # terms[j] = iota_phi^j/j! iota_B^k/k! a, zero past the series
            terms = contraction_series(phi, a_k) + [zero] * (k + 2)
            if k:
                s1, s2 = s1 + terms[k], s2 + terms[k - 1]
            s3 = s3 + terms[k + 1]
        ops.k_sums[a] = tuple({e: (f, -f) for e, f in s.by_degree().items()} for s in (s1, s2, s3))
    return tuple([(e, t, v) for e, f in k.items() for t, v in wedge_terms(f, b, sign)] for k in ops.k_sums[a])


def obstruction_residual(
    se: StructureEquations, phi: VectorValuedForm, omega: Form
) -> Tuple[Form, Form, Form]:
    """(left, right, full) residuals of d(extension of omega) = 0, with
    W and its k-sums rebuilt from omega (``_residuals``)."""
    se_r = se.with_algebra(phi.algebra)
    omega = omega.lift(phi.algebra)
    omega_tilde = simultaneous_contract(beltrami_operators(phi).shrink, omega)
    return _residuals(se_r, phi, omega, omega_tilde, ladder_sums(phi, omega_tilde))


def _residuals(
    se_r: StructureEquations, phi: VectorValuedForm, omega: Form, omega_tilde: Form, sums: Tuple[Dict[int, Form], ...]
) -> Tuple[Form, Form, Form]:
    """(left, right, full) residuals of d(extension of omega) = 0, given
    W and its k-sums (S1, S2, S3) by t-degree (``ladder_sums``).

    left and right are the (p+1,q)- and (p,q+1)-graded components
    computed through the k-sums; full is d of the extension computed
    directly, from omega alone.  The two routes are asserted to agree
    component by component before returning, so sums that are not the
    k-sums of W raise AssertionError.
    """
    p, q = omega.bidegree()
    full = se_r.apply_d(extension_map(phi, omega))
    s1, s2, s3 = (sum(parts.values(), omega.algebra.zero()) for parts in sums)
    left = se_r.apply_del(omega_tilde + s1) + se_r.apply_delbar(s2)
    right = se_r.apply_delbar(omega_tilde + s1) + se_r.apply_del(s3)
    if full.component(p + 1, q) != left:
        raise AssertionError("direct and k-sum (p+1,q) residuals disagree")
    if full.component(p, q + 1) != right:
        raise AssertionError("direct and k-sum (p,q+1) residuals disagree")
    return left, right, full


def residual_norms_by_order(f: Form, order: int) -> List[Fraction]:
    """Exact squared coefficient norms of the homogeneous pieces of f
    through the order, in one pass over its terms: a term's t-degree is
    its key floor-divided by the ring's ``unit``."""
    unit = f.algebra.ring.unit
    out = [Fraction(0)] * (order + 1)
    for c in f.coeffs.values():
        for k, v in c.terms.items():
            if k // unit <= order:
                out[k // unit] += v.norm2()
    return out


@dataclass
class ExtensionState:
    """Solver output: the series state, the recovered form and the
    per-order residuals of the two obstruction components.  The ladder
    A_k = iota_B^k(W)/k! of W is ``contraction_series`` of phi's B field
    (``beltrami_operators``) on ``omega_tilde``, built only where asked
    for.  In the deformed coframe the extension map is the identity on
    coefficients, so the extension on the fiber at a point is
    ``omega.eval(point)``, read against the deformed basis monomials."""

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
    running sums by t-degree and adds the k-sums of each piece (omega0,
    then each nonzero correction, the last one included) once, so order
    l reads their degree-l parts directly.  The running sums are then
    the k-sums of the whole W, and the final residual check reads them.

    Raises PreconditionFailed when the order is negative or exceeds the
    ring truncation, omega0 is zero, of mixed bidegree, t-dependent or
    not d-closed, phi is not integrable, or a required mild lemma fails
    at t = 0 (``failing_hypothesis``), NotPerturbative when phi has a
    constant term, and ObstructionNonvanishing(order, component) when an
    order equation is exactly unsolvable.
    """
    se_r, omega0, order, ec0 = _checked_inputs(se, phi, omega0, order, check_lemmata, ec0)
    p, q = omega0.bidegree()
    sums = ladder_sums(phi, omega0)
    omega_tilde = omega0
    zero = se_r.algebra.zero()
    for l in range(1, order + 1):
        piece = _order_correction(se_r, ec0, [s.get(l, zero) for s in sums], p, q, l)
        if piece:
            for s, new in zip(sums, ladder_sums(phi, piece)):
                for e, f in new.items():
                    s[e] = s[e] + f if e in s else f
            omega_tilde = omega_tilde + piece
    return _extension_state(se_r, phi, omega0, omega_tilde, sums, order)


def _checked_inputs(se, phi, omega0, order, check_lemmata, ec0):
    """solve_extension's preconditions; returns (se, omega0, order, ec0)
    over phi's algebra, building the t = 0 complex when ec0 is None."""
    as_beltrami(phi)
    alg = phi.algebra
    ring = alg.ring
    order = ring.order if order is None else order
    if order < 0:
        raise PreconditionFailed(f"requested order {order} is negative")
    if order > ring.order:
        raise PreconditionFailed(
            f"requested order {order} exceeds the ring truncation {ring.order}"
        )
    p, q = _initial_bidegree(omega0)
    se_r = se.with_algebra(alg)
    omega0 = omega0.lift(alg)
    if se_r.apply_d(omega0):
        raise PreconditionFailed("omega0 is not d-closed")
    try:
        require_integrable(se, phi)
    except IntegrabilityError:
        raise PreconditionFailed("phi is not integrable") from None

    if ec0 is None:
        ec0 = fiber_complex(se_r, None, zero_point(ring.m))
    failing = failing_hypothesis(ec0, p, q) if check_lemmata else None
    if failing:
        raise PreconditionFailed(f"the ({failing[0]},{failing[1]})-th mild lemma fails at t = 0")
    return se_r, omega0, order, ec0


def failing_hypothesis(ec: EvaluatedComplex, p: int, q: int) -> Optional[Tuple[int, int]]:
    """The bidegree of the first of the (p,q+1)- and (q,p+1)-th mild lemmas,
    the paper's hypothesis for a (p,q)-form, that fails on ec, or None; each
    is asked once, by mild's rank identity (``lemmata._mild_holds``), which
    builds no witness and holds outside 0..n, as at (p,n+1)."""
    for mp, mq in dict.fromkeys(((p, q + 1), (q, p + 1))):
        if not _mild_holds(ec, "del", mp, mq):
            return mp, mq
    return None


def _initial_bidegree(omega0: Form) -> Tuple[int, int]:
    """The bidegree of omega0, the form at t = 0 that a solve extends;
    PreconditionFailed if it is zero, of mixed bidegree or t-dependent."""
    try:
        pq = omega0.bidegree()
    except ValueError as exc:
        raise PreconditionFailed(f"omega0: {exc}") from None
    if not all(c.is_constant() for c in omega0.coeffs.values()):
        raise PreconditionFailed("omega0 depends on t; it must be the form at t = 0")
    return pq


def _order_correction(
    se_r: StructureEquations, ec0: EvaluatedComplex, parts: List[Form], p: int, q: int, l: int
) -> Form:
    """The order-l correction of W, from the degree-l parts (S1_l, S2_l,
    S3_l) of the k-sums of the series below order l: -S1_l minus the
    solution of the conjugate system with zeta = S2_l and conj(xi) = S3_l."""
    s1l, s2l, s3l = parts
    left, right = se_r.apply_delbar(s2l), se_r.apply_del(s3l)
    # solvability identities: del delbar of both sums vanish at this order
    if se_r.apply_del(left):
        raise AssertionError(f"del delbar of the left sum nonzero at order {l}")
    if se_r.apply_delbar(right):
        raise AssertionError(f"del delbar of the right sum nonzero at order {l}")
    return -s1l - _conjugate_solution(ec0, left, right, p, q, l)


def _extension_state(se_r, phi, omega0, omega_tilde, sums, order) -> ExtensionState:
    """Recover omega from W and check its residuals with W and its
    k-sums, the solver's running sums."""
    omega = simultaneous_contract(beltrami_operators(phi).unshrink, omega_tilde)
    left, right, full = _residuals(se_r, phi, omega, omega_tilde, sums)
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


def _conjugate_solution(
    ec: EvaluatedComplex, left: Form, right: Form, p: int, q: int, order: Optional[int]
) -> Form:
    """delbar u - del v in (p,q), for the minimal-norm u and v with
    del delbar u = left, a (p+1,q)-form, and del delbar v = right, a
    (p,q+1)-form, on ec, a complex without parameters.  Each t-slice of
    left and right is solved on its own (``EvaluatedComplex.ddbar_preimage``)
    and its preimage mapped by the kept rows of delbar or del; a slice
    outside im del delbar raises ObstructionNonvanishing(order, side)."""
    images: Dict[int, Vec] = {}
    sides = (("left", left, QI_ONE, "delbar", p, q - 1), ("right", right, -QI_ONE, "del", p - 1, q))
    for side, y, sign, op, sp, sq in sides:
        if not y:
            continue
        rows = ec.rows(op, sp, sq)
        for expo, v in ec.form_to_slices(y, sp + 1, sq + 1).items():
            x = ec.ddbar_preimage(sp + 1, sq + 1, v)
            if x is None:
                raise ObstructionNonvanishing(order, side)
            linalg.add_scaled_into(images.setdefault(expo, {}), sign, linalg.mat_vec(rows, x))
    return ec.slices_to_form(images, p, q, left.algebra)


def solve_conjugate_system(ec: EvaluatedComplex, zeta: Form, xi: Form, p: int, q: int) -> Form:
    """Canonical x in (p,q) with del x = delbar zeta and delbar x = del conj(xi).

    ec is the complex of one fiber, such as t = 0; zeta, a
    (p+1,q-1)-form, and xi, a (q+1,p-1)-form, may depend on t, and each
    t-slice is solved on its own.  Requires del delbar zeta = 0,
    delbar del conj(xi) = 0 and the (p,q+1)- and (q,p+1)-th mild
    lemmata on the complex (checked, PreconditionFailed names whichever
    hypothesis broke); they make every slice solvable.
    """
    se = ec.cx.se.with_algebra((zeta if zeta else xi).algebra)
    if zeta and not zeta.is_homogeneous(p + 1, q - 1):
        raise ValueError("zeta must be a (p+1,q-1)-form")
    if xi and not xi.is_homogeneous(q + 1, p - 1):
        raise ValueError("xi must be a (q+1,p-1)-form")
    left, right = se.apply_delbar(zeta), se.apply_del(xi.conj())
    if se.apply_del(left):
        raise PreconditionFailed("del delbar zeta != 0")
    if se.apply_delbar(right):
        raise PreconditionFailed("delbar del conj(xi) != 0")
    failing = failing_hypothesis(ec, p, q)
    if failing:
        raise PreconditionFailed(f"the ({failing[0]},{failing[1]})-th mild lemma fails on this complex")
    # the hypotheses make every slice solvable, so no order is ever reported
    return _conjugate_solution(ec, left, right, p, q, None)


def bc_nontriviality(ec_t: EvaluatedComplex, ext: Form) -> bool:
    """True iff ext is not del_t delbar_t-exact on the deformed fiber, by
    the lemma witnesses' test (``EvaluatedComplex.in_ddbar_image``)."""
    if not ext:
        return False
    p, q = ext.bidegree()
    return not ec_t.in_ddbar_image(ec_t.form_to_vec(ext, p, q), p, q)


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

    omega0 must be real, d-closed and transverse at its own p
    (``pkahler_degree``, 1 <= p <= n-1); the solver runs on omega0
    directly and the result is symmetrized to restore literal realness
    before the positivity checks.
    """
    alg = phi.algebra
    _initial_bidegree(omega0)
    p = pkahler_degree(omega0, alg.n)
    omega0 = omega0.lift(alg)
    if omega0.conj() != omega0:
        raise PreconditionFailed("omega0 is not real")
    base_verdict = is_transverse(omega0.eval(zero_point(alg.ring.m)), p, samples=samples, seed=seed)
    if not base_verdict.holds:
        raise PreconditionFailed("omega0 is not transverse at t = 0")

    state = solve_extension(se, phi, omega0, order=order)
    sym = state.omega + state.omega.conj()
    sym = sym.scale(GaussianRational(Fraction(1, 2)))
    # symmetrization must not break d-closedness of the extension
    _, _, full = obstruction_residual(se, phi, sym)
    if any(residual_norms_by_order(full, state.order)):
        raise AssertionError("symmetrized extension lost d-closedness")

    pts = small_points(alg.ring.m)
    verdicts = [is_transverse(sym.eval(pt), p, samples=samples, seed=seed) for pt in pts]
    return PKahlerExtension(state=state, symmetrized=sym, verdicts=verdicts, points=pts)
