"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload is built by ``make(name, seed, goldens)`` after the
``nilforms`` package is importable.  A workload hands out operations in
rounds; a round is the smallest group of operations that keeps the
workload's mix (three n = 6 products to one n = 7 product, or three
(3,3) solves to one (4,4) solve), so a run that stops at a round
boundary always measures the same mix.  An operation is a pair of
callables: ``run()`` is the timed call into nilforms, ``check(result)``
verifies its output afterwards and raises ``CheckFailed`` on a wrong
answer.  Inputs are generated before ``run()`` starts, outside the timed
interval, so the program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from nilforms import cli, io as nio
from nilforms.algebra import FormAlgebra, InvariantComplex, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, betti, full_report, zero_point
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.errors import ObstructionNonvanishing
from nilforms.extension import pkahler_extend, solve_extension
from nilforms.lemmata import lemma_report, verify_witness
from nilforms.scalars import GaussianRational, PolyRing

class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    __slots__ = ("label", "key", "run", "check")

    def __init__(self, label: str, key, run: Callable, check: Callable):
        self.label = label  # operation class, for the traced report
        self.key = key  # identity of the input, for the repeated-input share
        self.run = run
        self.check = check


# -- product_tables -----------------------------------------------------------


def _relabel(se: StructureEquations, alg: FormAlgebra, offset: int, perm: Dict[int, int]):
    """d gamma^i of one factor, moved to gamma^{perm[i + offset]} of alg."""
    out = {}
    for i, f in se.d_coframe.items():
        g = alg.zero()
        for (I, J), c in f.coeffs.items():
            term = alg.scalar_form(c.constant_term())
            for a in I:
                term = term.wedge(alg.gamma(perm[a + offset]))
            for b in J:
                term = term.wedge(alg.gammabar(perm[b + offset]))
            g = g + term
        out[perm[i + offset]] = g
    return out


def product_se(name: str, factors, perm=None) -> StructureEquations:
    """Structure equations of a product, with the coframe relabelled by perm."""
    n = sum(f.n for f in factors)
    perm = perm or {i: i for i in range(1, n + 1)}
    alg = FormAlgebra(n, PolyRing(0, 0))
    d: Dict[int, object] = {}
    offset = 0
    for f in factors:
        d.update(_relabel(f, alg, offset, perm))
        offset += f.n
    return StructureEquations(name, alg, d)


def _convolve(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _convolve2(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    n = len(a) + len(b) - 1
    out = [[0] * n for _ in range(n)]
    for p, row in enumerate(a):
        for q, x in enumerate(row):
            if x:
                for r, row2 in enumerate(b):
                    for s, y in enumerate(row2):
                        out[p + r][q + s] += x * y
    return out


def lemma_flags(rep) -> dict:
    """Lemma verdicts of a LemmaReport; invariant under coframe relabelling."""
    obj = rep.to_json_dict()
    return {k: obj[k] for k in ("mild", "dual_mild", "strong", "weak", "standard")}


def table_summary(report, lemmas) -> dict:
    obj = report.to_json_dict()
    out = {k: obj[k] for k in ("h_bc", "h_a", "h_dolbeault", "betti")}
    out["h_del"] = report.h_del
    out["lemmata"] = lemma_flags(lemmas)
    return out


def _factors():
    iw = catalog_load("iwasawa3").se
    bc0 = evaluate_se(catalog_load("bcvary10").se, zero_point(4))
    return {
        "iwasawa": iw,
        "c1": catalog_load("abelian_1").se,
        "c3": catalog_load("abelian_3").se,
        "bcvary10_0": bc0,
    }


#: one round, in order; three of every four operations are n = 6
PRODUCTS = (
    ("iwasawa2", ("iwasawa", "iwasawa")),
    ("iwasawa_c3", ("iwasawa", "c3")),
    ("bcvary10_0_c", ("bcvary10_0", "c1")),
    ("iwasawa2_c", ("iwasawa", "iwasawa", "c1")),
)


class ProductTables:
    round_size = len(PRODUCTS)
    round_s = 12.5
    pass_rounds = 1

    def __init__(self, seed: int, goldens: dict):
        self.rng = random.Random(seed)
        self.goldens = goldens["product_tables"]
        factors = _factors()
        self.products = {
            name: [factors[f] for f in parts] for name, parts in PRODUCTS
        }
        # Kuenneth references: Betti and Dolbeault tables of each factor
        self.factor_tables = {}
        for fname, se in factors.items():
            rep = full_report(EvaluatedComplex(build_complex(se), ()))
            self.factor_tables[fname] = (rep.betti, rep.h_dolbeault)
        self.kunneth = {}
        for name, parts in PRODUCTS:
            b, h = self.factor_tables[parts[0]]
            for f in parts[1:]:
                b = _convolve(b, self.factor_tables[f][0])
                h = _convolve2(h, self.factor_tables[f][1])
            self.kunneth[name] = (b, h)
        for name, factors_ in self.products.items():
            build_complex(product_se(name, factors_))

    def rounds(self):
        while True:
            yield [self._op(name) for name, _ in PRODUCTS]

    def _op(self, name: str) -> Op:
        factors = self.products[name]
        n = sum(f.n for f in factors)
        images = self.rng.sample(range(1, n + 1), n)
        perm = dict(zip(range(1, n + 1), images))
        se = product_se(name, factors, perm)
        build_complex(se)  # validated as an input, outside the timed call

        def run():
            ec = EvaluatedComplex(InvariantComplex(se), ())
            return full_report(ec), lemma_report(ec)

        def check(result):
            report, lemmas = result
            betti_k, dolb_k = self.kunneth[name]
            _require(report.betti == betti_k, f"{name}: Betti numbers break Kuenneth")
            _require(report.h_dolbeault == dolb_k, f"{name}: Dolbeault table breaks Kuenneth")
            _require(
                table_summary(report, lemmas) == self.goldens[name],
                f"{name}: tables differ from the recorded goldens",
            )

        return Op(name, (name, tuple(images)), run, check)


# -- fiber_sweep -----------------------------------------------------------------


def _small_rational(rng: random.Random) -> Fraction:
    """A nonzero rational of absolute value at most 1/3 with a small denominator."""
    den = rng.randint(5, 31)
    num = rng.randint(1, den // 3)
    return Fraction(num if rng.random() < 0.5 else -num, den)


class FiberSweep:
    round_size = 2
    round_s = 1.6
    pass_rounds = 4

    def __init__(self, seed: int, goldens: dict):
        self.rng = random.Random(seed)
        self.seen = set()
        entry = catalog_load("bcvary10")
        self.entry = entry
        self.m = entry.se.algebra.ring.m
        ec0 = EvaluatedComplex(build_complex(evaluate_se(entry.se, zero_point(self.m))), ())
        # Nomizu: b_k is that of the Lie algebra, the same on every fiber
        self.betti0 = [betti(ec0, k) for k in range(2 * ec0.n + 1)]

    def _point(self) -> Tuple[Fraction, ...]:
        while True:
            pt = tuple(_small_rational(self.rng) for _ in range(self.m))
            if pt not in self.seen:
                self.seen.add(pt)
                return pt

    def rounds(self):
        while True:
            yield [self._op("cohomology"), self._op("lemmata")]

    def _op(self, command: str) -> Op:
        pt = self._point()
        text = ",".join(str(x) for x in pt)
        argv = [command, "--manifold", "catalog:bcvary10"]
        if command == "lemmata":
            argv.append("--all")
        argv += [f"--t={text}", "--json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            _require(code == 0, f"{command} at t={text} exited {code}: {err.strip()}")
            try:
                obj = json.loads(out)  # exactly one document, or this raises
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"{command} did not print one JSON document: {exc}")
            _require(obj.get("manifold") == "bcvary10", "wrong manifold in the report")
            _require(
                [Fraction(s) for s in obj["t"]] == list(pt), "report names another point"
            )
            if command == "cohomology":
                self._check_tables(obj)
            else:
                self._check_witnesses(obj, pt)

        return Op(command, (command, pt), run, check)

    def _check_tables(self, obj: dict) -> None:
        n = obj["n"]
        b = obj["betti"]
        _require(b == self.betti0, "Betti numbers changed under deformation")
        for k in range(2 * n + 1):
            pairs = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
            dolb = sum(obj["h_dolbeault"][p][q] for p, q in pairs)
            bc = sum(obj["h_bc"][p][q] for p, q in pairs)
            aep = sum(obj["h_a"][p][q] for p, q in pairs)
            _require(dolb >= b[k], f"Froelicher inequality fails in degree {k}")
            _require(bc + aep >= 2 * b[k], f"Angella-Tomassini inequality fails in degree {k}")

    def _check_witnesses(self, obj: dict, pt) -> None:
        point = tuple(GaussianRational(x) for x in pt)
        se_t = deform_complex(self.entry.se, self.entry.beltrami, point=point)
        ec = EvaluatedComplex(build_complex(se_t), ())
        failures = {f"{kind}:{k}" for kind in ("mild", "dual_mild", "strong")
                    for k, v in obj[kind].items() if not v}
        failures |= {f"weak:{k}" for k, v in obj["weak"].items() if not v}
        wit = obj["witnesses"]
        _require(
            {k for k in wit if not k.startswith("standard:")} == failures,
            "witnesses do not match the failed lemmata",
        )
        _require(
            (obj["standard"] is False) == any(k.startswith("standard:") for k in wit),
            "standard verdict and witness disagree",
        )
        for key, form_obj in wit.items():
            kind, where = key.split(":")
            if kind == "weak":
                p, q = int(where), int(where) + 1
            else:
                p, q = (int(x) for x in where.split(","))
            verdict = verify_witness(ec, kind, p, q, nio.obj_to_form(form_obj))
            _require(all(verdict.values()), f"witness {key} does not re-verify: {verdict}")


# -- extension_batch -----------------------------------------------------------


def _multiplier(rng: random.Random) -> GaussianRational:
    while True:
        z = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if z:
            return z


def outcome_of(result) -> str:
    """plain, corrected or obstructed: the solver's answer for one generator."""
    if isinstance(result, ObstructionNonvanishing):
        return "obstructed"
    return "plain" if result.omega == result.omega0 else "corrected"


class ExtensionBatch:
    round_size = 4
    round_s = 0.75
    pass_rounds = 21  # 21 rounds = 62 (3,3) + 21 (4,4) solves + 1 p-Kaehler extension

    def __init__(self, seed: int, goldens: dict):
        self.rng = random.Random(seed)
        self.expected = goldens["extension_batch"]["outcomes"]
        entry = catalog_load("bcvary10")
        self.entry = entry
        self.alg = entry.se.algebra
        se0 = evaluate_se(entry.se, zero_point(self.alg.ring.m))
        self.ec0 = EvaluatedComplex(build_complex(se0), ())
        self.gens = {
            "4,4": self.ec0.kernel("stacked", 4, 4),
            "3,3": self.ec0.kernel("stacked", 3, 3),
        }
        for key, vecs in self.gens.items():
            _require(len(vecs) == len(self.expected[key]), f"{key}: generator count changed")

    def rounds(self):
        while True:
            order33 = self.rng.sample(range(len(self.gens["3,3"])), len(self.gens["3,3"]))
            order44 = self.rng.sample(range(len(self.gens["4,4"])), len(self.gens["4,4"]))
            for r in range(self.pass_rounds):
                ops = [self._solve("3,3", order33[3 * r + j]) for j in range(3) if 3 * r + j < len(order33)]
                if len(ops) < 3:
                    ops.append(self._pkahler())
                ops.append(self._solve("4,4", order44[r]))
                yield ops

    def _solve(self, bidegree: str, g: int) -> Op:
        p, q = (int(x) for x in bidegree.split(","))
        c = _multiplier(self.rng)
        vec = {k: c * x for k, x in self.gens[bidegree][g].items()}
        omega0 = self.ec0.vec_to_form(vec, p, q, self.alg)
        expected = self.expected[bidegree][g]
        entry, ec0 = self.entry, self.ec0

        def run():
            try:
                return solve_extension(entry.se, entry.beltrami, omega0, ec0=ec0, check_lemmata=False)
            except ObstructionNonvanishing as exc:
                return exc

        def check(result):
            outcome = outcome_of(result)
            _require(outcome == expected, f"({bidegree}) generator {g} {outcome}, expected {expected}")
            if outcome == "obstructed":
                return
            _require(result.omega0 == omega0 and result.bidegree == (p, q), "solver changed its input")
            _require(result.order == 4 and result.d_closed_through_order, "residual nonzero through order 4")
            for l in range(result.order + 1):
                _require(not result.full_residual.homogeneous_part(l), f"d-residual at order {l}")

        return Op(f"solve_{bidegree.replace(',', '')}", (bidegree, g, c.re, c.im), run, check)

    def _pkahler(self) -> Op:
        entry = self.entry

        def run():
            return pkahler_extend(entry.se, entry.beltrami, entry.forms["balanced"])

        def check(ext):
            _require(ext.state.d_closed_through_order, "p-Kaehler extension is not d-closed")
            _require(bool(ext.verdicts) and ext.transverse_at_all_points,
                     "p-Kaehler extension is not transverse")

        return Op("pkahler", ("pkahler",), run, check)


def make(name: str, seed: int, goldens: dict):
    return {
        "product_tables": ProductTables,
        "fiber_sweep": FiberSweep,
        "extension_batch": ExtensionBatch,
    }[name](seed, goldens)
