"""Span recorder for the traced run, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods of every
``nilforms`` module, plus a few private layer boundaries, so that each
call records a span (name, start, end, parent span, operation id) in
memory.  Three details make the wrapping complete:

* methods are patched on the class object, so every instance sees them;
* a module that did ``from .x import y`` holds its own binding of y, so
  every ``nilforms`` module (and the benchmark's own modules) is scanned
  and each binding of a wrapped function is replaced, including values
  of module-level dicts such as ``cohomology._WHICH``;
* modules are reached through ``importlib``, because the package
  namespace rebinds some names (``nilforms.cohomology`` is the function).

Scalar arithmetic is not wrapped: a span around ``GaussianRational.__mul__``
would swamp every other span.  ``ScalarCounter`` counts it in a separate
pass instead.  Inner-loop helpers listed in ``SKIP`` are left unwrapped for
the same reason; their time is self time of the span that calls them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MODULES = (
    "algebra", "catalog", "cli", "cohomology", "deformation",
    "extension", "io", "lemmata", "linalg", "positivity",
)

#: classes and functions called in the innermost loops (sparse vector
#: updates, monomial algebra, basis lookups), and the Gauss-Jordan kernel
#: whose only caller is dense_inverse
SKIP = {
    "linalg.vec_add", "linalg.vec_scale", "linalg.vec_sub_scaled",
    "linalg.Echelon.reduce", "linalg.solve_dense",
    "algebra.merge_indices", "algebra.wedge_mono", "algebra.interior_mono",
    "algebra.Form", "algebra.FormAlgebra", "algebra.VectorValuedForm", "algebra.CoframeEndo",
    "algebra.InvariantComplex.basis", "algebra.InvariantComplex.index", "algebra.InvariantComplex.dim",
    "cohomology.EvaluatedComplex.dim",
}

#: private functions that are layer boundaries or carry a counter
PRIVATE = {
    "cli._cmd_cohomology", "cli._cmd_lemmata", "cli._evaluated", "cli._load_manifold", "cli._emit",
    "cohomology.HodgeContext.__init__", "cohomology.HodgeContext._harmonic_green",
    "algebra.InvariantComplex._columns",
}


def _wanted(name: str) -> bool:
    if name in PRIVATE:
        return True
    if any(name == s or name.startswith(s + ".") for s in SKIP):
        return False
    return not name.rsplit(".", 1)[-1].startswith("_")


# -- counters attached to spans ------------------------------------------------


def _pre_cache_miss(attr: str, key: Callable) -> Callable:
    """True when the call will build its result: its key is not yet in the
    instance's cache dict, or the instance has no such cache."""
    def pre(args):
        cache = getattr(args[0], attr, None)
        return cache is None or key(args) not in cache
    return pre


def _post_insert(c, args, result, pre):
    c["linalg.echelon_inserts"] += 1
    c["linalg.echelon_useful"] += bool(result)


def _post_dense_inverse(c, args, result, pre):
    n = len(args[0])
    c["linalg.dense_inverse_calls"] += 1
    c["linalg.dense_inverse_max_dim"] = max(c["linalg.dense_inverse_max_dim"], n)
    c["linalg.dense_ops_computed"] += n ** 3


def _post_rows(c, args, result, pre):
    if pre:
        ec, _, p, q = args[:4]
        c["cohomology.matrix_nnz"] += sum(len(r) for r in result)
        c["cohomology.matrix_entries"] += len(result) * ec.dim(p, q)


def _post_green(c, args, result, pre):
    c["cohomology.green_requests"] += 1
    c["cohomology.green_builds"] += bool(pre)


def _post_columns(c, args, result, pre):
    if pre:
        c["algebra.assembly_columns"] += len(result)


def _post_nullspace(c, args, result, pre):
    c["linalg.kernel_vectors_built"] += len(result)


def _post_lemma_report(c, args, result, pre):
    c["lemmata.witnesses"] += len(result.witnesses)


def _counter(metric: str) -> Callable:
    def post(c, args, result, pre):
        c[metric] += 1
    return post


HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "linalg.Echelon.insert": (None, _post_insert),
    "linalg.nullspace": (None, _post_nullspace),
    "linalg.dense_inverse": (None, _post_dense_inverse),
    "cohomology.EvaluatedComplex.rows": (_pre_cache_miss("_rows", lambda a: tuple(a[1:4])), _post_rows),
    "cohomology.HodgeContext.__init__": (None, _counter("cohomology.hodge_contexts")),
    "cohomology.HodgeContext._harmonic_green": (
        _pre_cache_miss("_cache", lambda a: (f"hg-{a[1]}", a[2], a[3])), _post_green),
    "algebra.InvariantComplex._columns": (_pre_cache_miss("_mats", lambda a: tuple(a[1:4])), _post_columns),
    "algebra.StructureEquations.apply_d": (None, _counter("algebra.derivation_calls")),
    "algebra.StructureEquations.apply_del": (None, _counter("algebra.derivation_calls")),
    "algebra.StructureEquations.apply_delbar": (None, _counter("algebra.derivation_calls")),
    "deformation.check_integrability": (None, _counter("deformation.integrability_calls")),
    "positivity.is_transverse": (None, _counter("positivity.transverse_calls")),
    "lemmata.lemma_report": (None, _post_lemma_report),
}


class Tracer:
    """Spans and counters of the wrapped calls made inside an operation
    (between ``begin_op`` and ``end_op``), kept in memory."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._undo: List[Callable] = []

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        pre, post = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation: input generation or a check
                return fn(*args, **kwargs)
            state = pre(args) if pre else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if post:
                post(counts, args, result, state)
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every selected function and method; ``uninstall`` reverts."""
        modules = {m: importlib.import_module(f"nilforms.{m}") for m in MODULES}
        replaced: Dict[int, Callable] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _wanted(f"{short}.{attr}"):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and _wanted(f"{short}.{attr}"):
                    for mname, meth in list(vars(obj).items()):
                        qual = f"{short}.{attr}.{mname}"
                        if inspect.isfunction(meth) and _wanted(qual):
                            self._setattr(obj, mname, self._wrap(qual, meth))
        targets = list(modules.values()) + [importlib.import_module("nilforms")] + list(extra_modules)
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
                            self._undo.append(functools.partial(obj.__setitem__, key, val))

    def _setattr(self, owner, attr: str, value) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(functools.partial(setattr, owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- operations ---------------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        self.op = op_id
        self.spans.append(None)
        self.stack.append(len(self.spans) - 1)
        self._op_start = (label, perf_counter())

    def end_op(self) -> None:
        label, t0 = self._op_start
        idx = self.stack.pop()
        self.spans[idx] = (f"op.{label}", t0, perf_counter(), -1, self.op)
        self.op = None

    # -- results ------------------------------------------------------------------

    def totals(self):
        """Self time, inclusive time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += t1 - t0 - child[i]
            incl_s[name] += t1 - t0
            calls[name] += 1
        return self_s, incl_s, calls

    def child_calls(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)

    def write(self, path) -> None:
        """Gzipped JSON lines, one array per span: name, start, end, parent
        index (-1 for an operation root) and operation id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics derived from one traced pass."""
    self_s, incl_s, _ = tracer.totals()
    c = tracer.counts

    def incl(*names):
        return sum(incl_s[n] for n in names)

    def self_of(*names):
        return sum(self_s[n] for n in names)

    requests = c["cohomology.green_requests"]
    inserts = c["linalg.echelon_inserts"]
    derivations = ("algebra.StructureEquations.apply_d", "algebra.StructureEquations.apply_del",
                   "algebra.StructureEquations.apply_delbar")
    return {
        "linalg.echelon_insert_self_s": self_of("linalg.Echelon.insert"),
        "linalg.echelon_inserts": inserts,
        "linalg.echelon_useful_ratio": c["linalg.echelon_useful"] / inserts if inserts else 0.0,
        "linalg.kernel_vectors_built": c["linalg.kernel_vectors_built"],
        "linalg.nullspace_s": incl("linalg.nullspace"),
        "linalg.dense_inverse_self_s": self_of("linalg.dense_inverse"),
        "linalg.dense_inverse_calls": c["linalg.dense_inverse_calls"],
        "linalg.dense_inverse_max_dim": c["linalg.dense_inverse_max_dim"],
        "linalg.dense_ops_computed": c["linalg.dense_ops_computed"],
        "linalg.span_intersection_s": incl("linalg.span_intersection"),
        "cohomology.hodge_contexts": c["cohomology.hodge_contexts"],
        "cohomology.green_requests": requests,
        "cohomology.green_builds": c["cohomology.green_builds"],
        "cohomology.green_reuse_ratio": 1 - c["cohomology.green_builds"] / requests if requests else 0.0,
        "cohomology.matrix_nnz": c["cohomology.matrix_nnz"],
        "cohomology.matrix_entries": c["cohomology.matrix_entries"],
        "cohomology.report_s": incl("cohomology.full_report"),
        "cohomology.evaluate_s": self_of("cohomology.EvaluatedComplex.rows"),
        "cohomology.green_s": incl("cohomology.HodgeContext._harmonic_green"),
        "algebra.derivation_self_s": self_of(*derivations),
        "algebra.derivation_calls": c["algebra.derivation_calls"],
        "algebra.assembly_s": incl("algebra.InvariantComplex._columns"),
        "algebra.assembly_columns": c["algebra.assembly_columns"],
        "algebra.contract_self_s": self_of("algebra.contract", "algebra.simultaneous_contract",
                                           "algebra.exp_contract"),
        "extension.ladder_s": incl("extension.ladder_sums", "extension.a_ladder"),
        "extension.residual_s": incl("extension.obstruction_residual", "extension.residual_norms_by_order"),
        "extension.orders": tracer.child_calls("extension.ladder_sums", "extension.solve_extension"),
        "deformation.integrability_s": incl("deformation.check_integrability"),
        "deformation.integrability_calls": c["deformation.integrability_calls"],
        "deformation.deform_point_s": incl("deformation.deform_complex"),
        "lemmata.mild_s": incl("lemmata.mild"),
        "lemmata.dual_mild_s": incl("lemmata.dual_mild"),
        "lemmata.strong_s": incl("lemmata.strong"),
        "lemmata.weak_s": incl("lemmata.weak"),
        "lemmata.standard_s": incl("lemmata.standard"),
        "lemmata.witnesses": c["lemmata.witnesses"],
        "positivity.transverse_s": incl("positivity.is_transverse"),
        "positivity.transverse_calls": c["positivity.transverse_calls"],
        "catalog.load_s": incl("catalog.catalog_load"),
        "io.emit_s": incl("cli._emit", "cohomology.CohomologyReport.to_json_dict",
                          "lemmata.LemmaReport.to_json_dict"),
        "cli.self_s": sum((v for k, v in self_s.items() if k.startswith("cli.") and k != "cli._emit"), 0.0),
    }


def largest_self(tracer: Tracer) -> List[Tuple[str, float]]:
    """Span names by total self time, largest first (operation roots excluded)."""
    self_s, _, _ = tracer.totals()
    return sorted(((k, v) for k, v in self_s.items() if not k.startswith("op.")),
                  key=lambda kv: -kv[1])


class ScalarCounter:
    """Counts Q(i) and truncated-polynomial products made inside an
    operation, and the largest numerator and denominator bit sizes of the
    Q(i) products."""

    def __init__(self):
        self.active = False
        self.qi_mul = 0
        self.param_mul = 0
        self.num_bits = 0
        self.den_bits = 0
        self._undo: List[Callable] = []

    def install(self) -> None:
        scalars = importlib.import_module("nilforms.scalars")
        g_mul = scalars.GaussianRational.__mul__
        p_mul = scalars.ParamScalar.__mul__
        counter = self

        def qi_mul(a, b):
            r = g_mul(a, b)
            if not counter.active:
                return r
            counter.qi_mul += 1
            re, im = r.re, r.im
            nb = max(re.numerator.bit_length(), im.numerator.bit_length())
            db = max(re.denominator.bit_length(), im.denominator.bit_length())
            if nb > counter.num_bits:
                counter.num_bits = nb
            if db > counter.den_bits:
                counter.den_bits = db
            return r

        def param_mul(a, b):
            counter.param_mul += counter.active
            return p_mul(a, b)

        for cls, fn in ((scalars.GaussianRational, qi_mul), (scalars.ParamScalar, param_mul)):
            for attr in ("__mul__", "__rmul__"):
                old = vars(cls)[attr]
                setattr(cls, attr, fn)
                self._undo.append(functools.partial(setattr, cls, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def begin_op(self, op_id: int, label: str) -> None:
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def metrics(self) -> Dict[str, int]:
        return {
            "scalars.qi_mul_count": self.qi_mul,
            "scalars.param_mul_count": self.param_mul,
            "scalars.max_num_bits": self.num_bits,
            "scalars.max_den_bits": self.den_bits,
        }
