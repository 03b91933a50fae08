"""Source hygiene checks over the package, with the standard library only."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

from nilforms import io as nio
from nilforms import linalg, lemmata
from nilforms.algebra import Form, build_complex
from nilforms.cohomology import EvaluatedComplex, full_report, generic_points
from nilforms.deformation import deform_complex
from nilforms.scalars import GaussianRational, ParamScalar

SRC = Path(__file__).resolve().parent.parent / "src" / "nilforms"


def _annotation_names(node):
    """Names inside a string annotation such as -> "Form"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Dict, List\n"
        "def f(x: 'Dict') -> List:\n"
        "    return os\n"
    )
    assert unused_imports(source) == [(2, "osp")]


def test_no_unused_imports():
    """Every name a module of the package imports is read somewhere in
    that module; __init__.py is skipped, since its imports are the
    package's re-exports."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def defined_names(source: str):
    """Functions and classes a module defines, each keyed by (class, name)
    with its line: the class a method is defined in, else None (local
    functions are read by bare name).  Dunder methods are read by the
    language itself."""
    out = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out[(owner, child.name)] = child.lineno
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return out


def class_bases(source: str):
    """The base names of each class a module defines."""
    return {
        node.name: [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }


def _class_of(node, classes):
    """The class an annotation or a constructor call names: C, mod.C or
    "C"; else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    return name if name in classes else None


def _local_classes(fn, classes, outer):
    """The class of each local name of a function that the source fixes:
    self and cls in a method, an argument annotated C, or a name whose
    every binding is x = C(...); names bound any other way are dropped."""
    env = dict(outer)
    bound = {}
    for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
        bound.setdefault(a.arg, set()).add(_class_of(a.annotation, classes) if a.annotation else None)
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            bound.setdefault(node.targets[0].id, set()).add(
                _class_of(node.value, classes) if isinstance(node.value, ast.Call) else None)
            stack.append(node.value)
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.setdefault(node.id, set()).add(None)
        stack.extend(ast.iter_child_nodes(node))
    for name, kinds in bound.items():
        env[name] = kinds.pop() if len(kinds) == 1 else None
    return env


def read_names(source: str, classes=frozenset()):
    """(receiver, name) of each name a module reads: loaded names and
    names inside string annotations with receiver None, and attributes
    with the class of their receiver where the source fixes it (C.m,
    mod.C.m, C(...).m, self.m in a method of C, x.m for an x that
    ``_local_classes`` knows), else None."""
    out = set()

    def receiver(node, env):
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        return _class_of(node, classes) if isinstance(node, (ast.Name, ast.Attribute, ast.Call)) else None

    def visit(node, owner, env):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add((None, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add((receiver(node.value, env), node.attr))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.update((None, n) for n in _annotation_names(node.returns))
            env = _local_classes(node, classes, env)
            if owner is not None:
                env.update({"self": owner, "cls": owner})
        elif isinstance(node, ast.arg):
            out.update((None, n) for n in _annotation_names(node.annotation))
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = None
        for child in ast.iter_child_nodes(node):
            visit(child, owner, env)

    visit(ast.parse(source), None, {})
    return out


def orphans(defining: dict, reading: list):
    """(module, line, name) of each definition in ``defining`` (module name
    to source) that no source in ``reading`` reads: a module-level name
    read anywhere by name, a method C.m read as m of an unknown receiver
    or of a class that C inherits from or is inherited by."""
    bases = {}
    for src in defining.values():
        bases.update(class_bases(src))
    family = {}
    for cls in bases:
        up, stack = set(), [cls]
        while stack:  # cls and its ancestors
            c = stack.pop()
            if c not in up:
                up.add(c)
                stack.extend(bases.get(c, ()))
        for c in up:
            family.setdefault(c, set()).add(cls)
            family.setdefault(cls, set()).add(c)
    read = set().union(*(read_names(src, frozenset(bases)) for src in reading))
    names = {name for _, name in read}

    def is_read(owner, name):
        if owner is None:
            return name in names
        return any((c, name) in read for c in family[owner] | {None})

    return sorted(
        (module, line, name if owner is None else f"{owner}.{name}")
        for module, src in defining.items()
        for (owner, name), line in defined_names(src).items()
        if not is_read(owner, name)
    )


def test_orphan_scan_sees_what_it_should():
    lib = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = helper()\n"
        "    def unused_method(self):\n"
        "        return self.v\n"
        "    def used_method(self) -> 'Box':\n"
        "        return self.shared()\n"
        "    def shared(self):\n"
        "        return self\n"
        "class Crate:\n"
        "    def shared(self):\n"
        "        return 2\n"
        "    def opened(self):\n"
        "        return 3\n"
        "class Jar(Crate):\n"
        "    pass\n"
        "def helper():\n"
        "    return 1\n"
        "def left_behind():\n"
        "    return helper()\n"
    )
    # Box.shared is read through self, Crate.opened through its subclass,
    # and a Box built in a function is the receiver of b.shared
    caller = (
        "import lib\n"
        "lib.Box().used_method()\n"
        "lib.Jar().opened()\n"
        "def g():\n"
        "    b = lib.Box()\n"
        "    return b.shared()\n"
    )
    dead = [("lib", 4, "Box.unused_method"), ("lib", 11, "Crate.shared"), ("lib", 19, "left_behind")]
    assert orphans({"lib": lib}, [lib, caller]) == dead
    # an argument annotated Crate is a known receiver; a read whose
    # receiver is not known keeps every method of the name
    for reader in ("def f(c: 'lib.Crate'):\n    return c.shared()\n", "x.shared\n"):
        assert orphans({"lib": lib}, [lib, caller, reader]) == [dead[0], dead[2]]


def test_no_orphaned_helpers():
    """Every function and class the package defines is read by name
    somewhere in src, tests, scripts or perfbench."""
    root = SRC.parent.parent
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    reading = [
        path.read_text()
        for top in ("src", "tests", "scripts", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    ]
    assert orphans(defining, reading) == []


def calls_of(source: str, callee: str):
    """(enclosing function, line) of each call of ``callee`` by name or
    attribute; None for a call at module level."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == callee:
                    yield scope, child.lineno
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from walk(child, inner)

    return list(walk(ast.parse(source), None))


def test_integrability_is_checked_only_through_the_verdict_helper():
    """phi owns its integrability verdict: outside
    ``deformation.require_integrable``, which checks once per se object,
    no module of the package calls check_integrability, so no caller
    quietly checks on every call again."""
    probe = "def f():\n    def g():\n        m.check_integrability(1)\n    return check_integrability(2)\n"
    assert sorted(calls_of(probe, "check_integrability")) == [("f", 4), ("g", 3)]
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in calls_of(path.read_text(), "check_integrability")
    }
    assert found == {("deformation.py", "require_integrable")}


def test_src_keeps_no_hodge_layer_and_builds_rrefs_only_for_kernels():
    """No module of the package defines HodgeContext: the Laplacians,
    harmonic projectors and Green operators are a test oracle.  Nor does
    one define the dense Gauss-Jordan elimination (solve_dense,
    dense_inverse and their dense converters), the LDL* loop's witness
    solve or the dense coframe evaluation: every exact solve and
    positivity certificate is a tracked ``Echelon``.  ``linalg`` defines
    one elimination class, ``Echelon``, the one class of the package with
    an ``insert`` method; the incremental RREF it replaced, with its
    builders and helpers, is gone, since ``Echelon.kernel`` completes the
    forward echelon in place where a kernel is read, and so is the
    ``is_positive_definite`` pass-through of ``hermitian_pivots``."""
    defined = {name for path in SRC.glob("*.py") for _, name in defined_names(path.read_text())}
    gone = {"HodgeContext", "solve_dense", "dense_inverse", "rows_to_dense", "dense_to_rows", "_ldl_witness",
            "eval_dense", "ForwardEchelon", "row_echelon", "echelon_kernel", "_sub_scaled_into",
            "is_positive_definite", "rref"}
    assert gone.isdisjoint(defined), gone & defined
    assert {"Echelon", "forward_echelon", "tracked_echelon", "solve_square", "hermitian_pivots"} <= defined
    inserting = {
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in defined_names(path.read_text())
        if name == "insert"
    }
    assert inserting == {("linalg.py", "Echelon")}
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == ["Echelon"]


def test_evaluated_complex_keeps_one_table_of_named_matrices():
    """EvaluatedComplex reaches its matrices through ``rows`` and, for d
    on the total complex, ``total_d_rows``: it defines no other *_rows
    accessor, none of del_rows, delbar_rows, ddbar_rows, stacked_rows and
    exact_sum_rows among them.  The scan reads that class only, because
    ``deformation.VectorHodge.delbar_rows`` is another method."""
    tree = ast.parse((SRC / "cohomology.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "EvaluatedComplex")
    methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    gone = {"del_rows", "delbar_rows", "ddbar_rows", "stacked_rows", "exact_sum_rows"}
    assert gone.isdisjoint(methods), gone & methods
    assert {m for m in methods if m.endswith("_rows")} == {"total_d_rows"} and "rows" in methods


def _numbers(x):
    """Every number inside an answer: the parts of each Q(i) scalar, of a
    ParamScalar's coefficients and of a Form's, and the ints, bools and
    Nones of tables and flags."""
    if isinstance(x, GaussianRational):
        yield x.re
        yield x.im
    elif isinstance(x, ParamScalar):
        for z in x.terms.values():
            yield from _numbers(z)
    elif isinstance(x, Form):
        for c in x.coeffs.values():
            yield from _numbers(c)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _numbers(getattr(x, f.name))
    elif isinstance(x, dict):
        for v in x.values():
            yield from _numbers(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _numbers(v)
    else:
        yield x


#: dgamma^3 = 2 gamma^1 ^ gamma^2: a structure constant of 2, so the
#: realified vectors in ``weak`` are int vectors led by +-2
SCALED_IWASAWA = {
    "format": "nilforms.se/1",
    "name": "iwasawa3_scaled",
    "n": 3,
    "m": 0,
    "d": {"3": [{"coeff": "2", "factors": ["1", "2"]}]},
}


def test_no_float_reaches_an_answer(reference_complexes, monkeypatch):
    """Every scalar part of full_report, lemma_report (witnesses included)
    and the kernel vectors is an int or a Fraction; and inside ``weak`` a
    lead other than +-1 reaches the forward eliminations (forward_echelon,
    and Echelon.insert and track), which divide by it exactly."""
    scaled = build_complex(nio.obj_to_se(SCALED_IWASAWA))
    for label, cx, point in reference_complexes + [("iwasawa3_scaled", scaled, ())]:
        ec = EvaluatedComplex(cx, point)
        answers = [full_report(ec), lemmata.lemma_report(ec)]
        answers += [
            ec.kernel(op, p, q)
            for op in ("del", "delbar", "ddbar", "stacked")
            for p in range(ec.n + 1)
            for q in range(ec.n + 1)
        ]
        types = {type(x) for x in _numbers(answers)}
        assert types <= {int, bool, Fraction, type(None)}, (label, types)
    points = [generic_points(m) for m in range(1, 14)]
    assert {type(x) for x in _numbers(points)} <= {int, Fraction}

    leads, stored = [], []
    forward = linalg.forward_echelon

    def recording(method):
        def run(self, *args):
            known = set(self.pivots)
            out = method(self, *args)
            leads.extend(row[p] for p, row in self.pivots.items() if p not in known)
            stored.extend(x for row in self.pivots.values() for x in row.values())
            return out
        return run

    def recording_forward(vectors):
        fe = forward(vectors)
        leads.extend(row[p] for p, row in fe.pivots.items())
        stored.extend(x for row in fe.pivots.values() for x in row.values())
        return fe

    for name in ("insert", "track"):
        monkeypatch.setattr(linalg.Echelon, name, recording(getattr(linalg.Echelon, name)))
    monkeypatch.setattr(linalg, "forward_echelon", recording_forward)
    ec = EvaluatedComplex(scaled, ())
    for p in range(ec.n):
        lemmata.weak(ec, p)
    assert any(type(lead) is int and lead not in (1, -1) for lead in leads)
    assert stored and {type(x) for x in _numbers(stored)} <= {int, Fraction}


def test_rank_path_builds_no_fraction(bcvary10, monkeypatch):
    """Deforming bcvary10 to the first generic point, whose structure
    constants are non-integral Gaussian rationals, and its full_report
    construct no Fraction: Q(i) arithmetic is int arithmetic over one
    denominator.  (``weak``, in lemma_report, eliminates over realified
    rational parts and still builds Fractions.)"""
    point = generic_points(4)[0]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=point))
    report = full_report(EvaluatedComplex(cx, ()))
    assert built == []
    assert report.h_bc[4][4] == 17  # the paper's generic value
    assert Fraction(1, 3) and len(built) == 1  # the count sees a construction
