"""Source hygiene checks over the package, with the standard library only."""

import ast
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import pkgutil
import sys
import types
from fractions import Fraction
from pathlib import Path

import nilforms
from nilforms import cli
from nilforms import io as nio
from nilforms import linalg, lemmata, positivity
from nilforms.algebra import Form, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, full_report, generic_points
from nilforms.deformation import deform_complex
from nilforms.scalars import GaussianRational, ParamScalar

from conftest import SOLVABLE
from test_io_cli import GOLDEN_CASES

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


def triple_reads(source: str):
    """(line, attribute, enclosing function or None) of each use of an
    attribute ``_a``, ``_b`` or ``_d``, read or written: the three ints of
    a GaussianRational.  A method is named Class.method."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Attribute) and child.attr in ("_a", "_b", "_d"):
                found.append((child.lineno, child.attr, where))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_triple_scan_sees_what_it_should():
    source = (
        "def f(z, w, _a):\n"
        "    w._d = z._a + _a\n"
        "    return z.a, getattr(z, '_b'), z._b\n"
        "class C:\n"
        "    def g(self):\n"
        "        return self._d\n"
        "x = y._a\n"
    )
    assert triple_reads(source) == [(2, "_a", "f"), (2, "_d", "f"), (3, "_b", "f"), (6, "_d", "C.g"), (7, "_a", None)]


def test_only_linalg_reads_the_gaussian_triple_outside_scalars():
    """``scalars`` owns the (a, b, d) representation of a GaussianRational;
    the one other code of the package that reads it is the elimination
    kernel of ``linalg``, ``_reduce_meeting``, which works on the ints:
    weak decides over Q(i), so no realifier reads a scalar's parts."""
    readers = {(path.stem, where) for path in SRC.glob("*.py") for _, _, where in triple_reads(path.read_text())}
    assert {stem for stem, _ in readers} == {"scalars", "linalg"}
    assert {where for stem, where in readers if stem == "linalg"} == {"_reduce_meeting"}


def private_names(source: str, cls_name: str):
    """The ``_``-prefixed, not dunder, attributes that the class cls_name
    defines: its methods, and what its methods assign on self."""
    cls = next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef) and n.name == cls_name)
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    names |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
              and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def private_uses(source: str, names):
    """(line, name) of each use of an attribute in names, read or written,
    by attribute syntax or by a string given to getattr, setattr, delattr
    or hasattr."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr in names:
            out.append((n.lineno, n.attr))
        elif (isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("getattr", "setattr", "delattr", "hasattr")
              and len(n.args) > 1 and isinstance(n.args[1], ast.Constant) and n.args[1].value in names):
            out.append((n.lineno, n.args[1].value))
    return sorted(out)


def test_private_attribute_scan_sees_what_it_should():
    owner = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self._rows, self.public = {}, 1\n"
        "    def _build(self, other):\n"
        "        other._seen = self.__dict__\n"
    )
    assert private_names(owner, "C") == {"_rows", "_build"}
    reader = (
        "def f(ec, _rows):\n"
        "    ec._rows.pop(1)\n"
        "    ec._build = _rows\n"
        "    return getattr(ec, '_rows'), ec.rows, ec._seen, hasattr(ec, 'rows')\n"
    )
    assert private_uses(reader, {"_rows", "_build"}) == [(2, "_rows"), (3, "_build"), (4, "_rows")]


def test_only_cohomology_touches_the_private_state_of_an_evaluated_complex():
    """``cohomology.EvaluatedComplex`` is the one owner of every cache at
    its point: no other module of the package reads or writes one of its
    ``_``-prefixed attributes or calls one of its private methods.  The
    scan matches by name, and no other class of the package uses these
    names."""
    names = private_names((SRC / "cohomology.py").read_text(), "EvaluatedComplex")
    assert {"_rows", "_ranks", "_echelons", "_row_echelon"} <= names
    uses = {path.stem: private_uses(path.read_text(), names) for path in SRC.glob("*.py") if path.stem != "cohomology"}
    assert {stem: found for stem, found in uses.items() if found} == {}


def collector_uses(source: str):
    """(line, enclosing top-level definition or None, what) for each
    import of ``gc`` ("import") and each attribute read off a name that
    an import binds to it."""
    tree = ast.parse(source)
    scopes = [(getattr(top, "name", None), top) for top in tree.body]
    bound, out = set(), []
    for where, top in scopes:
        for node in ast.walk(top):
            if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
                bound |= {alias.asname or "gc" for alias in node.names if alias.name == "gc"}
                out.append((node.lineno, where, "import"))
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                out.append((node.lineno, where, "import"))
    for where, top in scopes:
        out.extend((node.lineno, where, node.attr) for node in ast.walk(top) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in bound)
    return sorted(out)


def test_collector_scan_sees_what_it_should():
    source = (
        "import gc as g, os\n"
        "from gc import disable\n"
        "def f():\n"
        "    g.disable()\n"
        "    return os.sep, gc.enable\n"
    )
    assert collector_uses(source) == [(1, None, "import"), (2, None, "import"), (4, "f", "disable")]


def test_only_the_pause_helper_touches_the_collector():
    """One module of the package imports ``gc``, ``cohomology``, and only
    its ``collector_paused`` reads the collector's state, switches it or
    moves its generations (the freeze-count guard, then ``freeze`` and
    ``unfreeze``),
    so no second pause site and no knob for it appears.  The pause sites
    are the decorators of ``full_report`` and ``lemmata.lemma_report``:
    no other code of the package names ``collector_paused``."""
    uses = {path.stem: collector_uses(path.read_text()) for path in SRC.glob("*.py")}
    uses = {stem: found for stem, found in uses.items() if found}
    assert set(uses) == {"cohomology"}, uses
    assert [what for _, where, what in uses["cohomology"] if where is not None] == ["isenabled", "disable", "get_freeze_count", "freeze", "unfreeze", "enable"]
    assert {where for _, where, what in uses["cohomology"]} == {None, "collector_paused"}
    named, decorating = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named += [path.stem for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "collector_paused"]
        decorating += [(path.stem, fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                       for dec in fn.decorator_list
                       if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "collector_paused"]
    assert decorating == [("cohomology", "full_report"), ("lemmata", "lemma_report")]
    assert named == [stem for stem, _ in decorating]


def transpose_readers(source: str):
    """(line, enclosing function or None) of each read of the transpose
    ``linalg.columns``: the attribute ``columns`` of the name ``linalg``,
    the bare name ``columns`` read (inside ``linalg``, or where it is
    imported), or an import of it.  A method is named Class.method, and
    a lambda reads in the function around it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Attribute) and child.attr == "columns" and getattr(child.value, "id", None) == "linalg":
                found.append((child.lineno, where))
            elif isinstance(child, ast.Name) and child.id == "columns" and isinstance(child.ctx, ast.Load):
                found.append((child.lineno, where))
            elif isinstance(child, ast.ImportFrom) and any(alias.name == "columns" for alias in child.names):
                found.append((child.lineno, where))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_transpose_scan_sees_what_it_should():
    source = (
        "from .linalg import columns\n"
        "class E:\n"
        "    def f(self, rows):\n"
        "        return linalg.columns(rows), self.columns, other.columns\n"
        "def g(rows):\n"
        "    h = lambda: columns(rows)\n"
        "    columns = None\n"
        "    return h\n"
    )
    assert transpose_readers(source) == [(1, None), (4, "E.f"), (6, "g")]


def test_only_three_readers_transpose_a_matrix():
    """``linalg.columns`` is read in three places: the image echelons
    (``EvaluatedComplex._image``), the column reads of the mild and dual
    mild scan on a complex that is not unimodular
    (``EvaluatedComplex.column_reads``; on a unimodular one they read
    columns as Hodge-star rows), and weak's U, the image of d on the
    (p,p)-forms (``lemmata._d_image``), each once.  So a transpose
    in a new place, or a second one in these, takes a deliberate edit
    here."""
    readers = sorted((path.stem, where) for path in SRC.glob("*.py") for _, where in transpose_readers(path.read_text()))
    assert readers == [
        ("cohomology", "EvaluatedComplex._image"),
        ("cohomology", "EvaluatedComplex.column_reads"),
        ("lemmata", "_d_image"),
    ]


def value_comparisons(source: str):
    """(line, text) of each == or != with an ``.algebra`` or ``.ring``
    operand that no ``is`` or ``is not`` test of the same two operands
    precedes in the same boolean expression."""
    tree = ast.parse(source)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            tested = set()
            for value in node.values:
                if isinstance(value, ast.Compare) and len(value.ops) == 1:
                    pair = frozenset((ast.dump(value.left), ast.dump(value.comparators[0])))
                    if isinstance(value.ops[0], (ast.Is, ast.IsNot)):
                        tested.add(pair)
                    elif pair in tested:
                        guarded.add(value)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and node not in guarded:
            operands = [node.left] + node.comparators
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(x, ast.Attribute) and x.attr in ("algebra", "ring") for x in (left, right)
                ):
                    found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_value_comparison_scan_sees_what_it_should():
    source = (
        "def f(a, b, r):\n"
        "    if a.algebra != b.algebra:\n"
        "        return a.algebra is b.algebra or a.algebra == b.algebra\n"
        "    x = a.ring is not r and a.ring != b.ring\n"
        "    y = a.ring == b.ring or a.ring is b.ring\n"
        "    z = r == a.ring.m or a.n != b.n\n"
        "    return x and y and z and (r is a.ring or a.ring == r)\n"
    )
    assert [line for line, _ in value_comparisons(source)] == [2, 4, 5]


def test_algebras_and_rings_are_compared_by_identity_first():
    """FormAlgebra and PolyRing compare by value, and on a warm path both
    sides are nearly always one object: so wherever src compares an
    ``.algebra`` or a ``.ring`` with == or !=, an ``is`` test of the same
    operands comes first and settles that case."""
    found = {path.name: hits for path in sorted(SRC.glob("*.py")) if (hits := value_comparisons(path.read_text()))}
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


def assignments_of(source: str, attr: str):
    """(enclosing function, line) of each assignment of a value other
    than None to an attribute named ``attr``; None for module level."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                none = child.value is None or isinstance(child.value, ast.Constant) and child.value.value is None
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and t.attr == attr and not none:
                            yield scope, child.lineno
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from walk(child, inner)

    return list(walk(ast.parse(source), None))


def test_integrability_is_checked_only_through_the_verdict_helper():
    """phi owns its integrability verdict, and one function stores it:
    only ``deformation.deform_complex``, whose symbolic deformation is
    the decider, assigns ``integrable_on`` anything but the None it
    starts at, so no other path can mark phi integrable unchecked.  The
    scan finds a planted assignment in a nested function, one in a tuple
    target, one augmented and one at module level, and skips a read and
    a reset to None."""
    probe = (
        "def f():\n    def g():\n        a.b.integrable_on = se\n    x.integrable_on, y = se, 1\n"
        "    z.integrable_on = None\n    return w.integrable_on\n"
        "def h():\n    v.integrable_on += 1\nu.integrable_on = 2\n"
    )
    assert sorted(assignments_of(probe, "integrable_on"), key=str) == [("f", 4), ("g", 3), ("h", 8), (None, 9)]
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in assignments_of(path.read_text(), "integrable_on")
    }
    assert found == {("deformation.py", "deform_complex")}


def calls_of(source: str, name: str):
    """(enclosing qualified name, line) of each call of a function or a
    method named ``name``: name(...), x.name(...) or x.y.name(...); None
    for module level."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    yield scope, child.lineno
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            yield from walk(child, inner)

    return list(walk(ast.parse(source), None))


def test_flatness_is_decided_where_a_complex_is_built():
    """Every number and verdict reads a complex whose construction
    decided d^2 = 0, so ``require_flat`` is called only by
    ``InvariantComplex.__init__``, by deformation, which refuses to
    deform equations that define no complex and decides the deformed
    ones, and by the catalog, which validates every entry on load: no
    verdict or report asks again.  The scan finds a planted call in a
    method, one in a nested function through an attribute chain and one
    at module level, and skips a read of the name."""
    probe = (
        "class A:\n    def __init__(self, se):\n        se.require_flat()\n"
        "def f():\n    def g():\n        a.b.require_flat()\n    return x.require_flat\n"
        "require_flat(x)\n"
    )
    assert calls_of(probe, "require_flat") == [("A.__init__", 3), ("f.g", 6), (None, 8)]
    found = {
        (path.name, scope) for path in sorted(SRC.glob("*.py")) for scope, _ in calls_of(path.read_text(), "require_flat")
    }
    assert found == {
        ("algebra.py", "InvariantComplex.__init__"),
        ("deformation.py", "deform_complex"),
        ("deformation.py", "_deformed_equations"),
        ("catalog.py", "CatalogEntry.__post_init__"),
    }


#: the names that read structure forms off structure equations
_STRUCTURE_READS = {"d_coframe", "d_symbol", "symbol_terms"}


def structure_form_evals(source: str):
    """(qualified function name, line) of each x.eval(...) call inside a
    function that reads structure forms (``_STRUCTURE_READS``); a nested
    function or class is a scope of its own."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def own(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scopes):
                yield child
                yield from own(child)

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scopes):
                inner = child.name if scope is None else f"{scope}.{child.name}"
                body = list(own(child))
                if not isinstance(child, ast.ClassDef) and {
                    n.attr for n in body if isinstance(n, ast.Attribute)
                } & _STRUCTURE_READS:
                    yield from ((inner, n.lineno) for n in body if isinstance(n, ast.Call)
                                and isinstance(n.func, ast.Attribute) and n.func.attr == "eval")
                yield from walk(child, inner)
            else:
                yield from walk(child, scope)

    return sorted(walk(ast.parse(source), None), key=lambda hit: hit[1])


def test_only_deformation_evaluates_structure_forms():
    """A complex has no parameters, so structure forms are evaluated once
    per fiber, before its complex is built, by ``evaluate_se`` alone, and
    ``cohomology`` calls no eval at all.  The scan finds a planted eval of
    d_coframe's forms, one of symbol_terms' scalars in a method and one
    in a function nested in a reader of d_symbol, and skips an eval in a
    function that reads no structure form."""
    probe = (
        "def f(se, pt):\n    return {i: g.eval(pt) for i, g in se.d_coframe.items()}\n"
        "def h(a):\n    return a.eval(())\n"
        "class C:\n    def m(self, p):\n        for t in self.cx.se.symbol_terms('del'):\n            t[2].eval(p)\n"
        "def k(se, s):\n    def inner(x):\n        return se.d_symbol(s).eval(x)\n    return inner\n"
    )
    assert structure_form_evals(probe) == [("f", 2), ("C.m", 8), ("k.inner", 11)]
    assert calls_of((SRC / "cohomology.py").read_text(), "eval") == []
    found = {
        (path.name, scope) for path in sorted(SRC.glob("*.py")) for scope, _ in structure_form_evals(path.read_text())
    }
    assert found == {("deformation.py", "evaluate_se")}


def combinations_imports(source: str):
    """The lines that import ``itertools.combinations``: from itertools
    import it, under any name, or read it off the module."""
    tree = ast.parse(source)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "itertools" and any(a.name == "combinations" for a in node.names)]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "combinations"]
    return sorted(lines)


def test_one_layout_per_algebra_and_one_subset_table():
    """The subset table of n depends on n only, so one ``leibniz.Layout``
    is built per algebra, by ``FormAlgebra.__init__``, which shares its
    constant algebra's, and only ``leibniz`` enumerates subsets: every
    other reader of the q-subsets of 1..n reads ``FormAlgebra.layout``.
    The scans find a planted Layout call and both forms of the import,
    and skip a read of the class."""
    probe = "from itertools import chain, combinations as c\nimport itertools\nx = itertools.combinations(y, 2)\n"
    assert combinations_imports(probe) == [1, 3]
    assert calls_of("def f(n):\n    return Layout(n), Layout\n", "Layout") == [("f", 2)]
    built, imported = set(), set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        built |= {(path.name, scope) for scope, _ in calls_of(source, "Layout")}
        imported |= {path.name for _ in combinations_imports(source)}
    assert built == {("algebra.py", "FormAlgebra.__init__")}
    assert imported == {"leibniz.py"}


def test_src_keeps_no_hodge_layer_and_builds_rrefs_only_for_kernels():
    """No module of the package defines HodgeContext: the Laplacians,
    harmonic projectors and Green operators are a test oracle.  Nor does
    one define the dense Gauss-Jordan elimination (solve_dense,
    dense_inverse and their dense converters), the LDL* loop's witness
    solve or the dense coframe evaluation: every exact solve and
    positivity certificate is a tracked ``Echelon``.  ``linalg`` defines
    one elimination class, ``Echelon``, the one class of the package with
    an ``insert`` method; the incremental RREF it replaced, with its
    builders and helpers, is gone, and so are the in-place completion
    into it (``_complete``) and the row helpers only that completion
    used (``vec_scale``, ``_negated``), since ``Echelon.kernel`` reads
    each RREF column from the forward rows, and the
    ``is_positive_definite`` pass-through of ``hermitian_pivots``.  weak
    decides over Q(i), so its realified route (``_weak_realified``,
    ``_real_delbar_span``, ``_real_basis_vectors``) and the realifiers
    (``realify_vec``, ``realify_span``, ``_real_part``) are test
    oracles.  The
    Jacobi loop, the pairing scan and ``JacobiError`` are gone, since
    ``StructureEquations.require_flat`` decides d^2 = 0, and so is the
    Lie bracket table (``LieBracketTable``, ``lie_brackets`` and the
    equations' ``brackets`` slot), since ``delbar_on_vectors`` reads its
    structure constants from ``symbol_terms``; the
    ``BeltramiDifferential`` alias is gone too.  So are the Kuranishi
    recursion's own ``mat_vec_param`` (``linalg.mat_vec``) and the
    catalog's ``_plain``.
    The Kuranishi recursion itself (``VectorHodge``, ``KuranishiResult``,
    ``kuranishi_expand``), its Green operator ``harmonic_green`` and the
    matrix helpers only they used, and del on vector-valued forms
    (``_frame_derivative``) are test oracles: the catalog ships the one
    family the recursion gave, in closed form.  So is the Maurer-Cartan
    stack (``delbar_on_vectors``, ``_total_degree``, ``schouten``,
    ``check_integrability``, ``main1_residual`` and ``HALF``): the
    (0,2)-part of the deformed equations decides integrability.
    The conjugate system has one solve (``extension.solve_conjugate_system``
    and the order step share its core), so ``canonical_ddbar_solution``
    and its ``NotSolvable`` are gone; the basis route of a cohomology
    (``_representatives``, ``_CYCLES_MOD``, the ``with_basis`` parameter)
    is a test oracle.  An ``EvaluatedComplex`` keeps no column table and
    no kernel list: its ``columns``, its ``nonzero_columns`` and
    ``linalg.columns_of`` are gone,
    a column walk reads the one transpose ``linalg.columns`` or the Hodge
    star (``test_only_three_readers_transpose_a_matrix``), and no
    module assigns a ``_cols`` or ``_kernels`` attribute.  ``lemma_report``
    has no ``with_standard`` parameter: it decides standard exactly when
    it is asked for every bidegree.  The scan reads
    every function, class, module-level assignment and parameter name."""
    defined, owned, kept = set(), set(), []
    for path in SRC.glob("*.py"):
        source = path.read_text()
        tree = ast.parse(source)
        owned |= set(defined_names(source))
        kept += [(path.name, attr) for attr in ("_cols", "_kernels") if assignments_of(source, attr)]
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
                    if isinstance(t, ast.Name)}
        defined |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    gone = {"HodgeContext", "solve_dense", "dense_inverse", "rows_to_dense", "dense_to_rows", "_ldl_witness",
            "eval_dense", "ForwardEchelon", "row_echelon", "echelon_kernel", "_sub_scaled_into",
            "is_positive_definite", "rref", "check_jacobi", "_two_form_eval", "JacobiError", "mat_vec_param",
            "_plain", "canonical_ddbar_solution", "NotSolvable", "_representatives", "_CYCLES_MOD", "with_basis",
            "VectorHodge", "KuranishiResult", "kuranishi_expand", "harmonic_green", "mat_add", "mat_scale",
            "rows_from_columns", "zero_rows", "vec_add", "_frame_derivative", "holomorphic",
            "LieBracketTable", "lie_brackets", "BeltramiDifferential", "delbar_on_vectors", "_total_degree",
            "schouten", "check_integrability", "main1_residual", "HALF", "columns_of",
            "with_standard", "_complete", "vec_scale", "_negated", "nonzero_columns", "realify_vec", "realify_span",
            "_real_part", "_real_basis_vectors", "_real_delbar_span", "_weak_realified"}
    defined |= {name for _, name in owned}
    assert gone.isdisjoint(defined), gone & defined
    assert ("EvaluatedComplex", "columns") not in owned and ("EvaluatedComplex", "kernel") in owned
    assert kept == []
    assert "brackets" not in StructureEquations.__slots__
    assert {"Echelon", "forward_echelon", "tracked_echelon", "solve_square", "hermitian_pivots", "columns"} <= defined
    inserting = {
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in defined_names(path.read_text())
        if name == "insert"
    }
    assert inserting == {("linalg.py", "Echelon")}
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == ["Echelon"]


def test_one_source_per_fact():
    """Each fact has one route in the package.  e^{iota_phi} is the
    coframe substitution 1 + phi (``simultaneous_contract``), so the
    series ``exp_contract`` is a test oracle.  Transversality on nearby
    fibers is read off the extension by ``pkahler_extend``, so
    ``transversality_along_deformation`` is gone and ``positivity``
    imports nothing from ``deformation``.  A form's truth value says
    whether it is zero, so neither Form nor VectorValuedForm defines
    ``is_zero``.  p is read off the form (``pkahler_degree``), so
    ``pkahler_check`` takes no p and ``check_pkahler_degree`` is gone."""
    defined = {pair for path in SRC.glob("*.py") for pair in defined_names(path.read_text())}
    names = {name for _, name in defined}
    assert names.isdisjoint({"exp_contract", "transversality_along_deformation", "check_pkahler_degree"})
    assert {("Form", "is_zero"), ("VectorValuedForm", "is_zero")}.isdisjoint(defined)
    assert (None, "pkahler_degree") in defined
    tree = ast.parse((SRC / "positivity.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
    assert imported == {"algebra", "errors", "io", "leibniz", "linalg", "scalars"}
    assert "p" not in inspect.signature(positivity.pkahler_check).parameters


def test_no_function_imports():
    """Every import of the package sits at module level: src has no
    import cycle, so no function body imports."""
    found = [
        (path.name, fn.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def unreachable_statements(source: str):
    """Line of each statement that follows a return, raise, continue or
    break in the same block, so it never runs."""
    jumps = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    found = []
    for node in ast.walk(ast.parse(source)):
        for _, block in ast.iter_fields(node):
            if isinstance(block, list) and block and all(isinstance(s, ast.stmt) for s in block):
                found += [after.lineno for jump, after in zip(block, block[1:]) if isinstance(jump, jumps)]
    return sorted(found)


def test_unreachable_scan_sees_what_it_should():
    source = (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            continue\n"
        "            x += 1\n"
        "        else:\n"
        "            break\n"
        "    try:\n"
        "        raise ValueError\n"
        "    except ValueError:\n"
        "        return 1\n"
        "        pass\n"
        "    return 2\n"
        "    return 3\n"
    )
    assert unreachable_statements(source) == [5, 12, 14]


def test_no_statement_follows_a_jump():
    """No statement of src, scripts or tests follows a return, raise,
    continue or break in its block: such a statement is dead code."""
    root = SRC.parent.parent
    found = {
        str(path.relative_to(root)): lines
        for top in ("src", "scripts", "tests")
        for path in sorted((root / top).rglob("*.py"))
        if (lines := unreachable_statements(path.read_text()))
    }
    assert found == {}


def test_every_submodule_attribute_is_the_submodule():
    """No name the package re-exports hides one of its submodules:
    nilforms.X is the module nilforms/X.py for every X, so ``import
    nilforms.cohomology as m`` binds the module."""
    names = [name for _, name, _ in pkgutil.iter_modules(nilforms.__path__)]
    assert "cohomology" in names
    for name in names:
        module = importlib.import_module(f"nilforms.{name}")
        assert isinstance(getattr(nilforms, name), types.ModuleType), name
        assert getattr(nilforms, name) is module, name


#: the public functions of src that no product run calls (the runs of
#: ``test_every_public_function_is_called_or_listed``), each with why it stays
UNCALLED = {
    "algebra.Form.homogeneous_part": "API: one t-degree part of a form; the solver reads degrees off its graded "
                                     "k-sums, and perfbench's extension check and the tests read it",
    "algebra.VectorValuedForm.component": "oracle-only API: the Maurer-Cartan and Kuranishi oracles read them",
    "algebra.VectorValuedForm.scale": "oracle-only API: the Maurer-Cartan and Kuranishi oracles read them",
    "cohomology.EvaluatedComplex.embed_block": "oracle-only API: verify_witness re-checks a standard witness",
    "cohomology.betti": "API: one Betti number from its own rank reads; full_report reads one list of d's ranks, "
                        "and perfbench's fiber check reads it",
    "cohomology.cohomology": "README API: one cohomology by name; the CLI prints whole tables (full_report)",
    "cohomology.h_aeppli": "API: one number from its own rank reads; full_report reads rank tables",
    "cohomology.h_del": "API: one number from its own rank reads; full_report reads rank tables",
    "cohomology.h_dolbeault": "API: one number from its own rank reads; full_report reads rank tables",
    "extension.solve_conjugate_system": "README construction: the paper's conjugate system, hypotheses checked; "
                                        "the order step runs its core",
    "io.beltrami_emit": "the canonical writer of the Beltrami file format the CLI reads; tests round-trip it",
    "io.beltrami_to_obj": "the canonical writer of the Beltrami file format the CLI reads; tests round-trip it",
    "io.form_emit": "the canonical writer of the form file format the CLI reads; tests round-trip it",
    "lemmata.strong": "README API: the strong lemma alone; lemma_report reads it off mild and dual mild",
    "lemmata.verify_witness": "oracle-only API: re-verifies a witness by fresh ranks (tests, perfbench)",
    "positivity.reconstruct_from_matrix": "README construction: the (p,p)-form of a Hermitian matrix",
    "scalars.PolyRing.tbar": "API: the conjugate generator beside PolyRing.t; tests build tbar-dependent inputs",
    "scalars.QI": "API: the Gaussian-rational constructor tests write scalars with",
}


def public_functions():
    """(file, first line) to module.qualified name, for each public
    module-level function of src and each public method of a
    module-level class.  The first line is that of the code object
    (``co_firstlineno``): the first decorator's, if any, else the def's,
    so a code object is found on every Python the package supports,
    without ``co_qualname`` (3.11 and later)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                methods = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            for qualname, fn in methods:
                if not fn.name.startswith("_"):
                    line = fn.decorator_list[0].lineno if fn.decorator_list else fn.lineno
                    out[(str(path), line)] = f"{path.stem}.{qualname}"
    return out


def _product_runs(tmp_path):
    """The product paths: every CLI golden, catalog, a usage error, one
    run per input file kind (structure equations that are not
    unimodular, whose cohomology is printed and, for solvable3, whose
    failing mild verdicts take the transpose route of the witness scan,
    two middle-degree forms, which take the sampling route
    of transversality: the square of a Kaehler form, which passes, and
    the square of a signature-(3,1) form, whose falsifier is re-verified
    by a wedge, and a Beltrami family), and both scripts."""
    se_file, form_file, phi_file = tmp_path / "se.json", tmp_path / "form.json", tmp_path / "phi.json"
    se_file.write_text(nio.se_emit(nio.obj_to_se({"n": 1, "d": {"1": [{"coeff": "1", "factors": ["1", "bar1"]}]}})))
    solvable_file = tmp_path / "solvable3.json"
    solvable_file.write_text(nio.se_emit(nio.obj_to_se(SOLVABLE)))
    kaehler = catalog_load("abelian_4").forms["kaehler"]
    form_file.write_text(nio.form_emit(kaehler.wedge(kaehler)))
    indefinite = kaehler - kaehler.algebra.monomial((4,), (4,), positivity.sigma_q(1)).scale(2)
    failing_file = tmp_path / "failing_form.json"
    failing_file.write_text(nio.form_emit(indefinite.wedge(indefinite)))
    phi_file.write_text(nio.beltrami_emit(catalog_load("bcvary10").beltrami))
    argvs = [argv for _, argv in GOLDEN_CASES] + [
        ["catalog"],
        ["cohomology", "--bogus"],
        ["cohomology", "--manifold", str(se_file)],
        ["lemmata", "--manifold", str(solvable_file), "--all"],
        ["positivity", "--manifold", "catalog:abelian_4", "--form", str(form_file), "--samples", "20"],
        ["positivity", "--manifold", "catalog:abelian_4", "--form", str(failing_file), "--json"],
        ["deform", "--manifold", "catalog:bcvary10", "--beltrami", str(phi_file), "--t", "1/5,0,0,0"],
    ]
    scripts = []
    for name in ("bc_jump_table", "extension_survey"):
        spec = importlib.util.spec_from_file_location(name, SRC.parent.parent / "scripts" / f"{name}.py")
        scripts.append(importlib.util.module_from_spec(spec))
        spec.loader.exec_module(scripts[-1])
    return [lambda argv=argv: cli.main(argv) for argv in argvs] + [script.main for script in scripts]


def test_every_public_function_is_called_or_listed(tmp_path):
    """Run every product path under a call recorder (``sys.setprofile``):
    the public functions of src that none of them calls are exactly the
    ones ``UNCALLED`` lists with a reason.  A function that becomes dead
    fails here, and so does a listed one that a product path now calls.
    Unlike the orphan scan, the recorder sees methods whose receiver has
    no class the source fixes."""
    runs = _product_runs(tmp_path)
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cli._parser.cache_clear()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for run in runs:
                run()
    finally:
        sys.setprofile(None)
    seen = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    public = public_functions()
    assert next(key for key, name in public.items() if name == "cohomology.full_report") in seen
    uncalled = sorted(name for key, name in public.items() if key not in seen)
    assert uncalled == sorted(UNCALLED)


def test_evaluated_complex_keeps_one_table_of_named_matrices():
    """EvaluatedComplex reaches its matrices through ``rows`` and, for d
    on the total complex, ``total_d_rows``: it defines no other *_rows
    accessor, none of del_rows, delbar_rows, ddbar_rows, stacked_rows and
    exact_sum_rows among them.  The scan reads that class only, because
    a *_rows method of another class (the tests' Hodge oracle has
    several) names another matrix."""
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
#: rows that ``weak`` reads and the columns of its U are int vectors led
#: by +-2
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
    real lead other than +-1 reaches the forward eliminations
    (Echelon.extend, which forward_echelon and the rank passes run, and
    Echelon.insert and track), which divide by it exactly: in the rank
    passes of its front test, and in U of its tracked route
    (``_weak_tracked``), run at each p after them."""
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

    def recording(method):
        def run(self, *args):
            known = set(self.pivots)
            out = method(self, *args)
            leads.extend(row[p] for p, row in self.pivots.items() if p not in known)
            stored.extend(x for row in self.pivots.values() for x in row.values())
            return out
        return run

    for name in ("extend", "insert", "track"):
        monkeypatch.setattr(linalg.Echelon, name, recording(getattr(linalg.Echelon, name)))
    ec = EvaluatedComplex(scaled, ())
    for route in (lemmata.weak, lemmata._weak_tracked):
        leads.clear()
        stored.clear()
        for p in range(ec.n):
            assert route(ec, p) == (True, None)
        assert any(type(lead) is GaussianRational and not lead.im and lead not in (1, -1) for lead in leads), route
        assert stored and {type(x) for x in _numbers(stored)} <= {int, Fraction}, route


def test_rank_path_builds_no_fraction(bcvary10, monkeypatch):
    """Deforming bcvary10 to the first generic point, whose structure
    constants are non-integral Gaussian rationals, its full_report and
    its lemma_report construct no Fraction: Q(i) arithmetic is int
    arithmetic over one denominator, and ``weak`` eliminates U and
    tracks the del image and its conjugates over Q(i)."""
    point = generic_points(4)[0]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=point))
    ec = EvaluatedComplex(cx, ())
    report = full_report(ec)
    lemmas = lemmata.lemma_report(ec)
    assert built == []
    assert report.h_bc[4][4] == 17  # the paper's generic value
    # weak's rank test and its witness route both ran
    assert [p for p, ok in lemmas.weak_flags.items() if not ok] == [1, 2, 3]
    assert Fraction(1, 3) and len(built) == 1  # the count sees a construction
