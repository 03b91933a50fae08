"""Command-line surface.

Subcommands: cohomology, lemmata, deform, extend, positivity, scenario,
catalog.  Every command builds a JSON-serializable report first; the
human-readable tables are a rendering of that JSON, never a separate
code path.  Exit codes: 0 all good (and all golden checks pass), 2
computation fine but a golden expectation mismatched, 1 input error
(including argparse usage errors) or a command out of memory, reported
as a single ``error:`` line on stderr.  The argument parser is built by
the first ``main`` call and reused by every later one in the process.
A catalog Beltrami family vanishes at t = 0, so ``--order 0`` would
truncate it to zero; it is refused there, not evaluated as zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

from . import io as nio
from .algebra import FormAlgebra
from .catalog import SCENARIOS, CatalogEntry, catalog_load, catalog_names, run_scenario
from .cohomology import full_report, zero_point
from .deformation import deform_complex, fiber_complex
from .errors import NilformsError
from .extension import bc_nontriviality, pkahler_extend, small_points, solve_extension
from .lemmata import lemma_report
from .positivity import is_strictly_positive, pkahler_check
from .scalars import parse_gaussian


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1.
    No option is read from a prefix of its name (``allow_abbrev``), so a
    misplaced global --order is refused, not read as extend --order-n."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        if message.startswith("unrecognized arguments:") and "--order" in message.replace("=", " ").split():
            message += " (--order is global and goes before the command; extend's series order is --order-n)"
        raise NilformsError(message)


def _nonnegative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _bidegree(text: str):
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected p,q (two integers), got {text!r}") from None
    return p, q


def _parse_point(text: str, m: int):
    """--t as m comma-separated scalars; an empty slot is an input error."""
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise NilformsError(f"empty parameter value in --t {text!r}")
    if len(parts) != m:
        raise NilformsError(f"expected {m} parameter values, got {len(parts)}")
    return tuple(parse_gaussian(p) for p in parts)


def _read_input(ref: str, what: str) -> str:
    """The text of the input file ref; a path that is missing or cannot
    be read as text (a directory, say) is an input error."""
    path = Path(ref)
    if not path.exists():
        raise NilformsError(f"no such {what}: {ref}")
    try:
        return path.read_text()
    except OSError as exc:
        raise NilformsError(f"cannot read {what} {ref}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise NilformsError(f"cannot read {what} {ref}: not UTF-8 text") from None


def _load_manifold(args):
    """--manifold, catalog:NAME or a path to a structure-equation JSON
    file, at --order; its n is kept as args.n for ``main``."""
    if args.manifold.startswith("catalog:"):
        entry = catalog_load(args.manifold.split(":", 1)[1], order=args.order)
    else:
        se = nio.se_parse(_read_input(args.manifold, "manifold file or catalog entry"))
        entry = CatalogEntry(name=se.name, se=se)
    args.n = entry.se.n
    return entry


def _family_algebra(entry) -> FormAlgebra:
    """The algebra of entry's family when it has one, else of its
    equations: where --t points and a Beltrami file is parsed.  Tested
    with ``is None``, since a zero family is falsy."""
    return (entry.se if entry.beltrami is None else entry.beltrami).algebra


def _load_beltrami(ref: str, entry):
    """The catalog's family (ref 'catalog') or a Beltrami file, parsed
    into the family's ring (``_family_algebra``).  A family vanishes at
    t = 0, so it has degree at least 1 in t: a ring of order 0 truncates
    it to phi = 0, and a deformed point would be answered as t = 0, so
    order 0 of the family's ring is refused (se's ring may be another,
    without parameters)."""
    if ref == "catalog":
        if entry.beltrami is None:
            raise NilformsError(f"catalog entry {entry.name!r} has no Beltrami family")
        if entry.beltrami.algebra.ring.order < 1:
            raise NilformsError(
                f"--order 0 truncates the Beltrami family of {entry.name!r} to phi = 0; "
                "use --order 1 or more"
            )
        return entry.beltrami
    return nio.beltrami_parse(_read_input(ref, "Beltrami file"), _family_algebra(entry))


def _load_form(ref: str, entry, algebra: Optional[FormAlgebra] = None):
    if ref.startswith("catalog:"):
        name = ref.split(":", 1)[1]
        if name not in entry.forms:
            raise NilformsError(
                f"entry {entry.name!r} has no distinguished form {name!r}; "
                f"available: {sorted(entry.forms)}"
            )
        return entry.forms[name]
    return nio.form_parse(_read_input(ref, "form file"), algebra or entry.se.algebra)


def _evaluated(entry, t_text: Optional[str]):
    """The complex of entry's fiber at --t, labelled by it.  --t is a point
    of the family's ring when entry has a family, else of se's; without
    it the point is se's own t = 0.  A point off t = 0 reads the family
    through ``_load_beltrami``, which refuses --order 0."""
    if t_text is None:
        point = zero_point(entry.se.algebra.ring.m)
    else:
        point = _parse_point(t_text, _family_algebra(entry).ring.m)
    phi = _load_beltrami("catalog", entry) if entry.beltrami is not None and any(point) else None
    return fiber_complex(entry.se, phi, point)


def _emit(obj: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(obj, indent=2))
    else:
        render(obj)


# -- renderers ---------------------------------------------------------------


def _render_cohomology(obj: dict) -> None:
    n = obj["n"]
    print(f"invariant cohomology at t = ({', '.join(obj['t'])})" if obj["t"] else "invariant cohomology")
    for label, key in (("h_BC", "h_bc"), ("h_A", "h_a"), ("h_dolbeault", "h_dolbeault")):
        print(f"{label}(p,q), rows p = 0..{n}:")
        for p in range(n + 1):
            print("   " + " ".join(f"{obj[key][p][q]:3d}" for q in range(n + 1)))
    print("betti:", " ".join(str(b) for b in obj["betti"]))


def _render_lemmata(obj: dict) -> None:
    print(f"lemma flags at t = ({', '.join(obj['t'])})" if obj["t"] else "lemma flags")
    for kind in ("mild", "dual_mild", "strong"):
        flags = obj[kind]
        line = ", ".join(f"({k})={'T' if v else 'F'}" for k, v in flags.items())
        print(f"  {kind:10s} {line}")
    if obj["weak"]:
        print("  weak       " + ", ".join(f"p={k}: {'T' if v else 'F'}" for k, v in obj["weak"].items()))
    if obj.get("standard") is not None:
        print(f"  standard   {'T' if obj['standard'] else 'F'}")
    if obj["witnesses"]:
        print("  witnesses for failures:")
        for key, w in obj["witnesses"].items():
            print(f"    {key}: {len(w['terms'])} terms")


def _render_scenario(obj: dict) -> None:
    print(f"scenario {obj['scenario']}: {'PASS' if obj['pass'] else 'FAIL'}")
    for c in obj["checks"]:
        mark = "ok " if c["pass"] else "XXX"
        print(f"  [{mark}] {c['key']}: expected {c['expected']}, got {c['actual']}  ({c['provenance']})")


# -- subcommands --------------------------------------------------------------


def _cmd_catalog(args) -> int:
    obj = {"entries": catalog_names(), "scenarios": sorted(SCENARIOS)}
    _emit(obj, args.json, lambda o: print(
        "catalog entries: " + ", ".join(o["entries"]) + "\nscenarios: " + ", ".join(o["scenarios"])
    ))
    return 0


def _cmd_cohomology(args) -> int:
    entry = _load_manifold(args)
    report = full_report(_evaluated(entry, args.t))
    obj = report.to_json_dict()
    obj["manifold"] = entry.name
    _emit(obj, args.json, _render_cohomology)
    return 0


def _cmd_lemmata(args) -> int:
    entry = _load_manifold(args)
    ec = _evaluated(entry, args.t)
    bidegrees = None
    if args.bidegree:
        p, q = args.bidegree
        if not (0 <= p <= ec.n and 0 <= q <= ec.n):
            raise NilformsError(f"bidegree ({p},{q}) is outside 0..{ec.n}")
        bidegrees = [(p, q)]
    rep = lemma_report(ec, bidegrees=bidegrees)
    obj = rep.to_json_dict()
    obj["manifold"] = entry.name
    _emit(obj, args.json, _render_lemmata)
    return 0


def _cmd_deform(args) -> int:
    entry = _load_manifold(args)
    phi = _load_beltrami(args.beltrami, entry)
    if args.t is not None:
        point = _parse_point(args.t, phi.algebra.ring.m)
        se_t = deform_complex(entry.se, phi, point=point)
    else:
        se_t = deform_complex(entry.se, phi)
    text = nio.se_emit(se_t)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise NilformsError(f"cannot write {args.output}: {exc.strerror}") from None
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_extend(args) -> int:
    entry = _load_manifold(args)
    phi = _load_beltrami(args.beltrami, entry)
    omega0 = _load_form(args.form, entry, phi.algebra)
    if args.pkahler:
        ext = pkahler_extend(entry.se, phi, omega0, order=args.order_n,
                             samples=args.samples, seed=args.seed)
        state = ext.state
        extra = {
            "pkahler_p": state.bidegree[0],
            "transverse_at": [
                {"t": [str(z) for z in pt], "holds": v.holds, "exact": v.exact}
                for pt, v in zip(ext.points, ext.verdicts)
            ],
        }
    else:
        state = solve_extension(entry.se, phi, omega0, order=args.order_n)
        extra = {}
    pts = small_points(phi.algebra.ring.m)
    nontrivial = []
    for pt in pts:
        ect = fiber_complex(entry.se, phi, pt)
        nontrivial.append(
            {"t": [str(z) for z in pt], "bc_nontrivial": bc_nontriviality(ect, state.omega.eval(pt))}
        )
    obj = {
        "manifold": entry.name,
        "bidegree": list(state.bidegree),
        "order": state.order,
        "residual_by_order": [
            {"order": l, "left": str(a), "right": str(b)}
            for l, (a, b) in enumerate(
                zip(state.residual_left_by_order, state.residual_right_by_order)
            )
        ],
        "d_closed_through_order": state.d_closed_through_order,
        "extended_form": nio.form_to_obj(state.omega),
        "bc_nontrivial_at": nontrivial,
    }
    obj.update(extra)
    _emit(obj, args.json, lambda o: print(
        f"extension of a ({o['bidegree'][0]},{o['bidegree'][1]})-form through order {o['order']}: "
        + ("d-closed" if o["d_closed_through_order"] else "RESIDUAL NONZERO")
    ))
    return 0


def _cmd_positivity(args) -> int:
    entry = _load_manifold(args)
    omega = _load_form(args.form, entry)
    ev = omega.eval(zero_point(omega.algebra.ring.m))
    pk, d_closed, verdict = pkahler_check(entry.se, omega, samples=args.samples, seed=args.seed)
    p = omega.bidegree()[0]
    try:
        strict = is_strictly_positive(ev, p).holds
    except NilformsError:
        strict = None
    obj = {
        "manifold": entry.name,
        "p": p,
        "d_closed": d_closed,
        "pkahler": pk,
        "transverse": verdict.to_json_dict(),
        "strictly_positive": strict,
    }
    _emit(obj, args.json, lambda o: print(
        f"p={o['p']}: pkahler={o['pkahler']} transverse={o['transverse']['holds']} "
        f"(exact={o['transverse']['exact']}) strictly_positive={o['strictly_positive']}"
    ))
    return 0


def _cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    reports = [run_scenario(name) for name in names]
    objs = [rep.to_json_dict() for rep in reports]
    if args.json and args.name == "all":
        print(json.dumps(objs, indent=2))
    else:
        for obj in objs:
            _emit(obj, args.json, _render_scenario)
    return 0 if all(rep.passed for rep in reports) else 2


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built by the first ``main`` call and reused
    by every later one in the process."""
    parser = _Parser(
        prog="nilforms",
        description="Exact cohomology and deformation computations on invariant complexes",
    )
    parser.add_argument("--order", type=_nonnegative, default=4,
                        help="truncation order for parameter rings (default 4)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list catalog entries and scenarios")
    p_cat.add_argument("what", nargs="?", default="list", choices=["list"])
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_coh = sub.add_parser("cohomology", help="full (p,q)-table of the four cohomologies")
    p_coh.add_argument("--manifold", required=True)
    p_coh.add_argument("--t", help="comma-separated parameter values, e.g. 3/7,5/11,2/13,7/17")
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(fn=_cmd_cohomology)

    p_lem = sub.add_parser("lemmata", help="del-delbar lemma flags and witnesses")
    p_lem.add_argument("--manifold", required=True)
    one_or_all = p_lem.add_mutually_exclusive_group()
    one_or_all.add_argument("--bidegree", type=_bidegree, help="p,q")
    one_or_all.add_argument("--all", action="store_true")
    p_lem.add_argument("--t")
    p_lem.add_argument("--json", action="store_true")
    p_lem.set_defaults(fn=_cmd_lemmata)

    p_def = sub.add_parser("deform", help="deformed structure equations along a Beltrami family")
    p_def.add_argument("--manifold", required=True)
    p_def.add_argument("--beltrami", required=True, help="file or 'catalog'")
    p_def.add_argument("--t", help="evaluate at this point instead of symbolically")
    p_def.add_argument("--output")
    p_def.set_defaults(fn=_cmd_deform)

    p_ext = sub.add_parser("extend", help="d-closed extension of a form to deformed fibers")
    p_ext.add_argument("--manifold", required=True)
    p_ext.add_argument("--beltrami", required=True, help="file or 'catalog'")
    p_ext.add_argument("--form", required=True, help="file or catalog:NAME")
    p_ext.add_argument("--order-n", type=_nonnegative, default=None, dest="order_n",
                       help="series order (default: ring truncation)")
    p_ext.add_argument("--pkahler", action="store_true",
                       help="treat the input as a p-Kaehler form, p read off its bidegree (p,p) "
                            "with 1 <= p <= n-1, and check transversality on nearby fibers")
    p_ext.add_argument("--samples", type=_positive, default=200)
    p_ext.add_argument("--seed", type=int, default=7)
    p_ext.add_argument("--json", action="store_true")
    p_ext.set_defaults(fn=_cmd_extend)

    p_pos = sub.add_parser("positivity", help="strict positivity / transversality verdicts")
    p_pos.add_argument("--manifold", required=True)
    p_pos.add_argument("--form", required=True, help="file or catalog:NAME")
    p_pos.add_argument("--samples", type=_positive, default=200)
    p_pos.add_argument("--seed", type=int, default=7)
    p_pos.add_argument("--json", action="store_true")
    p_pos.set_defaults(fn=_cmd_positivity)

    p_sce = sub.add_parser("scenario", help="run golden-file scenarios")
    p_sce.add_argument("name", help="scenario name or 'all'")
    p_sce.add_argument("--json", action="store_true")
    p_sce.set_defaults(fn=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            return args.fn(args)
        except MemoryError:
            at = f" at n = {args.n}" if hasattr(args, "n") else ""
            raise NilformsError(f"{args.command} ran out of memory{at}") from None
    except NilformsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
