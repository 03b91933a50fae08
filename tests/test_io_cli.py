import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from nilforms import cli
from nilforms import io as nio
from nilforms.algebra import StructureEquations, build_complex
from nilforms.catalog import catalog_load, catalog_names, run_scenario
from nilforms.cohomology import betti, cohomology, dclosed_dim, ddbar_image_dim, generic_points, zero_point
from nilforms.deformation import fiber_complex
from nilforms.errors import FormatError, UnknownEntry
from nilforms.lemmata import lemma_report, standard, verify_witness, weak
from nilforms.scalars import parse_gaussian

from oracles import in_real_delbar_span


def test_se_roundtrip_constant(iwasawa3):
    text = nio.se_emit(iwasawa3.se)
    parsed = nio.se_parse(text)
    assert parsed.n == 3 and parsed.name == "iwasawa3"
    for i in (1, 2, 3):
        assert parsed.d_coframe[i] == iwasawa3.se.d_coframe[i]
    # canonical emission is a fixed point: emit(parse(x)) == x byte for byte
    assert nio.se_emit(parsed) == text


def _scalar_parts(se):
    return [
        part
        for f in se.d_coframe.values()
        for c in f.coeffs.values()
        for z in c.terms.values()
        for part in (z.re, z.im)
    ]


def test_parsed_gaussian_integers_have_int_parts(iwasawa3):
    """Structure equations read through io carry int parts, as the
    catalog's do, and give the same report."""
    from nilforms.cohomology import EvaluatedComplex, full_report

    parsed = nio.obj_to_se(nio.se_to_obj(iwasawa3.se))
    parts = _scalar_parts(parsed)
    assert parts and all(type(x) is int for x in parts)
    assert parts == _scalar_parts(iwasawa3.se)
    reports = [full_report(EvaluatedComplex(build_complex(se), ())) for se in (parsed, iwasawa3.se)]
    assert reports[0] == reports[1]


def test_se_roundtrip_symbolic(bcvary10):
    from nilforms.deformation import deform_complex

    se_def = deform_complex(bcvary10.se, bcvary10.beltrami)
    text = nio.se_emit(se_def)
    parsed = nio.se_parse(text)
    for i in range(1, 6):
        assert parsed.d_coframe[i] == se_def.d_coframe[i]
    assert nio.se_emit(parsed) == text


def test_parser_rejects_02_factors():
    obj = {
        "format": "nilforms.se/1",
        "name": "bad",
        "n": 2,
        "m": 0,
        "d": {"1": [{"coeff": "1", "factors": ["bar1", "bar2"]}]},
    }
    with pytest.raises(FormatError):
        nio.obj_to_se(obj)


def test_form_roundtrip(bcvary10):
    text = nio.form_emit(bcvary10.forms["balanced"], name="balanced")
    parsed = nio.form_parse(text, bcvary10.se.algebra)
    assert parsed == bcvary10.forms["balanced"]


def test_beltrami_roundtrip(bcvary10):
    text = nio.beltrami_emit(bcvary10.beltrami)
    parsed = nio.beltrami_parse(text, bcvary10.se.algebra)
    assert parsed == bcvary10.beltrami


def test_beltrami_rejects_holomorphic_factor():
    obj = {
        "format": "nilforms.beltrami/1",
        "n": 2,
        "m": 1,
        "truncation": 2,
        "components": {"1": [{"coeff": "t1", "factors": ["2"]}]},
    }
    with pytest.raises(FormatError):
        nio.obj_to_beltrami(obj)


def test_catalog_load_unknown():
    with pytest.raises(UnknownEntry):
        catalog_load("nakamura")
    with pytest.raises(UnknownEntry):
        run_scenario("nope")


def test_untagged_expectation_refused():
    from nilforms.catalog import GoldenValue

    with pytest.raises(ValueError):
        GoldenValue("key", 1, "   ")


def test_catalog_abelian_family():
    entry = catalog_load("abelian_4")
    assert entry.se.n == 4
    assert all(not f for f in entry.se.d_coframe.values())


def _golden_actual(entry, key: str):
    """The computation behind a catalog golden key, on the fibers the key
    names: @generic at both generic points of the family (a list of two),
    @0 or no suffix on the entry's own equations, t = 0; AssertionError
    on a key this map does not know."""
    readers = {  # name: (number of arguments, reader)
        "h_bc": (2, lambda ec, p, q: cohomology(ec, "bott_chern", p, q)), "dclosed": (2, dclosed_dim),
        "ddbar": (2, ddbar_image_dim),
        "mild": (2, lambda ec, p, q: lemma_report(ec, [(p, q)]).mild_flags[(p, q)]),
        "dual_mild": (2, lambda ec, p, q: lemma_report(ec, [(p, q)]).dual_mild_flags[(p, q)]),
        "strong": (2, lambda ec, p, q: lemma_report(ec, [(p, q)]).strong_flags[(p, q)]),
        "weak": (1, lambda ec, p: weak(ec, p)[0]),
        "standard": (0, lambda ec: standard(ec)[0]), "betti": (0, lambda ec: [betti(ec, k) for k in range(2 * ec.n + 1)]),
    }
    match = re.fullmatch(r"([a-z_]+)(?:\(([0-9,]+)\))?(?:@(0|generic))?", key)
    name, args, at = match.groups() if match else (None, None, None)
    args = [int(x) for x in args.split(",")] if args else []
    arity, reader = readers.get(name, (None, None))
    assert arity == len(args), f"{entry.name}: no computation for golden key {key!r}"
    if at != "generic":
        return reader(fiber_complex(entry.se, None, zero_point(entry.se.algebra.ring.m)), *args)
    points = generic_points(entry.beltrami.algebra.ring.m)
    return [reader(fiber_complex(entry.se, entry.beltrami, pt), *args) for pt in points]


def test_every_catalog_golden_is_checked():
    """Every golden value of every catalog entry, abelian_1..abelian_8
    included, maps to its computation (``_golden_actual``) and holds;
    a key that maps to none fails.  A value at @generic holds at both
    generic points."""
    names = [name for name in catalog_names() if name != "abelian_n"] + [f"abelian_{k}" for k in range(1, 9)]
    keys = 0
    for name in names:
        entry = catalog_load(name)
        assert entry.golden, name
        for golden in entry.golden:
            actual = _golden_actual(entry, golden.key)
            fibers = actual if golden.key.endswith("@generic") else [actual]
            assert all(a == golden.expected for a in fibers), (name, golden.key, actual)
            keys += 1
    assert keys == 2 + 4 + 7 + 2 * 8
    for key in ("h_bc", "bogus(1,1)", "mild(4,5)@t"):
        with pytest.raises(AssertionError, match="no computation for golden key"):
            _golden_actual(catalog_load("bcvary10"), key)


# -- CLI ----------------------------------------------------------------------


def test_cli_catalog_and_scenarios_exit_zero(capsys):
    assert cli.main(["catalog", "list"]) == 0
    assert cli.main(["scenario", "iwasawa_lemma_taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_cohomology_json(capsys):
    assert cli.main(["cohomology", "--manifold", "catalog:iwasawa3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) >= {"h_bc", "h_a", "h_dolbeault", "betti"}
    assert obj["betti"] == [1, 4, 8, 10, 8, 4, 1]


def test_cli_cohomology_at_point(capsys):
    rc = cli.main(
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", "3/7,5/11,2/13,7/17", "--json"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["h_bc"][4][4] == 17


def test_cli_lemmata(capsys):
    rc = cli.main(
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "2,3", "--json"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mild"]["2,3"] is False and obj["dual_mild"]["2,3"] is True


def test_cli_deform_roundtrip(tmp_path, capsys):
    out = tmp_path / "deformed.json"
    rc = cli.main(
        [
            "deform",
            "--manifold",
            "catalog:bcvary10",
            "--beltrami",
            "catalog",
            "--t",
            "1/3,1/5,1/7,1/11",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["cohomology", "--manifold", str(out), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["h_bc"][4][4] == 17


def test_cli_extend_json(tmp_path, capsys):
    form_file = tmp_path / "omega.json"
    entry = catalog_load("bcvary10")
    form_file.write_text(nio.form_emit(entry.forms["balanced"]))
    rc = cli.main(
        [
            "extend",
            "--manifold",
            "catalog:bcvary10",
            "--beltrami",
            "catalog",
            "--form",
            str(form_file),
            "--json",
        ]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) >= {"residual_by_order", "extended_form", "bc_nontrivial_at"}
    assert obj["d_closed_through_order"] is True
    assert all(r["left"] == "0" and r["right"] == "0" for r in obj["residual_by_order"])


def test_cli_positivity(capsys):
    rc = cli.main(
        [
            "positivity",
            "--manifold",
            "catalog:bcvary10",
            "--form",
            "catalog:balanced",
            "--samples",
            "20",
            "--json",
        ]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pkahler"] is True and obj["transverse"]["holds"] is True


def test_cli_input_error_exit_one(capsys):
    """An unknown entry's one error line names the abelian family by the
    names that load, abelian_1 to abelian_8, not by the abelian_n that
    ``catalog`` lists."""
    assert cli.main(["cohomology", "--manifold", "catalog:nakamura"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown catalog entry 'nakamura'; available: torus3, iwasawa3, bcvary10, abelian_<k> (k = 1..8)\n"
    )
    assert cli.main(["cohomology", "--manifold", "/nonexistent/path.json"]) == 1


def test_cli_golden_mismatch_exit_two(monkeypatch, capsys):
    from nilforms.catalog import CheckResult, SCENARIOS, ScenarioReport

    def fake():
        return ScenarioReport(
            "fake", [CheckResult("k", 1, 2, "trivial: forced mismatch")]
        )

    monkeypatch.setitem(SCENARIOS, "fake", fake)
    assert cli.main(["scenario", "fake"]) == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "nilforms.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bcvary10" in proc.stdout


def test_cli_scenario_all_json_is_one_array(capsys):
    assert cli.main(["scenario", "all", "--json"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert isinstance(objs, list) and len(objs) == 4
    assert all(obj["pass"] for obj in objs)


#: files that must be refused with one error line: an argument
#: "<kind>-file:<name>" stands for a file holding MALFORMED[kind][name],
#: "<dir>" for a directory and "<binary>" for a file that is not UTF-8
_TERM = '{"coeff": "1", "factors": ["1", "bar2"]}'
_TERM11, _TERM12 = '{"coeff": "1", "factors": ["1", "bar1"]}', '{"coeff": "5", "factors": ["1", "2"]}'
MALFORMED_SE = {
    "top_level_array": "[]",
    "d_not_object": '{"n": 2, "d": []}',
    "d_entry_not_list": '{"n": 2, "d": {"2": 5}}',
    "d_entry_string": '{"n": 2, "d": {"2": "1,bar2"}}',
    "term_not_object": '{"n": 2, "d": {"2": ["1,bar2"]}}',
    "coeff_missing": '{"n": 2, "d": {"2": [{"factors": ["1", "bar2"]}]}}',
    "factor_not_string": '{"n": 2, "d": {"2": [{"coeff": "1", "factors": [1, "bar2"]}]}}',
    "d_key_above_n": '{"n": 2, "d": {"7": [' + _TERM + ']}}',
    "d_key_zero": '{"n": 2, "d": {"0": [' + _TERM + ']}}',
    "d_key_not_integer": '{"n": 2, "d": {"x": [' + _TERM + ']}}',
    "n_zero": '{"n": 0}',
    "m_negative": '{"n": 2, "m": -1}',
    # a coframe index or a key given twice: the later copy would replace
    # the earlier d gamma^2 without a word
    "d_key_padded_twice": '{"n": 2, "d": {"2": [' + _TERM11 + '], "02": [' + _TERM12 + ']}}',
    "d_key_twice": '{"n": 2, "d": {"2": [' + _TERM11 + '], "2": [' + _TERM12 + ']}}',
    "n_twice": '{"n": 2, "n": 3, "d": {"2": [' + _TERM11 + ']}}',
}
#: forms and Beltrami differentials for bcvary10 (n = 5)
_FORM_TERM = '{"coeff": "1", "I": [1], "J": [2]}'
MALFORMED_FORM = {
    "top_level_array": "[]",
    "n_missing": '{"terms": []}',
    "n_string": '{"n": "5", "terms": []}',
    "truncation_float": '{"n": 5, "m": 1, "truncation": 2.5, "terms": []}',
    "terms_not_list": '{"n": 5, "terms": {"1": ' + _FORM_TERM + '}}',
    "term_not_object": '{"n": 5, "terms": ["1,bar2"]}',
    "I_missing": '{"n": 5, "terms": [{"coeff": "1", "J": [2]}]}',
    "J_not_list": '{"n": 5, "terms": [{"coeff": "1", "I": [1], "J": 2}]}',
    "index_above_n": '{"n": 5, "terms": [{"coeff": "1", "I": [6], "J": [2]}]}',
    "index_zero": '{"n": 5, "terms": [{"coeff": "1", "I": [1], "J": [0]}]}',
    "I_descending": '{"n": 5, "terms": [{"coeff": "1", "I": [2, 1], "J": [2]}]}',
}
_BELTRAMI_TERM = '{"coeff": "t1", "factors": ["bar1"]}'
_BELTRAMI_T1, _BELTRAMI_T2 = '{"coeff": "t1", "factors": ["bar4"]}', '{"coeff": "t2", "factors": ["bar5"]}'
MALFORMED_BELTRAMI = {
    "top_level_array": "[]",
    "n_missing": '{"components": {}}',
    "m_string": '{"n": 5, "m": "4", "components": {}}',
    "components_not_object": '{"n": 5, "components": [' + _BELTRAMI_TERM + ']}',
    "component_not_list": '{"n": 5, "components": {"1": ' + _BELTRAMI_TERM + '}}',
    "term_not_object": '{"n": 5, "components": {"1": ["bar1"]}}',
    "key_above_n": '{"n": 5, "components": {"6": [' + _BELTRAMI_TERM + ']}}',
    "key_zero": '{"n": 5, "components": {"0": [' + _BELTRAMI_TERM + ']}}',
    "n_not_the_manifolds": '{"n": 4, "components": {"1": [' + _BELTRAMI_TERM + ']}}',
    "key_padded_twice": '{"n": 5, "m": 4, "components": {"2": [' + _BELTRAMI_T1 + '], "02": [' + _BELTRAMI_T2 + ']}}',
    "key_twice": '{"n": 5, "m": 4, "components": {"2": [' + _BELTRAMI_T1 + '], "2": [' + _BELTRAMI_T2 + ']}}',
}
#: well-formed forms that extend cannot take as omega0: zero, of mixed
#: bidegree, and t1 times the (4,4) volume form, which vanishes at t = 0
UNEXTENDABLE_FORM = {
    "zero": '{"n": 5, "terms": []}',
    "mixed": '{"n": 5, "terms": [{"coeff": "1", "I": [1], "J": []}, {"coeff": "1", "I": [1, 2], "J": []}]}',
    "t_dependent": '{"n": 5, "m": 4, "truncation": 4, "terms": [{"coeff": "t1", "I": [1, 2, 3, 4], "J": [1, 2, 3, 4]}]}',
}
#: well-formed forms that have no p as p-Kaehler forms: zero, of mixed
#: bidegree, and the (5,5) volume form, whose p = n is outside 1..n-1
NO_PKAHLER_DEGREE = {
    "zero": UNEXTENDABLE_FORM["zero"],
    "mixed": UNEXTENDABLE_FORM["mixed"],
    "top": '{"n": 5, "terms": [{"coeff": "1", "I": [1, 2, 3, 4, 5], "J": [1, 2, 3, 4, 5]}]}',
}
#: a real (4,4)-form whose coefficient 1 + t1 + tbar1 depends on t:
#: transversality is decided at a point, so positivity refuses it
T_DEPENDENT_PP = {
    "real44": '{"n": 5, "m": 4, "truncation": 4, "terms": '
              '[{"coeff": "1+t1+tbar1", "I": [1, 2, 3, 4], "J": [1, 2, 3, 4]}]}',
}
#: a well-formed Beltrami differential that is not integrable: t1
#: gammabar^3 (x) theta_3 on iwasawa3 (n = 3), delbar of which is
#: t1 gammabar^1 ^ gammabar^2 (x) theta_3 up to sign, and [phi,phi] = 0
NONINTEGRABLE = {
    "iwasawa3": '{"n": 3, "m": 6, "components": {"3": [{"coeff": "t1", "factors": ["bar3"]}]}}',
}
MALFORMED = {
    "se": MALFORMED_SE,
    "form": MALFORMED_FORM,
    "beltrami": MALFORMED_BELTRAMI,
    "omega0": UNEXTENDABLE_FORM,
    "pp": NO_PKAHLER_DEGREE,
    "tpp": T_DEPENDENT_PP,
    "nonintegrable": NONINTEGRABLE,
}
_POSITIVITY = ["positivity", "--manifold", "catalog:bcvary10"]
#: a point of iwasawa3's family in each of Nakamura's classes, with D =
#: t1 t4 - t2 t3: (i) t1 = t2 = t3 = t4 = 0, (ii) D = 0 otherwise, (iii)
#: D != 0; and the values of its golden that tell the classes apart.
#: Provenance of the values: engine (this program's output, not yet
#: compared with the published tables of the Iwasawa deformations)
NAKAMURA_CLASSES = {
    "i": ("0,0,0,0,1/3,1/5", {"h_bc(2,0)": 3, "h_dolbeault(1,0)": 3}),
    "ii": ("1/3,0,0,0,1/7,0", {"h_bc(2,0)": 2, "h_dolbeault(1,0)": 2}),
    "iii": ("1/3,0,0,1/5,0,0", {"h_bc(2,0)": 1, "h_dolbeault(1,0)": 2}),
}
_EXTEND = ["extend", "--manifold", "catalog:bcvary10", "--form", "catalog:balanced"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", "1/0,0,0,0"],
        ["--order", "-1", "deform", "--manifold", "catalog:bcvary10", "--beltrami", "catalog"],
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "x"],
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "1,2,3"],
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "9,9"],
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "-1,0"],
        [],
        ["frobnicate"],
        ["cohomology"],
        ["cohomology", "--manifold", "catalog:iwasawa3", "--bogus"],
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", "-1/7,0,0,0"],
        ["extend", "--manifold", "catalog:bcvary10", "--beltrami", "catalog",
         "--form", "catalog:balanced", "--order-n", "9"],
        ["positivity", "--manifold", "catalog:bcvary10", "--form", "catalog:balanced",
         "--samples", "-3"],
        ["positivity", "--manifold", "catalog:bcvary10", "--form", "catalog:balanced",
         "--samples", "0"],
        ["extend", "--manifold", "catalog:bcvary10", "--beltrami", "catalog",
         "--form", "catalog:balanced", "--pkahler", "--samples", "0"],
        *(["cohomology", "--manifold", f"se-file:{name}"] for name in MALFORMED_SE),
        *(_POSITIVITY + ["--form", f"form-file:{name}"] for name in MALFORMED_FORM),
        *(_EXTEND + ["--beltrami", f"beltrami-file:{name}"] for name in MALFORMED_BELTRAMI),
        # a p after positivity or extend --pkahler: p is read off the
        # form, so neither takes one
        *(["positivity", "--manifold", "catalog:torus3", "--form", "catalog:kaehler", "--p", p]
          for p in ("0", "2", "-1")),
        *(_EXTEND + ["--beltrami", "catalog", "--pkahler", p] for p in ("9", "-2", "3", "0")),
        # a directory where an input file belongs
        ["cohomology", "--manifold", "<dir>"],
        _POSITIVITY + ["--form", "<dir>"],
        _EXTEND + ["--beltrami", "<dir>"],
        ["deform", "--manifold", "catalog:bcvary10", "--beltrami", "catalog", "--output", "<dir>"],
        ["cohomology", "--manifold", "<binary>"],
        # --t on a parameter-free manifold, of the wrong arity for a
        # family, empty, or with an empty slot
        ["cohomology", "--manifold", "catalog:torus3", "--t", "1,2,3"],
        ["cohomology", "--manifold", "catalog:iwasawa3", "--t", "1,2,3"],
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", ""],
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", "1/3,,1/5,1/7,1/11"],
        ["cohomology", "--manifold", "catalog:bcvary10", "--t", "3/7,5/11,2/13,7/17,"],
        ["deform", "--manifold", "catalog:bcvary10", "--beltrami", "catalog", "--t", ""],
        # an order that truncates bcvary10's family, linear in t, to phi = 0
        *(["--order", "0", cmd, "--manifold", "catalog:bcvary10", "--t", "1/3,0,0,0", *more]
          for cmd, more in (("cohomology", []), ("lemmata", []), ("deform", ["--beltrami", "catalog"]))),
        ["--order", "0", *_EXTEND, "--beltrami", "catalog"],
        # order 1 drops the degree-2 term of iwasawa3's family, and at a
        # class (iii) point the truncated phi gives no complex structure
        ["--order", "1", "cohomology", "--manifold", "catalog:iwasawa3", "--t", NAKAMURA_CLASSES["iii"][0]],
        # an omega0 with no bidegree or no value at t = 0; with a value
        # after --pkahler, which takes none
        *(["extend", "--manifold", "catalog:bcvary10", "--beltrami", "catalog", "--form", f"omega0-file:{name}"]
          for name in UNEXTENDABLE_FORM),
        ["extend", "--manifold", "catalog:bcvary10", "--beltrami", "catalog", "--form", "omega0-file:zero",
         "--pkahler", "4"],
        # forms with no p as p-Kaehler forms: zero, mixed, p = n
        *(_POSITIVITY + ["--form", f"pp-file:{name}"] for name in NO_PKAHLER_DEGREE),
        ["extend", "--manifold", "catalog:bcvary10", "--beltrami", "catalog", "--form", "pp-file:zero",
         "--pkahler"],
        # no option is read from a prefix of its name: a misplaced global
        # --order is not extend's --order-n, nor --man and --js options
        _EXTEND + ["--beltrami", "catalog", "--order", "2"],
        ["cohomology", "--man", "catalog:iwasawa3", "--js"],
        # one bidegree or all of them, not both
        ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "2,3", "--all"],
        # a real (p,p)-form that depends on t
        _POSITIVITY + ["--form", "tpp-file:real44"],
        # a phi that is not integrable: refused by its symbolic deformation,
        # at a generic point by the fiber's equations, and by extend
        *([cmd, "--manifold", "catalog:iwasawa3", "--beltrami", "nonintegrable-file:iwasawa3", *more]
          for cmd, more in (("deform", []), ("deform", ["--t", "1/3,1/5,1/7,1/11,1/13,1/17"]),
                            ("extend", ["--form", "catalog:balanced"]))),
    ],
)
def test_cli_malformed_input_one_error_line(argv, tmp_path, capsys):
    for k, arg in enumerate(argv):
        kind, sep, name = arg.partition("-file:")
        path = None
        if sep:
            path = tmp_path / f"{kind}.json"
            path.write_text(MALFORMED[kind][name])
        elif arg == "<dir>":
            path = tmp_path
        elif arg == "<binary>":
            path = tmp_path / "binary.json"
            path.write_bytes(b"\xff\xfe")
        if path is not None:
            argv = argv[:k] + [str(path)] + argv[k + 1:]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_a_structure_file_past_the_size_bound_is_one_error_line(tmp_path):
    """The n = 30 row of the boundary table, run apart from it: a
    well-formed structure file with n = 30 and d = {} gives exit 1 and
    one error line naming n and the bound, for cohomology and for one
    bidegree of lemmata.  Each run is a subprocess capped at 1 GiB of
    address space (RLIMIT_AS), so an engine that builds the 2^30 subsets
    fails there and cannot take the machine's memory."""
    path = tmp_path / "n30.json"
    path.write_text('{"n": 30, "d": {}}')

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for argv in (["cohomology", "--manifold", str(path)],
                 ["lemmata", "--manifold", str(path), "--bidegree", "1,2"]):
        proc = subprocess.run([sys.executable, "-m", "nilforms.cli", *argv],
                              capture_output=True, text=True, preexec_fn=cap)
        assert (proc.returncode, proc.stdout) == (1, ""), (argv, proc.stderr)
        assert proc.stderr == "error: n = 30 is above the size bound n <= 12\n", argv


def test_a_misplaced_order_names_both_orders(capsys):
    """--order after extend is refused, not read as --order-n, and the
    one error line names the global --order and extend's --order-n."""
    assert cli.main(_EXTEND + ["--beltrami", "catalog", "--order", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: unrecognized arguments: --order 2 "
        "(--order is global and goes before the command; extend's series order is --order-n)\n"
    )


def test_a_command_out_of_memory_is_one_error_line(monkeypatch, capsys):
    """A command that runs out of memory exits 1 with one error line
    naming the command, and the n of its complex once the manifold is
    loaded, not a traceback."""
    parser = cli._parser()
    real = parser.parse_args
    load = []

    def parse(argv=None):
        args = real(argv)

        def fn(args):
            if load:
                cli._load_manifold(args)
            raise MemoryError

        args.fn = fn
        return args

    monkeypatch.setattr(parser, "parse_args", parse)
    for loaded, want in ((False, "error: cohomology ran out of memory\n"),
                         (True, "error: cohomology ran out of memory at n = 3\n")):
        load[:] = [True] if loaded else []
        assert cli.main(["cohomology", "--manifold", "catalog:iwasawa3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == want and captured.out == ""


#: recorded stdout of the README examples: the arithmetic is exact, so a
#: refactor of the engine must keep every byte of it
GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
BCVARY_BELTRAMI = ["--manifold", "catalog:bcvary10", "--beltrami", "catalog"]
GOLDEN_RUNS = {
    "cohomology_iwasawa3": ["cohomology", "--manifold", "catalog:iwasawa3"],
    "cohomology_bcvary10_t": [
        "cohomology", "--manifold", "catalog:bcvary10", "--t", "3/7,5/11,2/13,7/17",
    ],
    # one fiber of iwasawa3's family per Nakamura class (NAKAMURA_CLASSES)
    **{f"cohomology_iwasawa3_{cls}": ["cohomology", "--manifold", "catalog:iwasawa3", "--t", t]
       for cls, (t, _) in NAKAMURA_CLASSES.items()},
    "lemmata_iwasawa3_23": ["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "2,3"],
    "lemmata_bcvary10_all": ["lemmata", "--manifold", "catalog:bcvary10", "--all"],
    # a generic point: pivots and witnesses with coefficients other than +-1
    "lemmata_bcvary10_all_t": [
        "lemmata", "--manifold", "catalog:bcvary10", "--all", "--t", "3/7,5/11,2/13,7/17",
    ],
    "extend_bcvary10": ["extend", *BCVARY_BELTRAMI, "--form", "catalog:balanced"],
    "extend_bcvary10_order2": ["extend", *BCVARY_BELTRAMI, "--form", "catalog:balanced", "--order-n", "2"],
    "extend_bcvary10_pkahler4": ["extend", *BCVARY_BELTRAMI, "--form", "catalog:balanced", "--pkahler"],
    "positivity_bcvary10_p4": ["positivity", "--manifold", "catalog:bcvary10", "--form", "catalog:balanced"],
}
GOLDEN_CASES = [(f"{name}.txt", argv) for name, argv in GOLDEN_RUNS.items()]
GOLDEN_CASES += [(f"{name}.json", argv + ["--json"]) for name, argv in GOLDEN_RUNS.items()]
GOLDEN_CASES += [
    ("deform_bcvary10.txt", ["deform", *BCVARY_BELTRAMI]),
    ("deform_bcvary10_t.txt", ["deform", *BCVARY_BELTRAMI, "--t", "3/7,5/11,2/13,7/17"]),
    ("scenario_all.txt", ["scenario", "all"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_cli_output_byte_identical_to_golden(name, argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", ["lemmata_iwasawa3_23", "lemmata_bcvary10_all", "lemmata_bcvary10_all_t"])
def test_golden_strong_witnesses_are_mild_or_dual_mild_and_reverify(name):
    """Each strong witness in a lemma golden is that golden's mild witness
    at the same bidegree if there is one, else its dual mild witness, and
    passes verify_witness as a strong witness on a complex built afresh
    at the golden's point, as the CLI builds it."""
    obj = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    ec = cli._evaluated(catalog_load(obj["manifold"]), ",".join(obj["t"]) or None)
    assert [str(z) for z in ec.point] == obj["t"]
    witnesses = obj["witnesses"]
    strong = [key for key in witnesses if key.startswith("strong:")]
    assert strong and len(strong) == list(obj["strong"].values()).count(False)
    for key in strong:
        at = key.split(":")[1]
        assert witnesses[key] == witnesses.get(f"mild:{at}", witnesses.get(f"dual_mild:{at}")), key
        p, q = (int(x) for x in at.split(","))
        checks = verify_witness(ec, "strong", p, q, nio.obj_to_form(witnesses[key], ec.cx.se.algebra))
        assert checks and all(checks.values()), (key, checks)


def test_golden_weak_witnesses_reverify():
    """Each weak witness of the lemma goldens at bcvary10's generic point
    passes verify_witness at the golden's point, and the realified oracle
    finds it delbar of a real form (``oracles.in_real_delbar_span``)."""
    obj = json.loads((GOLDEN_DIR / "lemmata_bcvary10_all_t.json").read_text())
    ec = cli._evaluated(catalog_load(obj["manifold"]), ",".join(obj["t"]))
    weak = sorted(key for key in obj["witnesses"] if key.startswith("weak:"))
    assert weak == [f"weak:{p}" for p, ok in obj["weak"].items() if not ok] == ["weak:1", "weak:2", "weak:3"]
    for key in weak:
        p = int(key.split(":")[1])
        w = nio.obj_to_form(obj["witnesses"][key], ec.cx.se.algebra)
        checks = verify_witness(ec, "weak", p, p + 1, w)
        assert checks and all(checks.values()), (key, checks)
        assert in_real_delbar_span(ec, p, ec.form_to_vec(w, p, p + 1)), key


def test_one_parser_answers_as_fresh_ones(capsys):
    """A usage error, then a valid command, then the same command, then
    a command refused at --order 0 and the same one at the default order,
    through the one parser that the first main call builds, give the exit
    codes and output of separate fresh processes: no option is carried
    from one call to the next."""
    deform = ["deform", "--manifold", "catalog:bcvary10", "--beltrami", "catalog"]
    argvs = [["cohomology", "--bogus"], ["catalog", "--json"], ["catalog", "--json"], ["--order", "0", *deform], deform]
    fresh = [subprocess.run([sys.executable, "-m", "nilforms.cli", *argv], capture_output=True, text=True)
             for argv in argvs]
    cli._parser.cache_clear()
    shared = [(cli.main(argv), capsys.readouterr()) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    assert [p.returncode for p in fresh] == [code for code, _ in shared] == [1, 0, 0, 1, 0]
    assert [(p.stdout, p.stderr) for p in fresh] == [(c.out, c.err) for _, c in shared]
    assert shared[0][1].err.startswith("error: ") and json.loads(shared[2][1].out)["entries"]


def test_order_one_holds_the_family(capsys):
    """--order 1 holds bcvary10's family, linear in t: h_BC(4,4) at
    t = (1/3, 0, 0, 0) is 17 as at the default order (order 0, which
    would give the t = 0 table, is refused in
    test_cli_malformed_input_one_error_line), and --order 0 still
    answers at t = 0 (19).  At a class (i) point of iwasawa3's family
    the degree-2 term vanishes, so --order 1 gives the golden table of
    the default order (at a class (iii) point it is refused, in the same
    test)."""
    t = ["--manifold", "catalog:bcvary10", "--t", "1/3,0,0,0"]
    for order, argv, h44 in (("1", t, 17), ("4", t, 17),
                             ("0", ["--manifold", "catalog:bcvary10"], 19)):
        assert cli.main(["--order", order, "cohomology", *argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["h_bc"][4][4] == h44, order
    argv = ["--order", "1", *GOLDEN_RUNS["cohomology_iwasawa3_i"], "--json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "cohomology_iwasawa3_i.json").read_bytes()


@pytest.mark.parametrize("cls", sorted(NAKAMURA_CLASSES))
def test_iwasawa_goldens_tell_the_nakamura_classes_apart(cls):
    """Each iwasawa3 golden off t = 0 is at a point of its Nakamura
    class, keeps the Betti numbers of t = 0, and has the values of
    NAKAMURA_CLASSES: h_bc(2,0) = 3, 2, 1 and h_dolbeault(1,0) = 3, 2, 2."""
    t, expected = NAKAMURA_CLASSES[cls]
    t1, t2, t3, t4 = (parse_gaussian(x) for x in t.split(",")[:4])
    assert (cls == "i") == (not any((t1, t2, t3, t4)))
    assert (cls == "iii") == bool(t1 * t4 - t2 * t3)
    obj = json.loads((GOLDEN_DIR / f"cohomology_iwasawa3_{cls}.json").read_text())
    assert obj["t"] == t.split(",") and obj["betti"] == [1, 4, 8, 10, 8, 4, 1]
    assert {"h_bc(2,0)": obj["h_bc"][2][0], "h_dolbeault(1,0)": obj["h_dolbeault"][1][0]} == expected


def test_positivity_applies_d_to_its_form_once(monkeypatch, capsys):
    """positivity reads d_closed and pkahler off one application of d to
    the form: of the 11 derivations of one bcvary10 run, one is the
    balanced form and the other 10 are the flatness check."""
    balanced = catalog_load("bcvary10").forms["balanced"]
    forms = []
    apply_d = StructureEquations.apply_d

    def counted(self, a):
        forms.append(a)
        return apply_d(self, a)

    monkeypatch.setattr(StructureEquations, "apply_d", counted)
    assert cli.main(["positivity", "--manifold", "catalog:bcvary10", "--form", "catalog:balanced"]) == 0
    assert len(forms) == 11 and forms.count(balanced) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "positivity_bcvary10_p4.txt").read_bytes()


def test_a_beltrami_file_is_parsed_into_the_familys_ring(tmp_path, capsys):
    """A Beltrami file holding iwasawa3's own family, whose equations
    have no parameters, is parsed into the family's ring, so ``deform``
    from the file prints what ``--beltrami catalog`` prints, at a class
    (iii) and a class (i) point and symbolically; so does bcvary10's.
    On torus3, a manifold without a family, the file is still refused
    with one error line."""
    files = {}
    for name in ("iwasawa3", "bcvary10"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(nio.beltrami_emit(catalog_load(name).beltrami))
    runs = [("iwasawa3", ["--t", NAKAMURA_CLASSES["iii"][0]]), ("iwasawa3", ["--t", NAKAMURA_CLASSES["i"][0]]),
            ("iwasawa3", []), ("bcvary10", ["--t", "1/5,0,0,0"])]
    for name, t in runs:
        outs = []
        for ref in ("catalog", str(files[name])):
            assert cli.main(["deform", "--manifold", f"catalog:{name}", "--beltrami", ref, *t]) == 0, (name, t)
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1], (name, t)
    assert cli.main(["deform", "--manifold", "catalog:torus3", "--beltrami", str(files["iwasawa3"])]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and captured.out == "", captured.err
