"""Versioned JSON formats for structure equations, forms and Beltrami
differentials.

The structure-equation schema is
{ "format", "name", "n", "m", "d": { "<i>": [ {"coeff": "...",
"factors": ["1", "bar3"]}, ... ] } } with exact scalar strings like
"-1/2", "1/2+3/4i" or, for parameter-dependent coefficients (emitted by
the symbolic deformation mode), "1-t2*tbar4".  Emission is canonical:
sorted monomials, lowest terms, two-space indent; emit(parse(x)) is
byte-identical for canonicalized files.  The parser rejects d-entries
with two anti-holomorphic factors, a JSON object that gives a key twice,
and a coframe index given twice ("2" and "02").
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import Form, FormAlgebra, StructureEquations, T10, VectorValuedForm
from .errors import FormatError
from .scalars import PolyRing, format_scalar, parse_scalar

SE_FORMAT = "nilforms.se/1"
FORM_FORMAT = "nilforms.form/1"
BELTRAMI_FORMAT = "nilforms.beltrami/1"

DEFAULT_TRUNCATION = 4
#: the largest n an input file may give, the engine's frontier
MAX_N = 12


def _parse_factor(name: str, n: int):
    """-> (is_bar, index)."""
    text = name.strip()
    bar = text.startswith("bar")
    if bar:
        text = text[3:]
    try:
        idx = int(text)
    except ValueError as exc:
        raise FormatError(f"bad coframe factor {name!r}") from exc
    if not 1 <= idx <= n:
        raise FormatError(f"coframe factor {name!r} out of range 1..{n}")
    return bar, idx


def _two_form_terms(f: Form) -> List[dict]:
    n = f.algebra.n
    terms = []
    for m in sorted(f.coeffs):
        I, J = m
        if len(I) + len(J) != 2:
            raise FormatError("structure entries must be 2-forms")
        factors = [str(i) for i in I] + [f"bar{j}" for j in J]
        terms.append({"coeff": format_scalar(f.coeffs[m]), "factors": factors})
    return terms


def se_to_obj(se: StructureEquations) -> dict:
    ring = se.algebra.ring
    obj = {
        "format": SE_FORMAT,
        "name": se.name,
        "n": se.n,
        "m": ring.m,
    }
    if ring.m:
        obj["truncation"] = ring.order
    obj["d"] = {
        str(i): _two_form_terms(se.d_coframe[i])
        for i in range(1, se.n + 1)
        if se.d_coframe[i]
    }
    return obj


def _header(obj, fmt: str, what: str) -> Tuple[int, int, int]:
    """(n, m, truncation) of a document that must be one JSON object in
    format fmt, with integers 1 <= n <= MAX_N, refused before anything of
    size 2^n is built, and m, truncation >= 0 (defaults 0 and DEFAULT_TRUNCATION)."""
    if not isinstance(obj, dict):
        raise FormatError(f"a {what} file holds one JSON object")
    if obj.get("format", fmt) != fmt:
        raise FormatError(f"unsupported {what} format {obj.get('format')!r}")
    n, m, order = obj.get("n"), obj.get("m", 0), obj.get("truncation", DEFAULT_TRUNCATION)
    for key, value in (("n", n), ("m", m), ("truncation", order)):
        if type(value) is not int:
            raise FormatError(f'{what} header needs an integer "{key}", got {value!r}')
    if n < 1 or m < 0 or order < 0:
        raise FormatError(
            f"need n >= 1 and m, truncation >= 0; got n={n}, m={m}, truncation={order}"
        )
    if n > MAX_N:
        raise FormatError(f"n = {n} is above the size bound n <= {MAX_N}")
    return n, m, order


def _load(text: str):
    """The one JSON document in text; FormatError if it is not valid JSON
    or if an object in it gives a key twice."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """The object of pairs, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"JSON object gives the key {key!r} twice")
        obj[key] = value
    return obj


def _indexed_terms(obj: dict, field: str, n: int, what: str) -> Iterator[Tuple[int, list]]:
    """(i, terms) for each entry of obj[field], a map from coframe indices
    in 1..n to lists of terms; an index given twice, as "2" and "02", is
    refused."""
    entries = obj.get(field, {})
    if not isinstance(entries, dict):
        raise FormatError(f'"{field}" must map coframe indices to lists of terms')
    seen = set()
    for key, terms in entries.items():
        i = int(key) if str(key).isdecimal() else 0
        if not 1 <= i <= n:
            raise FormatError(f"{what} {key!r} is not a coframe index in 1..{n}")
        if i in seen:
            raise FormatError(f"{what} {key!r} gives coframe index {i} a second time")
        if not isinstance(terms, list):
            raise FormatError(f"{what} {key!r} must be a list of terms")
        seen.add(i)
        yield i, terms


def _check_term(term, where: str) -> None:
    if not isinstance(term, dict) or not isinstance(term.get("coeff"), str):
        raise FormatError(f'{where}: each term is an object with a "coeff" string')


def obj_to_se(obj: dict) -> StructureEquations:
    n, m, order = _header(obj, SE_FORMAT, "structure-equation")
    name = obj.get("name", "unnamed")
    ring = PolyRing(m, order if m else 0)
    alg = FormAlgebra(n, ring)
    d: Dict[int, Form] = {}
    for i, terms in _indexed_terms(obj, "d", n, "d entry"):
        total = alg.zero()
        for term in terms:
            _check_term(term, f"d entry {i}")
            factors = term.get("factors", [])
            if not isinstance(factors, list) or len(factors) != 2:
                raise FormatError("each structure term needs exactly two factors")
            if not all(isinstance(fct, str) for fct in factors):
                raise FormatError(f"d entry {i}: factors are strings such as \"1\" or \"bar2\"")
            parsed = [_parse_factor(fct, n) for fct in factors]
            bars = sum(1 for bar, _ in parsed if bar)
            if bars == 2:
                raise FormatError(
                    f"d gamma^{i} contains a (0,2)-factor pair {factors}; "
                    "the complex structure would not be integrable"
                )
            coeff = parse_scalar(term["coeff"], ring)
            piece = alg.scalar_form(coeff)
            for bar, idx in parsed:
                piece = piece.wedge(alg.gammabar(idx) if bar else alg.gamma(idx))
            total = total + piece
        d[i] = total
    return StructureEquations(name, alg, d)


def canonical_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def se_emit(se: StructureEquations) -> str:
    return canonical_json(se_to_obj(se))


def se_parse(text: str) -> StructureEquations:
    return obj_to_se(_load(text))


# -- forms -------------------------------------------------------------------


def form_to_obj(f: Form, name: Optional[str] = None) -> dict:
    alg = f.algebra
    obj = {"format": FORM_FORMAT, "n": alg.n, "m": alg.ring.m}
    if alg.ring.m:
        obj["truncation"] = alg.ring.order
    if name:
        obj["name"] = name
    terms = []
    for m in sorted(f.coeffs):
        I, J = m
        terms.append({"coeff": format_scalar(f.coeffs[m]), "I": list(I), "J": list(J)})
    obj["terms"] = terms
    return obj


def _indices(value, n: int) -> bool:
    """True for a strictly ascending list of coframe indices in 1..n."""
    return (
        isinstance(value, list)
        and all(type(i) is int and 1 <= i <= n for i in value)
        and value == sorted(set(value))
    )


def obj_to_form(obj: dict, algebra: Optional[FormAlgebra] = None) -> Form:
    n, m, order = _header(obj, FORM_FORMAT, "form")
    alg = algebra or FormAlgebra(n, PolyRing(m, order if m else 0))
    if alg.n != n:
        raise FormatError("form dimension does not match the target algebra")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise FormatError('"terms" must be a list of terms')
    total = alg.zero()
    for term in terms:
        _check_term(term, "form")
        I, J = term.get("I"), term.get("J")
        if not (_indices(I, n) and _indices(J, n)):
            raise FormatError(
                f'form term {term!r}: "I" and "J" are ascending lists of indices in 1..{n}'
            )
        coeff = parse_scalar(term["coeff"], alg.ring)
        total = total + alg.monomial(tuple(I), tuple(J), coeff)
    return total


def form_emit(f: Form, name: Optional[str] = None) -> str:
    return canonical_json(form_to_obj(f, name))


def form_parse(text: str, algebra: Optional[FormAlgebra] = None) -> Form:
    return obj_to_form(_load(text), algebra)


# -- Beltrami differentials ---------------------------------------------------


def beltrami_to_obj(phi: VectorValuedForm) -> dict:
    alg = phi.algebra
    obj = {
        "format": BELTRAMI_FORMAT,
        "n": alg.n,
        "m": alg.ring.m,
        "truncation": alg.ring.order,
        "components": {},
    }
    for i in sorted(phi.components):
        comp = phi.components[i]
        terms = []
        for m in sorted(comp.coeffs):
            I, J = m
            if I or len(J) != 1:
                raise FormatError("Beltrami components must be (0,1)-forms")
            terms.append({"coeff": format_scalar(comp.coeffs[m]), "factors": [f"bar{J[0]}"]})
        obj["components"][str(i)] = terms
    return obj


def obj_to_beltrami(obj: dict, algebra: Optional[FormAlgebra] = None) -> VectorValuedForm:
    n, m, order = _header(obj, BELTRAMI_FORMAT, "Beltrami")
    alg = algebra or FormAlgebra(n, PolyRing(m, order))
    if alg.n != n:
        raise FormatError("Beltrami dimension does not match the target algebra")
    comps: Dict[int, Form] = {}
    for i, terms in _indexed_terms(obj, "components", n, "Beltrami component"):
        total = alg.zero()
        for term in terms:
            _check_term(term, f"Beltrami component {i}")
            factors = term.get("factors", [])
            if not isinstance(factors, list) or len(factors) != 1 or not isinstance(factors[0], str):
                raise FormatError("Beltrami terms carry exactly one coframe factor")
            bar, idx = _parse_factor(factors[0], n)
            if not bar:
                raise FormatError("Beltrami components must be (0,1)-forms")
            coeff = parse_scalar(term["coeff"], alg.ring)
            total = total + alg.monomial((), (idx,), coeff)
        comps[i] = total
    return VectorValuedForm(alg, T10, comps)


def beltrami_emit(phi: VectorValuedForm) -> str:
    return canonical_json(beltrami_to_obj(phi))


def beltrami_parse(text: str, algebra: Optional[FormAlgebra] = None) -> VectorValuedForm:
    return obj_to_beltrami(_load(text), algebra)
