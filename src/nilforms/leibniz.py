"""The one Leibniz rule: the matrix of an odd derivation on a bidegree
from its images of the coframe symbols (``Layout.assemble``), and the
one read-only empty row that its matrices share (``EMPTY_ROW``), for
``algebra``, ``cohomology`` and ``linalg``, so it imports none of them."""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

#: the one row that every assembled matrix holds at each of its empty
#: rows; read-only, so a stray write raises TypeError instead of changing
#: them all
EMPTY_ROW = MappingProxyType({})


def merge_indices(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge two ascending tuples; returns (sign, merged) or None on repeat."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class Layout:
    """The per-size subset table that positions every monomial, and the
    assembly plans read from it.  ``subsets[k]`` lists the k-subsets of
    1..n in lexicographic order and ``subset_rank[k]`` maps each to its
    place there; the basis of (p,q) is I-major, so 2^n subsets position
    all 4^n monomials.  ``parity[k]`` holds, per k-subset in that order,
    whether the sum of its indices is odd: the sign of the Hodge star
    (``EvaluatedComplex.star``).  ``plans`` keeps each plan: a plan
    depends on n and the shape of a term only."""

    __slots__ = ("subsets", "subset_rank", "parity", "plans")

    def __init__(self, n: int):
        ids = range(1, n + 1)
        self.subsets = tuple(tuple(combinations(ids, k)) for k in range(n + 1))
        self.subset_rank = tuple({c: i for i, c in enumerate(s)} for s in self.subsets)
        self.parity = tuple(tuple(sum(c) % 2 == 1 for c in s) for s in self.subsets)
        self.plans: Dict[tuple, List[Tuple[int, int, bool]]] = {}

    def block_plan(self, fixed: Tuple[int, ...], s: Optional[int], k: int) -> List[Tuple[int, int, bool]]:
        """One block (the gamma or the gammabar indices) of the monomials
        that a term meets, computed on first use and kept in ``plans``.

        fixed is this block of the term, s the index of the symbol if it
        lies in this block (else None), k the size of rest's block.  Per
        k-subset R of 1..n avoiding fixed and s: the position of R with s
        inserted (source) and of fixed + R (target) among the subsets of
        their size, and whether the Koszul sign of merging fixed with R and
        of moving s out of R + s is odd; C(n - |fixed| - [s], k) triples.
        """
        key = (fixed, s, k)
        plan = self.plans.get(key)
        if plan is None:
            index, avoid, plan = self.subset_rank, {*fixed, s}, []
            src_index, tgt_index = index[k + bool(s)], index[k + len(fixed)]
            for r in combinations([i for i in range(1, len(index)) if i not in avoid], k):
                sign, merged = merge_indices(fixed, r)
                odd = sign < 0
                col = r
                if s:
                    pos = bisect(r, s)
                    col = r[:pos] + (s,) + r[pos:]
                    odd ^= pos % 2 == 1
                plan.append((src_index[col], tgt_index[merged], odd))
            self.plans[key] = plan
        return plan

    def assemble(self, out: List[dict], terms, p: int, q: int, tq: int) -> None:
        """Fill out, a list of ``EMPTY_ROW``, with the rows, from (p,q) to
        gammabar-degree tq, of the derivation whose image of coframe symbol
        s is terms[s], a list of (I_d, J_d, c, -c), the negation computed
        once by the caller: for each term and each monomial rest that
        shares no index with it or s, c or -c at row index((I_d, J_d) ^
        rest) and column index(rest + s), by the Koszul sign of skipping
        the factors before s (its image is even) and of the merge, read
        from ``block_plan``.  A symbol with no terms is passed over.
        Entries that meet (d of a symbol contains it) are summed, zeros
        dropped; each row's keys end ascending.  A row that a term first
        meets becomes the dict of that one entry and is never revisited;
        only the rows that a second entry met are finished, sorted or
        returned to ``EMPTY_ROW`` if their entries all cancel.  So a row
        that no term meets costs no dict, and the cost follows the nonzero
        count, not the rows or the symbols.  Returns nothing: a caller
        walks the nonempty rows of out."""
        subsets = self.subsets
        n = len(subsets) - 1
        plan = self.block_plan
        cq, ctq = len(subsets[q]), len(subsets[tq])
        again = set()
        for s, sterms in enumerate(terms):
            if not sterms:
                continue
            a, b = (s + 1, None) if s < n else (None, s - n + 1)
            rp, rq = (p - 1, q) if s < n else (p, q - 1)
            if rp < 0 or rq < 0:
                continue
            for I_d, J_d, c, neg in sterms:
                # rest's (1,0)-block jumps the (0,1)-block of the term, and a
                # gammabar symbol sits behind all of rest's (1,0)-factors
                odd = (len(J_d) * rp + (rp if b else 0)) % 2 == 1
                jparts = plan(J_d, b, rq)
                for ci, ri, oi in plan(I_d, a, rp):
                    ci, ri, oi = ci * cq, ri * ctq, oi ^ odd
                    for cj, rj, oj in jparts:
                        i = ri + rj
                        v = neg if oi ^ oj else c
                        row = out[i]
                        if row is EMPTY_ROW:
                            out[i] = {ci + cj: v}
                            continue
                        again.add(i)
                        col = ci + cj
                        prev = row.get(col)
                        if prev is None:
                            row[col] = v
                        else:
                            v = prev + v
                            if v:
                                row[col] = v
                            else:
                                del row[col]
        for i in again:
            row = out[i]
            if not row:
                out[i] = EMPTY_ROW
            elif len(row) > 1:
                out[i] = dict(sorted(row.items()))
