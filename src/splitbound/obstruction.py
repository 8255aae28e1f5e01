"""Lower bounds on splitting-field degrees and splitting-group orders of
division algebras, driven by isotropic subgroups of symplectic modules.

For the degree-p^r generic division algebra and a scalar extension whose
degree has p-part p^e, any splitting group must contain an isotropic
subgroup of order p^{r-e} from every symplectic module of order p^{2r}.
Comparing the modules on (Z/p)^{2r} and (Z/p^r)^2 yields the p^{2r-2e-2}
order bound; the abelian-splitting-group refinement is the pairwise
partition constraint n_v + n_{v+1} >= [r/v] - e with its closed-form
divisibility exponent f_e(r).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isqrt, log10

from .errors import (
    DegenerateFormError,
    HypothesisViolationError,
    OutputBoundError,
    PreconditionError,
    _int_text,
)
from .finabel import Subgroup, _is_prime, _prime_power, _valuation
from .qzforms import SkewForm, is_nondegenerate, iter_isotropic_bases, radical

MAX_SEARCH_R = 40
# the largest r that f_bound takes: its O(sqrt r) runs answer well within a
# second there, and a 20-digit r would run for days
MAX_F_R = 10 ** 11

__all__ = [
    "ObstructionQuery",
    "PartitionCandidate",
    "splitting_order_bound",
    "checked_power",
    "f_bound",
    "partition_feasible",
    "min_splitting_exponent",
    "index_divisor",
    "splitting_group_isotropic_bound",
    "comparison_bound",
    "comparison_from_types",
]


@dataclass(frozen=True)
class ObstructionQuery:
    """p-part data of a splitting problem: degree p^r, extension p-part p^e."""

    p: int
    r: int
    e: int

    def __post_init__(self):
        if self.r < 1 or self.e < 0:
            raise PreconditionError("need r >= 1 and e >= 0")
        if not _is_prime(self.p):
            raise PreconditionError(f"p = {self.p} is not prime")


@dataclass(frozen=True)
class PartitionCandidate:
    """Shape of an abelian Sylow p-subgroup: nonincreasing exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        if any(n < 1 for n in exps):
            raise PreconditionError("partition entries must be >= 1")
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise PreconditionError("partition must be nonincreasing")
        object.__setattr__(self, "exponents", exps)

    @property
    def total(self) -> int:
        return sum(self.exponents)


def splitting_order_bound(q: ObstructionQuery) -> int:
    """p^{2r-2e-2} divides the order of every splitting group (e <= r-1)."""
    if q.e > q.r - 1:
        raise HypothesisViolationError(f"requires e <= r - 1, got e={q.e}, r={q.r}")
    return checked_power(q.p, max(0, 2 * q.r - 2 * q.e - 2))


def checked_power(p: int, exp: int) -> int:
    """p**exp for a prime p, refused (OutputBoundError) before the power is
    allocated when it has more decimal digits than the int-to-str limit."""
    # p**exp has floor(exp * log10 p) + 1 digits (p is no power of 10)
    limit = sys.get_int_max_str_digits()
    if limit and exp * log10(p) >= limit:
        raise OutputBoundError(
            f"p^{exp} has more than {limit} decimal digits (the int-to-str limit)"
        )
    return p ** exp


def f_bound(r: int, e: int = 0) -> int:
    """Divisibility exponent r - e + sum_{v>=3} {([r/v] - e)/2}, clamped
    at 0; negative summands contribute nothing.  The summand depends on v
    only through q = [r/v], which is constant on the O(sqrt r) runs
    v .. r // q, so the sum runs over those runs.  r above MAX_F_R is
    refused (PreconditionError)."""
    if r < 1 or e < 0:
        raise PreconditionError("need r >= 1 and e >= 0")
    if r > MAX_F_R:
        raise PreconditionError(f"r = {_int_text(r)} above the f bound's limit {MAX_F_R}")
    total = r - e
    v = 3
    while v <= r and (q := r // v) > e:  # q <= e adds nothing, and q falls with v
        last = r // q
        total += (last - v + 1) * ((q - e + 1) // 2)  # {t/2}: ceil(t/2) for t > 0
        v = last + 1
    return max(0, total)


def partition_feasible(q: ObstructionQuery, c: PartitionCandidate) -> bool:
    """n_v + n_{v+1} >= [r/v] - e for every v >= 1 (missing entries are 0)."""
    exps = c.exponents
    ln = len(exps)
    for v in range(1, q.r + 1):
        need = q.r // v - q.e
        if need <= 0:
            continue
        have = (exps[v - 1] if v - 1 < ln else 0) + (exps[v] if v < ln else 0)
        if have < need:
            return False
    return True


def min_splitting_exponent(q: ObstructionQuery) -> tuple[int, PartitionCandidate]:
    """Minimal total exponent over feasible partitions, with the first
    witness in (total ascending, lexicographic) search order.

    The pairwise constraints alone force total >= f_e(r), which is asserted.
    """
    if q.r > MAX_SEARCH_R:
        raise PreconditionError(f"r = {q.r} above the search bound {MAX_SEARCH_R}")
    r, e = q.r, q.e

    def need_at(v: int) -> int:
        # constraint n_v + n_{v+1} >= need_at(v); nonincreasing in v
        return max(0, r // v - e) if 1 <= v <= r else 0

    # best[v][prev]: (least sum over positions >= v, least n_v reaching it)
    # given n_{v-1} = prev, or None when no nonincreasing completion
    # satisfies the constraints; n_v = 0 means an all-zero tail.  Past
    # position r + 1 every need is 0, so the rows are filled from r + 1 down.
    best: list = [None] * (r + 3)
    best[r + 2] = [(0, 0)] * (r + 1)
    for v in range(r + 1, 0, -1):
        below = best[v + 1]
        cost = [None] + [val + t[0] if (t := below[val]) else None for val in range(1, r + 1)]
        need_prev = need_at(v - 1)
        # n_v ranges over [max(need_prev - prev, 1), prev], empty below
        # prev = start; from prev = stop on an all-zero tail is feasible,
        # hence optimal.  The window widens on both sides as prev grows, so
        # its least cost (the least n_v on ties) is kept as it widens.
        start = (need_prev + 1) // 2
        stop = need_prev if need_at(v) == 0 else r + 1
        row = [None] * start
        found = None
        left = max(need_prev - start, 1)
        right = left - 1
        for prev in range(start, stop):
            while right < prev:  # a larger n_v wins only when strictly cheaper
                right += 1
                c = cost[right]
                if c is not None and (found is None or c < found[0]):
                    found = (c, right)
            while left > need_prev - prev and left > 1:  # a smaller n_v wins ties
                left -= 1
                c = cost[left]
                if c is not None and (found is None or c <= found[0]):
                    found = (c, left)
            row.append(found)
        row += [(0, 0)] * (r + 1 - len(row))
        best[v] = row

    # the least n_v at every position gives the lexicographically least
    # witness of the least total
    total, val = best[1][r]  # the constant partition (r, ..., r) is feasible
    witness: list[int] = []
    while val:
        witness.append(val)
        val = best[len(witness) + 1][val][1]
    cand = PartitionCandidate(tuple(witness))
    assert partition_feasible(q, cand)
    assert total >= f_bound(r, e)
    return total, cand


def index_divisor(w: SkewForm) -> int:
    """m with |H / radical| = m^2; the algebra index is divisible by m."""
    ratio = w.group.order // radical(w).order
    m = isqrt(ratio)
    assert m * m == ratio, "H/Ker is always a symplectic module"
    return m


def _symplectic_p_r(w: SkewForm) -> tuple[int, int]:
    order = w.group.order
    # an abelian group is a p-group iff its exponent is a power of p
    pe = _prime_power(w.group.exponent)
    if pe is None:
        raise PreconditionError(f"module order {_int_text(order)} is not a prime power")
    p = pe[0]
    e2 = _valuation(order, p)
    if e2 % 2:
        raise PreconditionError("symplectic module order must be a square")
    if not is_nondegenerate(w):
        raise DegenerateFormError("module must be nondegenerate")
    return p, e2 // 2


def splitting_group_isotropic_bound(
    w: SkewForm, e: int, limit: int | None = None
) -> tuple[int, list[tuple[int, ...]]]:
    """(p^{r-e}, isomorphism types of isotropic subgroups of that order).

    Any splitting group of the corresponding algebra extension contains a
    copy of at least one type from the list.  The types are read off the
    isotropic subgroups of order p^{r-e} alone (iter_isotropic_bases); the
    enumeration limit still applies to |H|.
    """
    p, r = _symplectic_p_r(w)
    if e < 0 or e > r:
        raise HypothesisViolationError(f"need 0 <= e <= r = {r}")
    target = p ** (r - e)
    g = w.group
    types = {
        Subgroup(g, basis).sub_invariants
        for basis in iter_isotropic_bases(w, target, limit)
    }
    assert types, "isotropic subgroups of every order up to p^r exist"
    return target, sorted(types)


def _meet_exponent(t1: tuple[int, ...], t2: tuple[int, ...], p: int) -> int:
    """log_p of the largest common subgroup type (componentwise meet)."""
    e1 = sorted((_valuation(d, p) for d in t1), reverse=True)
    e2 = sorted((_valuation(d, p) for d in t2), reverse=True)
    return sum(min(a, b) for a, b in zip(e1, e2))


def comparison_bound(
    w1: SkewForm, w2: SkewForm, e: int, limit: int | None = None
) -> int:
    """Least order of an abelian p-group containing an order-p^{r_i - e}
    isotropic type from each module: min over type pairs of
    |I_1| |I_2| / |largest common subgroup|.

    The coarser exponent-and-rank cap used in the headline proof is
    asserted to never exceed the exact meet-based value.
    """
    p1, r1 = _symplectic_p_r(w1)
    p2, r2 = _symplectic_p_r(w2)
    if p1 != p2:
        raise PreconditionError("modules must share the same prime")
    o1, types1 = splitting_group_isotropic_bound(w1, min(e, r1), limit)
    o2, types2 = splitting_group_isotropic_bound(w2, min(e, r2), limit)
    return comparison_from_types(o1, types1, o2, types2, p1)


def comparison_from_types(o1: int, types1, o2: int, types2, p: int) -> int:
    """comparison_bound from the two splitting_group_isotropic_bound
    results, for callers that already hold the types."""
    best = None
    for t1 in types1:
        for t2 in types2:
            if not t1 or not t2:
                exact = o1 * o2
            else:
                exact = o1 * o2 // p ** _meet_exponent(t1, t2, p)
                e1 = [_valuation(d, p) for d in t1]
                e2 = [_valuation(d, p) for d in t2]
                coarse_cap = min(len(e1), len(e2)) * min(max(e1), max(e2))
                coarse = o1 * o2 // p ** coarse_cap
                assert exact >= max(coarse, 1)
            if best is None or exact < best:
                best = exact
    assert best is not None
    return best
