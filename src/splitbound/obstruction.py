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

from dataclasses import dataclass
from math import inf, isqrt, log10, prod

from .errors import (
    MAX_INT_DIGITS,
    DegenerateFormError,
    HypothesisViolationError,
    OutputBoundError,
    PreconditionError,
    _int_text,
)
from .finabel import _is_prime, _prime_power, _valuation
from .qzforms import SkewForm, is_nondegenerate, isotropic_types, radical

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
    allocated when it has more than MAX_INT_DIGITS decimal digits."""
    # p**exp has floor(exp * log10 p) + 1 digits (p is no power of 10)
    if exp * log10(p) >= MAX_INT_DIGITS:
        raise OutputBoundError(
            f"p^{exp} has more than {MAX_INT_DIGITS} decimal digits (the int-to-str limit)"
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
    """n_v + n_{v+1} >= [r/v] - e for every v >= 1 (missing entries are 0).
    The need is positive only for v <= r // (e + 1), so only those v run."""
    exps = c.exponents
    ln = len(exps)
    for v in range(1, q.r // (q.e + 1) + 1):
        have = (exps[v - 1] if v - 1 < ln else 0) + (exps[v] if v < ln else 0)
        if have < q.r // v - q.e:
            return False
    return True


def min_splitting_exponent(q: ObstructionQuery) -> tuple[int, PartitionCandidate]:
    """Minimal total exponent over feasible partitions, with the first
    witness in (total ascending, lexicographic) search order.

    The pairwise constraints alone force total >= f_e(r), which is asserted.
    So p^total, which the caller prints, cannot print at any p when
    2^{f_e(r)} cannot, and that is refused (OutputBoundError) before the
    DP.  Every r whose 2^{f_e(r)} prints is answered, in O(f_e(r)) work.
    """
    r, e = q.r, q.e
    fe = f_bound(r, e)
    checked_power(2, fe)
    # N_v = [r/v] - e is positive exactly for v = 1..last, with N_0 := N_1
    # and N_v := 0 past last.  An optimum has n_v <= N_{v-1}: lowering a
    # larger entry, and every later entry above N_{v-1}, to N_{v-1} keeps
    # the order and every pair constraint (N falls) and lowers the total.
    last = r // (e + 1)
    cap = [max(0, r // max(v, 1) - e) for v in range(last + 2)]
    # rows[v][prev]: least (sum over positions >= v, n_v) given
    # n_{v-1} = prev, or (inf, 0) when no completion is feasible.  A prev
    # above N_{v-1} reads as N_{v-1}, whose window is all of 0..N_{v-1}.
    # An entry 0 ends the partition: past last its row holds only (0, 0).
    rows: list = [None] * (last + 3)
    rows[last + 2] = [(0, 0)]
    for v in range(last + 1, 0, -1):
        below, n, n_next = rows[v + 1], cap[v - 1], cap[v]
        cost = [(x + below[min(x, n_next)][0], x) for x in range(n + 1)]
        # n_v ranges over [n - prev, prev], which gains a cell on each
        # side as prev rises; the least (cost, n_v) gives the least entry
        # on ties
        row, found = [], (inf, 0)
        for prev in range(n + 1):
            if n - prev <= prev:
                found = min(found, cost[n - prev], cost[prev])
            row.append(found)
        rows[v] = row

    # the least n_v at every position gives the lexicographically least
    # witness of the least total; position 1 reads the full window
    total, val = rows[1][cap[0]]
    witness: list[int] = []
    while val:
        witness.append(val)
        v = len(witness) + 1
        val = rows[v][min(val, cap[v - 1])][1]
    cand = PartitionCandidate(tuple(witness))
    assert partition_feasible(q, cand)
    assert total >= fe
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


def splitting_group_isotropic_bound(w: SkewForm, e: int) -> tuple[int, list[tuple[int, ...]]]:
    """(p^{r-e}, isomorphism types of isotropic subgroups of that order).

    Any splitting group of the corresponding algebra extension contains a
    copy of at least one type from the list.  The types are
    qzforms.isotropic_types, read off the group type of H by the
    Littlewood-Richardson rule, so nothing is enumerated and no bound is
    read (tests/test_obstruction.py keeps the filter of every
    subgroup and the isotropic enumeration as oracles).
    """
    p, r = _symplectic_p_r(w)
    if e < 0 or e > r:
        raise HypothesisViolationError(f"need 0 <= e <= r = {r}")
    target = p ** (r - e)
    types = isotropic_types(w, target)
    assert types, "isotropic subgroups of every order up to p^r exist"
    return target, types


def comparison_bound(w1: SkewForm, w2: SkewForm, e: int) -> int:
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
    o1, types1 = splitting_group_isotropic_bound(w1, min(e, r1))
    o2, types2 = splitting_group_isotropic_bound(w2, min(e, r2))
    return comparison_from_types(o1, types1, o2, types2)


def comparison_from_types(o1: int, types1, o2: int, types2) -> int:
    """comparison_bound from the two splitting_group_isotropic_bound
    results, for callers that already hold the types.  The types are
    invariant chains of p-groups, so the largest common subgroup of two,
    aligned at their largest factors, has the factorwise least entries,
    and nothing is factored."""
    best = None
    for t1 in types1:
        for t2 in types2:
            exact = o1 * o2 // prod(map(min, reversed(t1), reversed(t2)))
            if t1 and t2:  # a common subgroup has at most the lesser rank and exponent
                coarse = o1 * o2 // min(t1[-1], t2[-1]) ** min(len(t1), len(t2))
                assert exact >= max(coarse, 1)
            if best is None or exact < best:
                best = exact
    assert best is not None
    return best
