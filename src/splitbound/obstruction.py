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
from functools import lru_cache
from math import isqrt, log10

from .errors import (
    DegenerateFormError,
    HypothesisViolationError,
    OutputBoundError,
    PreconditionError,
)
from .finabel import Subgroup, _factorize
from .qzforms import (
    SkewForm,
    _isotropic_basis,
    _iter_bases_with_order,
    is_nondegenerate,
    radical,
)

MAX_SEARCH_R = 40

__all__ = [
    "ObstructionQuery",
    "PartitionCandidate",
    "splitting_order_bound",
    "f_bound",
    "partition_feasible",
    "min_splitting_exponent",
    "index_divisor",
    "splitting_group_isotropic_bound",
    "comparison_bound",
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
        if self.p < 2 or any(self.p % q == 0 for q in range(2, isqrt(self.p) + 1)):
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
    exp = max(0, 2 * q.r - 2 * q.e - 2)
    # p**exp has floor(exp * log10 p) + 1 digits (p is no power of 10);
    # refuse before the power is allocated, not when it is printed
    limit = sys.get_int_max_str_digits()
    if limit and exp * log10(q.p) >= limit:
        raise OutputBoundError(
            f"p^{exp} has more than {limit} decimal digits (the int-to-str limit)"
        )
    return q.p ** exp


def _brace_half(t: int) -> int:
    """Smallest nonnegative integer >= t/2."""
    return (t + 1) // 2 if t > 0 else 0


def f_bound(r: int, e: int = 0) -> int:
    """Divisibility exponent r - e + sum_{v>=3} {([r/v] - e)/2}, clamped
    at 0; negative summands contribute nothing."""
    if r < 1 or e < 0:
        raise PreconditionError("need r >= 1 and e >= 0")
    total = r - e
    for v in range(3, r + 1):
        total += _brace_half(r // v - e)
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


def min_splitting_exponent(
    q: ObstructionQuery, max_r: int = MAX_SEARCH_R
) -> tuple[int, PartitionCandidate]:
    """Minimal total exponent over feasible partitions, with the first
    witness in (total ascending, lexicographic) search order.

    The pairwise constraints alone force total >= f_e(r), which is asserted.
    """
    if q.r > max_r:
        raise PreconditionError(f"r = {q.r} above the search bound {max_r}")
    r, e = q.r, q.e

    def need_at(v: int) -> int:
        # constraint n_v + n_{v+1} >= need_at(v); nonincreasing in v
        return max(0, r // v - e) if 1 <= v <= r else 0

    @lru_cache(maxsize=None)
    def tail_min(v: int, prev: int):
        """Least achievable sum over positions >= v given n_{v-1} = prev,
        or None when no nonincreasing completion satisfies the constraints."""
        lo = max(0, need_at(v - 1) - prev)
        if lo > prev:
            return None
        if lo == 0 and need_at(v) == 0:
            return 0  # an all-zero tail is feasible, hence optimal
        best = None
        for val in range(max(lo, 1), prev + 1):
            rest = tail_min(v + 1, val)
            if rest is not None and (best is None or val + rest < best):
                best = val + rest
        return best

    total = tail_min(1, r)
    assert total is not None, "the constant partition (r, ..., r) is feasible"

    witness: list[int] = []

    def dfs(v: int, prev: int, remaining: int) -> bool:
        # positions are filled in lexicographic order, so the first success
        # is the lexicographically least witness of this exact total
        lo = max(0, need_at(v - 1) - prev)
        if remaining == 0:
            return lo == 0 and need_at(v) == 0
        if lo > prev:
            return False
        for val in range(max(lo, 1), min(prev, remaining) + 1):
            tail = tail_min(v + 1, val)
            if tail is None or tail > remaining - val:
                continue
            witness.append(val)
            if dfs(v + 1, val, remaining - val):
                return True
            witness.pop()
        return False

    found = dfs(1, r, total)
    assert found
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
    fact = _factorize(order)
    if len(fact) != 1:
        raise PreconditionError(f"module order {order} is not a prime power")
    (p, e2), = fact.items()
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
    copy of at least one type from the list.
    """
    p, r = _symplectic_p_r(w)
    if e < 0 or e > r:
        raise HypothesisViolationError(f"need 0 <= e <= r = {r}")
    target = p ** (r - e)
    types = set()
    g = w.group
    for order, basis in _iter_bases_with_order(w, limit):
        if order != target:
            continue
        if _isotropic_basis(w, basis):
            types.add(Subgroup(g, basis).sub_invariants)
    assert types, "isotropic subgroups of every order up to p^r exist"
    return target, sorted(types)


def _meet_exponent(t1: tuple[int, ...], t2: tuple[int, ...], p: int) -> int:
    """log_p of the largest common subgroup type (componentwise meet)."""
    e1 = sorted((_factorize(d)[p] for d in t1), reverse=True)
    e2 = sorted((_factorize(d)[p] for d in t2), reverse=True)
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
    p = p1
    o1, types1 = splitting_group_isotropic_bound(w1, min(e, r1), limit)
    o2, types2 = splitting_group_isotropic_bound(w2, min(e, r2), limit)
    best = None
    for t1 in types1:
        for t2 in types2:
            if not t1 or not t2:
                exact = o1 * o2
            else:
                exact = o1 * o2 // p ** _meet_exponent(t1, t2, p)
                e1 = [_factorize(d)[p] for d in t1]
                e2 = [_factorize(d)[p] for d in t2]
                coarse_cap = min(len(e1), len(e2)) * min(max(e1), max(e2))
                coarse = o1 * o2 // p ** coarse_cap
                assert exact >= max(coarse, 1)
            if best is None or exact < best:
                best = exact
    assert best is not None
    return best
