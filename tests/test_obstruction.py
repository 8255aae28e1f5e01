from functools import lru_cache

import pytest

from splitbound.errors import (
    DegenerateFormError,
    HypothesisViolationError,
    PreconditionError,
)
from splitbound.finabel import enumerate_subgroups, make_group, subgroup_from_generators
from splitbound.obstruction import (
    ObstructionQuery,
    PartitionCandidate,
    comparison_bound,
    f_bound,
    index_divisor,
    min_splitting_exponent,
    partition_feasible,
    splitting_group_isotropic_bound,
    splitting_order_bound,
)
from splitbound.qzforms import (
    is_isotropic,
    radical,
    restrict,
    standard_module,
    zero_form,
)


def test_query_validation():
    with pytest.raises(PreconditionError):
        ObstructionQuery(4, 2, 0)
    with pytest.raises(PreconditionError):
        ObstructionQuery(2, 0, 0)
    with pytest.raises(PreconditionError):
        PartitionCandidate((1, 2))
    with pytest.raises(PreconditionError):
        PartitionCandidate((0,))


def test_order_bound():
    assert splitting_order_bound(ObstructionQuery(2, 3, 0)) == 16
    assert splitting_order_bound(ObstructionQuery(3, 2, 1)) == 1
    assert splitting_order_bound(ObstructionQuery(2, 5, 1)) == 2 ** 6
    with pytest.raises(HypothesisViolationError):
        splitting_order_bound(ObstructionQuery(2, 3, 3))


def test_f_values():
    assert f_bound(1) == 1
    assert f_bound(2) == 2
    assert f_bound(3) == 4
    assert f_bound(6) == 10
    # hand evaluation of the finite sum for r = 6: terms at v = 3..6 give 1 each
    assert f_bound(6) == 6 + 1 + 1 + 1 + 1
    for r in range(1, 30):
        assert f_bound(r + 1) >= f_bound(r)
    for e in (0, 1, 2):
        for r in range(max(1, e + 1), 20):
            assert f_bound(r + 1, e) >= f_bound(r, e)
    assert f_bound(2, 5) == 0


def f_bound_linear(r, e=0):
    """The defining sum, one summand per v."""
    total = r - e
    for v in range(3, r + 1):
        total += max(0, (r // v - e + 1) // 2)
    return max(0, total)


def test_f_bound_runs_equal_the_linear_sum():
    for r in range(1, 2001):
        for e in range(6):
            assert f_bound(r, e) == f_bound_linear(r, e), (r, e)


def test_feasibility_examples():
    q = ObstructionQuery(2, 3, 0)
    assert partition_feasible(q, PartitionCandidate((2, 1, 1)))
    assert not partition_feasible(q, PartitionCandidate((3,)))
    assert partition_feasible(ObstructionQuery(2, 2, 5), PartitionCandidate(()))


def test_min_splitting_exponent():
    total, wit = min_splitting_exponent(ObstructionQuery(2, 3, 0))
    assert total == 4 and wit.exponents == (2, 1, 1)
    total, wit = min_splitting_exponent(ObstructionQuery(2, 2, 0))
    assert total == 2
    total, wit = min_splitting_exponent(ObstructionQuery(2, 6, 0))
    assert total >= f_bound(6) == 10

    # witness is feasible and lexicographically least at its total
    q = ObstructionQuery(3, 7, 1)
    total, wit = min_splitting_exponent(q)
    assert partition_feasible(q, wit)

    def partitions_of(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(1, min(n, cap) + 1):
            for rest in partitions_of(n - first, first):
                yield rest + (first,)

    best = None
    for cand in sorted(
        tuple(reversed(p)) for p in partitions_of(total, total)
    ):
        if partition_feasible(q, PartitionCandidate(cand)):
            best = cand
            break
    assert best == wit.exponents

    # r = 41 answers: only what the answer prints bounds r
    q = ObstructionQuery(2, 41, 0)
    total, wit = min_splitting_exponent(q)
    assert total == 106 and (total, wit.exponents) == windowed_dp_oracle(q)


def test_min_splitting_against_formula_sweep():
    for p in (2, 3):
        for r in range(1, 13):
            for e in range(0, 3):
                q = ObstructionQuery(p, r, e)
                total, wit = min_splitting_exponent(q)
                assert total >= f_bound(r, e)
                assert partition_feasible(q, wit)


def partition_search_oracle(q):
    """The two-pass search min_splitting_exponent replaced: the least
    total by memoized tail minima, then the witness by a depth-first
    search in lexicographic order for a partition of exactly that total."""
    r, e = q.r, q.e

    def need_at(v):
        return max(0, r // v - e) if 1 <= v <= r else 0

    @lru_cache(maxsize=None)
    def tail_min(v, prev):
        lo = max(0, need_at(v - 1) - prev)
        if lo > prev:
            return None
        if lo == 0 and need_at(v) == 0:
            return 0
        best = None
        for val in range(max(lo, 1), prev + 1):
            rest = tail_min(v + 1, val)
            if rest is not None and (best is None or val + rest < best):
                best = val + rest
        return best

    total = tail_min(1, r)
    witness = []

    def dfs(v, prev, remaining):
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

    assert dfs(1, r, total)
    return total, tuple(witness)


def test_min_splitting_exponent_matches_two_pass_search():
    # every (r, e) with r <= 40, e up to r + 1 (all needs <= 0)
    cases = 0
    for r in range(1, 41):
        for e in range(0, r + 2):
            q = ObstructionQuery(2, r, e)
            total, wit = min_splitting_exponent(q)
            assert (total, wit.exponents) == partition_search_oracle(q), (r, e)
            cases += 1
    assert cases == 900


def windowed_dp_oracle(q):
    """The DP min_splitting_exponent replaced: one row per position
    1..r + 1 over every previous entry 0..r, O(r^2), with the window minima
    kept by hand."""
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
    return total, tuple(witness)


def test_min_splitting_exponent_matches_the_windowed_dp():
    # every (r, e) with r <= 80 and e up to r + 1, then e in {0, r // 2}
    # up to r = 300, where the O(r^2) oracle still runs in milliseconds
    cases = [(r, e) for r in range(1, 81) for e in range(r + 2)]
    cases += [(r, e) for r in range(81, 301) for e in (0, r // 2)]
    assert len(cases) == 3840
    for r, e in cases:
        q = ObstructionQuery(2, r, e)
        total, wit = min_splitting_exponent(q)
        assert (total, wit.exponents) == windowed_dp_oracle(q), (r, e)


def test_index_divisor():
    assert index_divisor(standard_module(make_group([4]))) == 4
    assert index_divisor(zero_form(make_group([2, 2]))) == 1
    for inv in ([2], [4], [2, 2], [8], [2, 4]):
        a = make_group(inv)
        assert index_divisor(standard_module(a)) == a.order
    # restriction to a subgroup strictly containing a Lagrangian
    w = standard_module(make_group([2, 2]))
    g = w.group
    s = subgroup_from_generators(
        g,
        [g.element((1, 0, 0, 0)), g.element((0, 0, 1, 0)), g.element((0, 1, 0, 0))],
    )
    r = restrict(w, s)
    m = index_divisor(r)
    assert m * m == s.order // radical(r).order


def test_isotropic_bound():
    w2 = standard_module(make_group([2]))
    assert splitting_group_isotropic_bound(w2, 0) == (2, [(2,)])
    w4 = standard_module(make_group([4]))
    order, types = splitting_group_isotropic_bound(w4, 1)
    assert order == 2 and types == [(2,)]
    w222 = standard_module(make_group([2, 2, 2]))
    order, types = splitting_group_isotropic_bound(w222, 0)
    assert order == 8 and types == [(2, 2, 2)]
    # every reported type is genuinely isotropic of the stated order
    for e in (0, 1):
        order, types = splitting_group_isotropic_bound(w4, e)
        for t in types:
            found = [
                s
                for s in enumerate_subgroups(w4.group)
                if s.order == order and s.sub_invariants == t and is_isotropic(w4, s)
            ]
            assert found
    with pytest.raises(DegenerateFormError):
        splitting_group_isotropic_bound(zero_form(make_group([2, 2])), 0)
    with pytest.raises(HypothesisViolationError):
        splitting_group_isotropic_bound(w4, 5)


def test_symplectic_p_r_reads_the_exponent():
    # |H| = P^2 and P^4 are above the 1024-bit primality bound; the exponent
    # P is not.  Refusals still name the order.
    from splitbound.obstruction import _symplectic_p_r

    p = 2 ** 607 - 1  # a Mersenne prime
    assert _symplectic_p_r(standard_module(make_group([p]))) == (p, 1)
    assert _symplectic_p_r(standard_module(make_group([p, p]))) == (p, 2)
    with pytest.raises(PreconditionError, match="^module order 36 is not a prime power$"):
        _symplectic_p_r(standard_module(make_group([6])))
    with pytest.raises(PreconditionError, match="^symplectic module order must be a square$"):
        _symplectic_p_r(zero_form(make_group([8])))


def isotropic_bound_oracle(w, e):
    """splitting_group_isotropic_bound by filtering every subgroup."""
    from splitbound.finabel import Subgroup
    from splitbound.obstruction import _symplectic_p_r
    from splitbound.finabel import iter_subgroup_bases
    from splitbound.qzforms import _isotropic_basis

    p, r = _symplectic_p_r(w)
    target = p ** (r - e)
    subgroups = (Subgroup(w.group, basis) for basis in iter_subgroup_bases(w.group))
    types = {
        s.sub_invariants
        for s in subgroups
        if s.order == target and _isotropic_basis(w, s.basis)
    }
    return target, sorted(types)


@pytest.mark.parametrize(
    "p, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
)
def test_isotropic_bound_matches_filter(p, m):
    # the standard module on (Z/p)^m is (Z/p)^{2m}; (Z/2)^8 is left out
    # because the filter alone takes seconds per e there
    w = standard_module(make_group([p] * m))
    for e in range(m + 1):
        assert splitting_group_isotropic_bound(w, e) == isotropic_bound_oracle(w, e)


def isotropic_bound_by_enumeration(w, e):
    """splitting_group_isotropic_bound as it was computed before the
    Littlewood-Richardson rule: the types of the isotropic subgroups of
    order p^{r-e}, listed by iter_isotropic_bases."""
    from splitbound.finabel import Subgroup
    from splitbound.obstruction import _symplectic_p_r
    from splitbound.qzforms import iter_isotropic_bases

    p, r = _symplectic_p_r(w)
    target = p ** (r - e)
    bases = iter_isotropic_bases(w, target)
    return target, sorted({Subgroup(w.group, basis).sub_invariants for basis in bases})


def test_isotropic_bound_matches_enumeration():
    # every standard module on a p-group of order <= 16 and on Z/27, Z/25,
    # Z/64 and Z/2 x Z/32, at every e
    from splitbound.finabel import _prime_power
    from splitbound.obstruction import _symplectic_p_r
    from splitbound.verify import iter_abelian_types

    p_groups = [inv for inv in iter_abelian_types(16) if inv and _prime_power(inv[-1])]
    for inv in p_groups + [(27,), (25,), (64,), (2, 32)]:
        w = standard_module(make_group(inv))
        _, r = _symplectic_p_r(w)
        for e in range(r + 1):
            want = isotropic_bound_by_enumeration(w, e)
            assert splitting_group_isotropic_bound(w, e) == want, (inv, e)


def test_comparison_bound_routes():
    for p in (2, 3):
        for r in (2, 3):
            el = standard_module(make_group([p] * r))
            cy = standard_module(make_group([p ** r]))
            assert comparison_bound(el, cy, 0) == splitting_order_bound(
                ObstructionQuery(p, r, 0)
            )


def test_comparison_from_types_meets_at_the_largest_factors():
    # the largest common subgroup of two 2-group types, from the types of
    # their subgroups, on every pair of 2-groups of order <= 64
    from math import prod

    from splitbound.finabel import subgroup_census
    from splitbound.obstruction import comparison_from_types
    from splitbound.verify import iter_abelian_types

    twos = [inv for inv in iter_abelian_types(64) if not prod(inv) & (prod(inv) - 1)]
    subtypes = {inv: set(subgroup_census(make_group(inv))[1]) for inv in twos}
    for t1 in twos:
        for t2 in twos:
            meet = max(prod(t) for t in subtypes[t1] & subtypes[t2])
            o1, o2 = prod(t1), prod(t2)
            assert comparison_from_types(o1, [t1], o2, [t2]) == o1 * o2 // meet, (t1, t2)
    assert comparison_from_types(16, [(2, 8), (16,)], 4, [(4,), (2, 2)]) == 16


def test_comparison_bound_rank6_reduction():
    el6 = standard_module(make_group([2, 2, 2]))
    cy8 = standard_module(make_group([8]))
    assert comparison_bound(el6, cy8, 0) == 16  # p^{r+1}, p=2, r=3


def test_comparison_bound_identical_modules():
    w = standard_module(make_group([4]))
    assert comparison_bound(w, w, 0) == 4  # one Lagrangian copy suffices


def test_comparison_bound_small_case_oracle():
    # brute-force oracle: the least order of an abelian 2-group that
    # contains copies of both Lagrangian type sets whose join is everything
    from splitbound.verify import iter_abelian_types

    def contains_joining_pair(g, types1, types2):
        by_type = {}
        for s in enumerate_subgroups(g):
            by_type.setdefault(s.sub_invariants, []).append(s)
        for t1 in types1:
            for t2 in types2:
                for s1 in by_type.get(t1, []):
                    for s2 in by_type.get(t2, []):
                        gens = [g.element(r) for r in s1.basis] + [
                            g.element(r) for r in s2.basis
                        ]
                        if subgroup_from_generators(g, gens).order == g.order:
                            return True
        return False

    for left, right in (([2, 2], [4]), ([2], [4])):
        el = standard_module(make_group(left))
        cy = standard_module(make_group(right))
        got = comparison_bound(el, cy, 0)
        _, types1 = splitting_group_isotropic_bound(el, 0)
        _, types2 = splitting_group_isotropic_bound(cy, 0)
        candidates = sorted(
            (make_group(inv) for inv in iter_abelian_types(64)),
            key=lambda g: g.order,
        )
        best = None
        for g in candidates:
            if g.order != 1 and (g.order % 2 or g.order & (g.order - 1)):
                continue  # 2-groups only: both type sets are 2-groups
            if contains_joining_pair(g, types1, types2):
                best = g.order
                break
        assert best == got
