import random
from collections import Counter
from functools import lru_cache
from math import gcd
from operator import ne

import pytest

from splitbound.errors import (
    AmbientMismatchError,
    InputError,
    InvalidInvariantError,
    PairingMismatchError,
    PreconditionError,
)
from splitbound.finabel import (
    QmodZ,
    Subgroup,
    _cokernel_invariants,
    _exponent_partitions,
    _hnf,
    _live_block,
    _nonunit_block,
    _snf_with_transforms,
    _subgroup_type_counts,
    _xgcd,
    dual_group,
    embeds_into,
    enumerate_subgroups,
    eval_character,
    iter_subgroup_bases,
    make_group,
    quotient,
    reduce_tuple,
    replay_ops,
    subgroup_census,
    subgroup_from_generators,
)
from splitbound.verify import (
    _quotient_classes,
    iter_abelian_types,
    subquot_profile,
)


# -- independent oracles -----------------------------------------------------

def brute_span(group, gens):
    """Closure of a generator set under addition, as a set of coord tuples."""
    seen = {group.zero().coords}
    frontier = [group.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y.coords not in seen:
                    seen.add(y.coords)
                    nxt.append(y)
        frontier = nxt
    return seen


def gaussian_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _conjugate(part):
    return [sum(1 for x in part if x >= i) for i in range(1, (part[0] if part else 0) + 1)]


def subgroup_count_oracle(invariants):
    """Classical subgroup-counting formula, one prime at a time."""
    factorint = pytest.importorskip("sympy").factorint

    per_prime = {}
    for d in invariants:
        for p, e in factorint(d).items():
            per_prime.setdefault(p, []).append(e)

    def count_subgroups_of_type(lam, mu, p):
        lc, mc = _conjugate(lam), _conjugate(mu)
        depth = len(lc) + 1
        lc = lc + [0] * (depth - len(lc))
        mc = mc + [0] * (depth - len(mc))
        total = 1
        for i in range(1, depth):
            a, b, b_next = lc[i - 1], mc[i - 1], mc[i]
            total *= p ** (b_next * (a - b)) * gaussian_binomial(a - b_next, b - b_next, p)
        return total

    def subpartitions(lam):
        def rec(i, prev):
            if i == len(lam):
                yield ()
                return
            for v in range(0, min(prev, lam[i]) + 1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest
        seen = set()
        for mu in rec(0, lam[0] if lam else 0):
            seen.add(tuple(x for x in mu if x))
        return seen

    total = 1
    for p, exps in per_prime.items():
        lam = sorted(exps, reverse=True)
        total *= sum(count_subgroups_of_type(lam, list(mu), p) for mu in subpartitions(lam))
    return total


# -- QmodZ -------------------------------------------------------------------

def test_qmodz_normalization():
    assert QmodZ(2, 4) == QmodZ(1, 2)
    assert QmodZ(-1, 4) == QmodZ(3, 4)
    assert QmodZ(6, 3) == QmodZ(0, 1)
    assert str(QmodZ(3, 6)) == "1/2"
    assert QmodZ.parse("3/4") + QmodZ.parse("1/4") == QmodZ.zero()
    assert QmodZ(1, 3) * 3 == QmodZ.zero()
    assert -QmodZ(1, 4) == QmodZ(3, 4)


# -- make_group / dual / characters -------------------------------------------

def test_make_group_canonicalization():
    assert make_group([2, 2]).invariants == (2, 2)
    assert make_group([2, 2]).order == 4
    assert make_group([2, 2]).exponent == 2
    assert make_group([2, 3]).invariants == (6,)
    assert make_group([4, 2]).invariants == (2, 4)
    assert make_group([4, 2]).order == 8
    assert make_group([6, 4]).invariants == (2, 12)
    assert make_group([]).order == 1


def test_make_group_rejects_bad_invariants():
    with pytest.raises(InvalidInvariantError):
        make_group([1, 2])
    with pytest.raises(InvalidInvariantError):
        make_group([0])


def test_dual_group_is_isomorphic():
    for inv in ([4], [2, 4], [6]):
        assert dual_group(make_group(inv)).invariants == make_group(inv).invariants


def test_eval_character_examples():
    a = make_group([2])
    assert eval_character(dual_group(a).element((1,)), a.element((1,))) == QmodZ(1, 2)
    b = make_group([4])
    assert eval_character(dual_group(b).element((1,)), b.element((2,))) == QmodZ(1, 2)
    for x in b.elements():
        assert eval_character(dual_group(b).zero(), x).is_zero()


def test_eval_character_mismatch():
    with pytest.raises(PairingMismatchError):
        eval_character(make_group([2]).element((1,)), make_group([4]).element((1,)))


def test_eval_character_bilinear_and_perfect():
    # perfect pairing, exhaustively for |A| <= 64
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        dual = dual_group(a)
        for chi in dual.elements():
            if chi.is_zero():
                continue
            assert any(
                not eval_character(chi, x).is_zero() for x in a.elements()
            ), inv
        if a.order <= 16:
            for chi in dual.elements():
                for x in a.elements():
                    for y in a.elements():
                        assert eval_character(chi, x + y) == eval_character(
                            chi, x
                        ) + eval_character(chi, y)


# -- subgroups ----------------------------------------------------------------

def test_subgroup_examples():
    a22 = make_group([2, 2])
    s = subgroup_from_generators(a22, [a22.element((1, 0))])
    assert s.order == 2 and s.sub_invariants == (2,)

    a4 = make_group([4])
    assert subgroup_from_generators(a4, [a4.element((2,))]).order == 2

    a24 = make_group([2, 4])
    gens = [a24.element((1, 1)), a24.element((0, 2))]
    s = subgroup_from_generators(a24, gens)
    assert s.order == len(brute_span(a24, gens)) == 4


def test_subgroup_elements_match_brute_span():
    rng = random.Random(1)
    for inv in ([4], [2, 4], [2, 2, 2], [3, 9], [12]):
        a = make_group(inv)
        for _ in range(5):
            gens = [
                a.element(tuple(rng.randrange(d) for d in a.invariants))
                for _ in range(rng.randrange(1, 4))
            ]
            s = subgroup_from_generators(a, gens)
            got = {e.coords for e in s.elements()}
            assert got == brute_span(a, gens)
            assert len(got) == s.order


def test_canonicalization_idempotent():
    a = make_group([2, 4, 8])
    rng = random.Random(2)
    for _ in range(20):
        gens = [
            a.element(tuple(rng.randrange(d) for d in a.invariants))
            for _ in range(rng.randrange(0, 4))
        ]
        s = subgroup_from_generators(a, gens)
        rows = [a.element(r) for r in s.basis]
        assert subgroup_from_generators(a, rows) == s


def test_canonical_basis_realizes_invariants():
    # every subgroup of every group of order <= 64: dead Hermite rows (pivot
    # d_i) sit in every position, on p-groups and mixed-prime groups alike
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        for s in enumerate_subgroups(a):
            basis = s.canonical_basis()
            assert tuple(b.order() for b in basis) == s.sub_invariants
            assert len(brute_span(a, basis) if basis else {a.zero().coords}) == s.order


def hermite_bases_oracle(invariants, order=None, admit=None):
    """The generate-and-test Hermite recursion: every row of every pivot
    tries every reduced tail, and the relation d_i * e_i is tested by its
    own forward substitution over the rows below.  Same cuts and the same
    yield order as _iter_bases_general is meant to keep."""
    from itertools import product
    from math import prod

    k = len(invariants)
    if k == 0:
        if order is None or order == 1:
            yield ()
        return
    divisors = [[h for h in range(1, d + 1) if d % h == 0] for d in invariants]
    room = [prod(invariants[:i]) for i in range(k)]

    def rec(i, rows_below, kept, need):
        if i < 0:
            yield tuple(rows_below)
            return
        d = invariants[i]
        below_pivots = [rows_below[j][i + 1 + j] for j in range(k - i - 1)]
        for h in divisors[i]:
            c = d // h
            rest = need
            if need is not None:
                if need % c or need // c > room[i]:
                    continue
                rest = need // c
            for tail in product(*(range(p) for p in below_pivots)):
                v = [(-c) * t for t in tail]
                ok = True
                for j in range(k - i - 1):
                    p = below_pivots[j]
                    x = v[j]
                    if x % p:
                        ok = False
                        break
                    q = x // p
                    if q:
                        row = rows_below[j]
                        for s in range(j + 1, k - i - 1):
                            v[s] -= q * row[i + 1 + s]
                if not ok:
                    continue
                row = (0,) * i + (h,) + tail
                if admit is None or h == d:
                    yield from rec(i - 1, [row] + rows_below, kept, rest)
                elif admit(row, kept):
                    yield from rec(i - 1, [row] + rows_below, kept + [row], rest)

    yield from rec(k - 1, [], [], order)


def assert_same_stream(got, want, context):
    """Equal sequences, order included, compared without holding either."""
    from itertools import zip_longest

    end = object()
    for n, (x, y) in enumerate(zip_longest(got, want, fillvalue=end)):
        assert x == y, (context, n, x, y)


def with_pivot_filters_checked(inv, stream):
    """Pass the unfiltered stream through, asserting that each pivot filter
    of _iter_bases_general (no dead pivot, no unit pivot) lists it with
    every basis that has a rejected pivot left out, order included."""
    from splitbound.finabel import _iter_bases_general

    end = object()
    no_dead = _iter_bases_general(inv, keep_pivot=ne)
    no_unit = _iter_bases_general(inv, keep_pivot=lambda h, _d: h != 1)
    for basis in stream:
        pivots = [row[i] for i, row in enumerate(basis)]
        if all(map(ne, pivots, inv)):
            assert next(no_dead, end) == basis, inv
        if 1 not in pivots:
            assert next(no_unit, end) == basis, inv
        yield basis
    assert next(no_dead, end) is end and next(no_unit, end) is end, inv


def test_general_enumerator_keeps_the_oracle_order():
    # every basis in the oracle's order: every group of order <= 256, with
    # (Z/2)^8 among them, and at every order dividing |A| up to 64; the
    # pivot filters are checked against the same pass
    from splitbound.finabel import _iter_bases_general

    for inv in iter_abelian_types(256):
        assert_same_stream(with_pivot_filters_checked(inv, _iter_bases_general(inv)),
                           hermite_bases_oracle(inv), inv)
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        for d in range(1, a.order + 1):
            if a.order % d == 0:
                assert_same_stream(_iter_bases_general(inv, d),
                                   hermite_bases_oracle(inv, d), (inv, d))


def test_no_subgroup_has_order_below_one():
    from splitbound.finabel import _iter_bases_general

    for inv in ((), (2, 2), (4, 12)):
        for order in (0, -4):
            assert list(_iter_bases_general(inv, order)) == [], (inv, order)


def divisors(n):
    """The divisors of n >= 1, ascending, by the linear scan."""
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_match_the_linear_list():
    # the one divisor lister, given the primes of n, against the linear scan
    from splitbound.finabel import _divisors_over

    for n in range(1, 3000):
        primes = [p for p, _ in _exponent_partitions(make_group([n] if n > 1 else []))]
        assert _divisors_over(1, n, primes) == divisors(n), n
        for lo in (2, 6, 7):
            assert _divisors_over(lo, n, primes) == [d for d in divisors(n) if d % lo == 0], n


def test_elementary_groups_list_in_the_oracle_order():
    # (Z/p)^k takes the one recursion too: the same stream as the oracle,
    # order included
    for p, kmax in ((2, 6), (3, 4), (5, 3)):
        for k in range(kmax + 1):
            assert_same_stream(iter_subgroup_bases(make_group([p] * k)),
                               hermite_bases_oracle((p,) * k), (p, k))


def test_general_enumerator_solves_its_tails_without_a_membership_test(monkeypatch):
    # every group of order <= 64, with no forward substitution to test a
    # tail against: each listed tail is solved for, and the stream is the
    # oracle's
    import splitbound.finabel as fa

    def refuse(*args, **kwargs):
        raise AssertionError("a tail was tested, not solved")

    monkeypatch.setattr(fa, "_lattice_coefficients", refuse)
    for inv in iter_abelian_types(64):
        assert_same_stream(fa._iter_bases_general(inv), hermite_bases_oracle(inv), inv)


def test_types_by_live_block_match_the_subgroup_types():
    # one memo over every subgroup of each group of order <= 64 gives each
    # basis the type its own Subgroup computes
    from splitbound.finabel import _types_by_live_block

    for inv in iter_abelian_types(64):
        a = make_group(inv)
        type_of = _types_by_live_block(a)
        for basis in iter_subgroup_bases(a):
            assert type_of(basis) == Subgroup(a, basis).sub_invariants, (inv, basis)


def test_quotient_examples():
    a4 = make_group([4])
    assert quotient(a4, subgroup_from_generators(a4, [a4.element((2,))])).invariants == (2,)

    a22 = make_group([2, 2])
    assert quotient(a22, subgroup_from_generators(a22, [])).invariants == (2, 2)

    a44 = make_group([4, 4])
    s = subgroup_from_generators(a44, [a44.element((1, 0))])
    # brute-force coset count and structure
    assert a44.order // s.order == 4
    assert quotient(a44, s).invariants == (4,)


def test_quotient_ambient_mismatch():
    a = make_group([4])
    s = subgroup_from_generators(a, [a.element((2,))])
    with pytest.raises(AmbientMismatchError):
        quotient(make_group([8]), s)


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(make_group([2, 2]))) == 5
    assert len(enumerate_subgroups(make_group([4]))) == 3
    assert len(enumerate_subgroups(make_group([2, 4]))) == 8


def test_enumeration_matches_counting_formula():
    for inv in ([2, 2], [2, 4], [4, 4], [2, 2, 2], [8], [2, 2, 4], [3, 3], [9, 3],
                [2, 6], [12], [2, 4, 4], [30]):
        got = len(enumerate_subgroups(make_group(inv)))
        assert got == subgroup_count_oracle(tuple(make_group(inv).invariants)), inv


@lru_cache(maxsize=None)
def subquot_profile_by_walk(inv):
    """subquot_profile basis by basis over iter_subgroup_bases, as the
    enumeration oracle for the class counts.  On (Z/p)^k r unit pivots give
    the types (p,)^r and (p,)^(k-r); elsewhere a subgroup type is read from
    the basis's live block and a quotient type from its non-unit block,
    each distinct block's type computed once."""
    a = make_group(inv)
    k = a.rank
    subs, quots = Counter(), Counter()
    if a.is_elementary():
        p = a.invariants[0]
        for basis in iter_subgroup_bases(a):
            r = sum(1 for i in range(k) if basis[i][i] == 1)
            subs[(p,) * r] += 1
            quots[(p,) * (k - r)] += 1
        return subs, quots
    sub_types, quot_types = {}, {}
    for basis in iter_subgroup_bases(a):
        live = _live_block(a.invariants, basis, k)
        sub = sub_types.get(live)
        if sub is None:
            sub = sub_types[live] = Subgroup(a, basis).sub_invariants
        nonunit = _nonunit_block(basis, k)
        quot = quot_types.get(nonunit)
        if quot is None:
            quot = quot_types[nonunit] = quotient(a, Subgroup(a, basis)).invariants
        subs[sub] += 1
        quots[quot] += 1
    return subs, quots


def subquot_profile_by_enumeration(a):
    """Memo-free subquot_profile: every Hermite basis, its Subgroup's type,
    and the full k x k cokernel of the basis as its quotient's type."""
    subs, quots = Counter(), Counter()
    for basis in iter_subgroup_bases(a):
        s = Subgroup(a, basis)
        subs[s.sub_invariants] += 1
        quots[_cokernel_invariants(basis, a.rank, a.order // s.order)] += 1
    return subs, quots


def test_census_matches_enumeration_to_order_256():
    # the per-type counts, and the census's total and types built on them,
    # against the per-basis walk
    count = 0
    for inv in iter_abelian_types(256):
        a = make_group(inv)
        subs, _quots = subquot_profile_by_walk(tuple(inv))
        assert _subgroup_type_counts(_exponent_partitions(a)) == subs, inv
        assert subgroup_census(a) == (sum(subs.values()), sorted(subs)), inv
        count += 1
    assert count == 516


def test_subquot_profile_matches_memo_free_counts():
    # the class counts against the per-basis walk on every type of order
    # <= 256, and the walk's block-keyed types against a memo-free pass on
    # every non-elementary type of order <= 128
    general = elementary = 0
    for inv in iter_abelian_types(256):
        a = make_group(inv)
        want = subquot_profile_by_walk(a.invariants)
        if a.is_elementary():
            elementary += 1
        else:
            general += 1
            if a.order <= 128:
                assert want == subquot_profile_by_enumeration(a), inv
        assert subquot_profile.__wrapped__(a.invariants) == want, inv
    assert (general, elementary) == (446, 70)


def test_subquot_classes_match_the_walk():
    # each (unit set, non-unit block) class holds exactly as many bases as
    # its formula says, and carries the type of a basis in it, on every
    # non-elementary type of order <= 128
    checked = 0
    for inv in iter_abelian_types(128):
        a = make_group(inv)
        if a.is_elementary():
            continue
        k = a.rank
        by_nonunit, first_nonunit = Counter(), {}
        for basis in iter_subgroup_bases(a):
            units = tuple(i for i in range(k) if basis[i][i] == 1)
            nonunit_key = (units, _nonunit_block(basis, k))
            by_nonunit[nonunit_key] += 1
            first_nonunit.setdefault(nonunit_key, basis)
        quot_classes = list(_quotient_classes(inv))
        assert {(v, b): n for v, b, _typ, n in quot_classes} == dict(by_nonunit), inv
        for v, b, typ, _n in quot_classes:
            assert quotient(a, Subgroup(a, first_nonunit[v, b])).invariants == typ, (inv, v, b)
        checked += 1
    assert checked == 203


def test_subquot_memo_is_bounded_and_holds_every_type_to_256():
    maxsize = subquot_profile.cache_info().maxsize
    assert maxsize is not None and maxsize >= sum(1 for _ in iter_abelian_types(256))


def test_census_matches_the_counting_formula_on_larger_groups():
    rng = random.Random(10)
    factors = (2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 32, 49, 60, 64, 81, 210, 1031)
    for _ in range(60):
        a = make_group([rng.choice(factors) for _ in range(rng.randrange(1, 7))])
        count, types = subgroup_census(a)
        assert count == subgroup_count_oracle(a.invariants), a
        assert types == sorted(set(types)) and types[0] == () and a.invariants in types
        assert all(embeds_into(make_group(t), a) for t in types), a


def test_order_multiplicativity():
    for inv in ([2, 4], [4, 4], [2, 2, 2], [3, 9]):
        a = make_group(inv)
        for s in enumerate_subgroups(a):
            assert s.order * quotient(a, s).order == a.order


def test_enumeration_deterministic_order():
    for inv in ([2, 4], [2, 2, 2], [3, 3]):
        a = make_group(inv)
        first = enumerate_subgroups(a)
        second = enumerate_subgroups(a)
        assert first == second
        orders = [s.order for s in first]
        assert orders == sorted(orders, reverse=True)


def test_enumeration_reads_no_order_bound():
    # every partial basis completes, so the work grows with the subgroups
    # listed, not with |A|: Z/8191 and Z/2^40 list their 2 and 41
    assert len(enumerate_subgroups(make_group([8191]))) == 2
    subs = enumerate_subgroups(make_group([2 ** 40]))
    assert [s.order for s in subs] == [2 ** e for e in range(40, -1, -1)]


def test_embeds_into_examples():
    assert embeds_into(make_group([4]), make_group([2, 8]))
    assert not embeds_into(make_group([4]), make_group([2, 2, 2]))
    assert embeds_into(make_group([2]), make_group([2]))


def embeds_by_enumeration(a, b):
    """Enumeration oracle: search every subgroup of B for one of A's order
    and type."""
    order = a.order
    if b.order % order:
        return False
    for basis in iter_subgroup_bases(b):
        s = Subgroup(b, basis)
        if s.order == order and s.sub_invariants == a.invariants:
            return True
    return False


def test_embeds_matches_enumeration():
    groups = [make_group(t) for t in iter_abelian_types(36)]
    for a in groups:
        for b in groups:
            assert embeds_into(a, b) == embeds_by_enumeration(a, b), (a, b)


def test_embeds_matches_partition_criterion():
    # p-group oracle: embedding iff exponent partitions dominate pointwise
    factorint = pytest.importorskip("sympy").factorint

    def embeds_oracle(ainv, binv):
        pa, pb = {}, {}
        for d in ainv:
            for p, e in factorint(d).items():
                pa.setdefault(p, []).append(e)
        for d in binv:
            for p, e in factorint(d).items():
                pb.setdefault(p, []).append(e)
        for p, exps in pa.items():
            lam = sorted(pb.get(p, []), reverse=True)
            mu = sorted(exps, reverse=True)
            if len(mu) > len(lam):
                return False
            if any(m > l for m, l in zip(mu, lam)):
                return False
        return True

    types = [tuple(t) for t in iter_abelian_types(36)]
    for ai in types:
        for bi in types:
            assert embeds_into(make_group(ai), make_group(bi)) == embeds_oracle(ai, bi), (ai, bi)


def test_subgroup_quotient_duality_small():
    # both directions of subgroup/quotient duality, |A| <= 64 here
    # (the acceptance suite pushes this to 256 with multiset equality)
    from splitbound.verify import subquot_profile

    for inv in iter_abelian_types(64):
        subs, quots = subquot_profile(tuple(inv))
        assert subs == quots, inv


# -- reduce_tuple -------------------------------------------------------------

def test_reduce_tuple_examples():
    a2 = make_group([2])
    log, red = reduce_tuple(a2, [a2.element((1,)) for _ in range(3)])
    assert [e.coords for e in red] == [(1,), (0,), (0,)]

    a6 = make_group([6])
    xi = [a6.element((2,)), a6.element((3,))]
    log, red = reduce_tuple(a6, xi)
    nonzero = [e for e in red if not e.is_zero()]
    assert len(nonzero) == 1
    assert subgroup_from_generators(a6, nonzero).order == 6

    a22 = make_group([2, 2])
    xi = [a22.element((1, 0)), a22.element((0, 1)), a22.element((1, 1))]
    log, red = reduce_tuple(a22, xi)
    assert sum(1 for e in red if not e.is_zero()) == 2


def test_reduce_tuple_precondition():
    a = make_group([2, 2])
    with pytest.raises(PreconditionError):
        reduce_tuple(a, [a.element((1, 0))])


def expand_ops(log):
    """A reduce_tuple log with each ("sub", i, j, q) written as q unit
    steps ("sub", i, j): the log of the op-by-op oracle below."""
    out = []
    for op in log:
        if op[0] == "sub":
            out += [tuple(op[:3])] * op[3]
        else:
            out.append(tuple(op))
    return out


def test_reduce_tuple_span_invariant_stepwise():
    # the generated subgroup is unchanged after every single unit step,
    # inside a run as well as between runs
    rng = random.Random(13)
    for _ in range(25):
        a = make_group(rng.choice([(2, 4), (6,), (2, 2, 2), (3, 9)]))
        s = a.rank + rng.randrange(0, 3)
        xi = [a.element(tuple(rng.randrange(d) for d in a.invariants)) for _ in range(s)]
        log, red = reduce_tuple(a, xi)
        span = subgroup_from_generators(a, xi)
        cur = list(xi)
        for kind, i, j in expand_ops(log):
            cur = replay_ops(a, cur, [(kind, i, j, 1) if kind == "sub" else (kind, i, j)])
            assert subgroup_from_generators(a, cur) == span
        assert cur == red


def test_reduce_tuple_replay_and_span():
    rng = random.Random(3)
    types = [tuple(t) for t in iter_abelian_types(64)]
    for _ in range(300):
        a = make_group(rng.choice(types))
        s = a.rank + rng.randrange(0, 4)
        xi = [a.element(tuple(rng.randrange(d) for d in a.invariants)) for _ in range(s)]
        log, red = reduce_tuple(a, xi)
        assert sum(1 for e in red if not e.is_zero()) <= a.rank
        assert replay_ops(a, xi, log) == red
        assert subgroup_from_generators(a, xi) == subgroup_from_generators(a, red)

    # a sub op applies its q at once; a malformed op is refused
    a = make_group([2, 4])
    xi = [a.element((1, 1)), a.element((0, 2))]
    assert replay_ops(a, xi, [("sub", 0, 1, 3), ("swap", 0, 1)]) == [xi[1], a.element((1, 3))]
    malformed = [
        ("add", 0, 1), ("add", 0, 1, 1), (), ("swap",),  # unknown kind, no kind
        ("sub", 0, 1), ("swap", 0, 1, 1), ("sub", 0, 1, 2, 3),  # wrong field count
        ("sub", 0, 1, 0), ("sub", 0, 1, -2), ("sub", 0, 1, 1.0), ("sub", 0, 1, "2"),
        ("sub", 0, 1, True),  # q not an int >= 1
        ("sub", 0, 0, 1), ("swap", 1, 1), ("sub", 0, 2, 1), ("swap", -1, 0),
        ("sub", "0", 1, 1),  # positions not two distinct indices of the tuple
        5, None,  # not a sequence
    ]
    for op in malformed:
        with pytest.raises(PreconditionError, match="malformed op"):
            replay_ops(a, xi, [("sub", 0, 1, 1), op])


def test_replay_ops_refuses_entries_of_another_group():
    # as reduce_tuple does: an entry of Z/2 is not read as an element of Z/4
    a = make_group([4])
    xi = [make_group([2]).element((1,))]
    for refuse in (lambda: reduce_tuple(a, xi), lambda: replay_ops(a, xi, [])):
        with pytest.raises(AmbientMismatchError, match="tuple entry from a different group"):
            refuse()


def reduce_tuple_oracle(a, xi):
    """The recursive form reduce_tuple replaced: (op log, reduced coords)."""
    coords = [list(x.coords) for x in xi]
    inv = a.invariants
    k, s = a.rank, len(coords)
    log = []

    def op_sub(i, j):
        coords[i] = [(x - y) % d for x, y, d in zip(coords[i], coords[j], inv)]
        log.append(("sub", i, j))

    def clear_pair(lead, tail, c):
        while coords[tail][c] != 0:
            if coords[lead][c] == 0:
                coords[lead], coords[tail] = coords[tail], coords[lead]
                log.append(("swap", lead, tail))
                break
            if coords[lead][c] >= coords[tail][c]:
                op_sub(lead, tail)
            else:
                op_sub(tail, lead)

    def reduce_block(first, ncoords):
        if ncoords == 0 or first >= s:
            return
        for j in range(first + 1, s):
            clear_pair(first, j, ncoords - 1)
        reduce_block(first + 1, ncoords - 1)

    reduce_block(0, k)
    return log, [tuple(c) for c in coords]


def test_reduce_tuple_matches_recursive_oracle():
    rng = random.Random(29)
    types = [tuple(t) for t in iter_abelian_types(64)]
    # chains up to 1024, where one Euclidean run takes hundreds of unit
    # steps; the oracle takes every step one by one, and the log holds
    # each run as one ("sub", i, j, q) op
    long_chains = [(1024,), (5, 960), (3, 24, 120, 720), (16, 32, 192, 960), (2, 6, 30, 120, 720)]
    largest_q = 0
    for case in range(2060):
        a = make_group(rng.choice(types) if case < 2000 else rng.choice(long_chains))
        s = a.rank + rng.randrange(0, 4)
        xi = [a.element(tuple(rng.randrange(d) for d in a.invariants)) for _ in range(s)]
        log, red = reduce_tuple(a, xi)
        assert (expand_ops(log), [e.coords for e in red]) == reduce_tuple_oracle(a, xi)
        # each run is one op, and a cleared pair costs O(log d) ops
        assert all(p[:3] != q[:3] for p, q in zip(log, log[1:]))
        assert len(log) <= a.rank * s * (2 * max(a.invariants, default=1).bit_length() + 2)
        largest_q = max([largest_q] + [op[3] for op in log if op[0] == "sub"])
    assert largest_q >= 100


# -- integer normal form internals ---------------------------------------------

def snf_with_all_transforms(mat, k: int):
    """Reference Smith form with every transform: (diag, U, Uinv, V) where
    U * mat * V = diag(d) with d_i | d_{i+1} and U, V unimodular.  The
    library builds only (diag, Uinv), by the same pivot rule."""
    a = [list(row) for row in mat]
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    Uinv = [[int(i == j) for j in range(k)] for i in range(k)]
    V = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        for t in range(k):
            a[i][t] -= q * a[j][t]
            U[i][t] -= q * U[j][t]
        for t in range(k):
            Uinv[t][j] += q * Uinv[t][i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for t in range(k):
            Uinv[t][i], Uinv[t][j] = Uinv[t][j], Uinv[t][i]

    def row_neg(i):
        for t in range(k):
            a[i][t] = -a[i][t]
            U[i][t] = -U[i][t]
        for t in range(k):
            Uinv[t][i] = -Uinv[t][i]

    def col_sub(i, j, q):  # col_i -= q * col_j
        for t in range(k):
            a[t][i] -= q * a[t][j]
            V[t][i] -= q * V[t][j]

    def col_swap(i, j):
        for t in range(k):
            a[t][i], a[t][j] = a[t][j], a[t][i]
            V[t][i], V[t][j] = V[t][j], V[t][i]

    for s in range(k):
        while True:
            bi = bj = -1
            best = None
            for i in range(s, k):
                for j in range(s, k):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best, bi, bj = abs(x), i, j
            if bi < 0:
                break
            if bi != s:
                row_swap(bi, s)
            if bj != s:
                col_swap(bj, s)
            if a[s][s] < 0:
                row_neg(s)
            dirty = False
            for i in range(s + 1, k):
                q = a[i][s] // a[s][s]
                if q:
                    row_sub(i, s, q)
                if a[i][s]:
                    dirty = True
            for j in range(s + 1, k):
                q = a[s][j] // a[s][s]
                if q:
                    col_sub(j, s, q)
                if a[s][j]:
                    dirty = True
            if dirty:
                continue
            piv = a[s][s]
            offender = None
            for i in range(s + 1, k):
                for j in range(s + 1, k):
                    if a[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(s, offender, -1)  # fold the offending row into the pivot row
    diag = [a[i][i] for i in range(k)]
    return diag, U, Uinv, V


def seeded_snf_matrices(rng, count):
    """k x k matrices, k <= 6, entries in -9..9; a third of them singular
    (a zero row, or one row a combination of two others)."""
    for case in range(count):
        k = rng.randrange(1, 7)
        mat = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(k)]
        if case % 3 == 1:
            mat[rng.randrange(k)] = [0] * k
        elif case % 3 == 2 and k > 2:
            i, j, t = rng.sample(range(k), 3)
            x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
            mat[t] = [x * u + y * v for u, v in zip(mat[i], mat[j])]
        yield mat, k


def test_snf_transforms_properties(monkeypatch):
    rng = random.Random(4)
    singular = 0
    for mat, k in seeded_snf_matrices(rng, 600):
        diag, u, uinv, v = snf_with_all_transforms(mat, k)
        # U * mat * V == diag(d)
        prod1 = [[sum(u[i][t] * mat[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        prod2 = [[sum(prod1[i][t] * v[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(k):
                assert prod2[i][j] == (diag[i] if i == j else 0)
        # U * Uinv == I
        for i in range(k):
            for j in range(k):
                assert sum(u[i][t] * uinv[t][j] for t in range(k)) == int(i == j)
        # divisibility chain on nonzero entries
        nz = [abs(d) for d in diag if d]
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        singular += 0 in diag
        # the library's two outputs are the reference's, bit for bit
        assert _snf_with_transforms(mat, k) == (diag, uinv), mat
    assert singular >= 150

    # and so on the transposed relations that canonical_basis hands it,
    # for every subgroup of every group of order <= 64
    from splitbound import finabel

    calls = []

    def checked(mat, k):
        got = _snf_with_transforms(mat, k)
        want = snf_with_all_transforms(mat, k)
        assert got == (want[0], want[2]), mat
        calls.append(k)
        return got

    monkeypatch.setattr(finabel, "_snf_with_transforms", checked)
    subgroups = 0
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        for basis in iter_subgroup_bases(a):
            subgroups += 1
            Subgroup(a, basis).canonical_basis()
    assert len(calls) == subgroups - len(list(iter_abelian_types(64)))  # all but the trivial ones


def cokernel_oracle(mat, k, *factors):
    """Invariant factors of Z^k / rowspan(mat) one prime at a time: pivot on
    the entry of least p-adic valuation modulo p^(e+1), where p^e exactly
    divides the product of `factors` (a multiple of the cokernel order)."""
    factorint = pytest.importorskip("sympy").factorint
    fact = {}
    for n in factors:  # each factor alone: sympy is slow on a product of large primes
        for p, e in factorint(n).items():
            fact[p] = fact.get(p, 0) + e
    chain = [1] * k
    for p, e in fact.items():
        m = p ** (e + 1)
        a = [[x % m for x in row] for row in mat]
        exps = []
        for step in range(k):
            best = None
            for i in range(step, len(a)):
                for j in range(step, k):
                    x, v = a[i][j], 0
                    if x == 0:
                        continue
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, j)
            assert best is not None, "cokernel not finite modulo p^(e+1)"
            v, bi, bj = best
            a[bi], a[step] = a[step], a[bi]
            for row in a:
                row[bj], row[step] = row[step], row[bj]
            pv = p ** v
            unit_inv = pow(a[step][step] // pv, -1, m)
            a[step] = [x * unit_inv % m for x in a[step]]
            for i in range(step + 1, len(a)):
                f = a[i][step] // pv
                a[i] = [(x - f * y) % m for x, y in zip(a[i], a[step])]
            exps.append(v)
        for i, v in enumerate(sorted(exps)):
            chain[i] *= p ** v
    return tuple(d for d in chain if d > 1)


def test_cokernel_matches_plocal_oracle_on_every_small_subgroup():
    # the quotient and subgroup matrices of every subgroup, |A| <= 64
    from splitbound.finabel import _relation_matrix

    checked = 0
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        k = a.rank
        for basis in iter_subgroup_bases(a):
            det = 1
            for i in range(k):
                det *= basis[i][i]
            rows = [list(r) for r in basis]
            assert _cokernel_invariants(rows, k, det) == cokernel_oracle(rows, k, det)
            rel = _relation_matrix(a.invariants, basis, k)
            sub = a.order // det
            assert _cokernel_invariants(rel, len(rel), sub) == cokernel_oracle(rel, len(rel), sub)
            checked += 1
    assert checked == 6022  # Birkhoff's count summed over the 117 types


def assert_zero_above_unit_pivots(basis):
    for i, row in enumerate(basis):
        if row[i] == 1:
            assert all(basis[j][i] == 0 for j in range(i)), basis


def test_quotient_of_the_nonunit_block_matches_the_full_cokernel():
    # quotient() drops the rows and columns of unit pivots, which needs zeros
    # above every unit pivot; checked on every subgroup of every group of
    # order <= 64, and on the bases of generator spans and of the least
    # isotropic subgroups of seeded alternating forms on those groups
    from splitbound.qzforms import SkewForm, least_isotropic_basis, standard_module

    rng = random.Random(20)
    checked = 0
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        k = a.rank
        for basis in iter_subgroup_bases(a):
            assert_zero_above_unit_pivots(basis)
            s = Subgroup(a, basis)
            full = _cokernel_invariants(basis, k, a.order // s.order)
            assert quotient(a, s).invariants == full, (inv, basis)
            checked += 1
        for _ in range(20):
            gens = [a.element([rng.randrange(2 * d) for d in a.invariants])
                    for _ in range(rng.randrange(4))]
            s = subgroup_from_generators(a, gens)
            assert_zero_above_unit_pivots(s.basis)
            assert quotient(a, s).invariants == _cokernel_invariants(s.basis, k, a.order // s.order)
        gram = [[QmodZ.zero()] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                cap = gcd(a.invariants[i], a.invariants[j])
                gram[i][j] = QmodZ(rng.randrange(cap), cap)
                gram[j][i] = -gram[i][j]
        forms = [SkewForm(a, gram)] + ([standard_module(a)] if a.order <= 8 else [])
        for w in forms:
            for order in divisors(w.group.order):
                basis = least_isotropic_basis(w, order)
                if basis is not None:
                    assert_zero_above_unit_pivots(basis)
    assert checked == 6022


def _unimodular(rng, k):
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        q = rng.randrange(-5, 6)
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_cokernel_matches_plocal_oracle_on_random_matrices():
    # full-rank U * D * V with known |det|, some diagonals carrying two
    # primes above 2^60; half the calls pass a proper multiple of the order
    sympy = pytest.importorskip("sympy")

    rng = random.Random(57)
    big = [sympy.nextprime(2 ** 60 + rng.randrange(2 ** 40)) for _ in range(4)]
    for trial in range(300):
        k = rng.randrange(1, 6)
        pool = [2, 3, 4, 6, 8, 9, 12, 25, 27] + (big if trial % 3 == 0 else [])
        diag = [rng.choice(pool) if rng.random() < 0.7 else 1 for _ in range(k)]
        d = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
        mat = _matmul(_matmul(_unimodular(rng, k), d), _unimodular(rng, k))
        factors = diag + ([rng.choice([2, 3, 5, big[0]])] if trial % 2 else [])
        order = 1
        for x in factors:
            order *= x
        assert _cokernel_invariants(mat, k, order) == cokernel_oracle(mat, k, *factors), (mat, order)


def hnf_oracle(rows, invariants) -> list[list[int]]:
    """Hermite form modulo D as finabel._hnf built it before its first merge
    into d * e_col was special-cased and its dropped rows were skipped:
    every row, the first too, merges through the general branch, and every
    earlier pivot row is reduced by each later pivot."""
    k = len(invariants)
    work = [[x % d for x, d in zip(r, invariants)] for r in rows]
    work = [r for r in work if any(r)]
    result = []
    for col, d in enumerate(invariants):
        carrier = [0] * k
        carrier[col] = d
        rest = []
        for r in work:
            x = r[col]
            if x == 0:
                rest.append(r)
                continue
            c = carrier[col]
            if x % c == 0:
                q = x // c
                residue = [(v - q * u) % m for u, v, m in zip(carrier, r, invariants)]
            else:
                g, e, f = _xgcd(c, x)
                a, b = c // g, x // g
                residue = [(a * v - b * u) % m for u, v, m in zip(carrier, r, invariants)]
                carrier = [(e * u + f * v) % m for u, v, m in zip(carrier, r, invariants)]
            if any(residue):
                rest.append(residue)
        pivot = carrier[col]
        for prow in result:
            q = prow[col] // pivot
            if q:
                for t in range(col, k):
                    prow[t] = (prow[t] - q * carrier[t]) % invariants[t]
        result.append(carrier)
        work = rest
    return result


def _first_merge_divides(rows, invariants):
    """Whether the first row nonzero in column 0 modulo d_0 has x | d_0
    (None when there is no such row)."""
    if not invariants:
        return None
    d = invariants[0]
    x = next((r[0] % d for r in rows if r[0] % d), None)
    return None if x is None else d % x == 0


def test_hnf_matches_the_oracle_on_tuples_and_pairing_matrices():
    rng = random.Random(37)
    divides = Counter()
    # generator tuples on every group type of order <= 64: negative entries,
    # zero rows and rows that are 0 modulo D; the full form, and the rows
    # from a random drop on
    for inv in iter_abelian_types(64):
        k = len(inv)
        for _ in range(20):
            rows = [[rng.randint(-2 * d, 2 * d) for d in inv] for _ in range(rng.randint(1, k + 2))]
            rows.insert(rng.randrange(len(rows) + 1), [0] * k)
            rows.insert(rng.randrange(len(rows) + 1), [d * rng.randint(-2, 2) for d in inv])
            want = hnf_oracle(rows, inv)
            assert _hnf(rows, inv) == want, (inv, rows)
            drop = rng.randint(0, k)
            assert _hnf(rows, inv, drop)[drop:] == want[drop:], (inv, rows, drop)
            divides[_first_merge_divides(rows, inv)] += 1
    assert divides[True] and divides[False]
    # the k x 2k pairing matrices (scaled Gram | unit rows) of random forms
    # of rank <= 8 on chains mixing the primes 2, 3 and 5, modulo (n,)*k + D,
    # and |xs| x |ys| pairing matrices as _annihilated builds them; about
    # one form in three has a zero generator row
    for _ in range(600):
        k = rng.randint(1, 8)
        inv = [rng.choice([2, 3, 4, 6])]
        while len(inv) < k:
            inv.append(inv[-1] * rng.choice([1, 1, 1, 2, 3, 5]))
        n = inv[-1]
        scaled = [[0] * k for _ in range(k)]
        dead = rng.randrange(k) if rng.randrange(3) == 0 else None
        for i in range(k):
            for j in range(i + 1, k):
                if dead not in (i, j):
                    cap = gcd(inv[i], inv[j])
                    scaled[i][j] = rng.randrange(cap) * (n // cap)
                    scaled[j][i] = -scaled[i][j] % n
        units = [[int(i == j) for j in range(k)] for i in range(k)]
        rows = [s + e for s, e in zip(scaled, units)]
        mods = (n,) * k + tuple(inv)
        assert _hnf(rows, mods, k)[k:] == hnf_oracle(rows, mods)[k:], (inv, scaled)
        xs = [[rng.randrange(d) for d in inv] for _ in range(rng.randint(1, k))]
        ys = [[rng.randrange(d) for d in inv] for _ in range(rng.randint(1, k))]
        m = len(ys)
        rows = [[sum(x[i] * scaled[i][j] * y[j] for i in range(k) for j in range(k)) % n
                 for y in ys] + x for x in xs]
        mods = (n,) * m + tuple(inv)
        assert _hnf(rows, mods, m)[m:] == hnf_oracle(rows, mods)[m:], (inv, scaled, xs, ys)


def test_canonical_chain_matches_bucket_oracle():
    factorint = pytest.importorskip("sympy").factorint
    from splitbound.finabel import _canonical_chain

    def bucket_oracle(entries):
        buckets = {}
        for n in entries:
            for p, e in factorint(n).items():
                buckets.setdefault(p, []).append(e)
        chain = [1] * max(map(len, buckets.values()), default=0)
        for p, exps in buckets.items():
            for level, e in enumerate(sorted(exps, reverse=True)):
                chain[level] *= p ** e
        return tuple(reversed(chain))

    rng = random.Random(8)
    for _ in range(2000):
        entries = [rng.choice([rng.randrange(2, 50), rng.randrange(2, 10 ** 6),
                               2 ** rng.randrange(1, 40), 6 ** rng.randrange(1, 9)])
                   for _ in range(rng.randrange(0, 30))]
        assert _canonical_chain(entries) == bucket_oracle(entries), entries


def test_canonical_chain_is_near_linear_in_the_rank():
    # a carry walked entry by entry down the chain would take minutes here
    import time

    t0 = time.perf_counter()
    chain = make_group([4] * 5000 + [2] * 5000 + [3] * 5000 + [2] * 5000).invariants
    assert time.perf_counter() - t0 < 1.0
    assert chain == (2,) * 10000 + (12,) * 5000


def test_iter_abelian_types_sequence_pinned():
    # the sequence (not only the set) feeds the seeded random_group draws
    import hashlib

    types = list(iter_abelian_types(256))
    assert len(types) == 516
    digest = hashlib.sha256(repr(types).encode()).hexdigest()
    assert digest == "64d6e8fe486fc4d55724246902b3e73e118cca2b7a8b9d3a6bdcfc63659ca7ee"


# -- factorization ---------------------------------------------------------------

def test_factorize_and_is_prime_match_sympy():
    # _prime_power against sympy's factorization on the same samples
    sympy = pytest.importorskip("sympy")
    from splitbound.finabel import _is_prime, _prime_power

    rng = random.Random(31)
    samples = list(range(3000))
    samples += [rng.randrange(2, 10 ** rng.randrange(4, 16)) for _ in range(400)]
    samples += [(10 ** 9 + 7) * (10 ** 9 + 9), 1000003 ** 3 * 1009, 3 ** 50 * 7, 2 ** 61 - 1]
    samples += [1000003 ** 3, (10 ** 18 + 3) ** 2, (2 ** 61 - 1) ** 5, ((10 ** 9 + 7) * (10 ** 9 + 9)) ** 2]
    for n in samples:
        assert _is_prime(n) == sympy.isprime(n), n
        fact = sympy.factorint(n) if n > 1 else {}
        assert _prime_power(n) == (next(iter(fact.items())) if len(fact) == 1 else None), n
    # primality alone above trial division: random odd numbers, primes, and
    # strong pseudoprimes to the bases up to 23, 37 and 41 respectively
    for _ in range(100):
        n = rng.getrandbits(rng.randrange(21, 1000)) | 1
        assert _is_prime(n) == sympy.isprime(n), n
    for _ in range(20):
        p = sympy.nextprime(rng.getrandbits(rng.randrange(21, 400)))
        assert _is_prime(p), p
    for n in (3825123056546413051, 318665857834031151167461, 3317044064679887385961981):
        assert not _is_prime(n), n


def test_strong_lucas_pseudoprimes():
    # the odd composites below 30000 that pass are exactly OEIS A217255's
    from splitbound.finabel import _is_prime, _strong_lucas

    found = [n for n in range(43, 30000, 2) if _strong_lucas(n) and not _is_prime(n)]
    assert found == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas(n) for n in range(43, 30000, 2) if _is_prime(n))


def test_factorization_refusals():
    # primality is refused above FACTOR_MAX_BITS; nothing else is
    from splitbound.finabel import FACTOR_MAX_BITS, _is_prime, _prime_power

    assert _prime_power(2 ** 2000) == (2, 2000)
    assert _prime_power(2 ** 2000 * 3) is None
    assert _prime_power((10 ** 18 + 3) ** 3) == (10 ** 18 + 3, 3)
    with pytest.raises(InputError):
        _is_prime(2 ** 1279 - 1)  # a Mersenne prime above FACTOR_MAX_BITS
    with pytest.raises(InputError):
        _prime_power(2 ** 1279 - 1)
    assert (2 ** 1279 - 1).bit_length() > FACTOR_MAX_BITS
    assert _prime_power(1287836182261 * 2575672364521) is None  # two 40-bit primes
    # the least strong pseudoprime to the prime bases up to 41 is odd
    assert make_group([2, 3317044064679887385961981]).invariants == (2 * 3317044064679887385961981,)
