import random
from itertools import groupby

import pytest

from splitbound.errors import (
    AmbientMismatchError,
    EnumerationBoundError,
    InputError,
    InvalidInvariantError,
    PairingMismatchError,
    PreconditionError,
)
from splitbound.finabel import (
    QmodZ,
    Subgroup,
    _snf_with_transforms,
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
from splitbound.verify import iter_abelian_types, subquot_profile


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
    for inv in ([2, 4], [4, 4], [2, 2, 2], [8], [3, 9]):
        a = make_group(inv)
        for s in enumerate_subgroups(a):
            basis = s.canonical_basis()
            assert tuple(b.order() for b in basis) == s.sub_invariants
            assert len(brute_span(a, basis) if basis else {a.zero().coords}) == s.order


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


def test_census_matches_enumeration_to_order_256():
    # subquot_profile is the memoized enumeration that criterion 7 fills
    count = 0
    for inv in iter_abelian_types(256):
        subs, _quots = subquot_profile(tuple(inv))
        assert subgroup_census(make_group(inv)) == (sum(subs.values()), sorted(subs)), inv
        count += 1
    assert count == 516


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


def test_enumeration_bound_error():
    big = make_group([2] * 13)
    with pytest.raises(EnumerationBoundError) as exc:
        enumerate_subgroups(big)
    assert "4096" in str(exc.value)
    # explicit override allows larger groups
    assert len(enumerate_subgroups(make_group([8191]), limit=10000)) == 2


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
        assert set(subs) == set(quots), inv


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


def test_reduce_tuple_span_invariant_stepwise():
    # the generated subgroup is unchanged after every single logged op
    rng = random.Random(13)
    for _ in range(25):
        a = make_group(rng.choice([(2, 4), (6,), (2, 2, 2), (3, 9)]))
        s = a.rank + rng.randrange(0, 3)
        xi = [a.element(tuple(rng.randrange(d) for d in a.invariants)) for _ in range(s)]
        log, red = reduce_tuple(a, xi)
        span = subgroup_from_generators(a, xi)
        cur = list(xi)
        for op in log:
            cur = replay_ops(a, cur, [op])
            assert subgroup_from_generators(a, cur) == span


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
    # chains up to 1024, where one Euclidean run repeats an op hundreds of
    # times; the oracle takes every step one by one
    long_chains = [(1024,), (5, 960), (3, 24, 120, 720), (16, 32, 192, 960), (2, 6, 30, 120, 720)]
    longest = 0
    for case in range(2060):
        a = make_group(rng.choice(types) if case < 2000 else rng.choice(long_chains))
        s = a.rank + rng.randrange(0, 4)
        xi = [a.element(tuple(rng.randrange(d) for d in a.invariants)) for _ in range(s)]
        log, red = reduce_tuple(a, xi)
        assert (log, [e.coords for e in red]) == reduce_tuple_oracle(a, xi)
        longest = max(longest, max((len(list(run)) for _op, run in groupby(log)), default=0))
    assert longest >= 100


# -- integer normal form internals ---------------------------------------------

def test_snf_transforms_properties():
    rng = random.Random(4)
    for _ in range(100):
        k = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(k)]
        diag, u, uinv, v = _snf_with_transforms(mat, k)
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
    from splitbound.finabel import _cokernel_invariants, _relation_matrix

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
            assert _cokernel_invariants(rel, k, sub) == cokernel_oracle(rel, k, sub)
            checked += 1
    assert checked == 6022  # Birkhoff's count summed over the 117 types


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
    from splitbound.finabel import _cokernel_invariants

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
