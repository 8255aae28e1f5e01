"""One-shot replays of the package's cross-module invariants.

Each suite returns a list of Check records (name, passed, count, millis);
the CLI prints one line per check and exits nonzero if any failed.  The
acceptance test module drives the same functions, so CLI verification and
the test suite cannot drift apart.
"""

from __future__ import annotations

import random
import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, prod

from . import f2quad, heisenberg, liedata, obstruction, qzforms
from .errors import SplitboundError
from .finabel import (
    FinAbGroup,
    Subgroup,
    _canonical_chain,
    _cokernel_invariants,
    _exponent_partitions,
    _iter_bases_general,
    _partitions_inside,
    _subgroup_type_counts,
    _valuation,
    make_group,
    replay_ops,
    reduce_tuple,
    subgroup_from_generators,
)

__all__ = ["Check", "run_suite", "iter_abelian_types", "subquot_profile"]


@dataclass
class Check:
    name: str
    passed: bool
    count: int
    millis: float


def _check(name: str, fn) -> Check:
    """Run one check.  A library call that asserts or refuses what the
    check tests fails the check (count 0), named on stderr, instead of
    ending the suite."""
    t0 = time.perf_counter()
    try:
        passed, count = fn()
    except (AssertionError, SplitboundError) as ex:
        sys.stderr.write(f"# {name}: {type(ex).__name__}: {ex}\n")
        passed, count = False, 0
    return Check(name, passed, count, (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def iter_abelian_types(max_order: int):
    """Invariant chains of every abelian group of order <= max_order."""
    for n in range(1, max_order + 1):
        per_prime = []
        m, p = n, 2
        while m > 1:  # the least divisor of m above 1 is a prime
            e = _valuation(m, p)
            if e:
                parts = _partitions_inside((e,) * e, e)
                per_prime.append([[p ** a for a in part] for part in parts])
                m //= p ** e
            p += 1
        for combo in product(*per_prime):
            orders = [x for block in combo for x in block]
            yield _canonical_chain(orders)


# The subquot suite walks the 516 group types of order <= 256; a bound
# above that keeps every one of them, so a repeated suite in one process
# finds each profile memoized, and the memo cannot grow without end.
_SUBQUOT_CACHE_SIZE = 1024


@lru_cache(maxsize=_SUBQUOT_CACHE_SIZE)
def subquot_profile(invariants: tuple[int, ...]):
    """(Counter of subgroup types, Counter of quotient types) over every
    subgroup.

    The subgroup side is the census's per-type count,
    finabel._subgroup_type_counts (Birkhoff's closed form prime by prime).
    The quotient side is an independent lattice walk: every subgroup is
    counted once, by classes of its Hermite basis.  Its quotient's type
    depends only on the unit-pivot set V and the non-unit block B, and
    _quotient_classes lists those classes with their sizes: a (V, B)
    class holds prod_{i in V} prod_{g in type(A_>i / B_>i)} gcd(g, d_i)
    bases, over the non-unit coordinates after i.
    test_subquot_classes_match_the_walk checks that formula class by class
    against the per-basis walk.
    """
    a = make_group(invariants)
    subs = Counter(_subgroup_type_counts(_exponent_partitions(a)))
    quots: Counter = Counter()
    for _units, _nonunit, quot, n in _quotient_classes(a.invariants):
        quots[quot] += n
    return subs, quots


def _coordinate_splits(k: int):
    """Every subset of range(k) with its complement, both ascending."""
    for mask in range(1 << k):
        chosen = tuple(i for i in range(k) if mask >> i & 1)
        yield chosen, tuple(i for i in range(k) if not mask >> i & 1)


def _quotient_classes(inv: tuple[int, ...]):
    """(V, B, quotient type, number of bases) for each unit-pivot set V
    and each non-unit block B: a Hermite basis over the other coordinates
    whose every pivot lies above 1.

    Entries above a unit pivot are reduced modulo 1, so its column is e_i,
    and its row and column split off the cokernel as a trivial factor: the
    quotient type is the cokernel of B.  The non-unit rows are 0 in the unit columns, so a basis of the class
    is B with a unit row e_i + x at each i in V, x a reduced vector on the
    non-unit coordinates after i with d_i * x in the lattice of B_>i: an
    element of A_>i / B_>i killed by d_i, of which there are
    prod_{g in type(A_>i / B_>i)} gcd(g, d_i).
    """
    @lru_cache(maxsize=None)
    def coker(rows):
        return _cokernel_invariants(rows, len(rows), prod(row[a] for a, row in enumerate(rows)))

    for units, rest in _coordinate_splits(len(inv)):
        ds = tuple(inv[i] for i in rest)
        after = [bisect_left(rest, i) for i in units]
        for block in _nonunit_blocks(ds):
            n = 1
            for i, s in zip(units, after):
                for g in coker(tuple(row[s:] for row in block[s:])):
                    n *= gcd(g, inv[i])
            yield units, block, coker(block), n


@lru_cache(maxsize=_SUBQUOT_CACHE_SIZE)
def _nonunit_blocks(ds: tuple[int, ...]) -> tuple:
    """The Hermite bases over the chain ds whose every pivot lies above 1.
    They depend on ds alone, and every split of every type with these
    non-unit invariants lists them."""
    return tuple(_iter_bases_general(ds, keep_pivot=lambda h, _d: h != 1))


def random_group(rng: random.Random, max_order: int) -> FinAbGroup:
    return rng.choice(_abelian_groups(max_order))


@lru_cache(maxsize=4)
def _abelian_groups(max_order: int) -> tuple[FinAbGroup, ...]:
    """The groups of iter_abelian_types(max_order), built once and in its
    order: a group is immutable, so draws can share them."""
    return tuple(map(make_group, iter_abelian_types(max_order)))


def _random_f2_form(m: int, rng: random.Random) -> f2quad.F2QuadForm:
    rows = []
    for i in range(m):
        mask = 0
        for j in range(i, m):
            if rng.random() < 0.5:
                mask |= 1 << j
        rows.append(mask)
    return f2quad.F2QuadForm(m, rows)


def _random_invertible_f2(m: int, rng: random.Random) -> list[int]:
    while True:
        mat = [rng.randrange(1, 1 << m) for _ in range(m)]
        if f2quad.f2_rank(mat) == m:
            return mat


def _conjugate_form(q: f2quad.F2QuadForm, mat: list[int]) -> f2quad.F2QuadForm:
    """q'(x) = q(Tx) where column j of T is mat[j].  Each q(mat[i]) is
    taken once, and the polarization b(v, w) = q(v + w) + q(v) + q(w)
    reads them back."""
    m = q.dim
    value = q.value
    qs = [value(v) for v in mat]
    rows = [0] * m
    for i in range(m):
        v, qv = mat[i], qs[i]
        if qv:
            rows[i] |= 1 << i
        for j in range(i + 1, m):
            if value(v ^ mat[j]) ^ qv ^ qs[j]:
                rows[i] |= 1 << j
    return f2quad.F2QuadForm(m, rows)


def commutator_gram(basis) -> list[list]:
    """Gram matrix of scalar commutator exponents of the lifts of
    projective elements, computed with monomial matrices."""
    return [
        [heisenberg.scalar_exponent(heisenberg.commutator(x.lift, y.lift)) for y in basis]
        for x in basis
    ]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_isometry(seed: int = 0) -> list[Check]:
    def gram_equality():
        # the matrix model as oracle: scalar commutators of the basis lifts
        # against the standard module and against the lattice alpha_H
        count = 0
        for inv in iter_abelian_types(8):
            a = make_group(inv)
            h = heisenberg.phi_image(a)
            group, basis = h.abstract()
            w = qzforms.SkewForm(group, commutator_gram(basis))
            sm = qzforms.standard_module(a)
            if w != sm or heisenberg.alpha_form(h) != w:
                return False, count
            count += 1
        return True, count

    def braiding():
        from .finabel import dual_group, eval_character
        count = 0
        for inv in iter_abelian_types(16):
            a = make_group(inv)
            dual = dual_group(a)
            n = a.exponent
            diagonals = [(chi, heisenberg.diag_matrix(chi)) for chi in dual.elements()]
            for x in a.elements():
                px = heisenberg.perm_matrix(x)
                for chi, dchi in diagonals:
                    v = eval_character(chi, x)
                    lhs = dchi * px
                    rhs = (px * dchi).scale(v.num * (n // v.den))
                    if lhs != rhs:
                        return False, count
                    count += 1
        return True, count

    def lift_twists():
        rng = random.Random(seed)
        count = 0
        for inv in ((2,), (4,), (2, 2), (3,)):
            a = make_group(inv)
            h = heisenberg.phi_image(a)
            base = heisenberg.alpha_form(h)
            _group, basis = h.abstract()
            for _ in range(10):
                twisted = [
                    pe.lift.scale(rng.randrange(a.exponent)) for pe in basis
                ]
                for i in range(len(twisted)):
                    for j in range(len(twisted)):
                        if i == j:
                            continue
                        val = heisenberg.scalar_exponent(
                            heisenberg.commutator(twisted[i], twisted[j])
                        )
                        if val != base.gram[i][j]:
                            return False, count
                        count += 1
        return True, count

    return [
        _check("isometry.gram-identical", gram_equality),
        _check("isometry.braiding", braiding),
        _check("isometry.lift-independence", lift_twists),
    ]


def suite_lagrangian() -> list[Check]:
    def self_duality():
        count = 0
        for inv in iter_abelian_types(16):
            a = make_group(inv)
            w = qzforms.standard_module(a)
            g = w.group
            mi = qzforms.max_isotropic(w)
            if mi.order * mi.order != g.order:
                return False, count
            for basis in qzforms.iter_isotropic_bases(w, mi.order):
                lam = Subgroup(g, basis)
                if qzforms.quotient_by_lagrangian(w, lam).invariants != lam.sub_invariants:
                    return False, count
                count += 1
        return True, count

    def base_lagrangian():
        count = 0
        for inv in iter_abelian_types(16):
            a = make_group(inv)
            w = qzforms.standard_module(a)
            g = w.group
            k = a.rank
            gens = [
                g.element(tuple(int(t == 2 * i) for t in range(2 * k)))
                for i in range(k)
            ]
            s = subgroup_from_generators(g, gens)
            if not (
                qzforms.is_nondegenerate(w)
                and qzforms.is_lagrangian(w, s)
                and s.sub_invariants == a.invariants
            ):
                return False, count
            count += 1
        return True, count

    return [
        _check("lagrangian.standard-base", base_lagrangian),
        _check("lagrangian.self-duality", self_duality),
    ]


def suite_ec8(seed: int = 0) -> list[Check]:
    def census():
        got = f2quad.census_dim7_radical1()
        return got == {56, 64, 72}, 3

    def fold_agreement():
        count = 0
        # every canonical block list of dimension <= 10
        for nh in range(6):
            for na in range(2):
                for none_ in range(2):
                    for nz in range(11):
                        dim = 2 * nh + 2 * na + none_ + nz
                        if dim < 1 or dim > 10 or (na and none_):
                            continue
                        blocks = ["h"] * nh + ["a"] * na + ["one"] * none_ + ["zero"] * nz
                        q = f2quad.form_from_blocks(blocks)
                        ones = f2quad.count_anisotropic(q)
                        z, o = f2quad.count_by_recursion(f2quad.decompose(q))
                        if o != ones or z != (1 << dim) - ones:
                            return False, count
                        count += 1
        rng = random.Random(seed)
        for _ in range(1000):
            m = rng.randrange(1, 11)
            q = _random_f2_form(m, rng)
            ones = f2quad.count_anisotropic(q)
            z, o = f2quad.count_by_recursion(f2quad.decompose(q))
            if o != ones or z != (1 << m) - ones:
                return False, count
            count += 1
        return True, count

    def dim7_quantifier():
        rng = random.Random(seed + 1)
        base_classes = [
            ["h", "h", "h", "zero"],
            ["h", "h", "h", "one"],
            ["a", "h", "h", "zero"],
        ]
        count = 0
        for _ in range(1000):
            q = f2quad.form_from_blocks(rng.choice(base_classes))
            q2 = _conjugate_form(q, _random_invertible_f2(7, rng))
            if len(f2quad.radical_basis(q2)) != 1:
                return False, count
            if f2quad.count_anisotropic(q2) not in (56, 64, 72):
                return False, count
            count += 1
        return True, count

    def torus():
        return f2quad.e8_torus_census() == (120, 135), 1

    def model_counts():
        m = f2quad.ec8_model()
        ok = (
            len(m.type_a) == 56
            and m.type_b_count == 199
            and f2quad.ec8_generation_check(m)
        )
        return ok, 3

    def hyperplanes():
        m = f2quad.ec8_model()
        _best, missed = f2quad.ec8_hyperplane_census(m)
        return missed >= 1, 255

    return [
        _check("ec8.quad-census", census),
        _check("ec8.fold-vs-brute", fold_agreement),
        _check("ec8.dim7-quantifier", dim7_quantifier),
        _check("ec8.torus-census", torus),
        _check("ec8.model-counts", model_counts),
        _check("ec8.hyperplane-census", hyperplanes),
    ]


def suite_partitions() -> list[Check]:
    def f_values():
        ok = (
            obstruction.f_bound(2) == 2
            and obstruction.f_bound(3) == 4
            and obstruction.f_bound(6) == 10
            and all(obstruction.f_bound(r + 1) >= obstruction.f_bound(r) for r in range(1, 24))
        )
        return ok, 26

    def search_vs_formula():
        count = 0
        for p in (2, 3):
            for r in range(1, 13):
                for e in range(0, 3):
                    q = obstruction.ObstructionQuery(p, r, e)
                    total, wit = obstruction.min_splitting_exponent(q)
                    if total < obstruction.f_bound(r, e):
                        return False, count
                    if not obstruction.partition_feasible(q, wit):
                        return False, count
                    count += 1
        q = obstruction.ObstructionQuery(2, 3, 0)
        total, wit = obstruction.min_splitting_exponent(q)
        if total != 4 or wit.exponents != (2, 1, 1):
            return False, count
        return True, count + 1

    def two_routes():
        count = 0
        for p in (2, 3):
            for r in (2, 3):
                el = qzforms.standard_module(make_group([p] * r))
                cy = qzforms.standard_module(make_group([p ** r]))
                got = obstruction.comparison_bound(el, cy, 0)
                want = obstruction.splitting_order_bound(
                    obstruction.ObstructionQuery(p, r, 0)
                )
                if got != want:
                    return False, count
                count += 1
        return True, count

    def reduction_value():
        el6 = qzforms.standard_module(make_group([2, 2, 2]))
        cy8 = qzforms.standard_module(make_group([8]))
        return obstruction.comparison_bound(el6, cy8, 0) == 16, 1

    return [
        _check("partitions.f-values", f_values),
        _check("partitions.search-vs-formula", search_vs_formula),
        _check("partitions.two-routes", two_routes),
        _check("partitions.rank6-reduction", reduction_value),
    ]


def suite_depth() -> list[Check]:
    def fixtures():
        cases = [((2,), 1), ((4,), 2), ((2, 2), 2), ((8,), 3), ((2, 4), 3), ((9,), 2), ((3, 3), 2)]
        count = 0
        for inv, want in cases:
            if heisenberg.depth(heisenberg.phi_image(make_group(inv))) != want:
                return False, count
            count += 1
        return True, count

    return [_check("depth.phi-image", fixtures)]


_TUPLE_REDUCTION_INSTANCES = 10000


def suite_tuple_reduction(seed: int = 0) -> list[Check]:
    def fuzz():
        rng = random.Random(seed)
        count = 0
        for _ in range(_TUPLE_REDUCTION_INSTANCES):
            a = random_group(rng, 64)
            s = a.rank + rng.randrange(0, 4)
            xi = [a.element([rng.randrange(d) for d in a.invariants]) for _ in range(s)]
            log, reduced = reduce_tuple(a, xi)
            if sum(1 for el in reduced if not el.is_zero()) > a.rank:
                return False, count
            if replay_ops(a, xi, log) != reduced:
                return False, count
            if subgroup_from_generators(a, xi) != subgroup_from_generators(a, reduced):
                return False, count
            count += 1
        return True, count

    return [_check("tuple-reduction.fuzz", fuzz)]


def suite_subquot() -> list[Check]:
    def duality():
        count = 0
        for inv in iter_abelian_types(256):
            subs, quots = subquot_profile(inv)
            if subs != quots:
                return False, count
            count += 1
        return True, count

    return [_check("subquot.multiset-duality", duality)]


def suite_tables() -> list[Check]:
    def fixtures():
        g = liedata.GroupDescriptor
        cases = [
            (g("E8"), 2, 2),
            (g("E8"), 3, 1),
            (g("E8"), 5, 1),
            (g("E7", simply_connected=False), 2, 2),
            (g("E7", simply_connected=False), 3, 1),
            (g("G2"), 2, 1),
            (g("F4"), 2, 1),
            (g("F4"), 3, 1),
        ]
        count = 0
        for desc, p, d in cases:
            if not liedata.depth_consistency(desc, p, d):
                return False, count
            count += 1
        ok = (
            liedata.tits_n(g("E8")) == 17280
            and liedata.fixed_divisors() == {"E8_splitting": 60, "E7_splitting": 12}
        )
        return ok, count + 2

    return [_check("tables.fixtures", fixtures)]


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name == "isometry":
        return suite_isometry(seed)
    if name == "lagrangian":
        return suite_lagrangian()
    if name == "ec8":
        return suite_ec8(seed)
    if name == "partitions":
        return suite_partitions()
    if name == "all":
        out = []
        out += suite_isometry(seed)
        out += suite_lagrangian()
        out += suite_ec8(seed)
        out += suite_partitions()
        out += suite_depth()
        out += suite_tuple_reduction(seed)
        out += suite_subquot()
        out += suite_tables()
        return out
    raise ValueError(f"unknown suite {name!r}")
