import pytest

from splitbound.errors import (
    AmbientMismatchError,
    DegenerateFormError,
    InvalidFormError,
    PreconditionError,
)
from splitbound.finabel import (
    QmodZ,
    Subgroup,
    _canonical_chain,
    enumerate_subgroups,
    full_subgroup,
    iter_subgroup_bases,
    make_group,
    quotient,
    subgroup_from_generators,
    trivial_subgroup,
)
from splitbound.qzforms import (
    MaxIsotropic,
    SkewForm,
    evaluate,
    is_isotropic,
    is_lagrangian,
    is_nondegenerate,
    isotropic_transfer,
    iter_isotropic_bases,
    max_isotropic,
    quotient_by_lagrangian,
    radical,
    restrict,
    standard_module,
    symplectic_submodule,
    zero_form,
)
from splitbound.verify import iter_abelian_types


def base_lagrangian(w):
    """A x {1} inside the standard module."""
    g = w.group
    k = g.rank // 2
    gens = [g.element(tuple(int(t == 2 * i) for t in range(2 * k))) for i in range(k)]
    return subgroup_from_generators(g, gens)


def bases_with_order(w):
    """(order, Hermite basis) of every subgroup of the form's group."""
    g = w.group
    for basis in iter_subgroup_bases(g):
        yield Subgroup(g, basis).order, basis


def max_isotropic_oracle(w):
    """Two-pass exhaustive search: the largest isotropic order, then the
    least canonical basis and every type at that order."""
    from splitbound.qzforms import _isotropic_basis

    g = w.group
    best = 0
    for order, basis in bases_with_order(w):
        if order > best and _isotropic_basis(w, basis):
            best = order
    witness_basis = None
    types = set()
    for order, basis in bases_with_order(w):
        if order != best or not _isotropic_basis(w, basis):
            continue
        if witness_basis is None or basis < witness_basis:
            witness_basis = basis
        types.add(Subgroup(g, basis).sub_invariants)
    return MaxIsotropic(best, Subgroup(g, witness_basis), sorted(types))


def random_form(rng, g):
    """Alternating form with uniform entries; about one in three also has a
    zeroed generator row, so degenerate forms occur on every rank."""
    from math import gcd as _gcd

    k = g.rank
    gram = [[QmodZ.zero()] * k for _ in range(k)]
    dead = rng.randrange(k) if k and rng.randrange(3) == 0 else None
    for i in range(k):
        for j in range(i + 1, k):
            if dead in (i, j):
                continue
            cap = _gcd(g.invariants[i], g.invariants[j])
            v = QmodZ(rng.randrange(cap), cap)
            gram[i][j] = v
            gram[j][i] = -v
    return SkewForm(g, gram)


def brute_radical(w):
    g = w.group
    members = [
        x for x in g.elements()
        if all(evaluate(w, x, y).is_zero() for y in g.elements())
    ]
    return subgroup_from_generators(g, members)


# -- construction and evaluation ----------------------------------------------

def test_standard_module_shapes():
    w = standard_module(make_group([2]))
    assert w.group.invariants == (2, 2)
    assert w.gram[0][1] == QmodZ(1, 2)

    w4 = standard_module(make_group([4]))
    assert w4.group.invariants == (4, 4)
    e = w4.group.element((1, 0))
    f = w4.group.element((0, 1))
    assert evaluate(w4, e, f) == QmodZ(3, 4)

    w22 = standard_module(make_group([2, 2]))
    assert w22.group.invariants == (2, 2, 2, 2)
    assert radical(w22).order == 1  # nondegenerate, by enumeration below too
    assert brute_radical(w22).order == 1


def test_standard_module_defining_formula():
    # w((a1, chi1), (a2, chi2)) == chi1(a2) - chi2(a1) on every pair
    from splitbound.finabel import dual_group, eval_character
    from splitbound.verify import iter_abelian_types

    for inv in iter_abelian_types(8):
        a = make_group(inv)
        dual = dual_group(a)
        w = standard_module(a)
        g = w.group

        def embed(x, chi):
            coords = [0] * (2 * a.rank)
            coords[0::2] = x.coords
            coords[1::2] = chi.coords
            return g.element(tuple(coords))

        for a1 in a.elements():
            for c1 in dual.elements():
                for a2 in a.elements():
                    for c2 in dual.elements():
                        want = eval_character(c1, a2) - eval_character(c2, a1)
                        assert evaluate(w, embed(a1, c1), embed(a2, c2)) == want


def _gram(k, **entries):
    """A k x k Gram of zeros with the named entries, e.g. e01=(1, 2)."""
    rows = [[QmodZ(0, 1)] * k for _ in range(k)]
    for name, (num, den) in entries.items():
        rows[int(name[1])][int(name[2])] = QmodZ(num, den)
    return rows


def _refusal(group, gram) -> str:
    with pytest.raises(InvalidFormError) as info:
        SkewForm(group, gram)
    return str(info.value)


ALTERNATING = "Gram diagonal must vanish (alternating)"
SKEW = "Gram matrix must be skew-symmetric"
ORDER = "entry order incompatible with generator order"


def test_skewform_validation():
    g = make_group([2, 2])
    assert _refusal(g, _gram(2, e00=(1, 2))) == ALTERNATING
    assert _refusal(g, _gram(2, e01=(1, 2))) == SKEW
    assert _refusal(g, _gram(2, e01=(1, 2), e10=(1, 4))) == SKEW  # equal numerators
    assert _refusal(g, _gram(2, e01=(1, 4), e10=(3, 4))) == ORDER
    assert _refusal(g, [[QmodZ(0, 1)]]) == "Gram matrix must be 2x2"
    assert _refusal(g, _gram(2)[:1] + [[QmodZ(0, 1)]]) == "Gram matrix must be 2x2"
    # several faults: the first in row-major order wins, and at one entry
    # skew-symmetry is checked before the order; a row's diagonal entry is
    # checked before any entry of that row
    g3 = make_group([2, 2, 2])
    skew_then_order = _gram(3, e01=(1, 2), e02=(1, 4), e20=(3, 4))
    assert _refusal(g3, skew_then_order) == SKEW
    order_then_skew = _gram(3, e01=(1, 4), e10=(3, 4), e02=(1, 2))
    assert _refusal(g3, order_then_skew) == ORDER
    assert _refusal(g3, _gram(3, e00=(1, 2), e01=(1, 2))) == ALTERNATING
    assert _refusal(g3, _gram(3, e11=(1, 2), e01=(1, 2))) == SKEW
    assert _refusal(g3, _gram(3, e11=(1, 2), e01=(1, 4), e10=(3, 4))) == ORDER
    # entries of different orders are never skew: 1/4 against 1/2 on Z/2 x Z/4
    assert _refusal(make_group([2, 4]), _gram(2, e01=(1, 4), e10=(1, 2))) == SKEW
    SkewForm(make_group([2, 4]), _gram(2, e01=(1, 2), e10=(1, 2)))


def test_evaluate_alternating_and_skew():
    for inv in ([2], [4], [2, 2]):
        w = standard_module(make_group(inv))
        for x in w.group.elements():
            assert evaluate(w, x, x).is_zero()
            for y in w.group.elements():
                assert evaluate(w, x, y) == -evaluate(w, y, x)


def test_evaluate_mismatch():
    w = standard_module(make_group([2]))
    with pytest.raises(AmbientMismatchError):
        evaluate(w, make_group([4]).element((1,)), w.group.element((0, 0)))


# -- radical ------------------------------------------------------------------

def test_radical_matches_enumeration():
    for inv in iter_abelian_types(8):
        w = standard_module(make_group(inv))
        assert radical(w) == brute_radical(w)
        assert is_nondegenerate(w)
    z = zero_form(make_group([2, 2]))
    assert radical(z).order == 4
    assert not is_nondegenerate(z)


def test_radical_on_random_degenerate_forms():
    # integer-linear-algebra radical vs element enumeration, arbitrary Gram
    import random
    from math import gcd as _gcd

    rng = random.Random(14)
    for inv in ([2, 2], [2, 4], [4, 4], [2, 2, 2], [6, 6], [3, 9]):
        g = make_group(inv)
        k = g.rank
        for _ in range(8):
            gram = [[QmodZ.zero()] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    cap = _gcd(g.invariants[i], g.invariants[j])
                    v = QmodZ(rng.randrange(cap), cap)
                    gram[i][j] = v
                    gram[j][i] = -v
            w = SkewForm(g, gram)
            assert radical(w) == brute_radical(w)


def test_nondegeneracy_on_the_adjoint_matches_the_pairing_kernel():
    # is_nondegenerate's k-column Hermite form against radical's 2k-column
    # pairing kernel, each on its own copy of the form so that neither reads
    # a verdict or radical the other kept; on order <= 64 also against
    # element enumeration
    import random

    rng = random.Random(40)
    forms = []
    for inv in iter_abelian_types(256):  # from rank 0, the trivial group
        g = make_group(inv)
        forms += [sparse_random_form(rng, g, share) for share in (0.0, 0.3, 0.6)]
    forms += [standard_module(make_group(inv)) for inv in iter_abelian_types(8)]
    verdicts = {}
    for w in forms:
        got = is_nondegenerate(w)
        assert got == (radical(SkewForm(w.group, w.gram)).order == 1), w.gram
        if w.group.order <= 64:
            assert got == (brute_radical(w).order == 1), w.gram
        verdicts.setdefault(w.group.rank, set()).add(got)
    # a nondegenerate module is B + B*, of even rank
    want = {k: {True, False} if k % 2 == 0 else {False} for k in range(1, 9)}
    assert verdicts == {0: {True}, **want}, verdicts


def test_nondegeneracy_verdict_is_kept_and_read_from_a_kept_radical(monkeypatch):
    import splitbound.qzforms as qz

    hnfs, kernels = [], []
    orig_hnf, orig_kernel = qz._hnf, qz._pairing_kernel
    monkeypatch.setattr(qz, "_hnf", lambda *a: hnfs.append(a) or orig_hnf(*a))
    monkeypatch.setattr(
        qz, "_pairing_kernel", lambda w, rows, m: kernels.append(m) or orig_kernel(w, rows, m)
    )
    w = standard_module(make_group([2, 4]))
    z = zero_form(make_group([2, 2]))
    for _ in range(3):
        assert is_nondegenerate(w) and not is_nondegenerate(z)
    # one k-column Hermite form per form, and no radical
    assert [len(a[0][0]) for a in hnfs] == [4, 2] and kernels == []
    assert w._nondegenerate is True and z._nondegenerate is False
    assert w._radical is None and z._radical is None
    # a radical kept first gives the verdict: no Hermite form is taken for it
    for form, order in ((zero_form(make_group([2, 4])), 8),
                        (standard_module(make_group([3])), 1)):
        assert radical(form).order == order
        hnfs.clear()
        assert is_nondegenerate(form) == (order == 1)
        assert hnfs == [] and form._nondegenerate == (order == 1)


def test_annihilated_matches_brute_force():
    # 0-4 xs against 0-3 ys on random forms of every group of order <= 64,
    # zero rows and dead rows (zero modulo the invariants) among them: the
    # rectangular, empty and zero cases
    import random

    from splitbound.qzforms import _annihilated

    rng = random.Random(21)

    def draw(g):
        kind = rng.randrange(5)
        if kind == 0:
            return (0,) * g.rank
        if kind == 1:
            return tuple(d * rng.randrange(3) for d in g.invariants)
        return tuple(rng.randrange(2 * d) for d in g.invariants)

    for inv in iter_abelian_types(64):
        g = make_group(inv)
        for _ in range(3):
            w = random_form(rng, g)
            xs = [draw(g) for _ in range(rng.randrange(5))]
            ys = [draw(g) for _ in range(rng.randrange(4))]
            span = subgroup_from_generators(g, [g.element(x) for x in xs])
            against = [g.element(y) for y in ys]
            expected = subgroup_from_generators(g, [
                x for x in span.elements() if all(evaluate(w, x, y).is_zero() for y in against)
            ])
            assert _annihilated(w, xs, ys) == expected, (inv, w.gram, xs, ys)


def test_annihilated_on_a_rectangular_pairing():
    # three generators against one: no padding to a square matrix
    from itertools import product as _product

    from splitbound.qzforms import _annihilated

    w = standard_module(make_group([2, 4]))
    g = w.group
    xs = [(1, 0, 1, 2), (0, 1, 0, 1), (1, 1, 2, 0)]
    ys = [(0, 1, 1, 1)]
    combos = [
        g.element([sum(c * x[t] for c, x in zip(cs, xs)) for t in range(g.rank)])
        for cs in _product(range(g.exponent), repeat=len(xs))
    ]
    y = g.element(ys[0])
    expected = subgroup_from_generators(g, [x for x in combos if evaluate(w, x, y).is_zero()])
    got = _annihilated(w, xs, ys)
    assert got == expected and 1 < got.order < subgroup_from_generators(g, combos).order


def test_radical_of_isotropic_restriction():
    # the form restricted to the Lagrangian A x {1} is the zero form
    w = standard_module(make_group([2, 4]))
    lam = base_lagrangian(w)
    r = restrict(w, lam)
    assert r.is_zero()
    assert radical(r).order == lam.order


# -- isotropy and Lagrangians ---------------------------------------------------

def test_isotropic_examples():
    w = standard_module(make_group([4]))
    assert is_isotropic(w, base_lagrangian(w))
    assert is_isotropic(w, subgroup_from_generators(w.group, []))
    full = subgroup_from_generators(
        w.group, [w.group.element((1, 0)), w.group.element((0, 1))]
    )
    assert not is_isotropic(w, full)


def test_isotropic_iff_restriction_radical_full():
    for inv in ([2], [4], [2, 2]):
        w = standard_module(make_group(inv))
        for s in enumerate_subgroups(w.group):
            lhs = is_isotropic(w, s)
            rhs = radical(restrict(w, s)).order == s.order
            assert lhs == rhs


def test_lagrangian_examples():
    w2 = standard_module(make_group([2]))
    assert is_lagrangian(w2, base_lagrangian(w2))
    assert not is_lagrangian(w2, subgroup_from_generators(w2.group, []))
    s11 = subgroup_from_generators(w2.group, [w2.group.element((1, 1))])
    assert evaluate(w2, w2.group.element((1, 1)), w2.group.element((1, 1))).is_zero()
    assert is_lagrangian(w2, s11)
    with pytest.raises(DegenerateFormError):
        is_lagrangian(zero_form(make_group([2, 2])), s11)


def test_max_isotropic():
    w2 = standard_module(make_group([2]))
    mi = max_isotropic(w2)
    assert mi.order == 2 and mi.types == [(2,)]
    assert is_lagrangian(w2, mi.witness)
    lags = [s for s in enumerate_subgroups(w2.group) if is_lagrangian(w2, s)]
    assert len(lags) == 3

    mi4 = max_isotropic(standard_module(make_group([4])))
    assert mi4.order == 4
    assert mi4.types == [(2, 2), (4,)]

    z = zero_form(make_group([2, 2]))
    assert max_isotropic(z).order == 4


def test_max_isotropic_matches_oracle_on_standard_modules(standard_filter):
    # order sqrt(|H| |Rad|), witness and types against exhaustive search,
    # every standard module of order <= 256: max_isotropic_oracle's answer,
    # read off the shared filter
    for inv, w, by_order in standard_filter:
        best = max(by_order)
        types = sorted({Subgroup(w.group, basis).sub_invariants for basis in by_order[best]})
        want = MaxIsotropic(best, Subgroup(w.group, min(by_order[best])), types)
        assert max_isotropic(w) == want, inv


def test_max_isotropic_matches_oracle_on_random_forms():
    import random

    rng = random.Random(23)
    degenerate = nondegenerate = 0
    for inv in iter_abelian_types(64):
        g = make_group(inv)
        for _ in range(6):
            w = random_form(rng, g)
            if is_nondegenerate(w):
                nondegenerate += 1
            else:
                degenerate += 1
            assert max_isotropic(w) == max_isotropic_oracle(w), (inv, w.gram)
    assert degenerate and nondegenerate, (degenerate, nondegenerate)


def max_isotropic_by_pass(w):
    """One pass of iter_isotropic_bases at the largest isotropic order,
    which the non-split branch of max_isotropic takes."""
    from math import isqrt

    g = w.group
    best = isqrt(g.order * radical(w).order)
    bases = list(iter_isotropic_bases(w, best))
    types = sorted({Subgroup(g, basis).sub_invariants for basis in bases})
    return MaxIsotropic(best, Subgroup(g, min(bases)), types)


def radical_is_pure(w):
    """R ∩ p^j H = p^j R at every prime p and every j, on element sets."""
    from splitbound.finabel import _exponent_partitions

    g = w.group
    rad = set(radical(w).elements())
    for p, lam in _exponent_partitions(g):
        for j in range(1, max(lam) + 1):
            q = p ** j
            if rad & {x * q for x in g.elements()} != {x * q for x in rad}:
                return False
    return True


def test_max_isotropic_matches_oracle_on_degenerate_forms():
    # the split branch (types from the LR rule) and the non-split pass
    # against exhaustive search, on two seeded degenerate forms on every
    # group of order <= 256 and rank >= 2; the three of rank >= 7 compare
    # with the pass instead, which that search takes seconds to redo
    import random

    rng = random.Random(16)
    seen = {True: 0, False: 0}
    for inv in iter_abelian_types(256):
        if len(inv) < 2:
            continue
        g = make_group(inv)
        for _ in range(2):
            w = random_form(rng, g)
            while is_nondegenerate(w):
                w = random_form(rng, g)
            rad = radical(w)
            split = _canonical_chain(rad.sub_invariants + quotient(g, rad).invariants) == inv
            assert split == radical_is_pure(w), (inv, w.gram)
            seen[split] += 1
            oracle = max_isotropic_oracle if len(inv) < 7 else max_isotropic_by_pass
            assert max_isotropic(w) == oracle(w), (inv, w.gram)
    assert seen[True] and seen[False], seen


def test_least_isotropic_basis_matches_enumeration_at_every_order():
    # the lex-first search against the least enumerated basis at every order
    # dividing |H| (None where there is no isotropic subgroup): every
    # standard module with |A| <= 16, and seeded random forms, degenerate
    # ones included, on every group of order <= 64 and on (2,2,4,4), (4,4,4,4)
    import random

    from test_finabel import divisors

    from splitbound.qzforms import least_isotropic_basis

    def check(w):
        for order in divisors(w.group.order):
            want = min(iter_isotropic_bases(w, order), default=None)
            assert least_isotropic_basis(w, order) == want, (w.gram, order)

    for inv in iter_abelian_types(16):
        check(standard_module(make_group(inv)))
    rng = random.Random(41)
    degenerate = nondegenerate = 0
    for inv in [*iter_abelian_types(64), (2, 2, 4, 4), (4, 4, 4, 4)]:
        g = make_group(inv)
        for w in (random_form(rng, g), random_form(rng, g), sparse_random_form(rng, g, 0.5)):
            if is_nondegenerate(w):
                nondegenerate += 1
            else:
                degenerate += 1
            check(w)
    assert degenerate and nondegenerate, (degenerate, nondegenerate)
    w = standard_module(make_group([2, 4]))
    assert least_isotropic_basis(w, 16) is None
    # no subgroup has order below 1
    for w in (w, standard_module(make_group([2, 2]))):
        for order in (0, -4):
            assert least_isotropic_basis(w, order) is None
            assert list(iter_isotropic_bases(w, order)) == [], (w.gram, order)


def test_least_isotropic_basis_prunes_rows_above_a_later_pivot(monkeypatch):
    # a row with an entry at or above a later pivot is not Hermite-reduced;
    # its reduced form is lex-smaller and met first, so that cut never
    # changes the answer, only the work: on these degenerate forms the
    # search backtracks (the order cut is necessary, not sufficient, below
    # the largest order).  Each nonzero row it places, but one at the last
    # index, cuts the annihilator above it by that one row: 26 and 163
    # annihilators with the cut, each of one pairing row
    import splitbound.qzforms as qz

    calls = []
    annihilated = qz._annihilated
    monkeypatch.setattr(qz, "_annihilated", lambda w, xs, ys: calls.append(len(ys)) or annihilated(w, xs, ys))
    for inv, order, upper, want, work in (
        ((2, 2, 2, 8), 8, {(0, 1): 1, (0, 3): 1}, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 4)), 26),
        ((2, 2, 2, 2, 16), 8, {(0, 1): 1, (0, 4): 1, (1, 3): 1, (2, 4): 1, (3, 4): 1},
         ((1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 16)), 163),
    ):
        k = len(inv)
        gram = [[QmodZ.zero()] * k for _ in range(k)]
        for (i, j), num in upper.items():
            gram[i][j], gram[j][i] = QmodZ(num, 2), QmodZ(-num, 2)
        w = SkewForm(make_group(inv), gram)
        calls.clear()
        assert qz.least_isotropic_basis(w, order) == want
        assert calls == [1] * work, (inv, len(calls), set(calls))


def test_least_isotropic_basis_never_backtracks_at_the_largest_order(monkeypatch):
    # 2 random forms per group type of order <= 1024 and rank >= 2, at the
    # largest isotropic order (the one max_isotropic asks): the search cuts
    # one annihilator for each nonzero row it places above the last index,
    # so exactly one per nonzero row of its answer there means that no
    # such row was placed and then abandoned
    import random
    from math import isqrt

    import splitbound.qzforms as qz

    calls = []
    annihilated = qz._annihilated
    monkeypatch.setattr(qz, "_annihilated", lambda w, xs, ys: calls.append(len(ys)) or annihilated(w, xs, ys))
    rng = random.Random(3)
    draws = 0
    for inv in iter_abelian_types(1024):
        g = make_group(inv)
        if g.rank < 2:
            continue
        for _ in range(2):
            w = random_form(rng, g)
            calls.clear()
            rows = qz.least_isotropic_basis(w, isqrt(g.order * radical(w).order))
            live = sum(row[i] != d for i, (row, d) in enumerate(zip(rows[:-1], g.invariants)))
            assert calls == [1] * live, (g.invariants, w.gram, rows, calls)
            draws += 1
    assert draws == 2296


def isotropic_bases_by_filter(w):
    """Exhaustive oracle: {order: set of isotropic Hermite bases}, from
    every subgroup basis and the pairwise isotropy filter."""
    from collections import defaultdict

    from splitbound.qzforms import _isotropic_basis

    out = defaultdict(set)
    for order, basis in bases_with_order(w):
        if _isotropic_basis(w, basis):
            out[order].add(basis)
    return out


@pytest.fixture(scope="session")
def standard_filter():
    """(invariants, standard module, isotropic_bases_by_filter as a dict)
    for every standard module with |A| <= 16 (|H| <= 256), filtered once
    for the tests that read it."""
    out = []
    for inv in iter_abelian_types(16):
        w = standard_module(make_group(inv))
        out.append((inv, w, dict(isotropic_bases_by_filter(w))))
    return out


def sparse_random_form(rng, g, zero_share=0.3):
    """Alternating form whose upper entries are zero with probability
    zero_share and uniform otherwise."""
    from math import gcd as _gcd

    k = g.rank
    gram = [[QmodZ.zero()] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < zero_share:
                continue
            cap = _gcd(g.invariants[i], g.invariants[j])
            v = QmodZ(rng.randrange(cap), cap)
            gram[i][j] = v
            gram[j][i] = -v
    return SkewForm(g, gram)


def assert_same_bases(got, expected, context):
    assert len(set(got)) == len(got), ("duplicate basis", context)
    assert set(got) == expected, context


def test_isotropic_bases_match_filter_on_standard_modules(standard_filter):
    # the Lagrangians of every standard module of order <= 256
    from math import isqrt

    for inv, w, by_order in standard_filter:
        lag = isqrt(w.group.order)
        assert_same_bases(list(iter_isotropic_bases(w, lag)), by_order[lag], inv)


def test_isotropic_bases_match_filter_on_random_forms():
    # every order dividing |H|, degenerate forms included
    import random

    from test_finabel import divisors

    rng = random.Random(31)
    degenerate = nondegenerate = 0
    for inv in iter_abelian_types(64):
        g = make_group(inv)
        for _ in range(4):
            w = sparse_random_form(rng, g)
            if is_nondegenerate(w):
                nondegenerate += 1
            else:
                degenerate += 1
            by_order = isotropic_bases_by_filter(w)
            for order in divisors(g.order):
                got = list(iter_isotropic_bases(w, order))
                assert_same_bases(got, by_order.get(order, set()), (inv, order, w.gram))
    assert degenerate and nondegenerate, (degenerate, nondegenerate)


def test_isotropic_counts_match_taylor():
    # totally isotropic k-subspaces of the symplectic space (Z/p)^{2n}:
    # [n choose k]_p * prod_{i=n-k+1}^{n} (p^i + 1) (Taylor, The Geometry of
    # the Classical Groups, 1992); no enumeration oracle is needed, so
    # (Z/2)^8 is checked at every order
    from math import prod

    def gaussian(n, k, q):
        num = prod(q ** (n - i) - 1 for i in range(k))
        return num // prod(q ** (i + 1) - 1 for i in range(k))

    for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)):
        w = standard_module(make_group([p] * n))
        for k in range(n + 1):
            expected = gaussian(n, k, p) * prod(p ** i + 1 for i in range(n - k + 1, n + 1))
            assert sum(1 for _ in iter_isotropic_bases(w, p ** k)) == expected, (p, n, k)


def test_radical_is_kept_on_the_form(monkeypatch):
    import splitbound.qzforms as qz

    calls = []
    orig = qz._pairing_kernel
    monkeypatch.setattr(
        qz, "_pairing_kernel", lambda w, rows, m: calls.append(m) or orig(w, rows, m)
    )
    w = standard_module(make_group([2, 4]))
    lam = base_lagrangian(w)
    for _ in range(3):
        assert radical(w).order == 1
        assert quotient_by_lagrangian(w, lam).invariants == (2, 4)
    assert len(calls) == 1
    # an equal but distinct form computes its own radical
    assert radical(standard_module(make_group([2, 4]))) == radical(w)
    assert len(calls) == 2


def test_max_isotropic_square_small():
    for inv in iter_abelian_types(12):
        w = standard_module(make_group(inv))
        mi = max_isotropic(w)
        assert mi.order * mi.order == w.group.order


def test_quotient_by_lagrangian():
    w4 = standard_module(make_group([4]))
    assert quotient_by_lagrangian(w4, base_lagrangian(w4)).invariants == (4,)

    w2 = standard_module(make_group([2]))
    s11 = subgroup_from_generators(w2.group, [w2.group.element((1, 1))])
    assert quotient_by_lagrangian(w2, s11).invariants == (2,)

    w22 = standard_module(make_group([2, 2]))
    for s in enumerate_subgroups(w22.group):
        if is_lagrangian(w22, s):
            assert quotient_by_lagrangian(w22, s).invariants == s.sub_invariants

    with pytest.raises(PreconditionError):
        quotient_by_lagrangian(w4, subgroup_from_generators(w4.group, []))


def test_lagrangian_self_duality_sweep():
    # invariants(H/L) == invariants(L) for every Lagrangian, |H| <= 64 here
    # (the acceptance suite covers |H| <= 256)
    for inv in iter_abelian_types(8):
        w = standard_module(make_group(inv))
        for s in enumerate_subgroups(w.group):
            if s.order ** 2 == w.group.order and is_isotropic(w, s):
                assert quotient(w.group, s).invariants == s.sub_invariants


# -- isotropic types (Littlewood-Richardson rule) ----------------------------------

def partitions(n, cap=None):
    """Every partition of n with parts at most cap, largest parts first."""
    if n == 0:
        yield ()
        return
    for v in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - v, v):
            yield (v, *rest)


def exponent_type(invariants, p):
    """The partition of p-exponents of a chain of p-powers."""
    from splitbound.finabel import _valuation

    return tuple(sorted((_valuation(d, p) for d in invariants), reverse=True))


def test_partitions_inside_lists_each_partition_once():
    from splitbound.finabel import _subpartitions
    from splitbound.qzforms import _partitions_inside

    for cap in ((), (1,), (5,), (4, 4), (3, 1), (3, 2, 2, 1), (1, 1, 1, 1), (6, 3, 3, 1)):
        every = _subpartitions(cap)
        for k in range(sum(cap) + 2):
            got = list(_partitions_inside(cap, k))
            assert len(set(got)) == len(got), (cap, k)
            assert set(got) == {nu for nu in every if sum(nu) == k}, (cap, k)
    # the search keeps its own stack: thousands of parts are no recursion
    assert list(_partitions_inside((1,) * 5000, 3000)) == [(1,) * 3000]


def test_lr_positivity_matches_subgroup_cotypes():
    # c^lam_{alpha beta} > 0 iff a p-group of type lam has a subgroup of type
    # alpha with quotient of type beta (Macdonald II (4.3)): checked on the
    # subgroups of every 2-group of order <= 64 and 3-group of order <= 27
    from splitbound.finabel import _subpartitions
    from splitbound.qzforms import _lr_positive

    for p, top in ((2, 6), (3, 3)):
        for n in range(top + 1):
            for lam in partitions(n):
                a = make_group([p ** x for x in lam])
                seen = {
                    (exponent_type(s.sub_invariants, p), exponent_type(quotient(a, s).invariants, p))
                    for s in enumerate_subgroups(a)
                }
                inside = _subpartitions(lam)
                lr = {(x, y) for x in inside for y in inside if _lr_positive(lam, x, y)}
                assert seen == lr, (p, lam, seen ^ lr)


def test_lagrangian_types_are_realised():
    # the rule keeps nu with c^{lam ∪ lam}_{nu nu} > 0; each alpha ∪ beta with
    # c^lam_{alpha beta} > 0 is the type of the Lagrangian B + B^perp, for B
    # <= A of type alpha and cotype beta.  The two sets are equal for every
    # lam with |lam| <= 12, so there the rule lists exactly the Lagrangian
    # types (isotropic_types cites this test)
    from splitbound.finabel import _subpartitions
    from splitbound.qzforms import _lagrangian_partitions, _lr_positive

    checked = 0
    for n in range(13):
        for lam in partitions(n):
            inside = _subpartitions(lam)
            realised = {
                tuple(sorted(alpha + beta, reverse=True))
                for alpha in inside for beta in inside
                if alpha >= beta and _lr_positive(lam, alpha, beta)
            }
            assert set(_lagrangian_partitions(lam)) == realised, lam
            checked += 1
    assert checked == 272


def isotropic_types_by_enumeration(w, order):
    g = w.group
    bases = iter_isotropic_bases(w, order)
    return sorted({Subgroup(g, basis).sub_invariants for basis in bases})


def test_isotropic_types_match_enumeration():
    # at every order dividing sqrt|H|: every standard module with |A| <= 16,
    # the cyclic modules Z/p^r x Z/p^r, and two seeded random nondegenerate
    # forms on each of 16 groups up to |H| = 4096 (not standard modules; of
    # the 2-groups of order 4096, (2,4,8)^2, (4,4,4)^2 and (2,2,2,8)^2 are
    # left out: their enumeration takes 9-64 s a form)
    import random

    from math import isqrt

    from test_finabel import divisors

    from splitbound.qzforms import isotropic_types

    def check(w):
        for d in divisors(isqrt(w.group.order)):
            assert isotropic_types(w, d) == isotropic_types_by_enumeration(w, d), (w.gram, d)

    for inv in iter_abelian_types(16):
        check(standard_module(make_group(inv)))
    for q in (32, 64, 128, 256, 27, 81, 243, 25, 125, 49):
        check(standard_module(make_group([q])))
    rng = random.Random(5)
    for a in ((64,), (2, 32), (4, 16), (8, 8), (27,), (3, 9), (3, 3, 3), (5, 5), (25,),
              (6,), (2, 6), (6, 6), (2, 12), (3, 6), (2, 2, 6), (2, 2, 2)):
        g = make_group([d for x in a for d in (x, x)])
        for _ in range(2):
            while not is_nondegenerate(w := random_form(rng, g)):
                pass
            check(w)


def test_isotropic_types_edges(monkeypatch):
    import splitbound.qzforms as qz
    from splitbound.errors import OutputBoundError
    from splitbound.qzforms import isotropic_types, standard_isotropic_types

    w = standard_module(make_group([2, 4]))
    assert isotropic_types(w, 1) == [()]
    assert isotropic_types(w, 3) == isotropic_types(w, 16) == []  # no such order
    assert isotropic_types(w, 8) == isotropic_types_by_enumeration(w, 8)
    assert isotropic_types(w, 8) == [(2, 2, 2), (2, 4)]
    with pytest.raises(PreconditionError):
        isotropic_types(w, 0)
    with pytest.raises(DegenerateFormError):
        isotropic_types(zero_form(make_group([2, 2])), 2)
    # the primes combine as in the subgroup census: (Z/6)^2 has the types of
    # (Z/2)^2 times those of (Z/3)^2
    assert standard_isotropic_types(make_group([6]), 6) == [(6,)]
    assert standard_isotropic_types(make_group([]), 1) == [()]
    # refused before listing: Z/2^4000 x Z/2^4000 has 2,001 Lagrangian types
    # (every type with two factors), of about 1,200 digits each
    with pytest.raises(OutputBoundError, match="^the isotropic types, more than 869, may print"):
        standard_isotropic_types(make_group([2 ** 4000]), 2 ** 4000)
    monkeypatch.setattr(qz, "MAX_LISTED", 1)
    assert standard_isotropic_types(make_group([2, 4]), 2) == [(2,)]
    with pytest.raises(OutputBoundError, match="^the isotropic types are more than the listing bound 1$"):
        standard_isotropic_types(make_group([2, 4]), 8)


# -- symplectic submodules ------------------------------------------------------

def test_symplectic_submodule():
    w = standard_module(make_group([2, 2, 2]))
    s1 = symplectic_submodule(w, 1)
    assert s1.sub_invariants == (2, 2)
    assert is_nondegenerate(restrict(w, s1))
    s2 = symplectic_submodule(w, 2)
    assert s2.sub_invariants == (2, 2, 2, 2)
    assert is_nondegenerate(restrict(w, s2))
    s3 = symplectic_submodule(w, 3)
    assert s3.order == w.group.order
    with pytest.raises(PreconditionError):
        symplectic_submodule(w, 4)
    with pytest.raises(PreconditionError):
        symplectic_submodule(standard_module(make_group([4])), 1)


def test_symplectic_submodule_on_random_forms():
    # every prefix of the greedy splitting is a nondegenerate (Z/p)^{2s}
    import random

    rng = random.Random(17)
    checked = 0
    for p, k in ((2, 4), (2, 6), (3, 4), (5, 4)):
        g = make_group([p] * k)
        for _ in range(12):
            w = random_form(rng, g)
            if not is_nondegenerate(w):
                with pytest.raises(DegenerateFormError):
                    symplectic_submodule(w, 1)
                continue
            for s in range(k // 2 + 1):
                sub = symplectic_submodule(w, s)
                assert sub.sub_invariants == (p,) * (2 * s), (w.gram, s)
                assert is_nondegenerate(restrict(w, sub)), (w.gram, s)
            checked += 1
    assert checked >= 15, checked


# -- isotropic transfer ----------------------------------------------------------

def _embeds_types(t1, binv):
    from splitbound.finabel import embeds_into
    return embeds_into(make_group(t1), make_group(binv))


def test_isotropic_transfer_examples():
    w2 = standard_module(make_group([2]))
    g = w2.group
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    lag = base_lagrangian(w2)
    i1, wit = isotropic_transfer(w2, full, lag)
    assert i1.order == 2
    assert (2 * i1.order) % full.order == 0

    w4 = standard_module(make_group([4]))
    g4 = w4.group
    full4 = subgroup_from_generators(g4, [g4.element((1, 0)), g4.element((0, 1))])
    triv = subgroup_from_generators(g4, [])
    i1, wit = isotropic_transfer(w4, full4, triv, search_min=True)
    assert i1.order >= 4
    assert is_isotropic(w4, i1)
    assert wit.min_order is not None and wit.min_order <= i1.order

    w22 = standard_module(make_group([2, 2]))
    h1 = symplectic_submodule(w22, 1)
    triv22 = subgroup_from_generators(w22.group, [])
    i1, wit = isotropic_transfer(w22, h1, triv22)
    assert h1.order % (4 * i1.order) == 0 or (4 * i1.order) % h1.order == 0
    assert (4 * i1.order) % h1.order == 0


def test_golden_transfer_witnesses():
    # I1 is read off the canonical basis of Lambda (the U^-1 of a Smith
    # form), so its bytes move with that basis; seeded H1 >= I over four
    # standard modules, I cyclic or, when isotropic, two-generated
    import hashlib
    import random

    rng = random.Random(24)
    digests = {}
    for inv in ((2, 2), (2, 4), (3, 3), (4, 4)):
        w = standard_module(make_group(inv))
        g = w.group
        h = hashlib.sha256()
        for _ in range(25):
            gens = [g.element(tuple(rng.randrange(d) for d in g.invariants))
                    for _ in range(rng.randrange(1, 4))]
            h1 = subgroup_from_generators(g, gens)
            elems = list(h1.elements())
            iso = subgroup_from_generators(g, [rng.choice(elems)])
            two = subgroup_from_generators(g, [rng.choice(elems), rng.choice(elems)])
            if is_isotropic(w, two):
                iso = two
            i1, wit = isotropic_transfer(w, h1, iso, search_min=True)
            h.update(repr((i1.basis, wit.i_max.basis, wit.lagrangian.basis,
                           wit.image_type, wit.min_order)).encode())
        digests[inv] = h.hexdigest()
    assert digests == {
        (2, 2): "86ec00f6f04b95be92c5a00472687dad9a6d96f969f2a20f6ea0f6205e8c6267",
        (2, 4): "92b42ab24c0d66d6bbd220d4dfdfbc8b42edb8ef065e34cc217acf6f97075aeb",
        (3, 3): "b2e73c197230153ffc496ae16357679dfab2b76bb2e7b4b3c4c534d837a5fd03",
        (4, 4): "663dcdd8f5cd020d4ab0c6f57b50a6a06a8612bb37860d5762017bf652d01122",
    }


def test_golden_transfer_witnesses_at_rank_64():
    # two seeded transfers on the (Z/2)^32 standard module, H1 spanned by
    # 32 random elements: one with I = 0, one with I spanned by the random
    # H1 elements that pair to zero with those kept before them
    import hashlib
    import random

    w = standard_module(make_group([2] * 32))
    g = w.group
    rng = random.Random(64)
    digests = []
    for with_iso in (False, True):
        h1 = subgroup_from_generators(
            g, [g.element(tuple(rng.randrange(2) for _ in range(64))) for _ in range(32)])
        kept = []
        if with_iso:
            for _ in range(12):
                x = g.element((0,) * 64)
                for row in h1.basis:
                    if rng.randrange(2):
                        x = x + g.element(row)
                if all(evaluate(w, x, y).is_zero() for y in kept):
                    kept.append(x)
        iso = subgroup_from_generators(g, kept)
        assert iso.order > 1 if with_iso else iso.order == 1
        i1, wit = isotropic_transfer(w, h1, iso, search_min=True)
        digests.append([
            hashlib.sha256(repr(x).encode()).hexdigest()
            for x in (i1.basis, wit.i_max.basis, wit.lagrangian.basis, wit.image_type, wit.min_order)
        ])
    assert digests == [
        ["ed2663eb77862dd7722e23f318d60c41b18e41b8cb68699a5ce866cfe0a60d37",
         "4149a4604c83c7f6a97d59a6d6f5efa3b9aeda3e191c8dee94a0392836f64ef7",
         "dc7746d63d5c9e379183e0c8aeb7876ad09abe7ff27749344b5ee30988557517",
         "a98b9ec996e5877a5a0988a9ee0944abbeab3f6b4cc318326bc13fcfa8469d4b",
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"],
        ["d158da39aea3321b2c0a748004166c47ceb61d90a86c46ada9cfe10b17418ffe",
         "ef4a5ede5f3e93f7fb6408c8336e22a800e1fb988190aa2f8376b7daa3b89c4e",
         "dc8b00dcf5796e402cf9a654b0ae788e15524116dafd83784383f43e3ec23b65",
         "a98b9ec996e5877a5a0988a9ee0944abbeab3f6b4cc318326bc13fcfa8469d4b",
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"],
    ]


def test_isotropic_transfer_cuts_the_annihilator_by_one_row_per_step(monkeypatch):
    # each extension takes one annihilator of within against I, then cuts it
    # by the one row it adds: one pairing row per call after the first, and
    # one call per added row, plus one that finds no row unless the result
    # is a Lagrangian; seeded H1 on the (Z/2)^8 standard module, I = 0 or
    # spanned by a random element of H1
    import random

    import splitbound.qzforms as qz

    runs = []
    annihilated = qz._annihilated
    extend = qz._extend_isotropic
    monkeypatch.setattr(qz, "_extend_isotropic", lambda *a: runs.append([]) or extend(*a))
    monkeypatch.setattr(qz, "_annihilated", lambda w, xs, ys: runs[-1].append(len(ys)) or annihilated(w, xs, ys))
    w = standard_module(make_group([2] * 8))
    g = w.group
    rng = random.Random(8)
    for _ in range(6):
        h1 = subgroup_from_generators(
            g, [g.element(tuple(rng.randrange(2) for _ in range(16))) for _ in range(rng.randrange(4, 13))])
        gens = []
        if rng.randrange(2):
            gens = [g.element(rng.choice(h1.basis))]
        iso = subgroup_from_generators(g, gens)
        runs.clear()
        i1, wit = isotropic_transfer(w, h1, iso)
        assert len(runs) == 2
        for run, lo, hi in ((runs[0], iso, wit.i_max), (runs[1], wit.i_max, wit.lagrangian)):
            added = (hi.order // lo.order).bit_length() - 1
            assert len(run) == added + (hi.order ** 2 != g.order), (h1.basis, iso.basis, run)
            assert run[1:] == [1] * (len(run) - 1), (h1.basis, iso.basis, run)


def test_isotropic_transfer_errors():
    w2 = standard_module(make_group([2]))
    g = w2.group
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    with pytest.raises(PreconditionError):
        isotropic_transfer(w2, full, full)  # full group is not isotropic
    lag = base_lagrangian(w2)
    other = subgroup_from_generators(g, [g.element((0, 1))])
    with pytest.raises(PreconditionError):
        isotropic_transfer(w2, other, lag)  # containment violated
    with pytest.raises(DegenerateFormError):
        isotropic_transfer(
            zero_form(make_group([2, 2])),
            subgroup_from_generators(make_group([2, 2]), []),
            subgroup_from_generators(make_group([2, 2]), []),
        )


def test_isotropic_transfer_answers_above_the_limit():
    # the limit is not read, and the (Z/2)^10 standard module (|H| = 2^20,
    # far above the default limit) transfers at once
    import time

    w = standard_module(make_group([2]))
    g = w.group
    full = full_subgroup(g)
    triv = subgroup_from_generators(g, [])
    assert isotropic_transfer(w, full, triv, limit=2) == isotropic_transfer(w, full, triv)

    w = standard_module(make_group([2] * 10))
    g = w.group
    start = time.perf_counter()
    i1, wit = isotropic_transfer(w, full_subgroup(g), trivial_subgroup(g), search_min=True)
    assert time.perf_counter() - start < 1.0
    # H1 = H, so I_max is a Lagrangian and I1 is all of it
    assert is_lagrangian(w, wit.lagrangian) and wit.i_max == wit.lagrangian
    assert i1 == wit.lagrangian and wit.min_order == 1024


def test_isotropic_transfer_answers_without_enumerators(monkeypatch):
    import random

    import splitbound.qzforms as qz

    def refuse(*args, **kwargs):
        raise AssertionError("isotropic_transfer enumerated subgroups")

    monkeypatch.setattr(qz, "iter_isotropic_bases", refuse)
    monkeypatch.setattr(qz, "_iter_bases_general", refuse)
    rng = random.Random(12)
    for inv in ((2, 2), (4, 2), (3, 9), (2, 2, 2), (8, 4, 2)):
        w = standard_module(make_group(list(inv)))
        g = w.group
        for _ in range(12):
            gens = [
                g.element([rng.randrange(d) for d in g.invariants])
                for _ in range(rng.randrange(1, 4))
            ]
            h1 = subgroup_from_generators(g, gens)
            iso = subgroup_from_generators(g, gens[:1])
            i1, wit = isotropic_transfer(w, h1, iso, search_min=True)
            assert wit.lagrangian.contains_subgroup(i1) and wit.min_order is not None


# every (H1, I isotropic in H1) pair of the standard module on A x A*
TRANSFER_PAIRS = {
    (2,): 11, (3,): 14, (4,): 62, (2, 2): 382, (5,): 20,
    (6,): 154, (7,): 26, (8,): 256, (2, 4): 2788, (2, 2, 2): 49652,
}


@pytest.mark.parametrize("inv", list(TRANSFER_PAIRS))
def test_isotropic_transfer_exhaustive(inv):
    w = standard_module(make_group(list(inv)))
    g = w.group
    n = make_group(list(inv)).order
    subs = enumerate_subgroups(g)
    members = {s.basis: frozenset(e.coords for e in s.elements()) for s in subs}
    iso_list = [s for s in subs if is_isotropic(w, s)]
    embed_cache = {}
    quot_cache = {}
    pairs = 0
    for h1 in subs:
        for iso in iso_list:
            if not members[iso.basis] <= members[h1.basis]:
                continue
            pairs += 1
            i1, wit = isotropic_transfer(w, h1, iso)
            assert is_isotropic(w, i1)
            assert (n * i1.order) % h1.order == 0
            key = (h1.basis, iso.basis)
            if key not in quot_cache:
                from splitbound.qzforms import _subgroup_quotient_type
                quot_cache[key] = _subgroup_quotient_type(h1, iso)
            ekey = (i1.sub_invariants, quot_cache[key])
            if ekey not in embed_cache:
                embed_cache[ekey] = _embeds_types(ekey[0], list(ekey[1]))
            assert embed_cache[ekey], (inv, h1.basis, iso.basis)
    assert pairs == TRANSFER_PAIRS[inv]


class BitmaskWorkspace:
    """Element-indexed tables of a form: every subgroup in canonical order,
    the bitmask of its elements and its isotropy flag."""

    def __init__(self, w):
        g = w.group
        self.index = {e.coords: i for i, e in enumerate(g.elements())}
        self.subgroups = enumerate_subgroups(g)
        self.masks = [self.mask(s) for s in self.subgroups]
        self.isotropic = [is_isotropic(w, s) for s in self.subgroups]

    def mask(self, s):
        m = 0
        for e in s.elements():
            m |= 1 << self.index[e.coords]
        return m

    def pairs(self):
        """Every (H1, I) with I isotropic and contained in H1."""
        iso = [(s, m) for s, m, f in zip(self.subgroups, self.masks, self.isotropic) if f]
        return [
            (h1, s)
            for h1, h1_mask in zip(self.subgroups, self.masks)
            for s, m in iso
            if not m & ~h1_mask
        ]


def transfer_oracle(ws, n, h1, iso, search_min=False):
    """The first-candidate transfer, by containment of element bitmasks over
    every subgroup in canonical order; n = sqrt|H|."""
    from splitbound.finabel import FinAbGroup, embeds_into
    from splitbound.qzforms import TransferWitness, _subgroup_quotient_type

    h1_mask, iso_mask = ws.mask(h1), ws.mask(iso)
    i_max = next(
        s for s, m, f in zip(ws.subgroups, ws.masks, ws.isotropic)
        if f and not m & ~h1_mask and not iso_mask & ~m
    )
    imax_mask = ws.mask(i_max)
    lag = next(
        s for s, m, f in zip(ws.subgroups, ws.masks, ws.isotropic)
        if f and s.order == n and not imax_mask & ~m
    )
    lag_mask = ws.mask(lag)
    assert lag_mask & h1_mask == imax_mask
    image_type = _subgroup_quotient_type(h1, i_max)
    i1 = next(
        s for s, m in zip(ws.subgroups, ws.masks)
        if not m & ~lag_mask and s.sub_invariants == image_type
    )
    min_order = None
    if search_min:
        hi_group = FinAbGroup(_subgroup_quotient_type(h1, iso))
        for s, f in zip(reversed(ws.subgroups), reversed(ws.isotropic)):
            if f and (n * s.order) % h1.order == 0 and embeds_into(
                FinAbGroup(s.sub_invariants), hi_group
            ):
                min_order = s.order
                break
    return i1, TransferWitness(i_max, lag, image_type, min_order)


def assert_transfer_matches_oracle(w, pairs, ws):
    """|I_max| and min_order equal the oracle's; the subgroups themselves
    may be other choices, so they are checked as the lemma states them."""
    from math import isqrt

    from splitbound.qzforms import _subgroup_quotient_type

    n = isqrt(w.group.order)
    iso_masks = [m for m, f in zip(ws.masks, ws.isotropic) if f]
    for h1, iso in pairs:
        h1_mask, iso_mask = ws.mask(h1), ws.mask(iso)
        hi_type = list(_subgroup_quotient_type(h1, iso))
        for search_min in (False, True):
            context = (h1, iso, search_min)
            i1, wit = isotropic_transfer(w, h1, iso, search_min=search_min)
            _, want = transfer_oracle(ws, n, h1, iso, search_min)
            assert wit.i_max.order == want.i_max.order, context
            assert wit.min_order == want.min_order, context
            assert search_min or wit.min_order is None, context
            imax_mask = ws.mask(wit.i_max)
            lag_mask = ws.mask(wit.lagrangian)
            # I <= I_max <= H1, isotropic, and no isotropic subgroup of H1
            # lies strictly above it
            assert not iso_mask & ~imax_mask and not imax_mask & ~h1_mask, context
            assert is_isotropic(w, wit.i_max), context
            assert not any(
                m != imax_mask and not imax_mask & ~m and not m & ~h1_mask
                for m in iso_masks
            ), context
            # Lambda: isotropic of order n over I_max, meeting H1 in I_max
            assert wit.lagrangian.order == n and is_isotropic(w, wit.lagrangian), context
            assert not imax_mask & ~lag_mask and lag_mask & h1_mask == imax_mask, context
            # I1 <= Lambda of type H1/I_max, which embeds in H1/I
            assert not ws.mask(i1) & ~lag_mask, context
            assert wit.image_type == _subgroup_quotient_type(h1, wit.i_max), context
            assert i1.sub_invariants == wit.image_type, context
            assert _embeds_types(i1.sub_invariants, hi_type), context
            assert (n * i1.order) % h1.order == 0, context


def test_isotropic_transfer_matches_oracle_on_every_small_pair():
    # every pair of every standard module with |A| <= 8 but (Z/2)^3, whose
    # 49,652 pairs are sampled below
    modules = 0
    for inv in iter_abelian_types(8):
        if inv == (2, 2, 2):
            continue
        w = standard_module(make_group(inv))
        ws = BitmaskWorkspace(w)
        assert_transfer_matches_oracle(w, ws.pairs(), ws)
        modules += 1
    assert modules == 10


def test_isotropic_transfer_matches_oracle_on_seeded_pairs():
    import random

    w = standard_module(make_group([2, 2, 2]))
    ws = BitmaskWorkspace(w)
    pairs = ws.pairs()
    assert len(pairs) == TRANSFER_PAIRS[(2, 2, 2)]
    assert_transfer_matches_oracle(w, random.Random(8).sample(pairs, 2000), ws)


def seeded_symplectic_forms():
    """The standard modules with |A| <= 16, and the nondegenerate ones among
    six random forms (seed 41) on each group of order <= 64."""
    import random

    standard = [standard_module(make_group(inv)) for inv in iter_abelian_types(16)]
    rng = random.Random(41)
    nondegenerate = []
    for inv in iter_abelian_types(64):
        g = make_group(inv)
        for _ in range(6):
            w = random_form(rng, g)
            if is_nondegenerate(w):
                nondegenerate.append(w)
    return standard, nondegenerate


def test_isotropic_bases_at_every_order_match_the_isotropy_filter(standard_filter):
    # iter_isotropic_bases at each order d against the isotropy filter of
    # every subgroup, on every standard module with |A| <= 16 (the shared
    # filter) and on random symplectic forms (the is_isotropic filter of
    # the canonical subgroup list)
    from test_finabel import divisors

    def check(w, by_order):
        for d in divisors(w.group.order):
            got = list(iter_isotropic_bases(w, d))
            assert_same_bases(got, by_order.get(d, set()), (w.gram, d))

    standard, nondegenerate = seeded_symplectic_forms()
    assert [w.gram for w in standard] == [w.gram for _, w, _ in standard_filter]
    for _, w, by_order in standard_filter:
        check(w, by_order)
    for w in nondegenerate:
        by_order = {}
        for s in enumerate_subgroups(w.group):
            if is_isotropic(w, s):
                by_order.setdefault(s.order, set()).add(s.basis)
        check(w, by_order)
    assert len(nondegenerate) >= 20, len(nondegenerate)


def test_isotropic_recursion_keeps_the_oracle_order():
    # the isotropy cut of _iter_bases_general against the generate-and-test
    # recursion with an admit built from evaluate, at every order (and at
    # none), in the oracle's yield order
    from functools import lru_cache

    from test_finabel import assert_same_stream, divisors, hermite_bases_oracle

    from splitbound.finabel import _iter_bases_general

    standard, nondegenerate = seeded_symplectic_forms()
    for w in standard + nondegenerate:
        g = w.group

        @lru_cache(maxsize=None)
        def pairs_to_zero_with(u, v):
            return evaluate(w, g.element(u), g.element(v)) == QmodZ.zero()

        def pairs_to_zero(row, kept):
            return all(pairs_to_zero_with(row, v) for v in kept)

        for d in [None, *divisors(g.order)]:
            assert_same_stream(_iter_bases_general(g.invariants, d, pairs_to_zero),
                               hermite_bases_oracle(g.invariants, d, pairs_to_zero),
                               (w.gram, d))
            if d is not None:
                assert_same_stream(iter_isotropic_bases(w, d),
                                   hermite_bases_oracle(g.invariants, d, pairs_to_zero),
                                   (w.gram, d))


def test_kept_row_pairing_holds_no_state_between_streams():
    # iter_isotropic_bases keeps the paired kept rows of its last step; two
    # streams advanced in alternation, on two forms or on one form at two
    # orders, must each give exactly the stream of the _pair_value filter
    import random

    from test_finabel import hermite_bases_oracle

    from splitbound.qzforms import _pair_value

    def oracle(w, order):
        scaled, n, k = w.scaled(), w.exponent, w.group.rank

        def pairs_to_zero(row, kept):
            return all(_pair_value(scaled, n, row, v, k) == 0 for v in kept)

        return list(hermite_bases_oracle(w.group.invariants, order, pairs_to_zero))

    def alternated(streams):
        got = [[] for _ in streams]
        live = list(range(len(streams)))
        while live:
            for i in list(live):
                basis = next(streams[i], None)
                if basis is None:
                    live.remove(i)
                else:
                    got[i].append(basis)
        return got

    rng = random.Random(43)
    forms = [standard_module(make_group(inv)) for inv in ([2, 4], [3, 3], [2, 2, 2])]
    forms += [random_form(rng, make_group(inv)) for inv in ([2, 4, 4], [4, 8], [2, 6, 6])]
    runs = 0
    for w1, w2 in zip(forms, forms[1:] + forms[:1]):
        o1, o2 = max_isotropic(w1).order, max_isotropic(w2).order
        p = next(p for p in range(2, o1 + 1) if o1 % p == 0)
        for (a, d1), (b, d2) in (((w1, o1), (w2, o2)), ((w1, o1), (w1, o1 // p)),
                                  ((w1, None), (w1, o1))):
            streams = [iter_isotropic_bases(a, d1), iter_isotropic_bases(b, d2)]
            got = alternated(streams)
            assert got == [oracle(a, d1), oracle(b, d2)], (a.gram, d1, b.gram, d2)
            runs += min(map(len, got)) > 1
    assert runs >= 12, runs


def subgroup_quotient_type_oracle(h1, inner):
    """H1/inner through an |H1|-element table: coordinates of every element
    of inner over H1's canonical basis, then the quotient of that span."""
    from itertools import product

    from splitbound.finabel import Element, FinAbGroup

    basis = h1.canonical_basis()
    a1 = FinAbGroup(h1.sub_invariants)
    if not basis:
        return ()
    table = {}
    for coords in product(*(range(d) for d in a1.invariants)):
        total = None
        for c, b in zip(coords, basis):
            term = c * b
            total = term if total is None else total + term
        table[total.coords] = coords
    gens = [Element(a1, table[e.coords]) for e in inner.elements()]
    return quotient(a1, subgroup_from_generators(a1, gens)).invariants


def test_subgroup_quotient_type_matches_element_table():
    # the cokernel of inner's rows over H1's Hermite basis against the
    # element-table oracle, every nested pair of every group of order <= 32
    from splitbound.qzforms import _subgroup_quotient_type

    pairs = 0
    for inv in iter_abelian_types(32):
        subs = enumerate_subgroups(make_group(inv))
        for h1 in subs:
            for inner in subs:
                if not h1.contains_subgroup(inner):
                    continue
                want = subgroup_quotient_type_oracle(h1, inner)
                assert _subgroup_quotient_type(h1, inner) == want, (inv, h1, inner)
                pairs += 1
    assert pairs == 9754


def test_isotropic_transfer_decides_nondegeneracy_once(monkeypatch):
    # repeated transfers on one form decide its nondegeneracy once (the
    # verdict is kept on the form) and build no radical, and a degenerate
    # form is refused every time
    import splitbound.qzforms as qz

    fresh = []
    orig = qz.is_nondegenerate
    monkeypatch.setattr(
        qz, "is_nondegenerate", lambda w: fresh.append(w._nondegenerate is None) or orig(w)
    )
    w = standard_module(make_group([2]))
    g = w.group
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    triv = subgroup_from_generators(g, [])
    for _ in range(3):
        isotropic_transfer(w, full, triv)
    assert fresh == [True, False, False]
    z = zero_form(make_group([2, 2]))
    triv2 = subgroup_from_generators(z.group, [])
    for _ in range(2):
        with pytest.raises(DegenerateFormError):
            isotropic_transfer(z, triv2, triv2)
    assert fresh == [True, False, False, True, False]
    assert w._radical is None and z._radical is None
