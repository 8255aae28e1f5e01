import pytest

from splitbound.errors import (
    AmbientMismatchError,
    DegenerateFormError,
    EnumerationBoundError,
    InvalidFormError,
    PreconditionError,
)
from splitbound.finabel import (
    QmodZ,
    Subgroup,
    enumerate_subgroups,
    make_group,
    quotient,
    subgroup_from_generators,
)
from splitbound.qzforms import (
    MaxIsotropic,
    SkewForm,
    evaluate,
    is_isotropic,
    is_lagrangian,
    is_nondegenerate,
    isotropic_transfer,
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


def max_isotropic_oracle(w):
    """Two-pass exhaustive search: the largest isotropic order, then the
    least canonical basis and every type at that order."""
    from splitbound.qzforms import _isotropic_basis, _iter_bases_with_order

    g = w.group
    best = 0
    for order, basis in _iter_bases_with_order(w, None):
        if order > best and _isotropic_basis(w, basis):
            best = order
    witness_basis = None
    types = set()
    for order, basis in _iter_bases_with_order(w, None):
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


def test_skewform_validation():
    g = make_group([2, 2])
    with pytest.raises(InvalidFormError):
        SkewForm(g, [[QmodZ(1, 2), QmodZ(0, 1)], [QmodZ(0, 1), QmodZ(0, 1)]])
    with pytest.raises(InvalidFormError):
        SkewForm(g, [[QmodZ(0, 1), QmodZ(1, 4)], [QmodZ(3, 4), QmodZ(0, 1)]])
    with pytest.raises(InvalidFormError):
        SkewForm(g, [[QmodZ(0, 1)]])


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


def test_max_isotropic_matches_oracle_on_standard_modules():
    # order sqrt(|H| |Rad|), witness and types against exhaustive search,
    # every standard module of order <= 256
    for inv in iter_abelian_types(16):
        w = standard_module(make_group(inv))
        assert max_isotropic(w) == max_isotropic_oracle(w), inv


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


def test_isotropic_transfer_checks_limit_on_every_call():
    # a cached workspace must not let a later, smaller limit through
    w = standard_module(make_group([2]))
    g = w.group
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    triv = subgroup_from_generators(g, [])
    isotropic_transfer(w, full, triv)
    with pytest.raises(EnumerationBoundError):
        isotropic_transfer(w, full, triv, limit=2)


@pytest.mark.parametrize("inv", [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)])
def test_isotropic_transfer_exhaustive(inv):
    # every (H1, I isotropic in H1) pair of the standard module on A x A*
    w = standard_module(make_group(list(inv)))
    g = w.group
    n = make_group(list(inv)).order
    from splitbound.qzforms import _workspace

    ws = _workspace(w, None)
    iso_list = [
        (s, m) for s, m, flag in zip(ws.subgroups, ws.masks, ws.isotropic) if flag
    ]
    embed_cache = {}
    quot_cache = {}
    pairs = 0
    for h1, h1_mask in zip(ws.subgroups, ws.masks):
        for iso, iso_mask in iso_list:
            if iso_mask & ~h1_mask:
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
    assert pairs > 0


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


def test_isotropic_transfer_checks_nondegeneracy_once(monkeypatch):
    # the radical is computed until a workspace exists, and never after;
    # a degenerate form builds no workspace, so it is refused every time
    import splitbound.qzforms as qz

    calls = []
    orig = qz.is_nondegenerate
    monkeypatch.setattr(qz, "is_nondegenerate", lambda w: calls.append(w) or orig(w))
    w = standard_module(make_group([2]))
    g = w.group
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    triv = subgroup_from_generators(g, [])
    for _ in range(3):
        isotropic_transfer(w, full, triv)
    assert len(calls) == 1
    z = zero_form(make_group([2, 2]))
    triv2 = subgroup_from_generators(z.group, [])
    for _ in range(2):
        with pytest.raises(DegenerateFormError):
            isotropic_transfer(z, triv2, triv2)
    assert len(calls) == 3
