import random
from itertools import product
from math import isqrt

import pytest

from splitbound.errors import (
    AmbientMismatchError,
    NotAbelianInPglError,
    NotPGroupError,
    NotScalarError,
    SplitboundError,
)
from splitbound.finabel import (
    QmodZ,
    dual_group,
    enumerate_subgroups,
    eval_character,
    make_group,
)
from splitbound.heisenberg import (
    MonomialMatrix,
    PglSubgroup,
    ProjectiveElement,
    _decode,
    _interleave,
    alpha_form,
    commutator,
    depth,
    diag_matrix,
    identity_matrix,
    is_toral,
    perm_matrix,
    phi,
    phi_image,
    phi_span,
    scalar_exponent,
)
from splitbound.qzforms import (
    SkewForm,
    is_isotropic,
    is_nondegenerate,
    radical,
    standard_module,
)
from splitbound.verify import commutator_gram, iter_abelian_types


def matrix_closure(gens):
    """Reference model: canonical key -> ProjectiveElement for every
    product of the generators, by breadth-first search over matrices."""
    one = ProjectiveElement(identity_matrix(gens[0].lift.group))
    seen = {one.key: one}
    frontier = [one]
    while frontier:
        nxt = []
        for pe in frontier:
            for g in gens:
                cand = pe * g
                if cand.key not in seen:
                    seen[cand.key] = cand
                    nxt.append(cand)
        frontier = nxt
    return seen


class ElementTable:
    """Reference model of the index set: the lex element list of A and its
    index dict, looked up entry by entry, with eval_character per entry."""

    def __init__(self, group):
        self.group = group
        self.coords = [e.coords for e in group.elements()]
        self.index = {c: i for i, c in enumerate(self.coords)}

    def identity(self):
        n = len(self.coords)
        return MonomialMatrix(self.group, range(n), (0,) * n)

    def perm(self, a):
        inv = self.group.invariants
        image = [self.index[tuple((x + y) % d for x, y, d in zip(c, a.coords, inv))]
                 for c in self.coords]
        return MonomialMatrix(self.group, image, (0,) * len(image))

    def diag(self, chi):
        n = self.group.exponent
        entries = []
        for c in self.coords:
            v = eval_character(chi, self.group.element(c))
            entries.append(v.num * (n // v.den) % n)
        return MonomialMatrix(self.group, range(len(entries)), entries)


def test_index_arithmetic_matches_the_element_table():
    # identity, P_a and D_chi from mixed-radix indices against the element
    # table, on every element and character of every |A| <= 64; decoding
    # phi(a, chi) from its index arithmetic gives (a, chi) back
    rng = random.Random(24)
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        dual = dual_group(a)
        table = ElementTable(a)
        assert identity_matrix(a) == table.identity()
        for x in a.elements():
            assert perm_matrix(x) == table.perm(x), (inv, x)
        for chi in dual.elements():
            assert diag_matrix(chi) == table.diag(chi), (inv, chi)
        for _ in range(8):
            x = a.element(tuple(rng.randrange(d) for d in inv))
            chi = dual.element(tuple(rng.randrange(d) for d in inv))
            assert _decode(phi(x, chi)) == _interleave(x.coords, chi.coords)


def test_perm_matrix_examples():
    a = make_group([2])
    assert perm_matrix(a.zero()).is_identity()
    swap = perm_matrix(a.element((1,)))
    assert swap.perm == (1, 0) and swap.diag == (0, 0)
    b = make_group([2, 4])
    for x in b.elements():
        for y in b.elements():
            assert perm_matrix(x) * perm_matrix(y) == perm_matrix(x + y)


def test_diag_matrix_examples():
    a = make_group([2])
    dual = dual_group(a)
    assert diag_matrix(dual.zero()).is_identity()
    d = diag_matrix(dual.element((1,)))
    assert d.perm == (0, 1) and d.diag == (0, 1)  # diag(1, -1) as exponents
    b = dual_group(make_group([4]))
    for x in b.elements():
        for y in b.elements():
            assert diag_matrix(x) * diag_matrix(y) == diag_matrix(x + y)


def test_matrix_group_axioms():
    a = make_group([2, 4])
    rng = random.Random(5)
    mats = []
    dual = dual_group(a)
    for _ in range(6):
        x = a.element(tuple(rng.randrange(d) for d in a.invariants))
        chi = dual.element(tuple(rng.randrange(d) for d in a.invariants))
        mats.append(perm_matrix(x) * diag_matrix(chi))
    e = identity_matrix(a)
    for m in mats:
        assert m * m.inverse() == e
        assert m.inverse() * m == e
        assert m * e == m and e * m == m
    for m1 in mats:
        for m2 in mats:
            for m3 in mats:
                assert (m1 * m2) * m3 == m1 * (m2 * m3)


def test_trusted_matrix_products_build_what_the_checked_constructor_builds():
    # a product and a rescaling build their result without the checking
    # constructor; each must equal MonomialMatrix(...) on the raw exponent
    # sums, and matrices over other invariants are refused
    from test_finabel import drawn_chain

    from splitbound.finabel import FinAbGroup

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def drawn(data):
        draw = data.draw
        g = drawn_chain(draw, st, 64)
        n, size = g.exponent, g.order

        def matrix(group):
            perm = draw(st.permutations(range(size)))
            raw = draw(st.lists(st.integers(-3 * n, 3 * n), min_size=size, max_size=size))
            return MonomialMatrix(group, perm, raw)

        def built(m, perm, raw):
            assert type(m.perm) is tuple and type(m.diag) is tuple and m.group is g
            want = MonomialMatrix(g, perm, raw)
            assert (m.perm, m.diag) == (want.perm, want.diag)

        x, y = matrix(g), matrix(g)
        built(x * y, [x.perm[c] for c in y.perm],
              [d + x.diag[c] for d, c in zip(y.diag, y.perm)])
        e = draw(st.integers(-3 * n, 3 * n))
        built(x.scale(e), x.perm, [d + e for d in x.diag])
        twin = matrix(FinAbGroup(g.invariants))
        assert (x * twin).group is g and x * twin == x * MonomialMatrix(g, twin.perm, twin.diag)
        other = identity_matrix(make_group(g.invariants + (2,)))
        for mixed in (lambda: x * other, lambda: other * x):
            with pytest.raises(AmbientMismatchError):
                mixed()

    drawn()


def test_braiding_identity():
    # D_chi P_a == chi(a) P_a D_chi, all pairs for |A| <= 16
    for inv in iter_abelian_types(16):
        a = make_group(inv)
        dual = dual_group(a)
        n = a.exponent
        for x in a.elements():
            px = perm_matrix(x)
            for chi in dual.elements():
                dc = diag_matrix(chi)
                v = eval_character(chi, x)
                assert dc * px == (px * dc).scale(v.num * (n // v.den))


def test_commutator_examples():
    a = make_group([2])
    dual = dual_group(a)
    p1 = perm_matrix(a.element((1,)))
    d1 = diag_matrix(dual.element((1,)))
    assert commutator(p1, p1).is_identity()
    assert scalar_exponent(commutator(p1, d1)) == QmodZ(1, 2)  # -Id

    for inv in ([4], [2, 2], [3]):
        g = make_group(inv)
        dg = dual_group(g)
        for x in g.elements():
            for chi in dg.elements():
                for y in g.elements():
                    for mu in dg.elements():
                        m1 = perm_matrix(x) * diag_matrix(chi)
                        m2 = perm_matrix(y) * diag_matrix(mu)
                        c = commutator(m1, m2)
                        assert c.is_scalar()
                        assert scalar_exponent(c) == eval_character(chi, y) - eval_character(mu, x)


def test_commutators_scalar_across_phi_images():
    # lifts of any two elements of phi(A x A*) have a scalar commutator
    from splitbound.verify import iter_abelian_types

    for inv in iter_abelian_types(8):
        a = make_group(inv)
        elems = list(phi_image(a).elements().values())
        for x in elems:
            for y in elems:
                assert commutator(x.lift, y.lift).is_scalar()


def test_scalar_exponent_errors():
    a = make_group([2])
    with pytest.raises(NotScalarError):
        scalar_exponent(perm_matrix(a.element((1,))))
    assert scalar_exponent(identity_matrix(a)) == QmodZ.zero()


def test_projective_equality_mod_scalars():
    a = make_group([4])
    dual = dual_group(a)
    pe = phi(a.element((1,)), dual.element((2,)))
    twisted = ProjectiveElement(pe.lift.scale(3))
    assert pe == twisted
    assert hash(pe) == hash(twisted)
    assert phi(a.zero(), dual.zero()).is_identity()


def test_phi_injective_and_order():
    for inv in iter_abelian_types(8):
        a = make_group(inv)
        h = phi_image(a)
        assert h.order == a.order ** 2


def test_alpha_form_matches_standard_module():
    for inv in iter_abelian_types(8):
        a = make_group(inv)
        w = alpha_form(phi_image(a))
        sm = standard_module(a)
        assert w.group == sm.group
        assert w.gram == sm.gram


def test_alpha_form_zero_on_lifted_diagonal():
    a = make_group([4])
    dual = dual_group(a)
    h = PglSubgroup([phi(a.zero(), dual.element((1,)))])
    assert alpha_form(h).is_zero()
    assert is_toral(h)


def test_alpha_form_nondegenerate_on_phi_image():
    w = alpha_form(phi_image(make_group([4])))
    assert is_nondegenerate(w)


def test_not_abelian_rejection():
    # lifts of phi elements generically do not commute, yet the subgroup is
    # abelian in PGL: certification must accept it
    a = make_group([2, 2])
    dual = dual_group(a)
    x = phi(a.element((1, 0)), dual.zero())
    y = phi(a.element((0, 1)), dual.element((1, 0)))
    assert not (x.lift * y.lift == y.lift * x.lift)
    PglSubgroup([x, y]).certify_abelian()

    # a transposition that is not a translation does not commute with P_a
    # even projectively, so certification must refuse the pair
    bad = ProjectiveElement(MonomialMatrix(a, (0, 2, 1, 3), (0, 0, 0, 0)))
    pe1 = ProjectiveElement(perm_matrix(a.element((1, 0))))
    assert not commutator(pe1.lift, bad.lift).is_scalar()
    with pytest.raises(NotAbelianInPglError):
        PglSubgroup([pe1, bad]).certify_abelian()


def test_is_toral_examples():
    a = make_group([4])
    dual = dual_group(a)
    assert is_toral(PglSubgroup([phi(a.zero(), dual.element((1,)))]))
    assert is_toral(PglSubgroup([phi(a.zero(), dual.zero())]))
    assert not is_toral(phi_image(a))
    assert not is_toral(phi_image(make_group([2])))


def test_is_toral_matches_alpha_form_zero():
    # the isotropy test against the zero test of the restricted Gram
    # matrix, on seeded phi_span subgroups for every |A| <= 64
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        dual = dual_group(a)
        for _ in range(8):
            pairs = [
                (
                    a.element(tuple(rng.randrange(d) for d in a.invariants)),
                    dual.element(tuple(rng.randrange(d) for d in a.invariants)),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            h = phi_span(a, pairs)
            toral = is_toral(h)
            assert toral == alpha_form(h).is_zero(), (inv, pairs)
            seen[toral] += 1
    assert seen[True] > 100 and seen[False] > 100, seen


def test_depth_examples():
    cases = [([2], 1), ([4], 2), ([2, 2], 2), ([8], 3), ([2, 4], 3), ([9], 2), ([3, 3], 2)]
    for inv, want in cases:
        assert depth(phi_image(make_group(inv))) == want
    a = make_group([4])
    dual = dual_group(a)
    assert depth(PglSubgroup([phi(a.zero(), dual.element((1,)))])) == 0


def test_depth_not_p_group():
    a = make_group([6])
    with pytest.raises(NotPGroupError):
        depth(phi_image(a))


def test_depth_upper_bound_over_subgroups():
    # every abelian-in-PGL subgroup of PGL_{p^r} has depth <= r
    rng = random.Random(6)
    for inv, r in [([4], 2), ([2, 2], 2), ([8], 3), ([9], 2)]:
        a = make_group(inv)
        dual = dual_group(a)
        full = phi_image(a)
        elems = list(full.elements().values())
        for _ in range(12):
            gens = [rng.choice(elems) for _ in range(rng.randrange(1, 4))]
            h = PglSubgroup(gens)
            assert depth(h) <= r


def test_depth_matches_exhaustive_search():
    # radical-based depth vs log_p(|H| / largest isotropic order found by
    # enumerating every subgroup), for random generated subgroups, |A| <= 9
    factorint = pytest.importorskip("sympy").factorint
    rng = random.Random(31)
    checked = 0
    for inv in iter_abelian_types(9):
        a = make_group(inv)
        dual = dual_group(a)
        for _ in range(12):
            gens = [
                phi(
                    a.element(tuple(rng.randrange(d) for d in a.invariants)),
                    dual.element(tuple(rng.randrange(d) for d in a.invariants)),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            h = PglSubgroup(gens)
            fact = factorint(h.order)
            if len(fact) > 1:
                with pytest.raises(NotPGroupError):
                    depth(h)
                continue
            w = alpha_form(h)
            best = max(s.order for s in enumerate_subgroups(w.group) if is_isotropic(w, s))
            ratio, want = h.order // best, 0
            while ratio > 1:
                ratio //= min(fact)
                want += 1
            assert depth(h) == want, (inv, gens)
            checked += 1
    assert checked > 100


def test_depth_matches_the_radical_of_alpha_on_seeded_spans():
    # depth reads |S meet S^perp| without building alpha_H; the radical of
    # alpha_H has that order, on seeded 1-3-pair spans of every |A| <= 64
    rng = random.Random(24)
    checked = 0
    for inv in iter_abelian_types(64):
        a = make_group(inv)
        dual = dual_group(a)
        for _ in range(6):
            pairs = [(a.element(tuple(rng.randrange(d) for d in inv)),
                      dual.element(tuple(rng.randrange(d) for d in inv)))
                     for _ in range(rng.randrange(1, 4))]
            h = phi_span(a, pairs)
            if h.order == 1:
                assert depth(h) == 0
                continue
            p = next(q for q in range(2, h.order + 1) if h.order % q == 0)
            n = h.order
            while n % p == 0:
                n //= p
            if n > 1:
                with pytest.raises(NotPGroupError):
                    depth(h)
                continue
            ratio, want = isqrt(h.order // radical(alpha_form(h)).order), 0
            while ratio > 1:
                ratio //= p
                want += 1
            assert depth(h) == want, (inv, pairs)
            checked += 1
    assert checked > 200


def test_phi_image_tables_match_eager_table():
    # lazily built tables equal the key -> interleaved (a, chi) coordinates
    # of phi(a, chi) over all of A x A*, every |A| <= 16
    for inv in iter_abelian_types(16):
        a = make_group(inv)
        dual = dual_group(a)
        h = phi_image(a)
        assert h.order == a.order ** 2
        assert h._elements is None and h._coords is None
        eager = {}
        for ac in product(*(range(d) for d in a.invariants)):
            for cc in product(*(range(d) for d in a.invariants)):
                coords = [0] * (2 * a.rank)
                coords[0::2] = ac
                coords[1::2] = cc
                eager[phi(a.element(ac), dual.element(cc)).key] = tuple(coords)
        assert h.coords_table() == eager
        elems = h.elements()
        assert elems.keys() == eager.keys()
        assert all(pe.key == key for key, pe in elems.items())


def test_lattice_identification_matches_natural_coordinates():
    for inv in ([2], [4], [2, 2], [2, 4]):
        a = make_group(inv)
        dual = dual_group(a)
        k = a.rank
        gens = []
        for i in range(k):
            unit = tuple(int(t == i) for t in range(k))
            gens.append(phi(a.element(unit), dual.zero()))
            gens.append(phi(a.zero(), dual.element(unit)))
        h = PglSubgroup(gens)
        g_abs, basis = h.abstract()
        assert g_abs == standard_module(a).group
        assert h.order == a.order ** 2
        assert depth(h) == depth(phi_image(a))


def test_serialized_element_layout():
    a = make_group([2])
    dual = dual_group(a)
    pe = phi(a.element((1,)), dual.element((1,)))
    lift = pe.canonical_lift()
    assert lift.perm == (1, 0)
    assert lift.diag[0] == 0  # first moved index normalized to zero


def test_lattice_model_matches_matrix_closure():
    # seeded random generator sets over every A with |A| <= 16: the lattice
    # S against the matrix closure, and alpha_H, torality and depth against
    # the commutator Gram of the basis lifts
    factorint = pytest.importorskip("sympy").factorint
    rng = random.Random(47)
    checked = 0
    for inv in iter_abelian_types(16):
        a = make_group(inv)
        dual = dual_group(a)
        for _ in range(6):
            pairs = [
                (
                    a.element(tuple(rng.randrange(d) for d in a.invariants)),
                    dual.element(tuple(rng.randrange(d) for d in a.invariants)),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            gens = [phi(x, chi) for x, chi in pairs]
            closure = matrix_closure(gens)
            h = PglSubgroup(gens)
            assert h.lattice == phi_span(a, pairs).lattice
            assert h.order == len(closure)
            assert h.elements().keys() == closure.keys()
            group, basis = h.abstract()
            assert tuple(pe.key for pe in basis) == tuple(
                phi(a.element(e.coords[0::2]), dual.element(e.coords[1::2])).key
                for e in h.lattice.canonical_basis()
            )
            gram = SkewForm(group, commutator_gram(basis))
            assert alpha_form(h) == gram
            assert is_toral(h) == gram.is_zero()
            fact = factorint(h.order)
            if len(fact) > 1:
                with pytest.raises(NotPGroupError):
                    depth(h)
                continue
            p = min(fact, default=2)
            want, ratio = 0, h.order // radical(gram).order
            while ratio > 1:
                ratio //= p * p
                want += 1
            assert depth(h) == want, (inv, pairs)
            checked += 1
    assert checked > 50


def test_generator_outside_phi_image_is_refused():
    # a coordinate transposition commutes with itself but is no P_a D_chi;
    # neither is a diagonal that is not a character
    a = make_group([2, 2])
    swap = ProjectiveElement(MonomialMatrix(a, (0, 2, 1, 3), (0, 0, 0, 0)))
    odd = ProjectiveElement(MonomialMatrix(a, (0, 1, 2, 3), (0, 1, 0, 0)))
    for bad in (swap, odd):
        with pytest.raises(AmbientMismatchError) as info:
            PglSubgroup([phi(a.zero(), dual_group(a).zero()), bad])
        assert isinstance(info.value, SplitboundError)
        assert info.value.kind == "ambient-mismatch"
    # a scalar multiple of a lift is the same projective element
    pe = phi(a.element((1, 0)), dual_group(a).element((1, 1)))
    twisted = PglSubgroup([ProjectiveElement(pe.lift.scale(1))])
    assert twisted.lattice == PglSubgroup([pe]).lattice and twisted.order == 2


def test_phi_image_alpha_is_the_standard_module():
    # the canonical basis of all of A x A* is the unit basis, so alpha of
    # the full image is the standard module bit for bit, also far beyond
    # the sizes a matrix could have
    for inv in list(iter_abelian_types(256)) + [(2 ** 20,), (2,) * 20, (3, 9, 27, 81)]:
        a = make_group(inv)
        assert alpha_form(phi_image(a)) == standard_module(a)


def test_pgl_queries_build_no_matrix(monkeypatch):
    # depth, toral and alpha, with and without --elements, are lattice
    # algebra: a MonomialMatrix constructor that refuses must not matter
    from splitbound import cli
    from splitbound.finabel import Subgroup

    def refuse(*args, **kwargs):
        raise AssertionError("a monomial matrix or canonical basis was built")

    monkeypatch.setattr(MonomialMatrix, "__init__", refuse)
    for act in ("depth", "toral", "alpha"):
        for extra in ([], ["--elements", "(1,0|0,1);(0,2|1,0)"]):
            assert cli.run(["pgl", act, "--group", "2,4", *extra]) == 0
    assert cli.run(["pgl", "depth", "--group", "1048576"]) == 0
    # depth reads the radical off the Hermite rows of S, so it builds no
    # canonical basis either, and no alpha_H on one; alpha does build one
    monkeypatch.setattr(Subgroup, "canonical_basis", refuse)
    for extra in ([], ["--elements", "(1,0|0,1);(0,2|1,0)"]):
        assert cli.run(["pgl", "depth", "--group", "2,4", *extra]) == 0
    with pytest.raises(AssertionError):
        cli.run(["pgl", "alpha", "--group", "2,4", "--elements", "(1,0|0,1)"])
