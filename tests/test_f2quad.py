import random
from dataclasses import replace

import pytest

from splitbound.errors import PreconditionError
from splitbound.f2quad import (
    MAX_BRUTE_DIM,
    F2QuadForm,
    bilinear,
    census_dim7_radical1,
    count_anisotropic,
    count_by_recursion,
    decompose,
    e8_torus_census,
    ec8_generation_check,
    ec8_hyperplane_census,
    ec8_model,
    f2_rank,
    form_from_blocks,
    radical_basis,
)
from splitbound.verify import _conjugate_form, _random_invertible_f2


def random_form(m, rng):
    rows = []
    for i in range(m):
        mask = 0
        for j in range(i, m):
            if rng.random() < 0.5:
                mask |= 1 << j
        rows.append(mask)
    return F2QuadForm(m, rows)


def brute_count(q):
    return sum(q.value(v) for v in range(1 << q.dim))


def decompose_oracle(q):
    """The pair-scan decomposition: split off the first basis pair with
    b = 1, project the rest, repeat; the remainder is the radical."""
    basis = [1 << i for i in range(q.dim)]
    n_h = n_a = 0
    while True:
        pair = None
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if bilinear(q, basis[i], basis[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        v, w = basis[i], basis[j]
        ones = q.value(v) + q.value(w) + q.value(v ^ w)
        if ones == 1:
            n_h += 1
        else:
            n_a += 1
        rest = []
        for t, u in enumerate(basis):
            if t in (i, j):
                continue
            if bilinear(q, u, w):
                u ^= v
            if bilinear(q, u, v):
                u ^= w
            rest.append(u)
        basis = rest
    carrier = None
    n_zero = 0
    for u in basis:
        if q.value(u):
            if carrier is None:
                carrier = u
            else:
                n_zero += 1  # u ^ carrier is isotropic
        else:
            n_zero += 1
    n_one = int(carrier is not None)
    n_h += 2 * (n_a // 2)
    n_a %= 2
    if n_a and n_one:
        n_h += 1
        n_a = 0
    return ["h"] * n_h + ["a"] * n_a + ["one"] * n_one + ["zero"] * n_zero


def degenerate_form(m, rng):
    """A random block sum with at least one radical block, conjugated by a
    random invertible matrix so that no basis vector is a block vector."""
    blocks = []
    size = 0
    while size < m:
        kinds = ("h", "a", "zero", "one") if size + 2 <= m else ("zero", "one")
        blocks.append(rng.choice(kinds))
        size += 2 if blocks[-1] in ("h", "a") else 1
    if not {"zero", "one"} & set(blocks):
        blocks[-1:] = ["one", "zero"]
    return _conjugate_form(form_from_blocks(blocks), _random_invertible_f2(m, rng))


# -- evaluation and bilinear ----------------------------------------------------

def test_plane_counts():
    h = form_from_blocks(["h"])
    a = form_from_blocks(["a"])
    assert count_anisotropic(h) == 1
    assert count_anisotropic(a) == 3
    assert bilinear(h, 0b01, 0b10) == 1


def test_bilinear_alternating_and_symmetric():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randrange(1, 8)
        q = random_form(m, rng)
        for _ in range(20):
            v = rng.randrange(1 << m)
            w = rng.randrange(1 << m)
            assert bilinear(q, v, v) == 0
            assert bilinear(q, v, w) == bilinear(q, w, v)


def test_value_rejects_bad_rows():
    with pytest.raises(PreconditionError):
        F2QuadForm(2, [0b01, 0b01])  # row 1 has a bit below the diagonal
    with pytest.raises(PreconditionError):
        F2QuadForm(1, [0b10])  # outside dimension


# -- radical ----------------------------------------------------------------------

def test_radical_dimensions():
    assert len(radical_basis(form_from_blocks(["h", "h", "h", "zero"]))) == 1
    assert len(radical_basis(form_from_blocks(["h", "h", "h", "h"]))) == 0
    assert len(radical_basis(F2QuadForm(5, [0] * 5))) == 5


def test_radical_is_bilinear_kernel():
    rng = random.Random(8)
    for _ in range(50):
        m = rng.randrange(1, 8)
        q = random_form(m, rng)
        rad = set()
        for v in range(1 << m):
            if all(bilinear(q, v, 1 << i) == 0 for i in range(m)):
                rad.add(v)
        basis = radical_basis(q)
        span = {0}
        for b in basis:
            span |= {x ^ b for x in span}
        assert span == rad


# -- counting ----------------------------------------------------------------------

def test_count_matches_naive():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randrange(1, 9)
        q = random_form(m, rng)
        assert count_anisotropic(q) == brute_count(q)


def test_count_dimension_cap():
    with pytest.raises(PreconditionError):
        count_anisotropic(F2QuadForm(25, [0] * 25))


def test_recursion_examples():
    assert count_by_recursion(["h", "h"]) == (10, 6)
    assert count_by_recursion(["h", "h", "h", "zero"])[1] == 56
    # appending <1> to any m-dimensional block list gives exactly 2^m ones
    for blocks in (["h"], ["a", "h"], ["zero", "zero"], ["h", "h", "h"]):
        m = sum(2 if b in ("h", "a") else 1 for b in blocks)
        assert count_by_recursion(blocks + ["one"])[1] == 1 << m


def test_decompose_examples():
    assert decompose(form_from_blocks(["a", "a"])) == ["h", "h"]
    assert decompose(form_from_blocks(["h"])) == ["h"]
    assert decompose(form_from_blocks(["one", "one"])) == ["one", "zero"]
    assert decompose(form_from_blocks(["a", "one"])) == ["h", "one"]


def test_decompose_counts_everywhere():
    rng = random.Random(10)
    for _ in range(500):
        m = rng.randrange(1, 11)
        q = random_form(m, rng)
        blocks = decompose(q)
        zeros, ones = count_by_recursion(blocks)
        assert ones == count_anisotropic(q)
        assert zeros == (1 << m) - ones
        assert blocks.count("a") <= 1
        assert not (blocks.count("a") and blocks.count("one"))


def test_decompose_matches_pair_scan_oracle():
    # dense, sparse and degenerate forms of every dimension up to the sweep cap
    rng = random.Random(13)
    for m in range(MAX_BRUTE_DIM + 1):
        sparse = [
            F2QuadForm(m, [(rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m))
                           >> i << i for i in range(m)])
            for _ in range(5)
        ]
        forms = [random_form(m, rng) for _ in range(5)] + sparse
        if m >= 2:
            forms += [degenerate_form(m, rng) for _ in range(5)]
        for q in forms:
            assert decompose(q) == decompose_oracle(q), q


def test_decompose_above_the_sweep_cap():
    # a+a+a ~ h+h+a, and a ~ h beside <1>: 43 planes, <1>, <0>
    rng = random.Random(14)
    blocks = ["a"] * 3 + ["h"] * 40 + ["one", "zero"]
    q = _conjugate_form(form_from_blocks(blocks), _random_invertible_f2(88, rng))
    assert decompose(q) == ["h"] * 43 + ["one", "zero"]
    assert count_by_recursion(decompose(q)) == (1 << 87, 1 << 87)


def test_ones_count_classifies():
    # given (dim, radical dim), canonical block lists have distinct counts
    rng = random.Random(11)
    seen = {}
    for _ in range(2000):
        m = rng.randrange(1, 9)
        q = random_form(m, rng)
        key = (m, len(radical_basis(q)), count_anisotropic(q))
        blocks = tuple(decompose(q))
        if key in seen:
            assert seen[key] == blocks, key
        else:
            seen[key] = blocks


def test_dim7_census():
    assert census_dim7_radical1() == {56, 64, 72}
    assert count_anisotropic(form_from_blocks(["h", "h", "h", "one"])) == 64
    assert count_anisotropic(form_from_blocks(["a", "h", "h", "zero"])) == 72


def test_dim7_random_conjugates():
    rng = random.Random(12)
    classes = [
        ["h", "h", "h", "zero"],
        ["h", "h", "h", "one"],
        ["a", "h", "h", "zero"],
    ]
    for _ in range(1000):
        q = form_from_blocks(rng.choice(classes))
        q2 = _conjugate_form(q, _random_invertible_f2(7, rng))
        assert len(radical_basis(q2)) == 1
        assert count_anisotropic(q2) in (56, 64, 72)


# -- E8 / EC8 -----------------------------------------------------------------------

def test_e8_torus_census():
    type_a, type_b = e8_torus_census()
    assert (type_a, type_b) == (120, 135)
    assert type_a + type_b == 255


def test_ec8_model_counts():
    m = ec8_model()
    assert len(m.type_a) == 56
    assert m.type_b_count == 199
    a1 = {v for v in range(256) if v & ~m.a1_bits == 0}
    a2 = {v for v in range(256) if v & ~m.a2_bits == 0}
    r = {v for v in range(256) if v & ~m.r_bits == 0}
    assert len(a1) == 8 and len(a2) == 32 and len(r) == 4
    assert r < a2
    assert len(a2 - r) == 28
    assert m.type_a == frozenset((a2 - r) | ({x ^ y for x in a1 for y in r} - r))


def test_ec8_generation():
    m = ec8_model()
    assert ec8_generation_check(m)
    weak = replace(m, type_a=frozenset(x for x in m.type_a if x & m.a1_bits == 0))
    assert f2_rank(weak.type_a) == 5
    assert not ec8_generation_check(weak)


def test_ec8_hyperplanes():
    m = ec8_model()
    best, missed = ec8_hyperplane_census(m)
    assert best < 56
    assert missed >= 1
    assert best + missed == 56
