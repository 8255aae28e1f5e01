"""Quadratic forms over GF(2) as upper-triangular bit matrices.

q(x) = x^T Q x with Q stored as one integer mask per row (bits j >= i).
The polarization b(v, w) = q(v+w) + q(v) + q(w) is bilinear and alternating;
its kernel is the radical.  Anisotropic vectors (q = 1) are counted by
folding the two-line product recursion over the block decomposition, which
Gram-row elimination finds in O(m^2) operations on m-bit masks.  The
direct 2^m sweep (`count_anisotropic`, capped at MAX_BRUTE_DIM) is kept as
the oracle that the censuses and the tests check the decomposition against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import PreconditionError

MAX_BRUTE_DIM = 24
# largest dimension the CLI accepts; 2^MAX_DIM has 309 decimal digits, well
# inside errors.MAX_INT_DIGITS
MAX_DIM = 1024

_BLOCK_COUNTS = {
    "h": (3, 1),  # hyperbolic plane x*y
    "a": (1, 3),  # anisotropic plane x^2 + x*y + y^2
    "zero": (2, 0),  # one-dimensional <0>
    "one": (1, 1),  # one-dimensional <1>
}

__all__ = [
    "F2QuadForm",
    "Ec8Model",
    "form_from_blocks",
    "bilinear",
    "radical_basis",
    "count_anisotropic",
    "count_by_recursion",
    "decompose",
    "census_dim7_radical1",
    "census_dim7_radical1_by_class",
    "e8_torus_census",
    "ec8_model",
    "ec8_generation_check",
    "ec8_hyperplane_census",
    "f2_rank",
]


class F2QuadForm:
    """Quadratic form on (F_2)^m; rows[i] holds the coefficients Q_ij."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows):
        rows = tuple(rows)
        if len(rows) != dim:
            raise PreconditionError(f"need {dim} rows, got {len(rows)}")
        full = (1 << dim) - 1
        for i, r in enumerate(rows):
            if r & ~full or r & ((1 << i) - 1):
                raise PreconditionError(f"row {i} is not upper triangular")
        self.dim = dim
        self.rows = rows

    def value(self, v: int) -> int:
        """q(v) for a vector given as a bitmask."""
        acc = 0
        x = v
        rows = self.rows
        while x:
            i = (x & -x).bit_length() - 1
            x &= x - 1
            acc ^= (rows[i] & v).bit_count()
        return acc & 1

    def gram_rows(self) -> list[int]:
        """Bilinear Gram masks: row i of b(e_i, e_j) (zero diagonal)."""
        m = self.dim
        out = [self.rows[i] & ~(1 << i) for i in range(m)]
        for i in range(m):
            r = self.rows[i]
            for j in range(i + 1, m):
                if r >> j & 1:
                    out[j] |= 1 << i
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2QuadForm)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:
        return f"F2QuadForm(dim={self.dim}, rows={[hex(r) for r in self.rows]})"


def form_from_blocks(blocks) -> F2QuadForm:
    """Direct sum of h / a / zero / one blocks in the given order."""
    rows = []
    for b in blocks:
        i = len(rows)
        if b == "h":
            rows.extend((1 << (i + 1), 0))
        elif b == "a":
            rows.extend(((1 << i) | (1 << (i + 1)), 1 << (i + 1)))
        elif b == "zero":
            rows.append(0)
        elif b == "one":
            rows.append(1 << i)
        else:
            raise PreconditionError(f"unknown block {b!r}")
    return F2QuadForm(len(rows), rows)


def bilinear(q: F2QuadForm, v: int, w: int) -> int:
    """Polarization bit b(v, w) = q(v+w) + q(v) + q(w)."""
    if (v | w) >> q.dim:
        raise PreconditionError("vector outside the form's dimension")
    return q.value(v ^ w) ^ q.value(v) ^ q.value(w)


def _echelon(vectors) -> list[int]:
    """Reduced echelon basis (descending) of the span of bitmask vectors."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def f2_rank(vectors) -> int:
    """Rank of a list of bitmask vectors over F_2."""
    return len(_echelon(vectors))


def radical_basis(q: F2QuadForm) -> list[int]:
    """Echelon basis of the kernel of the bilinear Gram matrix."""
    m = q.dim
    gram = q.gram_rows()
    # eliminate rows of the Gram matrix, tracking combinations of e_i
    work = [(gram[i], 1 << i) for i in range(m)]
    pivots: list[tuple[int, int]] = []
    kernel = []
    for row, tag in work:
        for prow, ptag in pivots:
            lead = prow & -prow
            if row & lead:
                row ^= prow
                tag ^= ptag
        if row:
            pivots.append((row, tag))
        else:
            kernel.append(tag)
    # reduce kernel to echelon form for a deterministic answer
    return sorted(_echelon(kernel))


def count_anisotropic(q: F2QuadForm) -> int:
    """|q^{-1}(1)| by Gray-code sweep over all 2^m vectors."""
    m = q.dim
    if m > MAX_BRUTE_DIM:
        raise PreconditionError(f"dimension {m} above brute-force cap {MAX_BRUTE_DIM}")
    gram = q.gram_rows()
    qdiag = [q.rows[i] >> i & 1 for i in range(m)]
    count = 0
    val = 0
    x = 0
    for n in range(1, 1 << m):
        i = (n & -n).bit_length() - 1
        val ^= ((gram[i] & x).bit_count() & 1) ^ qdiag[i]
        x ^= 1 << i
        count += val
    return count


def count_by_recursion(blocks) -> tuple[int, int]:
    """(zeros, ones) of a direct sum, folded two entries at a time."""
    zeros, ones = 1, 0
    for b in blocks:
        bz, bo = _BLOCK_COUNTS[b]
        zeros, ones = zeros * bz + ones * bo, ones * bz + zeros * bo
    return zeros, ones


def decompose(q: F2QuadForm) -> list[str]:
    """Block decomposition by Gram-row elimination: split off the plane of
    the last working vector v and the first w with b(v, w) = 1, project the
    rest orthogonally to it, and set v aside as radical when no w pairs with
    it; normalized so at most one 'a' survives (a+a ~ h+h, and a ~ h in the
    presence of <1>).  The result depends only on the dimension, the radical
    and the count, so it is canonical."""
    gram = q.gram_rows()
    # each working vector u carries (u, G u, q(u)), so b(u, w) = |Gu & w| mod 2
    work = [(1 << i, gram[i], q.rows[i] >> i & 1) for i in range(q.dim)]
    n_h = n_a = n_rad = 0
    n_one = 0  # q is additive on the radical: one <1> iff it is nonzero there
    while work:
        v, gv, qv = work.pop()
        for t, (w, gw, qw) in enumerate(work):
            if (gv & w).bit_count() & 1:
                break
        else:
            n_rad += 1
            n_one |= qv
            continue
        work[t] = work[-1]
        work.pop()
        if qv & qw:
            n_a += 1  # q(v) = q(w) = q(v+w) = 1
        else:
            n_h += 1
        for k, (u, gu, qu) in enumerate(work):
            bw = (gu & w).bit_count() & 1
            bv = (gu & v).bit_count() & 1
            # u += b(u,w) v, then u += b(u,v) w; adding v leaves b(u,v) as is
            # and q(u+x) = q(u) + q(x) + b(u,x)
            if bw:
                u, gu, qu = u ^ v, gu ^ gv, qu ^ qv ^ bv
            if bv:
                u, gu, qu = u ^ w, gu ^ gw, qu ^ qw
            if bw or bv:
                work[k] = (u, gu, qu)
    n_h += 2 * (n_a // 2)
    n_a %= 2
    if n_a and n_one:
        n_h += 1
        n_a = 0
    return ["h"] * n_h + ["a"] * n_a + ["one"] * n_one + ["zero"] * (n_rad - n_one)


DIM7_RADICAL1_CLASSES = (
    ("h", "h", "h", "zero"),
    ("h", "h", "h", "one"),
    ("a", "h", "h", "zero"),
)


def census_dim7_radical1_by_class() -> list[tuple[str, int]]:
    """(class label, anisotropic count) for each dimension-7 class with a
    1-dimensional radical, counted by brute force."""
    out = []
    for blocks in DIM7_RADICAL1_CLASSES:
        q = form_from_blocks(blocks)
        assert len(radical_basis(q)) == 1
        out.append(("+".join(blocks), count_anisotropic(q)))
    return out


def census_dim7_radical1() -> set[int]:
    """Anisotropic counts over the dimension-7 classes with a 1-dimensional
    radical; always {56, 64, 72}."""
    return {count for _label, count in census_dim7_radical1_by_class()}


def e8_torus_census() -> tuple[int, int]:
    """(anisotropic, nonzero isotropic) counts for the nonsingular
    maximal-Witt-index form on (F_2)^8: always (120, 135)."""
    q = form_from_blocks(["h", "h", "h", "h"])
    assert radical_basis(q) == []
    assert decompose(q) == ["h", "h", "h", "h"]
    ones = count_anisotropic(q)
    return ones, (1 << 8) - 1 - ones


@dataclass(frozen=True)
class Ec8Model:
    """Rank-8 space with the distinguished subspaces of the exotic rank-8
    candidate: A_1 of rank 3, A_2 of rank 5, R < A_2 of order 4, and the
    56-element generating set S = (A_2 - R) + (A_1 R - R)."""

    dim: int
    a1_bits: int
    a2_bits: int
    r_bits: int
    type_a: frozenset[int]

    @property
    def type_b_count(self) -> int:
        return (1 << self.dim) - 1 - len(self.type_a)


def _span_masks(bits: int) -> set[int]:
    idx = [i for i in range(bits.bit_length()) if bits >> i & 1]
    out = set()
    for combo in product((0, 1), repeat=len(idx)):
        v = 0
        for c, i in zip(combo, idx):
            if c:
                v |= 1 << i
        out.add(v)
    return out


def ec8_model() -> Ec8Model:
    a1_bits = 0b00000111
    a2_bits = 0b11111000
    r_bits = 0b11000000
    a1 = _span_masks(a1_bits)
    a2 = _span_masks(a2_bits)
    r = _span_masks(r_bits)
    a1r = {x ^ y for x in a1 for y in r}
    s = (a2 - r) | (a1r - r)
    model = Ec8Model(8, a1_bits, a2_bits, r_bits, frozenset(s))
    assert len(a2 - r) == 28 and len(a1r - r) == 28 and len(s) == 56
    return model


def ec8_generation_check(model: Ec8Model) -> bool:
    """True iff the type-A set spans the whole rank-8 space."""
    return f2_rank(model.type_a) == model.dim


def ec8_hyperplane_census(model: Ec8Model) -> tuple[int, int]:
    """(max type-A elements inside any hyperplane, min missed); the second
    entry being >= 1 is the combinatorial heart of the depth-2 bound."""
    best = 0
    for f in range(1, 1 << model.dim):
        inside = sum(1 for v in model.type_a if (v & f).bit_count() & 1 == 0)
        best = max(best, inside)
    return best, len(model.type_a) - best
