"""Q/Z-valued alternating forms on finite abelian groups.

A SkewForm stores the Gram matrix of the form on the group's canonical
generators.  Degenerate forms are first class: radicals and isotropy are
defined for every form, and only the Lagrangian-specific operations insist
on nondegeneracy.  The standard module on A x A* uses the interleaved
generator layout (a_1, chi_1, a_2, chi_2, ...) so that Gram matrices are
reproducible bit for bit.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import gcd, isqrt, lcm, log10
from operator import mul
from typing import NamedTuple

from .errors import (
    AmbientMismatchError,
    DegenerateFormError,
    EnumerationBoundError,
    InvalidFormError,
    OutputBoundError,
    PreconditionError,
    _int_text,
)
from .finabel import (
    MAX_LISTED,
    MAX_PRINTED_DIGITS,
    Element,
    FinAbGroup,
    QmodZ,
    Subgroup,
    _canonical_chain,
    _cokernel_invariants,
    _divisors_over,
    _exponent_partitions,
    _hnf,
    _iter_bases_general,
    _lattice_coefficients,
    _partitions_inside,
    _types_by_live_block,
    _unit_rows,
    _valuation,
    full_subgroup,
    # unused here: the benchmark harness test (perfbench/test_harness.py)
    # checks that the tracer rebinds this name in qzforms
    iter_subgroup_bases,  # noqa: F401
    quotient,
    subgroup_from_generators,
)

__all__ = [
    "SkewForm",
    "MaxIsotropic",
    "TransferWitness",
    "standard_module",
    "evaluate",
    "radical",
    "is_nondegenerate",
    "restrict",
    "is_isotropic",
    "is_lagrangian",
    "least_isotropic_basis",
    "max_isotropic",
    "isotropic_types",
    "standard_isotropic_types",
    "quotient_by_lagrangian",
    "symplectic_submodule",
    "isotropic_transfer",
]


class SkewForm:
    """Alternating Q/Z-valued bilinear form given by its Gram matrix."""

    __slots__ = ("group", "gram", "_scaled", "_ws", "_radical", "_nondegenerate")

    def __init__(self, group: FinAbGroup, gram):
        k = group.rank
        rows = tuple(map(tuple, gram))
        if len(rows) != k or any(len(r) != k for r in rows):
            raise InvalidFormError(f"Gram matrix must be {k}x{k}")
        # reduced residues: a = -b iff equal denominators, numerators summing to 0
        for i, (row, col, d) in enumerate(zip(rows, zip(*rows), group.invariants)):
            if row[i].num:
                raise InvalidFormError("Gram diagonal must vanish (alternating)")
            for a, b in zip(row, col):
                if a.den != b.den or (a.num + b.num) % a.den:
                    raise InvalidFormError("Gram matrix must be skew-symmetric")
                if d % a.den:
                    raise InvalidFormError(
                        "entry order incompatible with generator order"
                    )
        self.group = group
        self.gram = rows
        self._scaled = None
        self._ws = None  # always None: perfbench's transfer wrapper reads it
        self._radical = None
        self._nondegenerate = None

    @property
    def exponent(self) -> int:
        return self.group.exponent

    def scaled(self):
        """Gram matrix as integers modulo the group exponent N (num * N/den < N)."""
        if self._scaled is None:
            n = self.exponent
            self._scaled = tuple(
                tuple(e.num * (n // e.den) for e in row) for row in self.gram
            )
        return self._scaled

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.gram for e in row)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewForm)
            and self.group == other.group
            and self.gram == other.gram
        )

    def __hash__(self) -> int:
        return hash((self.group.invariants, self.gram))

    def __repr__(self) -> str:
        return f"SkewForm(on {self.group!r})"


class MaxIsotropic(NamedTuple):
    order: int
    witness: Subgroup
    types: list[tuple[int, ...]]


class TransferWitness(NamedTuple):
    i_max: Subgroup
    lagrangian: Subgroup
    image_type: tuple[int, ...]
    min_order: int | None


def zero_form(a: FinAbGroup) -> SkewForm:
    z = QmodZ.zero()
    k = a.rank
    return SkewForm(a, [[z] * k for _ in range(k)])


def standard_module(a: FinAbGroup) -> SkewForm:
    """Form w((a1, chi1), (a2, chi2)) = chi1(a2) - chi2(a1) on A x A*.

    Generator slots interleave the two factors: slot 2i is the i-th
    generator of A, slot 2i+1 the matching dual generator, so the Gram
    matrix is block diagonal with blocks [[0, -1/d_i], [1/d_i, 0]].
    """
    inv = a.invariants
    doubled = []
    for d in inv:
        doubled.extend((d, d))
    g = FinAbGroup(doubled)
    assert g.invariants == tuple(doubled)
    k = g.rank
    z = QmodZ.zero()
    gram = [[z] * k for _ in range(k)]
    for i, d in enumerate(inv):
        gram[2 * i][2 * i + 1] = QmodZ(-1, d)
        gram[2 * i + 1][2 * i] = QmodZ(1, d)
    return SkewForm(g, gram)


def evaluate(w: SkewForm, x: Element, y: Element) -> QmodZ:
    """w(x, y) by bilinear extension of the Gram matrix."""
    if x.group != w.group or y.group != w.group:
        raise AmbientMismatchError("element does not live on the form's group")
    n = w.exponent
    return QmodZ(_pair_value(w.scaled(), n, x.coords, y.coords, w.group.rank), n)


def radical(w: SkewForm) -> Subgroup:
    """Subgroup {h : w(h, .) = 0}: the pairing kernel of the rows
    (w(e_i, e_1..e_k) | e_i), read straight off the scaled Gram matrix
    (cross-checked by enumeration in the test suite).  The form is
    immutable, so the result is kept on it."""
    if w._radical is None:
        k = w.group.rank
        rows = [list(s) + e for s, e in zip(w.scaled(), _unit_rows(k))]
        w._radical = _pairing_kernel(w, rows, k)
    return w._radical


def _pairing_kernel(w: SkewForm, rows, m: int) -> Subgroup:
    """The subgroup of the combinations of the rows (w(x_i, y_1..y_m) mod n
    | x_i) whose m pairing entries all vanish, from one Hermite form modulo
    (n,)*m + D of the rows (Cohen, GTM 138, section 2.4.2).  The form is
    upper triangular, so its rows after the m pairing columns span exactly
    those combinations, and their tails are that subgroup's Hermite basis.
    The first m rows are dropped, so _hnf leaves them unreduced (drop=m)."""
    g = w.group
    return Subgroup(g, [r[m:] for r in _hnf(rows, (w.exponent,) * m + g.invariants, m)[m:]])


def _annihilated(w: SkewForm, xs, ys) -> Subgroup:
    """The subgroup of the combinations sum c_i x_i with w(sum c_i x_i, y) = 0
    for every y (xs and ys are coordinate rows), the pairing kernel of the
    |xs| x |ys| pairing matrix with the xs appended."""
    g = w.group
    inv = g.invariants
    k = g.rank
    n = w.exponent
    scaled = w.scaled()
    ys = [y for y in ys if any(c % d for c, d in zip(y, inv))]
    wys = [[sum(row[j] * y[j] for j in range(k)) for row in scaled] for y in ys]
    rows = [[sum(a * b for a, b in zip(x, wy)) % n for wy in wys] + list(x) for x in xs]
    return _pairing_kernel(w, rows, len(ys))


def _extend_isotropic(w: SkewForm, s: Subgroup, within: Subgroup) -> Subgroup:
    """A maximal isotropic subgroup of `within` containing the isotropic
    s <= within, for a nondegenerate w: add the first Hermite row of
    P = within ∩ s^perp that is not in s, until there is none.  The first
    P is one Hermite form of the pairing matrix of within's rows against
    s's, with within's rows appended (_annihilated); after that, each P is
    the one before cut by the row just added, as within ∩ (s + row)^perp =
    P ∩ row^perp, and is built only when the loop goes on.  Each added row
    pairs to zero with s and with itself, so every step stays isotropic;
    a Lagrangian is maximal in the whole module, so the search ends there."""
    g = w.group
    k = g.rank
    perp, ys = within, s.basis
    while s.order * s.order != g.order:
        perp = _annihilated(w, perp.basis, ys)
        row = next(
            (r for r in perp.basis if _lattice_coefficients(s.basis, r, k) is None), None
        )
        if row is None:
            break
        s = Subgroup(g, _hnf([*s.basis, row], g.invariants))
        ys = [row]
    return s


def is_nondegenerate(w: SkewForm) -> bool:
    """Whether Rad w = 0, decided without building the radical.  The k rows
    (s_ij * d_j / n)_j of the scaled Gram are the adjoint map A -> A* ~ A,
    x -> (w(x, e_j) * d_j)_j modulo D = (d_1, ..., d_k), whose kernel is
    Rad w.  A is finite, so the map is injective iff it is onto, iff every
    pivot of the Hermite form modulo D of those rows is 1 (|Rad w| is the
    product of the pivots).  The verdict is kept on the form, and is read
    from a radical already kept there."""
    if w._nondegenerate is None:
        if w._radical is not None:
            w._nondegenerate = w._radical.order == 1
        else:
            inv, n = w.group.invariants, w.exponent
            rows = [[s * d // n for s, d in zip(row, inv)] for row in w.scaled()]
            w._nondegenerate = all(r[i] == 1 for i, r in enumerate(_hnf(rows, inv, len(inv))))
    return w._nondegenerate


def restrict(w: SkewForm, s: Subgroup) -> SkewForm:
    """The form on the abstract group of S, Gram on S's canonical basis."""
    if s.ambient != w.group:
        raise AmbientMismatchError("subgroup of a different group")
    basis = s.canonical_basis()
    g = FinAbGroup(s.sub_invariants)
    gram = [[evaluate(w, b1, b2) for b2 in basis] for b1 in basis]
    return SkewForm(g, gram)


def _pair_value(scaled, n, u, v, k) -> int:
    total = 0
    for i in range(k):
        ui = u[i]
        if ui:
            row = scaled[i]
            for j in range(k):
                if v[j]:
                    total += ui * v[j] * row[j]
    return total % n


def is_isotropic(w: SkewForm, s: Subgroup) -> bool:
    """True iff the form vanishes identically on S."""
    if s.ambient != w.group:
        raise AmbientMismatchError("subgroup of a different group")
    return _isotropic_basis(w, s.basis)


def is_lagrangian(w: SkewForm, s: Subgroup) -> bool:
    """Isotropic of square-root order; defined for nondegenerate forms."""
    if not is_nondegenerate(w):
        raise DegenerateFormError("Lagrangian test requires a nondegenerate form")
    return s.order * s.order == w.group.order and is_isotropic(w, s)


def _isotropic_basis(w: SkewForm, basis) -> bool:
    """True iff w vanishes on every two nonzero rows of the basis.  Each row
    u is paired once with the scaled Gram, into the k-vector (w(u, e_j))_j:
    the sum of the Gram rows at u's nonzero entries, each times that entry.
    That vector dotted with a later row v is w(u, v)."""
    inv = w.group.invariants
    n = w.exponent
    scaled = w.scaled()
    rows = [r for row in basis if any(r := [c % d for c, d in zip(row, inv)])]
    for i, u in enumerate(rows[:-1]):
        paired = [0] * len(inv)
        for c, gram_row in zip(u, scaled):
            if c:
                paired = [x + c * y for x, y in zip(paired, gram_row)]
        for v in rows[i + 1:]:
            if sum(map(mul, paired, v)) % n:
                return False
    return True


def iter_isotropic_bases(w: SkewForm, order: int | None):
    """Hermite bases of the isotropic subgroups of the given order (of
    every order when it is None), each once (unsorted but deterministic).

    The subgroup recursion grows only isotropic bases: a basis row that
    pairs nontrivially with a row kept below it is cut with every
    completion.  No bound is read: in production it gives only the types
    of max_isotropic's non-split pass, which bounds |H| first, and verify's
    oracles call it on fixed small modules.
    """
    g = w.group
    n = w.exponent
    scaled = w.scaled()
    # Every candidate row of one step is tested against the same kept list,
    # so each kept row v is paired with the Gram once, into the k-vector
    # S v, and a candidate pairs with v as row . S v = w(row, v), the value
    # _pair_value gives.  (Pairing the candidate first gains nothing: it
    # changes at every test.)  A kept list is its parent plus one row, so
    # consecutive lists share a prefix of the same row objects, and only the
    # rows past it are paired again.  `last` holds the rows whose vectors
    # `paired` holds, so no other row can take their identity.
    last, paired = [], []

    def pairs_to_zero(row, kept):
        nonlocal last, paired
        if kept is not last:
            j = 0
            for u, v in zip(kept, last):
                if u is not v:
                    break
                j += 1
            last = kept
            paired = paired[:j] + [[sum(map(mul, gram_row, v)) for gram_row in scaled]
                                   for v in kept[j:]]
        for pv in paired:
            if sum(map(mul, row, pv)) % n:
                return False
        return True

    yield from _iter_bases_general(g.invariants, order, pairs_to_zero)


def least_isotropic_basis(w: SkewForm, order: int):
    """The lexicographically least Hermite basis of an isotropic subgroup of
    the given order, min(iter_isotropic_bases(w, order)), or None if there
    is none; no subgroup is listed.  At the largest order it is the witness
    that max_isotropic prints on every form.

    Every isotropic subgroup lies in a maximal one, of order
    sqrt(|H| * |Rad w|) (max_isotropic), so the order must divide that.
    Rows are then chosen top-down, each least first, so the first complete
    basis is the least.  Row i, pivot h | d_i, lies in P, the annihilator
    of the nonzero rows above it among the elements supported on
    coordinates i..k-1.  P is cut from the P above by the one new row: the
    Hermite rows of the P above from index i on span exactly its elements
    on coordinates i..k-1, so P is the annihilator of the new row among
    them (a zero row hands the P above down unchanged).  With g_i the pivot of P at i,
    such a row exists iff g_i | h (or h = d_i: the row is zero), and its
    tails form the coset (h / g_i) * P_i + (P's lower rows), listed in lex
    order from its Hermite-reduced member.  The cuts are exact: the entries
    above pivot h are below it; the pending residual of each d_a * e_a
    (the lattice condition _iter_bases_general solves, run top-down) is
    divisible by h at coordinate i; and the order taken so far divides
    `order`, leaving a divisor of the rows below.  So backtracking over h
    and over the tails loses no basis.  Below the largest order the order
    cut is necessary, not sufficient (the rows below must also hold an
    isotropic subgroup of the order still needed), so the search can
    backtrack there.  At the largest order, the one max_isotropic asks,
    it did not backtrack on any of 2,296 random forms (tests), but nothing
    proves that it cannot.
    """
    g = w.group
    inv = g.invariants
    k = g.rank
    if order < 1 or isqrt(g.order * radical(w).order) % order:
        return None
    primes = [p for p, _ in _exponent_partitions(g)]
    room = [1] * (k + 1)  # room[i] = d_i * ... * d_{k-1}
    for i in range(k - 1, -1, -1):
        room[i] = room[i + 1] * inv[i]

    def search(i: int, need: int, lower, rows, pending):
        # lower: P's Hermite basis; pending: d_a * e_a less its rows a..i-1,
        # per row a above
        if i == k:
            return rows
        d = inv[i]
        g_i = lower[i][i]
        above = max((row[i] for row in rows), default=0)
        # h = d / c with c | need, need / c | room[i + 1], and h | r[i] for
        # every pending residual r; h ascending
        span = gcd(d, *(r[i] for r in pending))
        lo = lcm(d // span, need // gcd(need, room[i + 1]))
        for c in reversed(_divisors_over(lo, gcd(d, need), primes)):
            h = d // c
            if h <= above:
                continue
            if h == d:
                tails = [[0] * k]
            elif h % g_i:
                continue
            else:
                tails = _coset_rows([h // g_i * x % m for x, m in zip(lower[i], inv)], lower, inv, i)
            for row in tails:
                row[i] = h
                below = lower
                if h != d and i + 1 < k:
                    below = _annihilated(w, lower[i + 1:], [row]).basis
                residuals = [[a - r[i] // h * b for a, b in zip(r, row)] for r in pending]
                residuals.append([0] * (i + 1) + [-c * x for x in row[i + 1:]])
                found = search(i + 1, need // c, below, [*rows, row], residuals)
                if found is not None:
                    return found
        return None

    found = search(0, order, _unit_rows(k), [], [])
    return None if found is None else tuple(map(tuple, found))


def _coset_rows(base, lower, inv, i: int):
    """The rows x = base modulo the lattice of lower[i+1:] (rows of a
    Hermite basis) with 0 <= x_j < d_j for j > i, in lex order of x[i+1:]:
    at each coordinate j the least value is base_j reduced by the pivot of
    lower[j], and the others step up by that pivot.  Each row is a fresh
    list."""
    k = len(inv)

    def walk(j, x):
        if j == k:
            yield list(x)
            return
        prow = lower[j]
        p = prow[j]
        q = x[j] // p
        if q:
            x = [(a - q * b) % m for a, b, m in zip(x, prow, inv)]
        for _ in range(inv[j] // p):
            yield from walk(j + 1, x)
            x = [(a + b) % m for a, b, m in zip(x, prow, inv)]

    return walk(i + 1, base)


# the largest |H| on which max_isotropic lists the isotropic subgroups of a
# form whose radical is not a direct summand
MAX_ENUMERATED_ORDER = 4096


def max_isotropic(w: SkewForm) -> MaxIsotropic:
    """Largest isotropic order, a canonical witness, and every isomorphism
    type occurring at that order (each exactly once).

    The order is sqrt(|H| * |Rad w|): every maximal isotropic subgroup X
    contains R = Rad w, and X / R is a Lagrangian of the nondegenerate
    module N = H / R, of order sqrt|N| (Wall, Topology 2, 1963).  On every
    form the witness is the least Hermite basis among the isotropic
    subgroups of that order, from the lex-first search
    least_isotropic_basis: its cuts are exact, and its running time rests
    on it not backtracking at that order, never seen but not proved.  The
    types come from one of two branches:
      - split radical, type(R) ∪ type(N) = type(H), which holds for every
        nondegenerate form (R = 0): then R is a direct summand of H
        (Miyata, J. Math. Kyoto Univ. 7, 1967), H = R + C with C isometric
        to N, and X = R + (X ∩ C) with X ∩ C a Lagrangian of C.  N is
        hyperbolic, N ~ B + B*, so the types are type(R) ∪ nu for the
        Lagrangian types nu of the standard module on B, read off the
        group type by standard_isotropic_types (see isotropic_types).
        Nothing is enumerated and no bound is read;
      - non-split radical: the types depend on how R sits in H, so they
        come from one pass of iter_isotropic_bases (which never lists the
        other orders), one type per live block (_types_by_live_block).  It
        is the one enumeration in production whose output does not bound
        its work, so it is refused (EnumerationBoundError) when
        |H| > MAX_ENUMERATED_ORDER, before any search.
    """
    g = w.group
    rad = radical(w)
    best = isqrt(g.order * rad.order)
    r_type = rad.sub_invariants
    n_type = g.invariants if rad.order == 1 else quotient(g, rad).invariants
    if _canonical_chain(r_type + n_type) == g.invariants:
        lag_types = standard_isotropic_types(FinAbGroup(n_type[::2]), best // rad.order)
        types = {_canonical_chain(r_type + nu) for nu in lag_types}
    else:
        if g.order > MAX_ENUMERATED_ORDER:
            raise EnumerationBoundError(g.order, MAX_ENUMERATED_ORDER)
        type_of = _types_by_live_block(g)
        types = {type_of(basis) for basis in iter_isotropic_bases(w, best)}
    witness = Subgroup(g, least_isotropic_basis(w, best))
    return MaxIsotropic(best, witness, sorted(types))


def quotient_by_lagrangian(w: SkewForm, lag: Subgroup) -> FinAbGroup:
    """H / Lambda; asserts the self-duality invariants(H/L) == invariants(L)."""
    if not is_lagrangian(w, lag):
        raise PreconditionError("subgroup is not Lagrangian")
    q = quotient(w.group, lag)
    assert q.invariants == lag.sub_invariants
    return q


def symplectic_submodule(w: SkewForm, s: int) -> Subgroup:
    """Rank-2s subgroup of an elementary (Z/p)^{2r} symplectic module on
    which the restricted form stays nondegenerate; built from hyperbolic
    pairs extracted greedily: v is the first nonzero Hermite row of the
    room left, u the first that pairs with it, and the room shrinks to
    its annihilator of v and u."""
    g = w.group
    if not g.is_elementary() or g.rank % 2:
        raise PreconditionError("group must be elementary abelian of even rank")
    r = g.rank // 2
    if s > r or s < 0:
        raise PreconditionError(f"requested rank 2*{s} exceeds module rank {2 * r}")
    if not is_nondegenerate(w):
        raise DegenerateFormError("symplectic submodule requires a symplectic form")
    k = g.rank
    n = w.exponent
    scaled = w.scaled()
    room = full_subgroup(g)
    pairs = []
    for _ in range(s):
        rows = [row for row in room.basis if any(c % n for c in row)]
        v = rows[0]
        u = next(row for row in rows[1:] if _pair_value(scaled, n, v, row, k))
        pairs.extend((v, u))
        room = _annihilated(w, room.basis, [v, u])
    return subgroup_from_generators(g, [Element(g, row) for row in pairs])


# ---------------------------------------------------------------------------
# Isotropic types (Littlewood-Richardson rule)
# ---------------------------------------------------------------------------

def _lr_positive(outer, inner, content) -> bool:
    """c^outer_{inner, content} > 0: a Littlewood-Richardson tableau of
    shape outer/inner and weight content exists (rows weakly increase,
    columns strictly increase, and the word read right to left, top to
    bottom, is a lattice word).  First-success search, largest count
    first: row j holds cum[j][v] entries <= v in its first cells, and the
    number of v's in row j is bounded by
      columns:  inner[j] + cum[j][v] <= inner[j-1] + cum[j-1][v-1],
      lattice:  the v's so far <= the (v-1)'s above row j,
      weight:   the v's so far <= content[v - 1],
    and from below by what the larger values can still take."""
    n, h = len(outer), len(content)
    if len(inner) > n or sum(outer) != sum(inner) + sum(content):
        return False
    inner = tuple(inner) + (0,) * (n - len(inner))
    if any(a > b for a, b in zip(inner, outer)):
        return False
    if not h:
        return True
    weight = (0, *content)
    total = [0] * (h + 1)  # total[v]: v's placed so far
    cum = [[0] * (h + 1) for _ in range(n)]
    made = []  # (j, v, count, least count) of every choice, last on top
    j, v = 0, 1
    while j < n:
        row = cum[j]
        rem = outer[j] - inner[j] - row[v - 1]
        lo = rem if v == h else max(0, rem - sum(weight[u] - total[u] for u in range(v + 1, h + 1)))
        c = min(rem, weight[v] - total[v])
        if v > 1:
            c = min(c, total[v - 1] - (row[v - 1] - row[v - 2]) - total[v])
        if j:
            c = min(c, inner[j - 1] + cum[j - 1][v - 1] - inner[j] - row[v - 1])
        while c < lo:  # undo choices until one can take one less
            if not made:
                return False
            j, v, c, lo = made.pop()
            total[v] -= c
            c -= 1
        cum[j][v] = cum[j][v - 1] + c
        total[v] += c
        made.append((j, v, c, lo))
        j, v = (j, v + 1) if v < h else (j + 1, 1)
    return True


def _lagrangian_partitions(lam) -> list[tuple[int, ...]]:
    """The nu with c^mu_{nu nu} > 0 for mu = lam ∪ lam, the exponent
    partition of the standard module on a p-group of type lam; lam itself
    (the Lagrangian A) needs no search."""
    lam = tuple(lam)
    mu = tuple(sorted(lam + lam, reverse=True))
    return [nu for nu in _partitions_inside(mu, sum(lam)) if nu == lam or _lr_positive(mu, nu, nu)]


def _contains(nu, rho) -> bool:
    return len(rho) <= len(nu) and all(x <= y for x, y in zip(rho, nu))


def standard_isotropic_types(a: FinAbGroup, order: int) -> list[tuple[int, ...]]:
    """isotropic_types of the standard module on A x A*, from the type of
    A alone: no module is built and nothing is enumerated.

    At each prime the types of order p^k are the partitions of k inside a
    Lagrangian type (_lagrangian_partitions), listed inside their
    componentwise maximum and kept when a Lagrangian type holds them.  The
    primes combine as in subgroup_census.  Refused (OutputBoundError) as
    soon as the types found are more than MAX_LISTED, or may print more
    than MAX_PRINTED_DIGITS digits, before they are listed.
    """
    if order < 1:
        raise PreconditionError(f"order {_int_text(order)} is not positive")
    parts = _exponent_partitions(a)
    ks = []
    rest = order
    for p, lam in parts:
        k = _valuation(rest, p)
        if k > sum(lam):
            return []
        rest //= p ** k
        ks.append(k)
    if rest != 1:
        return []
    # a type has at most max_p min(k_p, len(mu_p)) factors f, of at most
    # log10(f) + 1 digits each, and their product is the order
    rank = max((min(k, 2 * len(lam)) for k, (_, lam) in zip(ks, parts)), default=0)
    digits = sum(k * log10(p) for k, (p, _) in zip(ks, parts)) + rank
    bound = min(MAX_LISTED, int(MAX_PRINTED_DIGITS / digits) if digits else MAX_LISTED)
    per_prime = []
    count = 1
    for k, (p, lam) in zip(ks, parts):
        lags = sorted(_lagrangian_partitions(lam), reverse=True)
        n = len(lags)
        envelope = tuple(map(max, zip_longest(*lags, fillvalue=0)))
        found = []
        at = 0
        for rho in _partitions_inside(envelope, k):
            # both lists descend, so the type that held the last partition,
            # or one just after it, mostly holds the next
            at = next((i % n for i in range(at, at + n) if _contains(lags[i % n], rho)), None)
            if at is None:
                at = 0
                continue
            found.append([p ** x for x in rho])
            if count * len(found) > bound:
                raise OutputBoundError(_too_many_types(bound))
        count *= len(found)
        per_prime.append(found)
    return sorted(_canonical_chain(q for powers in combo for q in powers)
                  for combo in product(*per_prime))


def _too_many_types(bound: int) -> str:
    if bound == MAX_LISTED:
        return f"the isotropic types are more than the listing bound {MAX_LISTED}"
    return (f"the isotropic types, more than {bound}, may print more than"
            f" {MAX_PRINTED_DIGITS} decimal digits")


def isotropic_types(w: SkewForm, order: int) -> list[tuple[int, ...]]:
    """Sorted isomorphism types of the isotropic subgroups of the given
    order, for a nondegenerate w, read off the group type of H.

    H is hyperbolic, H ~ A + A*, and w is isometric to the standard module
    on A (Wall, Topology 2, 1963); at each prime mu = lam ∪ lam.  A
    Lagrangian L has H/L ~ L* ~ L, so a type nu of a Lagrangian has
    c^mu_{nu nu} > 0 (the Hall polynomial g^mu_{nu nu} is nonzero iff the
    Littlewood-Richardson coefficient is; Macdonald, Symmetric Functions
    and Hall Polynomials, II (4.3)).  Conversely nu = alpha ∪ beta with
    c^lam_{alpha beta} > 0 is realised by B + B^perp for a subgroup B of A
    of type alpha and cotype beta.  That every nu with c^mu_{nu nu} > 0 is
    such a union is proved for every lam with |lam| <= 12 by
    tests/test_qzforms.py::test_lagrangian_types_are_realised, and holds
    for every (1^m) and (r), the two shapes of `obstruct --mode compare`
    (lam is the only candidate of (1^m); (a, r - a) is (a) ∪ (r - a)).
    Every isotropic subgroup lies in a Lagrangian, so the types of order
    p^k are the partitions of k inside the Lagrangian types.
    tests/test_qzforms.py::test_isotropic_types_match_enumeration checks
    the whole against iter_isotropic_bases at every order.
    """
    if not is_nondegenerate(w):
        raise DegenerateFormError("isotropic types need a nondegenerate form")
    inv = w.group.invariants
    assert inv[::2] == inv[1::2], "a nondegenerate module is A + A*"
    return standard_isotropic_types(FinAbGroup(inv[::2]), order)


# ---------------------------------------------------------------------------
# Isotropic transfer (greedy isotropic extension)
# ---------------------------------------------------------------------------

class _Workspace:
    def __init__(self):  # empty and never built: perfbench/tracing.py wraps it
        pass


def _subgroup_quotient_type(h1: Subgroup, inner: Subgroup) -> tuple[int, ...]:
    """Isomorphism type of H1/inner for nested subgroups of a common group:
    the cokernel of inner's Hermite rows written over H1's Hermite basis."""
    if h1.order == 1:
        return ()
    k = h1.ambient.rank
    rows = [_lattice_coefficients(h1.basis, row, k) for row in inner.basis]
    return _cokernel_invariants(rows, k, h1.order // inner.order)


def isotropic_transfer(
    w: SkewForm,
    h1: Subgroup,
    iso: Subgroup,
    limit: int | None = None,  # unread: perfbench passes it positionally
    search_min: bool = False,
) -> tuple[Subgroup, TransferWitness]:
    """Transfer an isotropic subgroup I <= H1 to an isotropic I1 of the
    whole module with type(I1) embedding in H1/I and |H1| dividing n*|I1|.

    I_max extends I to a maximal isotropic subgroup of H1, and Lambda
    extends I_max to one of H (_extend_isotropic).  In a nondegenerate
    module that is a Lagrangian (Wall, Topology 2, 1963), so Lambda meets
    H1 in I_max and H1/I_max embeds in H/Lambda, of Lambda's type; I1 is
    the subgroup of Lambda of type H1/I_max.  With search_min=True the
    witness also reports the least isotropic order meeting both
    conclusions, |H1| / gcd(|H1|, n), which a subgroup of I1 has.  Nothing
    is enumerated, at any |H|.
    """
    g = w.group
    n2 = g.order
    n = isqrt(n2)
    if n * n != n2 or not is_nondegenerate(w):
        raise DegenerateFormError("transfer requires a nondegenerate module")
    if h1.ambient != g or iso.ambient != g:
        raise AmbientMismatchError("subgroups of a different group")
    if not h1.contains_subgroup(iso):
        raise PreconditionError("I must be contained in H1")
    if not is_isotropic(w, iso):
        raise PreconditionError("I must be isotropic")

    i_max = _extend_isotropic(w, iso, h1)
    lag = _extend_isotropic(w, i_max, full_subgroup(g))
    # |Lambda| |H1| = |Lambda + H1| |Lambda ∩ H1|, the sum from both Hermite bases
    assert lag.order * h1.order == (
        Subgroup(g, _hnf(lag.basis + h1.basis, g.invariants)).order * i_max.order
    ), "Lambda meets H1 exactly in I_max"

    # the factors of H1/I_max, aligned at the largest, divide Lambda's
    image_type = _subgroup_quotient_type(h1, i_max)
    aligned = zip(reversed(image_type), reversed(lag.sub_invariants),
                  reversed(lag.canonical_basis()))
    i1 = subgroup_from_generators(g, [d // f * x for f, d, x in aligned])

    min_order = h1.order // gcd(h1.order, n) if search_min else None
    return i1, TransferWitness(i_max, lag, image_type, min_order)
