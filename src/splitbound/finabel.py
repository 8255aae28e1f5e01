"""Finite abelian groups in invariant-factor form.

A group is a divisibility chain d_1 | d_2 | ... | d_k with every d_i >= 2;
elements are coordinate tuples reduced modulo the chain.  A subgroup is
stored as the unique Hermite-form basis of the lattice it spans together
with the relation lattice diag(d_1, ..., d_k), so subgroup equality is
basis equality.  Q/Z values are exact reduced residues; there is no
floating point anywhere in this package.

Only _exponent_partitions factors an integer, and only the exponent: by
trial division below _TRIAL_BOUND, with a cofactor that must be 1 or a
prime power.  The subgroup census and the subgroup enumeration
(_iter_bases_general, for its pivot divisors) call it, and so do, in
qzforms, least_isotropic_basis and standard_isotropic_types, and through
them max_isotropic and isotropic_types; each refuses an exponent with two
primes above _TRIAL_BOUND with the same InputError.  Chains are merged
by gcd/lcm exchanges (_canonical_chain), and subgroup and quotient types
are cokernels diagonalised modulo a multiple of their order
(_cokernel_invariants), so every group operation is polynomial in the bit
length of its input.  Primality is asked only where a statement needs a
prime (elementary groups, p-group tests, a given p): _is_prime and
_prime_power settle it up to FACTOR_MAX_BITS and refuse above.

>>> A = make_group([4, 2])
>>> A.invariants
(2, 4)
>>> quotient(A, subgroup_from_generators(A, [A.element((0, 2))])).invariants
(2, 2)
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, product, starmap, zip_longest
from math import ceil, gcd, isqrt, log10, prod
from operator import mul

from .errors import (
    MAX_INT_DIGITS,
    AmbientMismatchError,
    InputError,
    InvalidInvariantError,
    OutputBoundError,
    PairingMismatchError,
    PreconditionError,
    _int_text,
    _over_digit_bound,
)

__all__ = [
    "QmodZ",
    "FinAbGroup",
    "Element",
    "Subgroup",
    "make_group",
    "dual_group",
    "eval_character",
    "subgroup_from_generators",
    "quotient",
    "enumerate_subgroups",
    "embeds_into",
    "subgroup_census",
    "reduce_tuple",
    "replay_ops",
]


class QmodZ:
    """Element of Q/Z as a reduced residue num/den, 0 <= num < den."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("Q/Z denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def zero(cls) -> "QmodZ":
        return cls(0, 1)

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.num, self.den)

    def __mul__(self, n: int) -> "QmodZ":
        return QmodZ(self.num * n, self.den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QmodZ)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        if not isinstance(text, str):
            raise TypeError(f"Q/Z literal must be a 'num/den' string, not {text!r}")
        num, _, den = text.partition("/")
        if _over_digit_bound(num) or _over_digit_bound(den):  # in our words, not int()'s
            raise ValueError("a Q/Z literal's numerator or denominator has more than"
                             f" {MAX_INT_DIGITS} decimal digits")
        return cls(int(num), int(den) if den else 1)


def _canonical_chain(entries) -> tuple[int, ...]:
    """Merge arbitrary cyclic orders into the invariant-factor chain.

    Each entry is carried from the top of the chain down by the exchange
    diag(a, b) ~ diag(gcd(a, b), lcm(a, b)); at every prime that is one
    step of an insertion sort of the exponents, so nothing is factored.
    The entries the carry divides are left as they are, so they are
    skipped by bisection; every other exchange shrinks the carry to a
    proper divisor, so an entry costs O(log n) exchanges.

    >>> _canonical_chain([4, 2])
    (2, 4)
    >>> _canonical_chain([6, 10, 15])
    (30, 30)
    """
    chain: list[int] = []  # ascending, each entry divides the next
    for n in entries:
        if n < 2:
            raise InvalidInvariantError(f"invariant factor {n} < 2")
        i = len(chain)
        while n > 1:
            if i and n % chain[i - 1]:
                # the entries below i that n divides are a run ending at i
                i = bisect_left(chain, True, 0, i, key=lambda c: c % n == 0)
            if i == 0 or n % chain[i - 1] == 0:
                chain.insert(i, n)
                break
            i -= 1
            g = gcd(chain[i], n)
            chain[i], n = chain[i] // g * n, g
    return tuple(chain)


class FinAbGroup:
    """Finite abelian group given by its invariant-factor chain."""

    __slots__ = ("invariants",)

    def __init__(self, invariants):
        self.invariants = _canonical_chain(invariants)

    @property
    def order(self) -> int:
        return prod(self.invariants)

    @property
    def rank(self) -> int:
        return len(self.invariants)

    @property
    def exponent(self) -> int:
        return self.invariants[-1] if self.invariants else 1

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def elements(self):
        """All elements in lexicographic coordinate order."""
        for coords in product(*(range(d) for d in self.invariants)):
            yield Element(self, coords)

    def is_elementary(self) -> bool:
        inv = self.invariants
        return bool(inv) and all(d == inv[0] for d in inv) and _is_prime(inv[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinAbGroup) and self.invariants == other.invariants

    def __hash__(self) -> int:
        return hash(self.invariants)

    def __repr__(self) -> str:
        return f"FinAbGroup{list(self.invariants)}"


class Element:
    """Group element as a residue tuple; addition is componentwise."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords):
        coords = tuple(coords)
        if len(coords) != group.rank:
            raise AmbientMismatchError(
                f"expected {group.rank} coordinates, got {len(coords)}"
            )
        self.group = group
        self.coords = tuple(c % d for c, d in zip(coords, group.invariants))

    def _check(self, other: "Element") -> None:
        if self.group != other.group:
            raise AmbientMismatchError("elements of different groups")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.group, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "Element":
        return Element(self.group, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        n = 1
        for c, d in zip(self.coords, self.group.invariants):
            if c:
                n = n * (d // gcd(c, d)) // gcd(n, d // gcd(c, d))
        return n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.group.invariants, self.coords))

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

_TRIAL_BOUND = 1024
_TRIAL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, isqrt(p) + 1))
)
# Miller-Rabin to these bases proves primality below _MR_EXACT_BELOW, the
# least strong pseudoprime to all of them; above it a strong Lucas test
# joins them (Baillie-PSW: no composite is known to pass both)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# a number that trial division leaves is tested only up to this size
FACTOR_MAX_BITS = 1024


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to every base in _MR_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, q  # U_k, V_k, Q^k for P = 1, from k = 1 up to (n+1) / 2^s

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _check_bits(n: int) -> None:
    if n.bit_length() > FACTOR_MAX_BITS:
        raise InputError(
            f"primality of a {n.bit_length()}-bit cofactor is not settled:"
            f" above {FACTOR_MAX_BITS} bits"
        )


def _is_prime(n: int) -> bool:
    """Trial division below _TRIAL_BOUND, then Baillie-PSW; refused
    (InputError) for a cofactor above FACTOR_MAX_BITS."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    _check_bits(n)
    return _miller_rabin(n) and (n < _MR_EXACT_BELOW or _strong_lucas(n))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e and p prime, or None.  Trial division below
    _TRIAL_BOUND settles every n with a small prime factor; otherwise n is
    m^k for its largest exact root m, and n is a prime power iff m is
    prime (refused, InputError, above FACTOR_MAX_BITS like _is_prime)."""
    if n < 2:
        return None
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            e = _valuation(n, p)
            return (p, e) if n == p ** e else None
        if p * p > n:
            return n, 1
    _check_bits(n)
    # every prime factor is above _TRIAL_BOUND = 2^10, so k <= log2(n) / 10
    k = n.bit_length() // 10
    while (root := _iroot(n, k)) ** k != n:
        k -= 1
    return (root, k) if _is_prime(root) else None


def _valuation(n: int, p: int) -> int:
    """The exponent of p in n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Integer lattice normal forms
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _hnf(rows, invariants, drop=0) -> list[list[int]]:
    """Row Hermite form of the lattice L spanned by the rows and every
    d_t * e_t, for the invariants d_1, ..., d_k: upper triangular, positive
    pivots, entries above each pivot reduced into [0, pivot).

    Every caller's lattice already holds the relations d_t * e_t, so the
    rows are reduced modulo d_t in column t (Hermite form modulo D:
    Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138,
    section 2.4.2).  The carrier of column t starts as d_t * e_t, and every
    merged, residue and reduced row is taken modulo the d_t again, so every
    entry stays below its invariant factor and nothing grows.  The first
    row r with x = r[t] != 0 merges into d_t * e_t directly: with
    g = e d_t + f x, the carrier becomes f r (r itself when x | d_t) and
    the residue (d_t / g) r.  The rows before `drop` are left unreduced
    by the later pivots, for a caller that keeps only the rows from
    `drop` on; those rows are as with drop = 0.
    """
    k = len(invariants)
    work = [[x % d for x, d in zip(r, invariants)] for r in rows]
    work = [r for r in work if any(r)]
    result: list[list[int]] = []
    for col, d in enumerate(invariants):
        carrier = None
        rest = []
        for r in work:
            x = r[col]
            if x == 0:
                rest.append(r)
                continue
            if carrier is None:  # the first merge, into d * e_col
                g, _e, f = _xgcd(d, x)
                a = d // g
                residue = [a * v % m for v, m in zip(r, invariants)]
                carrier = r if f == 1 else [f * v % m for v, m in zip(r, invariants)]
            else:
                c = carrier[col]
                if x % c == 0:  # the carrier stays; r is reduced by it
                    q = x // c
                    residue = [(v - q * u) % m for u, v, m in zip(carrier, r, invariants)]
                else:
                    g, e, f = _xgcd(c, x)
                    a, b = c // g, x // g
                    residue = [(a * v - b * u) % m for u, v, m in zip(carrier, r, invariants)]
                    carrier = [(e * u + f * v) % m for u, v, m in zip(carrier, r, invariants)]
            if any(residue):
                rest.append(residue)
        if carrier is None:
            carrier = [d if t == col else 0 for t in range(k)]
        pivot = carrier[col]
        for prow in result[drop:]:
            q = prow[col] // pivot
            if q:
                for t in range(col, k):
                    prow[t] = (prow[t] - q * carrier[t]) % invariants[t]
        result.append(carrier)
        work = rest
    return result


def _lattice_coefficients(basis, vec, k: int):
    """Coefficients expressing vec over the Hermite basis, or None.  The
    residual is cleared from coordinate 0 up, and each coefficient takes
    the place of the coordinate it cleared."""
    v = list(vec)
    for i in range(k):
        x = v[i]
        if x:
            row = basis[i]
            c, r = divmod(x, row[i])
            if r:
                return None
            v[i] = c
            for t in range(i + 1, k):
                v[t] -= c * row[t]
    return v


def _eliminator(p: int, x: int) -> tuple[int, int, int, int]:
    """(c, d, e, f) of determinant 1 with c*p + d*x = gcd(p, x) and
    e*p + f*x = 0; the identity on p when p divides x."""
    if p and x % p == 0:
        return 1, 0, -(x // p), 1
    g, c, d = _xgcd(p, x)
    return c, d, -x // g, p // g


def _cokernel_invariants(mat, k: int, order: int) -> tuple[int, ...]:
    """Invariant factors (> 1, ascending) of Z^k / rowspan(mat) where the
    cokernel order is known to divide `order`.

    Then order * Z^k lies in the row lattice, so the cokernel is that of
    mat over Z/order.  Row and column xgcd steps diagonalise it there
    (Cohen, GTM 138, section 2.4); a diagonal entry x gives the cyclic
    factor Z/gcd(x, order), and _canonical_chain merges the factors.  No
    integer is factored.
    """
    if k == 0 or order == 1:
        return ()
    n = order
    a = [[x % n for x in row] for row in mat]
    cyclic = []
    for s in range(k):
        # rows and columns before s are zero outside the diagonal
        refilled = True
        while refilled:
            for i in range(s + 1, len(a)):  # clear column s by row steps
                if a[i][s]:
                    c, d, e, f = _eliminator(a[s][s], a[i][s])
                    u, v = a[s], a[i]
                    if d:
                        a[s] = [(c * x + d * y) % n for x, y in zip(u, v)]
                    a[i] = [(e * x + f * y) % n for x, y in zip(u, v)]
            refilled = False
            for j in range(s + 1, k):  # clear row s by column steps
                if a[s][j]:
                    c, d, e, f = _eliminator(a[s][s], a[s][j])
                    if not d:  # a multiple of the pivot, whose column is clear
                        a[s][j] = 0
                        continue
                    for row in a[s:]:
                        x, y = row[s], row[j]
                        row[s], row[j] = (c * x + d * y) % n, (e * x + f * y) % n
                    refilled = True  # the pivot shrank; clear column s again
                    break
        cyclic.append(gcd(a[s][s], n))
    return _canonical_chain(d for d in cyclic if d > 1)


def _snf_with_transforms(mat, k: int):
    """Smith form with the inverse row transform: returns (diag, Uinv)
    where U * mat * V = diag(d) with d_i | d_{i+1} and U, V unimodular.
    Each row step on `a` is undone on the columns of Uinv (row_i -= q *
    row_j adds q * col_i to col_j); column steps change `a` alone, so
    neither U nor V is built."""
    a = [list(row) for row in mat]
    uinv = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        for row in uinv:
            row[j] += q * row[i]

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
                a[bi], a[s] = a[s], a[bi]
                for row in uinv:
                    row[bi], row[s] = row[s], row[bi]
            if bj != s:
                for row in a:
                    row[bj], row[s] = row[s], row[bj]
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
                for row in uinv:
                    row[s] = -row[s]
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
                    for row in a:
                        row[j] -= q * row[s]
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
    return diag, uinv


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

class Subgroup:
    """Canonical subgroup: Hermite basis of its lattice over the relations."""

    __slots__ = ("ambient", "basis", "order", "_sub_invariants", "_canon")

    def __init__(self, ambient: FinAbGroup, basis):
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in basis)
        det = prod(self.basis[i][i] for i in range(ambient.rank))
        self.order = ambient.order // det
        self._sub_invariants = None
        self._canon = None

    @property
    def sub_invariants(self) -> tuple[int, ...]:
        if self._sub_invariants is None:
            if self.order == 1:
                self._sub_invariants = ()
            else:
                rel = _relation_matrix(self.ambient.invariants, self.basis, self.ambient.rank)
                self._sub_invariants = _cokernel_invariants(rel, len(rel), self.order)
        return self._sub_invariants

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups of different groups")
        inv = self.ambient.invariants
        k = len(inv)
        for i, row in enumerate(other.basis):
            # a Hermite row with pivot d_i is d_i * e_i, which every lattice holds
            if row[i] != inv[i] and _lattice_coefficients(self.basis, row, k) is None:
                return False
        return True

    def elements(self):
        """All elements of the subgroup (each exactly once)."""
        k = self.ambient.rank
        inv = self.ambient.invariants
        ranges = [range(inv[i] // self.basis[i][i]) for i in range(k)]
        for cs in product(*ranges):
            coords = [0] * k
            for i, c in enumerate(cs):
                if c:
                    row = self.basis[i]
                    for t in range(i, k):
                        coords[t] += c * row[t]
            yield Element(self.ambient, coords)

    def canonical_basis(self) -> list[Element]:
        """Generators realizing sub_invariants as a direct-sum decomposition
        (ascending orders, matching sub_invariants): the Hermite rows
        combined by the columns of Uinv, from the Smith form of relT."""
        if self._canon is None:
            k = self.ambient.rank
            if self.order == 1:
                self._canon = []
            else:
                # All k relations, the unit rows of the dead Hermite rows
                # included: the Smith transforms of this matrix fix which
                # generators come out, and callers print sums of them.
                inv = self.ambient.invariants
                rel = [_lattice_coefficients(self.basis, [inv[i] * (t == i) for t in range(k)], k)
                       for i in range(k)]
                relT = [[rel[j][i] for j in range(k)] for i in range(k)]
                diag, uinv = _snf_with_transforms(relT, k)
                gens = []
                for t in range(k):
                    d = abs(diag[t])
                    if d <= 1:
                        continue
                    coords = [0] * k
                    for j in range(k):
                        c = uinv[j][t]
                        if c:
                            row = self.basis[j]
                            for s in range(j, k):
                                coords[s] += c * row[s]
                    gens.append((d, Element(self.ambient, coords)))
                gens.sort(key=lambda t: t[0])
                assert tuple(d for d, _ in gens) == self.sub_invariants
                self._canon = [g for _, g in gens]
        return list(self._canon)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient.invariants, self.basis))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.ambient!r})"


def _live_block(invariants, basis, k: int):
    """The live block of a Hermite basis: over the indices i with pivot
    h_i < d_i, their invariants d_i, and the rows and columns of the basis
    at those indices.  _relation_matrix reads nothing else, so the
    subgroup's type is a function of this block."""
    live = [i for i in range(k) if basis[i][i] != invariants[i]]
    rows = tuple([tuple([basis[i][j] for j in live]) for i in live])
    return tuple([invariants[i] for i in live]), rows


def _types_by_live_block(a: FinAbGroup):
    """Hermite basis of a subgroup of A -> its type, with one cokernel per
    distinct live block: the type depends on nothing else (_live_block)."""
    types: dict = {}

    def type_of(basis) -> tuple[int, ...]:
        block = _live_block(a.invariants, basis, a.rank)
        if block not in types:
            types[block] = Subgroup(a, basis).sub_invariants
        return types[block]

    return type_of


def _relation_matrix(invariants, basis, k: int):
    """The r x r relations among the live rows of a Hermite basis, those
    with pivot h_i < d_i; row i writes d_i * e_i over the live rows.

    A dead row (h_i = d_i) is exactly d_i * e_i, which is 0 in A: over the
    whole basis its relation is the unit vector e_i, which deletes its own
    row and column from the cokernel.  So the subgroup is the cokernel of
    this matrix alone.  Forward substitution over the whole basis would
    skip the dead rows, since subtracting d_j * e_j only clears coordinate
    j; so row i is _lattice_coefficients of d_i * e_i over the live block,
    which never fails, as d_i * e_i lies in the lattice.
    """
    ds, rows = _live_block(invariants, basis, k)
    r = len(ds)
    rel = []
    for a, d in enumerate(ds):
        v = [0] * r
        v[a] = d
        rel.append(_lattice_coefficients(rows, v, r))
    return rel


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def make_group(invariants) -> FinAbGroup:
    """Group from arbitrary cyclic orders, e.g. [2, 3] -> chain (6,)."""
    return FinAbGroup(invariants)


def dual_group(a: FinAbGroup) -> FinAbGroup:
    """Character group; isomorphic to the group itself (same invariants)."""
    return FinAbGroup(a.invariants)


def eval_character(chi: Element, a: Element) -> QmodZ:
    """Pairing <chi, a> = sum chi_i a_i / d_i in Q/Z; bilinear and perfect."""
    if chi.group.invariants != a.group.invariants:
        raise PairingMismatchError(
            f"character group {chi.group!r} does not pair with {a.group!r}"
        )
    total = QmodZ.zero()
    for x, y, d in zip(chi.coords, a.coords, a.group.invariants):
        total = total + QmodZ(x * y, d)
    return total


def subgroup_from_generators(a: FinAbGroup, gens) -> Subgroup:
    """Canonical subgroup spanned by the generators (empty -> trivial)."""
    rows = []
    for g in gens:
        if g.group != a:
            raise AmbientMismatchError("generator from a different group")
        rows.append(g.coords)
    return Subgroup(a, _hnf(rows, a.invariants))


def trivial_subgroup(a: FinAbGroup) -> Subgroup:
    return subgroup_from_generators(a, [])


def full_subgroup(a: FinAbGroup) -> Subgroup:
    # the unit rows are their own Hermite form
    return Subgroup(a, _unit_rows(a.rank))


def _unit_rows(k: int):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _nonunit_block(basis, k: int):
    """The non-unit block of a Hermite basis: its rows and columns at the
    indices i with pivot h_i > 1.

    Entries above a pivot are reduced modulo it, so a unit pivot's column
    is e_i; column steps then clear the rest of its row, and that row and
    column split off Z^k / rowspan(basis) as a trivial factor.  So A/S is
    the cokernel of this block alone, and a function of it.
    """
    kept = [i for i in range(k) if basis[i][i] != 1]
    return tuple([tuple([basis[i][j] for j in kept]) for i in kept])


def quotient(a: FinAbGroup, s: Subgroup) -> FinAbGroup:
    """Invariant factors of A/S."""
    if s.ambient != a:
        raise AmbientMismatchError("subgroup of a different group")
    rows = _nonunit_block(s.basis, a.rank)
    return FinAbGroup(_cokernel_invariants(rows, len(rows), a.order // s.order))


# -- exhaustive subgroup enumeration ----------------------------------------

# Always empty, never filled: the benchmark tracer (perfbench/tracing.py)
# reads this name when it wraps iter_subgroup_bases.
_BASIS_CACHE: dict = {}


def _divisors_over(lo: int, n: int, primes) -> list[int]:
    """The divisors of n that are multiples of lo, ascending; n's primes
    are among `primes`."""
    if n % lo:
        return []
    divs = [lo]
    rest = n // lo
    for p in primes:
        e = _valuation(rest, p)
        divs = [x * p ** j for x in divs for j in range(e + 1)]
    return sorted(divs)


def _iter_bases_general(invariants: tuple[int, ...], order=None, admit=None, keep_pivot=None):
    """All Hermite bases of lattices between diag(invariants) and Z^k.

    Rows are produced bottom-up, each with its pivot h_i | d_i ascending
    and then its tail (entries reduced modulo the pivots below) in lex
    order; bases come out in that nested order.  A row's tails are those
    with c * tail (c = d_i / h_i) in the lattice of the rows below, solved
    for by _solved_tails; a dead row (h_i = d_i) takes only the tail 0.

    With `order`, only subgroups of that order are produced, none when it
    is below 1: row i multiplies the order by d_i / h_i, so a pivot is cut
    when that does not divide the order still needed or when rows 0..i-1
    cannot supply the rest.  With `admit(row, kept)`, a row that is
    nonzero modulo the invariants (pivot h_i < d_i; such a row is already
    reduced) is kept only if the predicate accepts it against the nonzero
    rows kept below it.  Both cuts are exact when the predicate is
    pairwise, as for isotropy, so no completion of a cut branch is lost.
    With `keep_pivot(h, d)`, row i takes only the pivots h | d_i it
    accepts: the stream is the unfiltered one with every basis that has a
    rejected pivot left out, in the same order, since a row's tails
    depend only on the rows below it.
    """
    k = len(invariants)
    if order is not None and (order < 1 or k == 0 and order != 1):
        return
    primes = [p for p, _ in _exponent_partitions(FinAbGroup(invariants))]
    divisors = [_divisors_over(1, d, primes) for d in invariants]
    if keep_pivot is not None:
        divisors = [[h for h in hs if keep_pivot(h, d)] for hs, d in zip(divisors, invariants)]
    room = [prod(invariants[:i]) for i in range(k)]

    def grown(rows, kept, need):  # the partial bases one row up from rows
        i = k - 1 - len(rows)
        d = invariants[i]
        below = [r[i + 1:] for r in rows]
        for h in divisors[i]:
            c = d // h
            if need is not None and (need % c or need // c > room[i]):
                continue
            rest = need if need is None else need // c
            for tail in _solved_tails(below, c) if h != d else [(0,) * len(below)]:
                row = (0,) * i + (h,) + tail
                if admit is None or h == d:
                    yield (row,) + rows, kept, rest
                elif admit(row, kept):
                    yield (row,) + rows, kept + [row], rest

    # depth first with a stack of generators, not a chain of nested ones
    stack = [iter([((), [], order)])]
    while stack:
        for rows, kept, need in stack[-1]:
            if len(rows) == k:
                yield rows
            else:
                stack.append(grown(rows, kept, need))
                break
        else:
            stack.pop()


def _solved_tails(below, c: int) -> list[tuple[int, ...]]:
    """The tails t, t_j below the pivot p_j of below[j], with c * t in the
    lattice of the Hermite rows `below`, in lex order: forward substitution
    solved one coordinate at a time.  With r_j the residual at j and
    g = gcd(c, p_j), p_j | c * t_j + r_j iff g | r_j and t_j lies in one
    class mod p_j / g, each taking (c*t_j + r_j)/p_j * below[j] off them."""
    states = [((), (0,) * len(below))]
    for j, row in enumerate(below):
        p = row[j]
        g = gcd(c, p)
        step, inverse = p // g, pow(c // g, -1, p // g)
        carries = any(row[j + 1:])  # else the later residuals stay
        longer = []
        for tail, res in states:
            r = res[j]
            if r % g == 0:
                for t in range(-(r // g) * inverse % step, p, step):
                    q = (c * t + r) // p
                    longer.append((tail + (t,), tuple([x - q * y for x, y in zip(res, row)])
                                   if q and carries else res))
        states = longer
    return [tail for tail, _ in states]


# `limit` is unread: the benchmark tracer (perfbench/tracing.py) passes it
# positionally when it wraps this function
def iter_subgroup_bases(a: FinAbGroup, limit: int | None = None):
    """The Hermite bases of every subgroup in _iter_bases_general's order,
    untyped (see _types_by_live_block).  Every partial basis completes, so
    the work grows with the number of subgroups: a caller bounds that
    (subgroup_census counts them first)."""
    yield from _iter_bases_general(a.invariants)


def enumerate_subgroups(a: FinAbGroup) -> list[Subgroup]:
    """All subgroups, canonical, ordered by descending order then basis."""
    subs = [Subgroup(a, basis) for basis in iter_subgroup_bases(a)]
    subs.sort(key=lambda s: (-s.order, s.basis))
    return subs


def embeds_into(a: FinAbGroup, b: FinAbGroup) -> bool:
    """True iff A is isomorphic to a subgroup of B (equivalently, by
    subgroup/quotient duality, to a quotient of B).

    For every prime p the exponent partition of A_p must fit inside that of
    B_p (Birkhoff's setting; L.M. Butler, Mem. AMS 539, 1994).  On the
    invariant-factor chains, aligned at their largest factors, that reads:
    A has no more factors than B and each factor of A divides the factor of
    B in the same place.  Nothing is enumerated.
    """
    ia, ib = a.invariants, b.invariants
    return len(ia) <= len(ib) and all(y % x == 0 for x, y in zip(reversed(ia), reversed(ib)))


# -- closed-form subgroup census --------------------------------------------

# the most subgroup types (subgroup_census) or subgroups (`group subgroups
# --list`) that one query may list
MAX_LISTED = 65536
# the most decimal digits that the types of one subgroup_census may print
MAX_PRINTED_DIGITS = 1 << 20


def _exponent_partitions(a: FinAbGroup) -> list[tuple[int, tuple[int, ...]]]:
    """[(p, lambda_p)] over the primes p of the exponent, ascending;
    lambda_p is the nonincreasing partition of the p-exponents of the
    invariant factors.

    The primes are found by trial division below _TRIAL_BOUND.  The
    cofactor left is 1 or, by _prime_power, a prime power; anything else
    (two primes above _TRIAL_BOUND, so an exponent above 2^20) is refused
    with InputError.
    """
    n = a.exponent
    primes = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            primes.append(p)
            n //= p ** _valuation(n, p)
    else:
        if n > 1:
            power = _prime_power(n)
            if power is None:
                raise InputError(
                    f"the primes of the exponent are not found: the cofactor"
                    f" {_int_text(n)} left by trial division below {_TRIAL_BOUND}"
                    " is not a prime power"
                )
            n = power[0]
    if n > 1:
        primes.append(n)
    inv = a.invariants[::-1]
    return [(p, tuple(v for d in inv if (v := _valuation(d, p)))) for p in primes]


def _count_subpartitions(lam: tuple[int, ...]) -> int:
    """#{nu : nu_j <= lambda_j, nu nonincreasing}, part by part from the
    largest: ways[v] counts the choices so far whose last part is v."""
    if not lam:
        return 1
    ways = [1] * (lam[0] + 1)
    for cap in lam[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][: cap + 1]  # sum over v >= w
    return sum(ways)


def _subpartitions(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nu inside lambda, as the tuple of its positive parts."""
    nus = frontier = [()]
    for cap in lam:
        frontier = [nu + (v,) for nu in frontier for v in range(1, min((cap, *nu[-1:])) + 1)]
        nus = nus + frontier
    return nus


def _partitions_inside(cap, k: int):
    """Every partition of k whose j-th part is at most cap[j] (cap
    nonincreasing), as tuples of positive parts, each once.  The search
    keeps its own stack: a partition may have thousands of parts."""
    n = len(cap)
    room = [0] * (n + 1)  # room[j] = sum(cap[j:])
    for j in range(n - 1, -1, -1):
        room[j] = room[j + 1] + cap[j]
    if k > room[0]:
        return
    parts: list[int] = []
    left = k
    v = min(cap[0], k) if n else 0
    while True:
        if not left:
            yield tuple(parts)
        else:
            j = len(parts)
            # part v at j leaves left - v to the n - j - 1 parts after it,
            # each at most v; a smaller v leaves more to less room
            if v and left - v <= min(v * (n - j - 1), room[j + 1]):
                parts.append(v)
                left -= v
                v = min(cap[j + 1], v, left) if left else 0
                continue
        if not parts:
            return
        v = parts.pop()  # try the last part one smaller
        left += v
        v -= 1


def _gaussian_binomial(n: int, m: int, q: int) -> int:
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _birkhoff_count(lam: tuple[int, ...], nu: tuple[int, ...], p: int) -> int:
    """alpha_lambda(nu; p), the number of subgroups of type nu in the
    abelian p-group of type lambda (Birkhoff, Proc. LMS 38, 1935):

        prod_{i>=1} p^{nu'_{i+1}(lambda'_i - nu'_i)}
                    [lambda'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p

    with ' the conjugate partition.  The factor of column i depends only
    on (lambda'_i, nu'_i, nu'_{i+1}), which is constant between the parts
    of lambda and nu, so the product runs over those parts, not the columns.
    """
    exp, total, lo = 0, 1, 0
    for hi in sorted(set(lam) | set(nu)):
        big = sum(1 for x in lam if x >= hi)  # lambda'_i on lo < i <= hi
        mid = sum(1 for x in nu if x >= hi)  # nu'_i there
        top = sum(1 for x in nu if x > hi)  # nu'_{hi+1}
        exp += (hi - lo - 1) * mid * (big - mid) + top * (big - mid)
        total *= _gaussian_binomial(big - top, mid - top, p)
        lo = hi
    return total * p ** exp


def _subgroup_type_counts(parts) -> dict[tuple[int, ...], int]:
    """Each subgroup type of the group with these _exponent_partitions,
    mapped to its number of subgroups.

    A subgroup is the product of its Sylow subgroups, so its type at p is
    a partition nu inside lambda_p and its count is the product over p of
    Birkhoff's alpha_lambda(nu; p).  The primes are coprime, so each
    invariant factor of the product is the product of the primary factors
    in its place, aligned at the largest one: the types are built largest
    factor first, one prime at a time, and turned ascending at the end.
    """
    counts: dict[tuple[int, ...], int] = {(): 1}
    for p, lam in parts:
        sylow = [(tuple([p ** v for v in nu]), _birkhoff_count(lam, nu, p))
                 for nu in _subpartitions(lam)]
        counts = {tuple(starmap(mul, zip_longest(t, powers, fillvalue=1))): n * m
                  for t, n in counts.items() for powers, m in sylow}
    return {t[::-1]: n for t, n in counts.items()}


def subgroup_census(a: FinAbGroup) -> tuple[int, list[tuple[int, ...]]]:
    """(number of subgroups, sorted list of their types) in closed form:
    the sum and the sorted keys of _subgroup_type_counts.

    At each prime p of the exponent the subgroup types are the partitions
    nu inside lambda_p (as for embeds_into), counted by Birkhoff's
    alpha_lambda(nu; p).  Nothing is enumerated.  Refused
    (OutputBoundError) before anything is listed when there are more than
    MAX_LISTED types, when the count is known to have more decimal digits
    than MAX_INT_DIGITS, or when the types may print more than
    MAX_PRINTED_DIGITS digits.
    """
    parts = _exponent_partitions(a)
    n_types = prod(_count_subpartitions(lam) for _, lam in parts)
    if n_types > MAX_LISTED:
        raise OutputBoundError(
            f"{_int_text(n_types)} subgroup types are more than the listing"
            f" bound {MAX_LISTED}"
        )
    # A lower bound refuses an unprintable count before it is formed.  The
    # type with nu'_i = floor(lambda'_i / 2) alone has alpha >=
    # p^{sum_i floor(lambda'_i^2 / 4)}, as [n choose m]_p >= p^{m(n-m)};
    # lambda'_i = j + 1 on the columns lambda_{j+1} < i <= lambda_j.  So the
    # count is at least 2^bits, which is above 10^MAX_INT_DIGITS once
    # 3 * bits > 10 * MAX_INT_DIGITS.
    bits = sum(
        (p.bit_length() - 1)
        * sum((x - y) * ((j + 1) ** 2 // 4) for j, (x, y) in enumerate(zip(lam, lam[1:] + (0,))))
        for p, lam in parts
    )
    if 3 * bits > 10 * MAX_INT_DIGITS:
        raise OutputBoundError(
            f"the subgroup count has more than {MAX_INT_DIGITS} decimal digits"
            " (the int-to-str limit)"
        )
    # A type has at most max_p len(lambda_p) factors f, of at most
    # log10(f) + 1 digits each, and their product divides |A|.
    rank = max((len(lam) for _, lam in parts), default=0)
    digits = n_types * (sum(sum(lam) * log10(p) for p, lam in parts) + rank)
    if digits > MAX_PRINTED_DIGITS:
        raise OutputBoundError(
            f"the {_int_text(n_types)} subgroup types may print up to {ceil(digits)}"
            f" decimal digits, more than the bound {MAX_PRINTED_DIGITS}"
        )
    counts = _subgroup_type_counts(parts)
    return sum(counts.values()), sorted(counts)


# -- elementary-operation tuple reduction -----------------------------------

def reduce_tuple(a: FinAbGroup, xi) -> tuple[list[tuple], list[Element]]:
    """Reduce an s-tuple (s >= rank) to one with at most rank(A) nonzero
    entries using only the moves xi_i -= xi_j, plus logged position swaps.

    Returns (ops_log, reduced).  Ops are ("sub", i, j, q), q >= 1 repeats
    of xi_i -= xi_j (one run of equal subtractive Euclidean steps), and
    ("swap", i, j), with 0-based positions.  Clearing a pair takes
    O(log d) ops for the invariant factor d it works in.  Replaying the
    log on the input reproduces the output, and the generated subgroup
    never changes along the way, not even within a run.
    """
    xs = list(xi)
    for x in xs:
        if x.group != a:
            raise AmbientMismatchError("tuple entry from a different group")
    s = len(xs)
    k = a.rank
    if s < k:
        raise PreconditionError(f"tuple length {s} < rank {k}")
    coords = [list(x.coords) for x in xs]
    inv = a.invariants
    log: list[tuple] = []

    def op_sub(i: int, j: int, q: int):
        # q repeats of xi_i -= xi_j, applied and logged as one op
        ci, cj = coords[i], coords[j]
        for t in range(k):
            ci[t] = (ci[t] - q * cj[t]) % inv[t]
        log.append(("sub", i, j, q))

    def op_swap(i: int, j: int):
        coords[i], coords[j] = coords[j], coords[i]
        log.append(("swap", i, j))

    def clear_pair(lead: int, tail: int, c: int):
        # Subtractive Euclidean steps on coordinate c, a run of equal steps
        # at a time; afterwards coords[tail][c] == 0.  Ties subtract the
        # later position from the earlier one, so the lead runs while
        # x >= y and the tail while y > x.  Both stay in [0, inv[c]), so
        # coordinate c never wraps.
        while (y := coords[tail][c]) != 0:
            x = coords[lead][c]
            if x == 0:
                op_swap(lead, tail)
                break
            if x >= y:
                op_sub(lead, tail, x // y)
            else:
                op_sub(tail, lead, (y - 1) // x)

    # entries first..s-1 live in the subgroup with coordinates <= c; the
    # pivot entry `first` clears coordinate c from every later one
    for first in range(k):
        c = k - 1 - first
        for j in range(first + 1, s):
            clear_pair(first, j, c)
    reduced = [Element(a, cs) for cs in coords]
    nonzero = sum(1 for el in reduced if not el.is_zero())
    assert nonzero <= k
    return log, reduced


def replay_ops(a: FinAbGroup, xi, ops) -> list[Element]:
    """Apply a reduce_tuple ops log to a fresh copy of the tuple: a
    ("sub", i, j, q) op sets xi_i -= q * xi_j, a ("swap", i, j) op swaps
    two positions.  An entry of another group is refused as reduce_tuple
    refuses it; an op of another kind or length, or whose positions are
    not two distinct indices of the tuple, or whose q is not an int >= 1,
    with PreconditionError."""
    xs = list(xi)
    if any(x.group != a for x in xs):
        raise AmbientMismatchError("tuple entry from a different group")
    n = len(xs)
    for op in ops:
        try:
            op = tuple(op)
        except TypeError:
            raise PreconditionError(f"malformed op {op!r}") from None
        if op[:1] == ("sub",) and len(op) == 4:
            _kind, i, j, q = op
        elif op[:1] == ("swap",) and len(op) == 3:
            (_kind, i, j), q = op, 1
        else:
            raise PreconditionError(f"malformed op {op!r}")
        if not (all(type(x) is int for x in (i, j, q)) and q >= 1
                and i != j and 0 <= i < n and 0 <= j < n):
            raise PreconditionError(f"malformed op {op!r}")
        if op[0] == "sub":
            xs[i] = xs[i] - q * xs[j]
        else:
            xs[i], xs[j] = xs[j], xs[i]
    return xs
