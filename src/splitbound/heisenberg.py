"""Monomial-matrix model of abelian subgroups of PGL_n.

The index set of an n x n monomial matrix is the element list of a finite
abelian group A (lexicographic coordinate order, n = |A|); roots of unity
are stored as exponent residues modulo N = exponent(A), so every product,
inverse and commutator is exact.  P_a is translation by a, D_chi the
character diagonal, and phi(a, chi) the image of P_a D_chi in PGL(V).

The commutator of two lifts of commuting projective elements is a scalar
matrix; reading off its exponent gives the alternating pairing that
detects torality and drives the depth computation.

Convention: the residue d mod N stands for the root of unity
exp(2*pi*i*d/N).  A consumer preferring the inverse identification must
negate exponents; nothing in this package depends on the choice.
"""

from __future__ import annotations

from itertools import product
from math import isqrt

from .errors import (
    AmbientMismatchError,
    NotAbelianInPglError,
    NotPGroupError,
    NotScalarError,
)
from .finabel import (
    Element,
    FinAbGroup,
    QmodZ,
    _factorize,
    dual_group,
    eval_character,
)
from .qzforms import SkewForm, radical

__all__ = [
    "MonomialMatrix",
    "ProjectiveElement",
    "PglSubgroup",
    "perm_matrix",
    "diag_matrix",
    "phi",
    "phi_image",
    "commutator",
    "scalar_exponent",
    "alpha_form",
    "is_toral",
    "depth",
]


class _IndexTable:
    """Element order and translation data for one index group."""

    _cache: dict[tuple[int, ...], "_IndexTable"] = {}

    def __init__(self, group: FinAbGroup):
        self.group = group
        self.coords = [e.coords for e in group.elements()]
        self.index = {c: i for i, c in enumerate(self.coords)}
        self.n = len(self.coords)
        self.modulus = group.exponent

    @classmethod
    def of(cls, group: FinAbGroup) -> "_IndexTable":
        table = cls._cache.get(group.invariants)
        if table is None:
            table = cls(group)
            cls._cache[group.invariants] = table
        return table

    def translation(self, a: Element) -> tuple[int, ...]:
        inv = self.group.invariants
        ac = a.coords
        return tuple(
            self.index[tuple((x + y) % d for x, y, d in zip(c, ac, inv))]
            for c in self.coords
        )


class MonomialMatrix:
    """One nonzero entry per row and column: entry (perm[b], b) is the root
    of unity with exponent diag[b] modulo the group exponent."""

    __slots__ = ("group", "perm", "diag")

    def __init__(self, group: FinAbGroup, perm, diag):
        self.group = group
        self.perm = tuple(perm)
        n = _IndexTable.of(group).modulus
        self.diag = tuple(d % n for d in diag)

    @property
    def modulus(self) -> int:
        return _IndexTable.of(self.group).modulus

    @property
    def size(self) -> int:
        return len(self.perm)

    def _check(self, other: "MonomialMatrix") -> None:
        if self.group != other.group:
            raise AmbientMismatchError("matrices over different index groups")

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        self._check(other)
        p1, d1 = self.perm, self.diag
        p2, d2 = other.perm, other.diag
        n = self.modulus
        perm = tuple(p1[p2[b]] for b in range(len(p1)))
        diag = tuple((d2[b] + d1[p2[b]]) % n for b in range(len(p1)))
        return MonomialMatrix(self.group, perm, diag)

    def inverse(self) -> "MonomialMatrix":
        n = self.modulus
        size = len(self.perm)
        perm = [0] * size
        diag = [0] * size
        for b in range(size):
            c = self.perm[b]
            perm[c] = b
            diag[c] = (-self.diag[b]) % n
        return MonomialMatrix(self.group, perm, diag)

    def is_identity(self) -> bool:
        return all(p == b for b, p in enumerate(self.perm)) and not any(self.diag)

    def is_scalar(self) -> bool:
        return all(p == b for b, p in enumerate(self.perm)) and all(
            d == self.diag[0] for d in self.diag
        )

    def scale(self, exponent: int) -> "MonomialMatrix":
        n = self.modulus
        return MonomialMatrix(
            self.group, self.perm, tuple((d + exponent) % n for d in self.diag)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and self.group == other.group
            and self.perm == other.perm
            and self.diag == other.diag
        )

    def __hash__(self) -> int:
        return hash((self.group.invariants, self.perm, self.diag))

    def __repr__(self) -> str:
        return f"MonomialMatrix(perm={self.perm}, diag={self.diag}, mod={self.modulus})"


def identity_matrix(group: FinAbGroup) -> MonomialMatrix:
    n = _IndexTable.of(group).n
    return MonomialMatrix(group, tuple(range(n)), (0,) * n)


def perm_matrix(a: Element) -> MonomialMatrix:
    """Regular-representation translation P_a."""
    table = _IndexTable.of(a.group)
    return MonomialMatrix(a.group, table.translation(a), (0,) * table.n)


def diag_matrix(chi: Element) -> MonomialMatrix:
    """Character diagonal D_chi over the group chi is a character of."""
    group = FinAbGroup(chi.group.invariants)
    table = _IndexTable.of(group)
    n = table.modulus
    diag = []
    for c in table.coords:
        v = eval_character(chi, Element(group, c))
        diag.append(v.num * (n // v.den) % n)
    return MonomialMatrix(group, tuple(range(table.n)), tuple(diag))


def commutator(x: MonomialMatrix, y: MonomialMatrix) -> MonomialMatrix:
    return x * y * x.inverse() * y.inverse()


def scalar_exponent(m: MonomialMatrix) -> QmodZ:
    """Exponent in Q/Z of a scalar matrix."""
    if not m.is_scalar():
        raise NotScalarError("matrix is not scalar")
    return QmodZ(m.diag[0] if m.diag else 0, m.modulus)


class ProjectiveElement:
    """Monomial matrix modulo scalars; the canonical lift zeroes the diag
    entry at the first index moved by the permutation (index 0 if none)."""

    __slots__ = ("lift", "key")

    def __init__(self, lift: MonomialMatrix):
        anchor = 0
        for b, p in enumerate(lift.perm):
            if p != b:
                anchor = b
                break
        n = lift.modulus
        base = lift.diag[anchor] if lift.diag else 0
        norm = tuple((d - base) % n for d in lift.diag)
        self.lift = lift
        self.key = (lift.perm, norm)

    def canonical_lift(self) -> MonomialMatrix:
        return MonomialMatrix(self.lift.group, self.key[0], self.key[1])

    def __mul__(self, other: "ProjectiveElement") -> "ProjectiveElement":
        return ProjectiveElement(self.lift * other.lift)

    def inverse(self) -> "ProjectiveElement":
        return ProjectiveElement(self.lift.inverse())

    def is_identity(self) -> bool:
        return self.canonical_lift().is_identity()

    def order(self) -> int:
        cur = self
        t = 1
        while not cur.is_identity():
            cur = cur * self
            t += 1
        return t

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProjectiveElement)
            and self.lift.group == other.lift.group
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.lift.group.invariants, self.key))

    def __repr__(self) -> str:
        return f"ProjectiveElement(perm={self.key[0]}, diag={self.key[1]})"


def phi(a: Element, chi: Element) -> ProjectiveElement:
    """Image of P_a D_chi in PGL(k[A])."""
    return ProjectiveElement(perm_matrix(a) * diag_matrix(chi))


class PglSubgroup:
    """Finite subgroup of PGL_n given by projective generators.

    The abstract-group identification (a FinAbGroup plus a basis of
    projective elements realizing its invariant factors) is computed by
    closure and cyclic peeling unless the constructor is given it;
    abelianness in PGL is certified by scalar commutators of lifts, never
    by commuting lifts.  Element and coordinate tables are built only on
    request.
    """

    def __init__(self, generators, _abstract=None):
        gens = list(generators)
        if not gens:
            raise AmbientMismatchError("need at least one generator (use phi(0, 0))")
        group = gens[0].lift.group
        for g in gens:
            if g.lift.group != group:
                raise AmbientMismatchError("generators over different index groups")
        self.index_group = group
        self.generators = gens
        self._abstract = _abstract  # (abstract FinAbGroup, basis ProjectiveElements)
        self._elements = None
        self._coords = None

    def elements(self) -> dict:
        """Canonical-key -> ProjectiveElement closure of the generators."""
        if self._elements is None:
            if self._abstract is not None:
                self._tabulate()
            else:
                one = ProjectiveElement(identity_matrix(self.index_group))
                seen = {one.key: one}
                frontier = [one]
                while frontier:
                    nxt = []
                    for pe in frontier:
                        for g in self.generators:
                            cand = pe * g
                            if cand.key not in seen:
                                seen[cand.key] = cand
                                nxt.append(cand)
                    frontier = nxt
                self._elements = seen
        return self._elements

    @property
    def order(self) -> int:
        if self._abstract is not None:
            return self._abstract[0].order
        return len(self.elements())

    def certify_abelian(self) -> None:
        """All pairwise commutators of generator lifts must be scalar."""
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not commutator(gens[i].lift, gens[j].lift).is_scalar():
                    raise NotAbelianInPglError(
                        "generator commutator is not a scalar matrix"
                    )

    def abstract(self):
        """(FinAbGroup, basis ProjectiveElements matching its invariants)."""
        if self._abstract is None:
            self.certify_abelian()
            elems = self.elements()
            basis_desc = _peel_basis(elems)
            orders = [o for o, _ in basis_desc]
            group = FinAbGroup(list(reversed(orders)))
            assert group.invariants == tuple(reversed(orders)), "orders form a chain"
            basis = [pe for _, pe in reversed(basis_desc)]
            self._abstract = (group, basis)
        return self._abstract

    def coords_table(self) -> dict:
        """Canonical key -> abstract coordinates, built from the basis."""
        if self._coords is None:
            self._tabulate()
        return self._coords

    def _tabulate(self) -> None:
        """Coordinate table, and the element table if none exists yet, from
        products of basis powers."""
        group, basis = self.abstract()
        one = ProjectiveElement(identity_matrix(self.index_group))
        pows = []
        for b, d in zip(basis, group.invariants):
            row = [one]
            for _ in range(d - 1):
                row.append(row[-1] * b)
            pows.append(row)
        coords = {}
        elems = {}
        for cs in product(*(range(d) for d in group.invariants)):
            pe = one
            for c, row in zip(cs, pows):
                if c:
                    pe = pe * row[c]
            coords[pe.key] = cs
            elems[pe.key] = pe
        assert len(coords) == group.order, "basis products must be distinct"
        if self._elements is None:
            self._elements = elems
        assert coords.keys() == self._elements.keys(), "basis must span the closure"
        self._coords = coords


def phi_image(a: FinAbGroup) -> PglSubgroup:
    """The subgroup phi(A x A*) with its natural coordinates: abstract
    group and generator slots exactly as in qzforms.standard_module.
    Only the 2k basis elements are built; the |A|^2 element and
    coordinate tables wait until elements() or coords_table() is called."""
    dual = dual_group(a)
    doubled = []
    for d in a.invariants:
        doubled.extend((d, d))
    abstract = FinAbGroup(doubled)
    k = a.rank
    basis = []
    for i in range(k):
        unit = tuple(int(t == i) for t in range(k))
        basis.append(phi(a.element(unit), dual.zero()))
        basis.append(phi(a.zero(), dual.element(unit)))
    gens = basis if basis else [phi(a.zero(), dual.zero())]
    return PglSubgroup(gens, _abstract=(abstract, basis))


def _peel_basis(elems: dict) -> list[tuple[int, object]]:
    """Invariant-factor basis (orders descending) of a finite abelian group
    of projective elements, by peeling off a maximal-order cyclic factor."""
    keys = sorted(elems)
    pes = elems

    def mul(k1, k2):
        return (pes[k1] * pes[k2]).key

    one_key = next(k for k in keys if pes[k].is_identity())

    def rec(universe, mulf, onek, lift_of):
        # universe: sorted keys of the current quotient; lift_of: key -> pe
        if len(universe) == 1:
            return []
        orders = {}
        for kk in universe:
            t = 1
            cur = kk
            while cur != onek:
                cur = mulf(cur, kk)
                t += 1
            orders[kk] = t
        nmax = max(orders.values())
        x1 = min(kk for kk in universe if orders[kk] == nmax)
        pows = {}
        cur = onek
        for t in range(nmax):
            pows[cur] = t
            cur = mulf(cur, x1)
        rep = {}
        for kk in universe:
            if kk in rep:
                continue
            members = []
            cur = kk
            for _ in range(nmax):
                members.append(cur)
                cur = mulf(cur, x1)
            canon = min(members)
            for m in members:
                rep[m] = canon
        q_universe = sorted(set(rep.values()))
        q_one = rep[onek]

        def q_mul(k1, k2):
            return rep[mulf(k1, k2)]

        sub = rec(q_universe, q_mul, q_one, lift_of)
        x1_inv_w = {}

        def x1_power(t):
            t %= nmax
            cur, kk = 0, onek
            while cur < t:
                kk = mulf(kk, x1)
                cur += 1
            return kk

        out = [(nmax, x1)]
        for t_ord, rkey in sub:
            # rkey^t_ord lies in <x1>; divide out the excess x1 part
            cur = rkey
            for _ in range(t_ord - 1):
                cur = mulf(cur, rkey)
            c = pows[cur]
            assert c % t_ord == 0
            w = c // t_ord
            adj = x1_power((nmax - w) % nmax)
            lifted = mulf(rkey, adj)
            out.append((t_ord, lifted))
        return out

    flat = rec(keys, mul, one_key, pes)
    return [(o, pes[k]) for o, k in flat]


def alpha_form(h: PglSubgroup) -> SkewForm:
    """Commutator pairing on the abstract group of H: entry (i, j) is the
    scalar exponent of the commutator of the basis lifts."""
    h.certify_abelian()
    group, basis = h.abstract()
    k = group.rank
    gram = [[None] * k for _ in range(k)]
    zero = QmodZ.zero()
    for i in range(k):
        gram[i][i] = zero
        for j in range(i + 1, k):
            c = commutator(basis[i].lift, basis[j].lift)
            v = scalar_exponent(c)
            gram[i][j] = v
            gram[j][i] = -v
    return SkewForm(group, gram)


def is_toral(h: PglSubgroup) -> bool:
    """Toral in PGL_n means the commutator pairing vanishes identically."""
    return alpha_form(h).is_zero()


def depth(h: PglSubgroup) -> int:
    """Index exponent of a largest toral subgroup: log_p of |H| over the
    maximal isotropic order of the commutator pairing alpha_H.

    H / Rad(alpha_H) is a nondegenerate symplectic module, so it has
    Lagrangians of order sqrt|H / Rad| and every maximal isotropic
    subgroup contains the radical.  Hence depth = log_p sqrt(|H| / |Rad|),
    read off one Smith normal form; no subgroup is enumerated (the test
    suite checks it against exhaustive isotropic search).
    """
    order = h.order
    if order == 1:
        return 0
    fact = _factorize(order)
    if len(fact) != 1:
        raise NotPGroupError(f"|H| = {order} is not a prime power")
    (p, _e), = fact.items()
    ratio = isqrt(order // radical(alpha_form(h)).order)
    d = 0
    while ratio > 1:
        assert ratio % p == 0
        ratio //= p
        d += 1
    return d
