"""Abelian subgroups of PGL_n inside phi(A x A*), held as lattices.

The index set of an n x n monomial matrix is the element list of a finite
abelian group A (lexicographic coordinate order, n = |A|); roots of unity
are stored as exponent residues modulo N = exponent(A), so every product,
inverse and commutator is exact.  P_a is translation by a, D_chi the
character diagonal, and phi(a, chi) the image of P_a D_chi in PGL(k[A]).

phi is an injective homomorphism A x A* -> PGL(k[A]), and the commutator
of lifts of phi(a, chi) and phi(b, mu) is the scalar chi(b) - mu(a).  So a
subgroup H of the image is the image of one lattice S <= A x A*, and its
commutator pairing alpha_H is the standard module restricted to S (Wall,
"Quadratic forms on finite groups", Topology 2, 1963).  A PglSubgroup is
that lattice: order, alpha_H, torality and depth are lattice algebra.
Matrices serve `pgl element` and verification only: the element and
coordinate tables, and the commutator Gram that the isometry suite
compares with alpha_H.

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
    Subgroup,
    _factorize,
    dual_group,
    eval_character,
    full_subgroup,
    subgroup_from_generators,
)
from .qzforms import SkewForm, radical, restrict, standard_module

__all__ = [
    "MonomialMatrix",
    "ProjectiveElement",
    "PglSubgroup",
    "perm_matrix",
    "diag_matrix",
    "phi",
    "phi_image",
    "phi_span",
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

    def is_identity(self) -> bool:
        return self.canonical_lift().is_identity()

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


def _interleave(a_coords, chi_coords) -> list[int]:
    """(a, chi) in the generator slots of standard_module(A).group."""
    coords = [0] * (2 * len(a_coords))
    coords[0::2] = a_coords
    coords[1::2] = chi_coords
    return coords


def _decode(pe: ProjectiveElement) -> list[int] | None:
    """Interleaved (a, chi) coordinates of pe, or None if pe is not in
    phi(A x A*).  a is where P_a sends index 0; chi(e_i) is the difference
    of the diagonal at e_i and at 0, which no scalar changes."""
    a = pe.lift.group
    table = _IndexTable.of(a)
    perm, norm = pe.key
    n = table.modulus
    x = a.element(table.coords[perm[0]])
    chi = []
    for i, d in enumerate(a.invariants):
        unit = tuple(int(t == i) for t in range(a.rank))
        v = (norm[table.index[unit]] - norm[0]) % n
        if v % (n // d):
            return None
        chi.append(v // (n // d))
    if phi(x, dual_group(a).element(chi)).key != pe.key:
        return None
    return _interleave(x.coords, chi)


# perfbench/tracing.py wraps this name as its "heisenberg.peel" span (the
# identification of a subgroup from projective generators); the name stays
# until that span list changes.
_peel_basis = _decode


def _span(a: FinAbGroup, points) -> Subgroup:
    """Lattice spanned by interleaved (a, chi) coordinates in A x A*."""
    ambient = standard_module(a).group
    return subgroup_from_generators(ambient, [ambient.element(c) for c in points])


def _certify_abelian(lifts) -> None:
    """All pairwise commutators of the lifts must be scalar."""
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            if not commutator(lifts[i], lifts[j]).is_scalar():
                raise NotAbelianInPglError("generator commutator is not a scalar matrix")


class PglSubgroup:
    """Subgroup H of phi(A x A*) in PGL(k[A]), held as the lattice S of
    A x A* it is the image of: `lattice` is a Subgroup of
    standard_module(A).group, slots interleaved (a_1, chi_1, a_2, ...).

    The constructor decodes projective generators into (a, chi)
    coordinates; a generator outside phi(A x A*) raises
    AmbientMismatchError (NotAbelianInPglError first if the generator
    lifts do not even commute projectively).  phi_span and phi_image start
    from coordinates and build no matrix.  The basis lifts and the element
    and coordinate tables exist for verification and are built on request.
    """

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise AmbientMismatchError("need at least one generator (use phi(0, 0))")
        group = gens[0].lift.group
        points = []
        for g in gens:
            if g.lift.group != group:
                raise AmbientMismatchError("generators over different index groups")
            coords = _decode(g)
            if coords is None:
                _certify_abelian([pe.lift for pe in gens])
                raise AmbientMismatchError("generator is not in phi(A x A*)")
            points.append(coords)
        self._set(group, _span(group, points))

    @classmethod
    def _of(cls, group: FinAbGroup, lattice: Subgroup) -> "PglSubgroup":
        h = cls.__new__(cls)
        h._set(group, lattice)
        return h

    def _set(self, group: FinAbGroup, lattice: Subgroup) -> None:
        self.index_group = group
        self.lattice = lattice
        self._abstract = None  # (abstract FinAbGroup, basis ProjectiveElements)
        self._elements = None
        self._coords = None

    @property
    def order(self) -> int:
        return self.lattice.order

    def abstract(self):
        """(FinAbGroup, basis ProjectiveElements): the invariants of S and
        phi of S.canonical_basis(), whose orders match them."""
        if self._abstract is None:
            a = self.index_group
            dual = dual_group(a)
            basis = [
                phi(a.element(e.coords[0::2]), dual.element(e.coords[1::2]))
                for e in self.lattice.canonical_basis()
            ]
            self._abstract = (FinAbGroup(self.lattice.sub_invariants), basis)
        return self._abstract

    def certify_abelian(self) -> None:
        """Matrix check that the basis lifts commute projectively."""
        _certify_abelian([pe.lift for pe in self.abstract()[1]])

    def elements(self) -> dict:
        """Canonical key -> ProjectiveElement, every element of H."""
        if self._elements is None:
            self._tabulate()
        return self._elements

    def coords_table(self) -> dict:
        """Canonical key -> abstract coordinates over the basis."""
        if self._coords is None:
            self._tabulate()
        return self._coords

    def _tabulate(self) -> None:
        """Element and coordinate tables from products of basis powers."""
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
        self._elements = elems
        self._coords = coords


def phi_span(a: FinAbGroup, pairs) -> PglSubgroup:
    """The subgroup generated by phi(x, chi) for (x, chi) in pairs, as the
    lattice their coordinates span; no matrix is built."""
    dual = dual_group(a)
    points = []
    for x, chi in pairs:
        if x.group != a or chi.group != dual:
            raise AmbientMismatchError("generator coordinates from a different group")
        points.append(_interleave(x.coords, chi.coords))
    return PglSubgroup._of(a, _span(a, points))


def phi_image(a: FinAbGroup) -> PglSubgroup:
    """The whole of phi(A x A*).  Its lattice is all of A x A*, whose
    canonical basis is the unit basis, so the abstract group and generator
    slots are exactly those of qzforms.standard_module(a)."""
    return PglSubgroup._of(a, full_subgroup(standard_module(a).group))


def alpha_form(h: PglSubgroup) -> SkewForm:
    """Commutator pairing alpha_H: the standard module on A x A*
    restricted to S, Gram on S.canonical_basis().  The isometry suite
    checks it against the scalar commutators of the basis lifts."""
    return restrict(standard_module(h.index_group), h.lattice)


def is_toral(h: PglSubgroup) -> bool:
    """Toral in PGL_n means the commutator pairing vanishes identically."""
    return alpha_form(h).is_zero()


def depth(h: PglSubgroup) -> int:
    """Index exponent of a largest toral subgroup: log_p of |H| over the
    maximal isotropic order of alpha_H.

    H / Rad(alpha_H) is a nondegenerate symplectic module, so it has
    Lagrangians of order sqrt|H / Rad| and every maximal isotropic
    subgroup contains the radical.  Hence depth = log_p sqrt(|H| / |Rad|),
    read off the lattice S with one Smith normal form; no subgroup is
    enumerated and no matrix is built (the test suite checks it against
    exhaustive isotropic search).
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
