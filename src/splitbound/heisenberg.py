"""Abelian subgroups of PGL_n inside phi(A x A*), held as lattices.

The index set of an n x n monomial matrix is the element list of a finite
abelian group A (lexicographic coordinate order, n = |A|): c sits at the
mixed-radix index sum c_i * s_i with s_i = d_{i+1} * ... * d_k, so indices
are computed, never looked up.  Roots of unity are stored as exponent
residues modulo N = exponent(A), so every product, inverse and commutator
is exact.  P_a is translation by a, D_chi the character diagonal, and
phi(a, chi) the image of P_a D_chi in PGL(k[A]).

phi is an injective homomorphism A x A* -> PGL(k[A]), and the commutator
of lifts of phi(a, chi) and phi(b, mu) is the scalar chi(b) - mu(a).  So a
subgroup H of the image is the image of one lattice S <= A x A*, and its
commutator pairing alpha_H is the standard module restricted to S (Wall,
"Quadratic forms on finite groups", Topology 2, 1963).  A PglSubgroup is
that lattice: order, alpha_H, torality and depth are lattice algebra.
Matrices serve `pgl element` and verification only: the closure tables
of a PglSubgroup, and the commutator Gram that the isometry suite
compares with alpha_H.

Convention: the residue d mod N stands for the root of unity
exp(2*pi*i*d/N).  A consumer preferring the inverse identification must
negate exponents; nothing in this package depends on the choice.
"""

from __future__ import annotations

from itertools import product
from math import isqrt, prod

from .errors import (
    AmbientMismatchError,
    NotAbelianInPglError,
    NotPGroupError,
    NotScalarError,
    _int_text,
)
from .finabel import (
    Element,
    FinAbGroup,
    QmodZ,
    Subgroup,
    _prime_power,
    _valuation,
    dual_group,
    full_subgroup,
    subgroup_from_generators,
)
from .qzforms import SkewForm, _annihilated, is_isotropic, restrict, standard_module

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


def _strides(invariants) -> list[int]:
    """s_i = d_{i+1} * ... * d_k: FinAbGroup.elements() lists c at the
    mixed-radix index sum c_i * s_i."""
    return [prod(invariants[i + 1:]) for i in range(len(invariants))]


def _lex_sums(columns) -> list[int]:
    """sum_i columns[i][c_i] for every c, in lexicographic order of c."""
    sums = [0]
    for col in columns:
        sums = [t + x for t in sums for x in col]
    return sums


class MonomialMatrix:
    """One nonzero entry per row and column: entry (perm[b], b) is the root
    of unity with exponent diag[b] modulo the group exponent."""

    __slots__ = ("group", "perm", "diag")

    def __init__(self, group: FinAbGroup, perm, diag):
        self.group = group
        self.perm = tuple(perm)
        n = group.exponent
        self.diag = tuple(d % n for d in diag)

    @property
    def modulus(self) -> int:
        return self.group.exponent

    def _check(self, other: "MonomialMatrix") -> None:
        if self.group is not other.group and self.group != other.group:
            raise AmbientMismatchError("matrices over different index groups")

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        self._check(other)
        p1, d1 = self.perm, self.diag
        n = self.modulus
        perm = tuple([p1[c] for c in other.perm])
        diag = tuple([(d + d1[c]) % n for d, c in zip(other.diag, other.perm)])
        return _matrix(self.group, perm, diag)

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
        return _matrix(self.group, self.perm, tuple([(d + exponent) % n for d in self.diag]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and (self.group is other.group or self.group == other.group)
            and self.perm == other.perm
            and self.diag == other.diag
        )

    def __hash__(self) -> int:
        return hash((self.group.invariants, self.perm, self.diag))

    def __repr__(self) -> str:
        return f"MonomialMatrix(perm={self.perm}, diag={self.diag}, mod={self.modulus})"


def _matrix(group: FinAbGroup, perm: tuple, diag: tuple) -> MonomialMatrix:
    """The trusted constructor, for a product or a rescaling: perm is a
    permutation and diag a tuple of residues modulo the group exponent."""
    m = object.__new__(MonomialMatrix)
    m.group = group
    m.perm = perm
    m.diag = diag
    return m


def identity_matrix(group: FinAbGroup) -> MonomialMatrix:
    n = group.order
    return MonomialMatrix(group, tuple(range(n)), (0,) * n)


def perm_matrix(a: Element) -> MonomialMatrix:
    """Regular-representation translation P_a: index of c to index of c + a."""
    inv = a.group.invariants
    perm = _lex_sums(
        [[(c + x) % d * s for c in range(d)] for x, d, s in zip(a.coords, inv, _strides(inv))]
    )
    return MonomialMatrix(a.group, perm, (0,) * len(perm))


def diag_matrix(chi: Element) -> MonomialMatrix:
    """Character diagonal D_chi over the group chi is a character of: the
    entry at x is chi(x) = sum chi_i x_i / d_i, as an exponent modulo N."""
    group = FinAbGroup(chi.group.invariants)
    n = group.exponent
    diag = _lex_sums([[y * x % d * (n // d) for x in range(d)]
                      for y, d in zip(chi.coords, group.invariants)])
    return MonomialMatrix(group, tuple(range(len(diag))), diag)


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
    perm, norm = pe.key
    n = a.exponent
    strides = _strides(a.invariants)
    x = a.element([perm[0] // s % d for s, d in zip(strides, a.invariants)])
    chi = []
    for s, d in zip(strides, a.invariants):
        v = (norm[s] - norm[0]) % n
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
    """Toral in PGL_n means the commutator pairing vanishes identically,
    that is, S is isotropic in the standard module."""
    return is_isotropic(standard_module(h.index_group), h.lattice)


def depth(h: PglSubgroup) -> int:
    """Index exponent of a largest toral subgroup: log_p of |H| over the
    maximal isotropic order of alpha_H.

    H / Rad(alpha_H) is a nondegenerate symplectic module, so it has
    Lagrangians of order sqrt|H / Rad| and every maximal isotropic
    subgroup contains the radical.  Hence depth = log_p sqrt(|H| / |Rad|).
    Rad(alpha_H) is S meet its annihilator in the standard module, one
    Hermite form of the pairing of S's Hermite rows against themselves;
    the p-group test reads the exponent of S off its cokernel.  alpha_H is
    not built, no subgroup is enumerated and no matrix is built (the test
    suite checks it against exhaustive isotropic search).
    """
    order = h.order
    if order == 1:
        return 0
    # an abelian group is a p-group iff its exponent is a power of p
    pe = _prime_power(h.lattice.sub_invariants[-1])
    if pe is None:
        raise NotPGroupError(f"|H| = {_int_text(order)} is not a prime power")
    s = h.lattice.basis
    ratio = isqrt(order // _annihilated(standard_module(h.index_group), s, s).order)
    d = _valuation(ratio, pe[0])
    assert ratio == pe[0] ** d
    return d
