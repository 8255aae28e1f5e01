"""Q/Z-valued alternating forms on finite abelian groups.

A SkewForm stores the Gram matrix of the form on the group's canonical
generators.  Degenerate forms are first class: radicals and isotropy are
defined for every form, and only the Lagrangian-specific operations insist
on nondegeneracy.  The standard module on A x A* uses the interleaved
generator layout (a_1, chi_1, a_2, chi_2, ...) so that Gram matrices are
reproducible bit for bit.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .errors import (
    AmbientMismatchError,
    DegenerateFormError,
    InvalidFormError,
    PreconditionError,
)
from .finabel import (
    Element,
    FinAbGroup,
    QmodZ,
    Subgroup,
    _check_limit,
    _cokernel_invariants,
    _lattice_coefficients,
    _snf_with_transforms,
    iter_subgroup_bases,
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
    "max_isotropic",
    "quotient_by_lagrangian",
    "symplectic_submodule",
    "isotropic_transfer",
]


class SkewForm:
    """Alternating Q/Z-valued bilinear form given by its Gram matrix."""

    __slots__ = ("group", "gram", "_scaled", "_ws")

    def __init__(self, group: FinAbGroup, gram):
        k = group.rank
        rows = tuple(tuple(entry for entry in row) for row in gram)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise InvalidFormError(f"Gram matrix must be {k}x{k}")
        for i in range(k):
            if not rows[i][i].is_zero():
                raise InvalidFormError("Gram diagonal must vanish (alternating)")
            for j in range(k):
                if rows[i][j] != -rows[j][i]:
                    raise InvalidFormError("Gram matrix must be skew-symmetric")
                if group.invariants[i] % rows[i][j].den:
                    raise InvalidFormError(
                        "entry order incompatible with generator order"
                    )
        self.group = group
        self.gram = rows
        self._scaled = None
        self._ws = None

    @property
    def exponent(self) -> int:
        return self.group.exponent

    def scaled(self):
        """Gram matrix as integers modulo the group exponent N (num * N/den)."""
        if self._scaled is None:
            n = self.exponent
            self._scaled = tuple(
                tuple(e.num * (n // e.den) % n for e in row) for row in self.gram
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
    scaled = w.scaled()
    total = 0
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        row = scaled[i]
        for j, yj in enumerate(y.coords):
            if yj:
                total += xi * yj * row[j]
    return QmodZ(total, n)


def radical(w: SkewForm) -> Subgroup:
    """Subgroup {h : w(h, .) = 0}, by integer linear algebra on the scaled
    Gram matrix (cross-checked by enumeration in the test suite)."""
    g = w.group
    k = g.rank
    if k == 0:
        return subgroup_from_generators(g, [])
    n = w.exponent
    mat = [list(row) for row in w.scaled()]
    diag, u, _uinv, _v = _snf_with_transforms(mat, k)
    gens = []
    for i in range(k):
        scale = n // gcd(abs(diag[i]), n)
        gens.append(Element(g, tuple(scale * c for c in u[i])))
    return subgroup_from_generators(g, gens)


def is_nondegenerate(w: SkewForm) -> bool:
    return radical(w).order == 1


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


def _basis_rows_mod(s: Subgroup):
    inv = s.ambient.invariants
    rows = []
    for row in s.basis:
        r = tuple(c % d for c, d in zip(row, inv))
        if any(r):
            rows.append(r)
    return rows


def is_isotropic(w: SkewForm, s: Subgroup) -> bool:
    """True iff the form vanishes identically on S."""
    if s.ambient != w.group:
        raise AmbientMismatchError("subgroup of a different group")
    rows = _basis_rows_mod(s)
    n = w.exponent
    scaled = w.scaled()
    k = w.group.rank
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if _pair_value(scaled, n, rows[i], rows[j], k):
                return False
    return True


def is_lagrangian(w: SkewForm, s: Subgroup) -> bool:
    """Isotropic of square-root order; defined for nondegenerate forms."""
    if not is_nondegenerate(w):
        raise DegenerateFormError("Lagrangian test requires a nondegenerate form")
    return s.order * s.order == w.group.order and is_isotropic(w, s)


def _iter_bases_with_order(w: SkewForm, limit):
    g = w.group
    k = g.rank
    order = g.order
    for basis in iter_subgroup_bases(g, limit):
        det = 1
        for i in range(k):
            det *= basis[i][i]
        yield order // det, basis


def _isotropic_basis(w: SkewForm, basis) -> bool:
    g = w.group
    inv = g.invariants
    k = g.rank
    n = w.exponent
    scaled = w.scaled()
    rows = []
    for row in basis:
        r = tuple(c % d for c, d in zip(row, inv))
        if any(r):
            rows.append(r)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if _pair_value(scaled, n, rows[i], rows[j], k):
                return False
    return True


def max_isotropic(w: SkewForm, limit: int | None = None) -> MaxIsotropic:
    """Largest isotropic order, a canonical witness, and every isomorphism
    type occurring at that order (each exactly once).

    The order is sqrt(|H| * |Rad w|): every maximal isotropic subgroup
    contains the radical, and the nondegenerate module H / Rad has
    Lagrangians of order sqrt|H / Rad| (Wall, Topology 2, 1963).  One pass
    over the subgroups finds the witness (least canonical basis) and the
    types at that order.
    """
    g = w.group
    best = isqrt(g.order * radical(w).order)
    witness_basis = None
    types = set()
    for order, basis in _iter_bases_with_order(w, limit):
        if order != best or not _isotropic_basis(w, basis):
            continue
        if witness_basis is None or basis < witness_basis:
            witness_basis = basis
        types.add(Subgroup(g, basis).sub_invariants)
    witness = Subgroup(g, witness_basis)
    return MaxIsotropic(best, witness, sorted(types))


def quotient_by_lagrangian(w: SkewForm, lag: Subgroup) -> FinAbGroup:
    """H / Lambda; asserts the self-duality invariants(H/L) == invariants(L)."""
    if not is_lagrangian(w, lag):
        raise PreconditionError("subgroup is not Lagrangian")
    q = quotient(w.group, lag)
    assert q.invariants == lag.sub_invariants
    return q


def symplectic_submodule(w: SkewForm, s: int, limit: int | None = None) -> Subgroup:
    """Rank-2s subgroup of an elementary (Z/p)^{2r} symplectic module on
    which the restricted form stays nondegenerate; built from hyperbolic
    pairs extracted greedily in canonical order."""
    g = w.group
    if not g.is_elementary() or g.rank % 2:
        raise PreconditionError("group must be elementary abelian of even rank")
    p = g.invariants[0]
    r = g.rank // 2
    if s > r or s < 0:
        raise PreconditionError(f"requested rank 2*{s} exceeds module rank {2 * r}")
    if not is_nondegenerate(w):
        raise DegenerateFormError("symplectic submodule requires a symplectic form")
    k = g.rank
    n = w.exponent
    scaled = w.scaled()
    # pairing over F_p: w(x, y) = c(x, y)/p with c computed from scaled / (n/p)
    unit = n // p

    def c(x, y):
        return (_pair_value(scaled, n, x, y, k) // unit) % p

    space = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    pairs = []
    for _ in range(s):
        v = space[0]
        u = None
        for cand in space[1:]:
            if c(v, cand):
                u = cand
                break
        assert u is not None
        pairs.extend((v, u))
        cvu = c(v, u)
        inv_cvu = pow(cvu, -1, p)
        new_space = []
        for x in space:
            if x is v or x is u:
                continue
            lam = (c(x, u) * inv_cvu) % p
            mu = (-c(x, v) * inv_cvu) % p
            y = tuple((xi - lam * vi - mu * ui) % p for xi, vi, ui in zip(x, v, u))
            if any(y):
                new_space.append(y)
        space = new_space
    return subgroup_from_generators(g, [Element(g, row) for row in pairs])


# ---------------------------------------------------------------------------
# Isotropic transfer (workspace-backed)
# ---------------------------------------------------------------------------

class _Workspace:
    """Element-indexed tables for a small form: subgroup list in canonical
    order, element bitmasks, isotropy flags."""

    def __init__(self, w: SkewForm, limit):
        g = w.group
        self.group = g
        elems = list(g.elements())
        self.index = {e.coords: i for i, e in enumerate(elems)}
        entries = []
        for order, basis in _iter_bases_with_order(w, limit):
            entries.append((-order, basis))
        entries.sort()
        self.subgroups = []
        self.masks = []
        self.isotropic = []
        for negorder, basis in entries:
            s = Subgroup(g, basis)
            mask = 0
            for e in s.elements():
                mask |= 1 << self.index[e.coords]
            self.subgroups.append(s)
            self.masks.append(mask)
            self.isotropic.append(_isotropic_basis(w, basis))
        self.mask_of = {s.basis: m for s, m in zip(self.subgroups, self.masks)}
        self.transfer_memo: dict[tuple, tuple] = {}

    def subgroup_mask(self, s: Subgroup) -> int:
        m = self.mask_of.get(s.basis)
        if m is None:
            m = 0
            for e in s.elements():
                m |= 1 << self.index[e.coords]
        return m


def _workspace(w: SkewForm, limit) -> _Workspace:
    # the cached workspace was built under an earlier call's limit
    _check_limit(w.group.order, limit)
    if w._ws is None:
        w._ws = _Workspace(w, limit)
    return w._ws


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
    limit: int | None = None,
    search_min: bool = False,
) -> tuple[Subgroup, TransferWitness]:
    """Transfer an isotropic subgroup I <= H1 to an isotropic I1 of the
    whole module with type(I1) embedding in H1/I and |H1| dividing n*|I1|.

    Free choices in the construction (which maximal isotropic extension,
    which Lagrangian) are resolved by the first candidate in canonical
    subgroup order.  With search_min=True the witness also reports the
    smallest isotropic order that satisfies both conclusions.
    """
    g = w.group
    n2 = g.order
    n = isqrt(n2)
    # a workspace exists only once this check has passed on w
    if n * n != n2 or (w._ws is None and not is_nondegenerate(w)):
        raise DegenerateFormError("transfer requires a nondegenerate module")
    if h1.ambient != g or iso.ambient != g:
        raise AmbientMismatchError("subgroups of a different group")
    if not h1.contains_subgroup(iso):
        raise PreconditionError("I must be contained in H1")
    if not is_isotropic(w, iso):
        raise PreconditionError("I must be isotropic")
    ws = _workspace(w, limit)
    memo_key = (h1.basis, iso.basis, search_min)
    hit = ws.transfer_memo.get(memo_key)
    if hit is not None:
        return hit
    h1_mask = ws.subgroup_mask(h1)
    iso_mask = ws.subgroup_mask(iso)

    # the workspace list is sorted by descending order then basis, so the
    # first admissible hit is the canonical maximal extension of I in H1
    i_max = None
    for s, mask, flag in zip(ws.subgroups, ws.masks, ws.isotropic):
        if not flag:
            continue
        if mask & ~h1_mask:
            continue
        if iso_mask & ~mask:
            continue
        i_max = s
        break
    assert i_max is not None
    # the result only depends on (H1, I) through this maximal extension
    imax_key = (h1.basis, i_max.basis, search_min)
    hit = ws.transfer_memo.get(imax_key)
    if hit is not None and not search_min:
        ws.transfer_memo[memo_key] = hit
        return hit

    imax_mask = ws.subgroup_mask(i_max)
    lag = None
    for s, mask, flag in zip(ws.subgroups, ws.masks, ws.isotropic):
        if s.order != n or not flag:
            continue
        if imax_mask & ~mask:
            continue
        lag = s
        break
    assert lag is not None, "isotropic subgroups always extend to a Lagrangian"
    lag_mask = ws.subgroup_mask(lag)
    assert lag_mask & h1_mask == imax_mask, "Lambda meets H1 exactly in I_max"

    image_type = _subgroup_quotient_type(h1, i_max)
    i1 = None
    for s, mask in zip(ws.subgroups, ws.masks):
        if mask & ~lag_mask:
            continue
        if s.sub_invariants == image_type:
            i1 = s
            break
    assert i1 is not None

    min_order = None
    if search_min:
        hi_group = FinAbGroup(_subgroup_quotient_type(h1, iso))
        for s, flag in zip(reversed(ws.subgroups), reversed(ws.isotropic)):
            if not flag or (n * s.order) % h1.order:
                continue
            if _embeds_by_type(s.sub_invariants, hi_group):
                min_order = s.order
                break
    result = (i1, TransferWitness(i_max, lag, image_type, min_order))
    ws.transfer_memo[memo_key] = result
    if not search_min:
        ws.transfer_memo[imax_key] = result
    return result


def _embeds_by_type(type_a: tuple[int, ...], b: FinAbGroup) -> bool:
    from .finabel import embeds_into, make_group

    if not type_a:
        return True
    return embeds_into(make_group(type_a), b)
