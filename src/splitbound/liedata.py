"""Static reference data for almost simple algebraic groups.

Everything served here is a table lookup from data/lie_tables.txt (shipped
next to this module, row for row human-auditable) plus exact evaluation of
the tabulated formulas.  Nothing outside the tables is ever guessed: an
uncovered descriptor raises UnsupportedTypeError.
"""

from __future__ import annotations

from importlib import resources
from math import prod

from .errors import PreconditionError, UnsupportedTypeError

_EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")
_SERIES = ("A", "B", "C", "D") + _EXCEPTIONAL

__all__ = [
    "GroupDescriptor",
    "torsion_primes",
    "tits_n",
    "depth_consistency",
    "quadform_split_exponents",
    "fixed_divisors",
    "e8_candidates",
    "table_rows",
]


class GroupDescriptor:
    """Type of an almost simple group: series, rank, isogeny flavor."""

    __slots__ = ("series", "n", "simply_connected")

    def __init__(self, series: str, n: int | None = None, simply_connected: bool = True):
        if series not in _SERIES:
            raise PreconditionError(f"unknown series {series!r}")
        if series in _EXCEPTIONAL:
            if n is not None:
                raise PreconditionError("exceptional types carry no rank parameter")
        else:
            if n is None or n < 1:
                raise PreconditionError("classical types need a rank n >= 1")
            if series == "B" and n < 2:
                raise PreconditionError("B_n requires n >= 2")
            if series == "D" and n < 4:
                raise PreconditionError("D_n requires n >= 4")
        self.series = series
        self.n = n
        self.simply_connected = simply_connected

    def label(self) -> str:
        base = self.series if self.series in _EXCEPTIONAL else f"{self.series}_{self.n}"
        return base + ("" if self.simply_connected else " (adjoint form)")


# formula tokens appearing in the table, mapped to exact evaluators; the
# v2 rows serve C_n and D_n, whose n >= 1, and there 2^v2(n) is n & -n
_FORMULAS = {
    "1": lambda n: 1,
    "2": lambda n: 2,
    "6": lambda n: 6,
    "12": lambda n: 12,
    "n+1": lambda n: n + 1,
    "2^n": lambda n: 2 ** n,
    "2^max(1,n-4)": lambda n: 2 ** max(1, n - 4),
    "2^max(1,n-5)": lambda n: 2 ** max(1, n - 5),
    "2^(v2(n)+1)": lambda n: 2 * (n & -n),
    "2^(v2(n)+n)": lambda n: (n & -n) << n,
    "2*3^4": lambda n: 2 * 3 ** 4,
    "2^5*3": lambda n: 2 ** 5 * 3,
    "2^7*3^3*5": lambda n: 2 ** 7 * 3 ** 3 * 5,
    "2^7*3*5": lambda n: 2 ** 7 * 3 * 5,
    "2^6*3^2*5": lambda n: 2 ** 6 * 3 ** 2 * 5,
    "2^4*3^3*5": lambda n: 2 ** 4 * 3 ** 3 * 5,
}


def _load_tables():
    text = resources.files("splitbound").joinpath("data/lie_tables.txt").read_text()
    torsion: dict[str, frozenset[int]] = {}
    tits: dict[str, tuple[str, str]] = {}
    candidates: list[str] = []
    resolution = ""
    depths: dict[str, dict[int, int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "torsion":
            primes = frozenset() if fields[2] == "-" else frozenset(
                int(x) for x in fields[2].split(",")
            )
            torsion[fields[1]] = primes
        elif tag == "tits":
            tits[fields[1]] = (fields[2], fields[3])
        elif tag == "e8-candidates":
            candidates = fields[1:]
        elif tag == "e8-resolution":
            resolution = fields[1]
        elif tag == "depths":
            depths[fields[1]] = {
                int(p): int(d)
                for p, d in (pair.split(":") for pair in fields[2:])
            }
        else:
            raise PreconditionError(f"bad table row {raw!r}")
    return torsion, tits, candidates, resolution, depths


_TORSION, _TITS, _E8_CANDIDATES, _E8_RESOLUTION, _DEPTHS = _load_tables()


def table_rows() -> dict:
    """Raw table content, for the CLI dump."""
    return {
        "torsion": {k: sorted(v) for k, v in _TORSION.items()},
        "tits": {k: {"sc": v[0], "nsc": v[1]} for k, v in _TITS.items()},
        "e8_candidates": list(_E8_CANDIDATES),
        "e8_resolution": _E8_RESOLUTION,
        "depths": {k: dict(v) for k, v in _DEPTHS.items()},
    }


def _torsion_key(g: GroupDescriptor) -> str:
    s = g.series
    if s in _EXCEPTIONAL:
        return s
    if s in ("A", "C"):
        return f"{s}_n"
    if s == "B":
        if g.n < 3:
            raise UnsupportedTypeError("torsion table covers B_n only for n >= 3")
        return "B_n(n>=3)"
    return "D_n(n>=4)"


def torsion_primes(g: GroupDescriptor) -> set[int]:
    """Torsion primes of a simply connected simple group (table lookup)."""
    if not g.simply_connected:
        raise UnsupportedTypeError(
            "torsion table covers simply connected types only"
        )
    return set(_TORSION[_torsion_key(g)])


def tits_n(g: GroupDescriptor) -> int:
    """Upper splitting bound n(G): every variety of this type splits over
    an extension of degree dividing the returned value."""
    key = g.series if g.series in _EXCEPTIONAL else f"{g.series}_n"
    sc, nsc = _TITS[key]
    token = sc if g.simply_connected else nsc
    if token == "-":
        raise UnsupportedTypeError(f"no tabulated value for {g.label()}")
    return _FORMULAS[token](g.n or 0)


def depth_consistency(g: GroupDescriptor, p: int, d: int) -> bool:
    """Whether a depth-d abelian p-subgroup is consistent with n(G):
    p^d must divide the tabulated splitting bound (d <= its p-exponent)."""
    from .finabel import _valuation

    if p < 2 or d < 0:
        raise PreconditionError("need p >= 2 and d >= 0")
    return d <= _valuation(tits_n(g), p)


def quadform_split_exponents(n: int, det_one: bool) -> tuple[int, int]:
    """(l_upper, lower_exp) for splitting generic n-dimensional quadratic
    forms: both floor((n+1)/2) for the full orthogonal case, both
    floor((n-1)/2) for determinant one."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    val = (n - 1) // 2 if det_one else (n + 1) // 2
    return val, val


def e8_candidates() -> tuple[list[int], str]:
    """The three candidate splitting bounds for E8 and how the tabulated
    entry resolves them (their lcm; which one is correct is unknown)."""
    values = [_FORMULAS[token](0) for token in _E8_CANDIDATES]
    return values, _E8_RESOLUTION


def fixed_divisors() -> dict[str, int]:
    """Fixed splitting-degree divisors, recomposed from the stored depth
    data and asserted against the published constants."""
    out = {}
    for key, want in (("E8", 60), ("E7", 12)):
        val = prod(p ** d for p, d in _DEPTHS[key].items())
        assert val == want, (key, val)
        out[f"{key}_splitting"] = val
    return out
