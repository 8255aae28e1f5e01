from math import lcm

import pytest

from splitbound.errors import PreconditionError, UnsupportedTypeError
from splitbound.finabel import _valuation
from splitbound.liedata import (
    GroupDescriptor,
    depth_consistency,
    e8_candidates,
    fixed_divisors,
    quadform_split_exponents,
    table_rows,
    tits_n,
    torsion_primes,
)


def test_descriptor_validation():
    GroupDescriptor("A", 1)
    GroupDescriptor("B", 2)
    GroupDescriptor("D", 4)
    GroupDescriptor("E8")
    with pytest.raises(PreconditionError):
        GroupDescriptor("B", 1)
    with pytest.raises(PreconditionError):
        GroupDescriptor("D", 3)
    with pytest.raises(PreconditionError):
        GroupDescriptor("E8", 8)
    with pytest.raises(PreconditionError):
        GroupDescriptor("X", 1)


def test_torsion_primes_table():
    assert torsion_primes(GroupDescriptor("E8")) == {2, 3, 5}
    assert torsion_primes(GroupDescriptor("A", 7)) == set()
    assert torsion_primes(GroupDescriptor("C", 4)) == set()
    assert torsion_primes(GroupDescriptor("G2")) == {2}
    assert torsion_primes(GroupDescriptor("B", 3)) == {2}
    assert torsion_primes(GroupDescriptor("D", 5)) == {2}
    assert torsion_primes(GroupDescriptor("F4")) == {2, 3}
    assert torsion_primes(GroupDescriptor("E6")) == {2, 3}
    assert torsion_primes(GroupDescriptor("E7")) == {2, 3}


def test_torsion_primes_unsupported():
    with pytest.raises(UnsupportedTypeError):
        torsion_primes(GroupDescriptor("B", 2))
    with pytest.raises(UnsupportedTypeError):
        torsion_primes(GroupDescriptor("E7", simply_connected=False))


def test_tits_table_values():
    assert tits_n(GroupDescriptor("E8")) == 17280 == 2 ** 7 * 3 ** 3 * 5
    assert tits_n(GroupDescriptor("E7")) == 12
    assert tits_n(GroupDescriptor("E7", simply_connected=False)) == 2 ** 5 * 3
    assert tits_n(GroupDescriptor("E6")) == 6
    assert tits_n(GroupDescriptor("E6", simply_connected=False)) == 2 * 3 ** 4
    assert tits_n(GroupDescriptor("G2")) == 2
    assert tits_n(GroupDescriptor("F4")) == 6
    assert tits_n(GroupDescriptor("A", 9)) == 1
    assert tits_n(GroupDescriptor("A", 9, simply_connected=False)) == 10
    assert tits_n(GroupDescriptor("C", 3)) == 1
    assert tits_n(GroupDescriptor("C", 2, simply_connected=False)) == 4
    # formula rows agree with tabulated small cases
    assert tits_n(GroupDescriptor("B", 2)) == 2
    assert tits_n(GroupDescriptor("B", 6)) == 4
    assert tits_n(GroupDescriptor("B", 3, simply_connected=False)) == 8
    assert tits_n(GroupDescriptor("D", 4)) == 2
    assert tits_n(GroupDescriptor("D", 7)) == 4
    assert tits_n(GroupDescriptor("D", 4, simply_connected=False)) == 2 ** 6


def test_tits_unsupported_combinations():
    for series in ("G2", "F4", "E8"):
        with pytest.raises(UnsupportedTypeError):
            tits_n(GroupDescriptor(series, simply_connected=False))


def test_e8_candidates_lcm():
    values, resolution = e8_candidates()
    assert resolution == "lcm"
    assert sorted(values) == [1920, 2160, 2880]
    assert lcm(*values) == tits_n(GroupDescriptor("E8"))


def test_depth_consistency_fixtures():
    cases = [
        (GroupDescriptor("E8"), 2, 2),
        (GroupDescriptor("E8"), 3, 1),
        (GroupDescriptor("E8"), 5, 1),
        (GroupDescriptor("E7", simply_connected=False), 2, 2),
        (GroupDescriptor("E7", simply_connected=False), 3, 1),
        (GroupDescriptor("E7"), 2, 2),
        (GroupDescriptor("E7"), 3, 1),
        (GroupDescriptor("G2"), 2, 1),
        (GroupDescriptor("F4"), 2, 1),
        (GroupDescriptor("F4"), 3, 1),
    ]
    for desc, p, d in cases:
        assert depth_consistency(desc, p, d), (desc, p, d)
    assert not depth_consistency(GroupDescriptor("E8"), 7, 1)
    assert not depth_consistency(GroupDescriptor("G2"), 2, 2)


def test_depth_consistency_is_p_adic_divisibility():
    # d is at most the p-exponent of n(G): the same answer as p^d | n(G)
    # for every p >= 2 (composite too), with no power of p formed
    for desc in (GroupDescriptor("E8"), GroupDescriptor("E7", simply_connected=False),
                 GroupDescriptor("D", 8, False), GroupDescriptor("C", 12, False)):
        n = tits_n(desc)
        for p in range(2, 13):
            for d in range(0, 8):
                assert depth_consistency(desc, p, d) == (n % p ** d == 0), (desc, p, d)
    assert not depth_consistency(GroupDescriptor("E8"), 2, 10 ** 18)
    # p = 0 raised ZeroDivisionError, d < 0 compared against a float
    for p, d in ((0, 2), (1, 1), (-2, 1), (2, -1)):
        with pytest.raises(PreconditionError):
            depth_consistency(GroupDescriptor("E8"), p, d)


def test_quadform_split_exponents():
    assert quadform_split_exponents(5, False) == (3, 3)
    assert quadform_split_exponents(4, True) == (1, 1)
    for m in range(1, 12):
        upper, lower = quadform_split_exponents(2 * m, False)
        assert upper == lower == m
    with pytest.raises(PreconditionError):
        quadform_split_exponents(0, False)


def test_fixed_divisors():
    div = fixed_divisors()
    assert div == {"E8_splitting": 60, "E7_splitting": 12}
    assert 2 ** 2 * 3 * 5 == div["E8_splitting"]
    assert 2 ** 2 * 3 == div["E7_splitting"]


def test_table_roundtrip():
    rows = table_rows()
    assert rows["torsion"]["E8"] == [2, 3, 5]
    assert rows["tits"]["E8"]["sc"] == "2^7*3^3*5"
    assert rows["tits"]["G2"]["nsc"] == "-"
    assert rows["depths"]["E8"] == {2: 2, 3: 1, 5: 1}
    assert rows["e8_resolution"] == "lcm"


def _token_oracle(token: str, n: int) -> int:
    """A raw tits token of the table, evaluated as an expression in n with
    v2 read by finabel._valuation."""
    expr = token.replace("^", "**")
    return eval(expr, {"__builtins__": {}}, {"n": n, "max": max, "v2": lambda m: _valuation(m, 2)})


def _descriptors():
    """(descriptor, tits token) for every classical series at n = 1..64 and
    every exceptional type, in both isogeny flavours, that the table covers."""
    tits = table_rows()["tits"]
    lowest = {"A": 1, "B": 2, "C": 1, "D": 4}
    for key, tokens in tits.items():
        series = key.split("_")[0]
        ranks = range(lowest[series], 65) if series in lowest else [None]
        for n in ranks:
            for sc, token in ((True, tokens["sc"]), (False, tokens["nsc"])):
                if token != "-":
                    yield GroupDescriptor(series, n, sc), token


def test_tits_n_evaluates_every_table_token():
    # pins the closed forms of the v2 rows (2^v2(n) as n & -n) and the rest
    seen = set()
    for desc, token in _descriptors():
        assert tits_n(desc) == _token_oracle(token, desc.n or 0), (desc.label(), token)
        seen.add(token)
    assert {"2^(v2(n)+1)", "2^(v2(n)+n)"} <= seen and len(seen) == 13


def test_depth_consistency_reads_the_p_exponent_of_tits_n():
    rows = table_rows()
    primes = set().union(*rows["torsion"].values(), *rows["depths"].values())
    assert primes == {2, 3, 5}
    for desc, token in _descriptors():
        want = _token_oracle(token, desc.n or 0)
        for p in sorted(primes):
            for d in range(9):
                assert depth_consistency(desc, p, d) == (d <= _valuation(want, p)), (
                    desc.label(), p, d)
