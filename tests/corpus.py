"""A seeded corpus of CLI calls and the sha256 of the bytes each command
kind prints.

`calls(seed)` draws argvs for every subcommand and action, in both
`--format` values: answers, refusals of every kind the CLI gives, usage
errors, and the rows on either side of each bound (`MAX_LISTED`,
`MAX_PRINTED_DIGITS`, the 4300-digit integer bound, `MAX_F_R`,
`FACTOR_MAX_BITS`, `f2quad.MAX_DIM` and the non-split `max-isotropic`
bound).  `digests(calls)` runs each argv in this process through
`cli.run` and hashes, per command kind, the argv, the exit status and
stdout of every call of that kind in order.  stderr is not hashed: `verify`
writes its timings there.

The corpus builds every literal it passes as a string, so the interpreter's
own int-to-str limit never touches the argvs.  Run as a script, it prints
the digests of the corpus at the given seed (default 1) as one JSON object:

    PYTHONPATH=src python tests/corpus.py [seed]
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from splitbound.cli import run

SEED = 1

M127 = 2 ** 127 - 1  # Mersenne primes
M607 = 2 ** 607 - 1
P100 = 10 ** 99 + 289  # a 100-digit prime


def _dec(n: int) -> str:
    """n >= 0 in decimal, whatever the interpreter's int-to-str limit."""
    chunks = []
    while n >= 10 ** 300:
        n, low = divmod(n, 10 ** 300)
        chunks.append(f"{low:0300d}")
    return f"{n:d}" + "".join(reversed(chunks))


def _ints(items) -> str:
    return ",".join(_dec(x) for x in items)


def _coords(rng, k) -> str:
    return "(" + ",".join(str(rng.randint(-3, 12)) for _ in range(k)) + ")"


def _tuple(rng, k, most) -> str:
    return ";".join(_coords(rng, k) for _ in range(rng.randint(1, most)))


def _chain(rng, most=3, top=12) -> list[int]:
    return [rng.randint(2, top) for _ in range(rng.randint(1, most))]


def _rank(chain) -> int:
    """The rank of the group with these (not yet canonical) factors: the
    largest number of them divisible by one prime."""
    return max(sum(1 for d in chain if d % p == 0) for p in range(2, max(chain) + 1))


# invariant chains of order <= 64, so that every form is small
CHAINS = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (4, 4), (2, 6),
          (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]


def _form(rng) -> tuple[str, int]:
    """(spec, rank): an alternating form on a chain of CHAINS."""
    chain = rng.choice(CHAINS)
    k = len(chain)
    gram = [["0/1"] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            den = min(chain[i], chain[j])
            num = rng.randrange(den)
            gram[i][j], gram[j][i] = f"{num}/{den}", f"{-num}/{den}"
    return json.dumps({"group": list(chain), "gram": gram}), k


def _standard(chain) -> str:
    """The standard module on the group of these invariants, on the
    canonical generators of A x A*."""
    from splitbound.finabel import make_group
    from splitbound.qzforms import standard_module

    w = standard_module(make_group(chain))
    return json.dumps({"group": list(w.group.invariants),
                       "gram": [[str(e) for e in row] for row in w.gram]})


def _plus_zero(spec: str, d: int) -> str:
    """The form plus a zero summand Z/d in the radical."""
    obj = json.loads(spec)
    k = len(obj["group"])
    obj["group"].append(d)
    obj["gram"] = [row + ["0/1"] for row in obj["gram"]] + [["0/1"] * (k + 1)]
    return json.dumps(obj)


def _nonsplit(chain) -> str:
    """The standard module on the chain plus Z/4 x Z/4 with w(e, f) = 1/2:
    the radical 2(Z/4 x Z/4) is not a direct summand."""
    obj = json.loads(_standard(chain))
    k = len(obj["group"])
    obj["group"] += [4, 4]
    obj["gram"] = [row + ["0/1", "0/1"] for row in obj["gram"]] + [
        ["0/1"] * (k + 1) + ["1/2"], ["0/1"] * k + ["1/2", "0/1"]]
    return json.dumps(obj)


def _f2(rng, m) -> str:
    rows = [rng.getrandbits(m) >> i << i for i in range(m)]
    return json.dumps({"dim": m, "rows": [format(r, "#x") for r in rows]})


def _text(argv) -> list[str]:
    return ["--format", "text", *argv]


def _group_calls(rng):
    out = []
    big = "1" + "0" * 4299  # 10^4299: 4,300 digits
    for _ in range(4):
        chain = _chain(rng)
        lit, k = _ints(chain), _rank(chain)
        out += [
            ("group info", ["group", "info", lit]),
            ("group dual", ["group", "dual", lit]),
            ("group char", ["group", "char", lit, "--chi", _coords(rng, k),
                            "--a", _coords(rng, k)]),
            ("group span", ["group", "span", lit, "--gens", _tuple(rng, k, k + 1)]),
            ("group quotient", ["group", "quotient", lit, "--gens", _tuple(rng, k, k + 1)]),
            ("group subgroups", ["group", "subgroups", lit]),
            ("group subgroups --list", ["group", "subgroups", lit, "--list"]),
            ("group embeds", ["group", "embeds", lit, "--into", _ints(_chain(rng, 4))]),
            ("group reduce", ["group", "reduce", lit, "--tuple", _tuple(rng, k, 4)]),
        ]
    dense = ";".join("(" + ",".join(str(rng.randrange(2)) for _ in range(48)) + ")"
                     for _ in range(61))
    out += [
        ("group info", _text(["group", "info", "2,4"])),
        ("group info", ["group", "info", "1,2"]),  # invalid-invariant
        ("group info", ["group", "info", "2,,x"]),
        ("group info", ["group", "info", "1000000000000000003"]),
        ("group info", ["group", "info", big]),
        ("group info", ["group", "info", big + "0"]),  # 4,301 digits
        ("group info", ["group", "info", f"{big},{big}"]),  # the order has 8,599
        ("group info", _text(["group", "info", f"{big},{big}"])),
        ("group dual", _text(["group", "dual", "4,6"])),
        ("group char", ["group", "char", "4", "--chi", "(1,0)", "--a", "(1)"]),
        ("group char", ["group", "char", "4", "--chi", "(1)", "--a", "(1,1)"]),
        ("group char", ["group", "char", "4", "--chi", "(1)"]),
        ("group char", _text(["group", "char", "12", "--chi", "(5)", "--a", "(7)"])),
        ("group span", ["group", "span", ",".join(["2"] * 48), "--gens", dense]),
        ("group span", ["group", "span", "2,4", "--gens", "(1,a)"]),
        ("group span", _text(["group", "span", "6,6", "--gens", "(2,3);(3,2)"])),
        ("group quotient", ["group", "quotient", "2,4", "--gens", "(1)"]),
        ("group quotient", _text(["group", "quotient", "4,4", "--gens", "(1,0)"])),
        # the census: MAX_LISTED types, the 4,300-digit count (the lower
        # bound at (Z/2)^240, the printed count at (Z/2)^239), MAX_PRINTED_DIGITS
        # and FACTOR_MAX_BITS (M127^8 has 1,016 bits, M127^9 1,143)
        ("group subgroups", ["group", "subgroups", ",".join(["9699690"] * 4)]),
        ("group subgroups", ["group", "subgroups", "8,8,16,720720"]),
        ("group subgroups", ["group", "subgroups", ",".join(["2"] * 239)]),
        ("group subgroups", ["group", "subgroups", ",".join(["2"] * 240)]),
        ("group subgroups", ["group", "subgroups", _dec(2 ** 13000)]),
        ("group subgroups", ["group", "subgroups", _dec(2 ** 1660)]),
        ("group subgroups", ["group", "subgroups", _dec(1031 * 1033)]),
        ("group subgroups", ["group", "subgroups", _dec(M127 ** 8)]),
        ("group subgroups", ["group", "subgroups", _dec(M127 ** 9)]),
        ("group subgroups", _text(["group", "subgroups", "2,4,8"])),
        ("group subgroups --list", ["group", "subgroups", "2,2,2,2,2,2,2,2", "--list"]),
        ("group subgroups --list", ["group", "subgroups", "2,6,30", "--list"]),
        ("group subgroups --list", ["group", "subgroups", _dec(2 ** 60), "--list"]),
        ("group subgroups --list", _text(["group", "subgroups", "2,4", "--list"])),
        ("group embeds", ["group", "embeds", "2,4", "--into", ",".join(["2"] * 12 + ["4"])]),
        ("group embeds", ["group", "embeds", "4"]),
        ("group embeds", _text(["group", "embeds", "4", "--into", "2,8"])),
        ("group reduce", ["group", "reduce", "1000000", "--tuple", "(1);(999999)"]),
        ("group reduce", ["group", "reduce", "960,960", "--tuple", "(1,959);(958,3);(0,0)"]),
        ("group reduce", _text(["group", "reduce", "6", "--tuple", "(2);(3)"])),
        ("group reduce", ["group", "no-such-action", "2"]),  # a usage error
    ]
    return out


def _form_calls(rng):
    out = []
    for _ in range(4):
        spec, k = _form(rng)
        out += [
            ("form radical", ["form", "radical", "--form", spec]),
            ("form nondegenerate", ["form", "nondegenerate", "--form", spec]),
            ("form evaluate", ["form", "evaluate", "--form", spec, "--x", _coords(rng, k),
                               "--y", _coords(rng, k)]),
            ("form max-isotropic", ["form", "max-isotropic", "--form", spec]),
            ("form lagrangian", ["form", "lagrangian", "--form", spec,
                                 "--gens", _tuple(rng, k, k)]),
            ("form quotient-lagrangian", ["form", "quotient-lagrangian", "--form", spec,
                                          "--gens", _tuple(rng, k, k)]),
        ]
        out.append(("form standard", ["form", "standard", "--group", _ints(_chain(rng))]))
    hyp = '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}'
    zero = '{"group": [2, 2], "gram": [["0/1", "0/1"], ["0/1", "0/1"]]}'
    bad = '{"group": [4], "gram": [["0/1", "3/4"], ["1/4", "0/1"]]}'
    big = "1" + "0" * 4299
    out += [
        ("form standard", _text(["form", "standard", "--group", "2,4"])),
        ("form standard", ["form", "standard", "--group", "0"]),
        ("form standard", ["form", "standard"]),
        ("form radical", _text(["form", "radical", "--form", zero])),
        ("form radical", ["form", "radical", "--form", bad]),  # invalid-form
        ("form radical", ["form", "radical", "--form", '{"group": [4.0], "gram": [["0/1"]]}']),
        ("form radical", ["form", "radical", "--form", "{"]),
        ("form radical", ["form", "radical", "--form", "@"]),
        ("form radical", ["form", "radical", "--form",
                          '{"group": [%s], "gram": [["0/1"]]}' % big]),
        ("form radical", ["form", "radical", "--form",
                          '{"group": [%s0], "gram": [["0/1"]]}' % big]),
        ("form nondegenerate", _text(["form", "nondegenerate", "--form", hyp])),
        ("form evaluate", _text(["form", "evaluate", "--form", hyp, "--x", "(1,0)",
                                 "--y", "(0,1)"])),
        ("form evaluate", ["form", "evaluate", "--form", hyp, "--x", "(1,0)"]),
        ("form max-isotropic", _text(["form", "max-isotropic", "--form", hyp])),
        ("form max-isotropic", ["form", "max-isotropic", "--form", bad]),
        ("form max-isotropic", ["form", "max-isotropic", "--form", '{"group": [2, 2]}']),
        ("form max-isotropic", ["form", "max-isotropic", "--form", _standard([2] * 5)]),
        ("form max-isotropic", ["form", "max-isotropic", "--form", _standard([2, 4, 8])]),
        ("form max-isotropic", ["form", "max-isotropic", "--form",
                                _plus_zero(_standard([2] * 5), 2)]),
        # the non-split pass: |H| = 1024 answers, 16384 is above its bound 4096
        ("form max-isotropic", ["form", "max-isotropic", "--form", _nonsplit([2, 2, 2])]),
        ("form max-isotropic", ["form", "max-isotropic", "--form", _nonsplit([2] * 5)]),
        ("form max-isotropic", ["form", "max-isotropic", "--form", json.dumps(
            {"group": [1031 * 1033] * 2,
             "gram": [["0", "1/1065023"], ["-1/1065023", "0"]]})]),
        ("form lagrangian", _text(["form", "lagrangian", "--form", hyp, "--gens", "(1,1)"])),
        ("form lagrangian", ["form", "lagrangian", "--form", hyp, "--gens", "(1,1,1)"]),
        ("form quotient-lagrangian", _text(["form", "quotient-lagrangian", "--form", hyp,
                                            "--gens", "(1,1)"])),
        ("form quotient-lagrangian", ["form", "quotient-lagrangian", "--form", zero,
                                      "--gens", "(1,0)"]),
        ("form quotient-lagrangian", ["form", "quotient-lagrangian", "--form", hyp,
                                      "--gens", "(1,0)"]),
    ]
    return out


def _pgl_calls(rng):
    out = []
    for _ in range(4):
        chain = _chain(rng, 2, 9)
        lit, k = _ints(chain), _rank(chain)
        pairs = ";".join(f"{_coords(rng, k)[:-1]}|{_coords(rng, k)[1:]}"
                         for _ in range(rng.randint(1, 3)))
        out += [
            ("pgl depth", ["pgl", "depth", "--group", lit]),
            ("pgl toral", ["pgl", "toral", "--group", lit, "--elements", pairs]),
            ("pgl alpha", ["pgl", "alpha", "--group", lit, "--elements", pairs]),
            ("pgl alpha", ["pgl", "alpha", "--group", lit]),
            ("pgl element", ["pgl", "element", "--group", lit, "--a", _coords(rng, k),
                             "--chi", _coords(rng, k)]),
        ]
    out += [
        ("pgl depth", _text(["pgl", "depth", "--group", "4,4"])),
        ("pgl depth", ["pgl", "depth", "--group", "6"]),  # not-p-group
        ("pgl depth", ["pgl", "depth", "--group", _ints([M607, M607])]),
        ("pgl depth", ["pgl", "depth", "--group", "1048576"]),
        ("pgl depth", ["pgl", "depth", "--group", "16,16", "--elements",
                       "(1,0|0,0);(0,1|0,0);(0,0|1,0);(0,0|0,1)"]),
        ("pgl depth", ["pgl", "depth", "--group", "2,2", "--elements", ";"]),
        ("pgl depth", ["pgl", "depth", "--group", "2,2", "--elements", "(1,0)"]),
        ("pgl toral", _text(["pgl", "toral", "--group", "4", "--elements", "(0|1)"])),
        ("pgl toral", ["pgl", "toral", "--group", "2,2"]),
        ("pgl alpha", _text(["pgl", "alpha", "--group", "2,4", "--elements",
                             "(1,0|0,1);(0,1|1,2)"])),
        ("pgl element", _text(["pgl", "element", "--group", "2", "--a", "(1)", "--chi", "(0)"])),
        ("pgl element", ["pgl", "element", "--group", "65536", "--a", "(1)", "--chi", "(3)"]),
        ("pgl element", ["pgl", "element", "--group", "65537", "--a", "(1)", "--chi", "(0)"]),
        ("pgl element", ["pgl", "element", "--group", "4", "--a", "(1)"]),
        ("pgl element", ["pgl", "element", "--a", "(1)"]),  # a usage error
    ]
    return out


def _f2_calls(rng):
    out = []
    for m in (1, 2, 3, 5, 8, 13, 30):
        spec = _f2(rng, m)
        out += [("f2 count", ["f2", "count", "--form", spec]),
                ("f2 decompose", ["f2", "decompose", "--form", spec]),
                ("f2 radical", ["f2", "radical", "--form", spec])]
    at, above = _f2(rng, 1024), _f2(rng, 1025)  # f2quad.MAX_DIM = 1024
    out += [
        ("f2 census", ["f2", "census", "--lemma", "quad"]),
        ("f2 census", ["f2", "census", "--lemma", "quad", "--by-class"]),
        ("f2 census", ["f2", "census", "--e8-torus"]),
        ("f2 census", _text(["f2", "census", "--lemma", "quad", "--by-class"])),
        ("f2 census", ["f2", "census"]),
        ("f2 ec8", ["f2", "ec8"]),
        ("f2 ec8", _text(["f2", "ec8"])),
        ("f2 count", ["f2", "count", "--form", at]),
        ("f2 count", ["f2", "count", "--form", above]),
        ("f2 count", _text(["f2", "count", "--form", '{"dim": 2, "rows": ["0x2", "0x0"]}'])),
        ("f2 count", ["f2", "count", "--form", '{"dim": true, "rows": ["0x2"]}']),
        ("f2 count", ["f2", "count", "--form", '{"dim": 1e400, "rows": []}']),
        ("f2 count", ["f2", "count", "--form", '{"dim": %s, "rows": []}' % ("1" + "0" * 4400)]),
        ("f2 decompose", ["f2", "decompose", "--form", above]),
        ("f2 decompose", _text(["f2", "decompose", "--form",
                                '{"dim": 4, "rows": ["0x3", "0x2", "0xc", "0x8"]}'])),
        ("f2 radical", ["f2", "radical", "--form", above]),
        ("f2 radical", _text(["f2", "radical", "--form", '{"dim": 2, "rows": ["0x2", "0x0"]}'])),
        ("f2 radical", ["f2", "radical", "--form", '{"dim": 2, "rows": ["0xg"]}']),
    ]
    return out


def _obstruct(mode, *flags):
    return ["obstruct", "--mode", mode, *map(str, flags)]


def _obstruct_calls(rng):
    out = []
    for _ in range(6):
        p = rng.choice([2, 3, 5, 7, 4])
        r = rng.randint(1, 40)
        e = rng.randint(0, r + 1)
        out += [
            ("obstruct thm13", _obstruct("thm13", "--p", p, "--r", r, "--e", e)),
            ("obstruct f", _obstruct("f", "--r", rng.randint(1, 10 ** rng.randint(1, 9)))),
            ("obstruct fe", _obstruct("fe", "--r", r, "--e", e)),
            ("obstruct min-partition", _obstruct("min-partition", "--p", p, "--r", r,
                                                 "--e", e)),
            ("obstruct compare", _obstruct("compare", "--p", p, "--r", rng.randint(1, 6),
                                           "--e", rng.randint(0, 3),
                                           "--rank1", 2 * rng.randint(1, 6))),
        ]
    e_digits = "9" * 4301  # above the 4,300-digit bound on a parsed integer
    out += [
        # p^(2r-2) at p = 2 has 4,300 digits at r = 7143 and 4,301 at 7144
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 7143)),
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 7144)),
        ("obstruct thm13", _text(_obstruct("thm13", "--p", 2, "--r", 7144))),
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 1200)),
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 9000)),
        ("obstruct thm13", _obstruct("thm13", "--r", 2, "--e", e_digits)),
        ("obstruct thm13", _obstruct("thm13", "--p", M607, "--r", 4)),
        ("obstruct thm13", _obstruct("thm13", "--p", M607, "--r", 14)),
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 2, "--e", 2)),
        ("obstruct thm13", _obstruct("thm13", "--p", 2, "--r", 0)),
        ("obstruct thm13", _obstruct("thm13", "--p", "x", "--r", 2)),
        # FACTOR_MAX_BITS: a composite of 1,024 bits with no factor below
        # 1024 is tested, one of 1,025 bits is refused
        ("obstruct thm13", _obstruct("thm13", "--p", _dec(
            M607 * M127 ** 2 * (2 ** 89 - 1) * (2 ** 61 - 1) * (2 ** 13 - 1)), "--r", 2)),
        ("obstruct thm13", _obstruct("thm13", "--p", _dec(
            M607 * M127 * (2 ** 107 - 1) * (2 ** 89 - 1) * (2 ** 61 - 1)
            * (2 ** 17 - 1) ** 2), "--r", 2)),
        ("obstruct thm13", _text(_obstruct("thm13", "--p", 3, "--r", 5, "--e", 1))),
        ("obstruct f", _obstruct("f", "--r", 10 ** 11 + 1)),  # above MAX_F_R
        ("obstruct f", _obstruct("f", "--r", 0)),
        ("obstruct f", _text(_obstruct("f", "--r", 6))),
        ("obstruct fe", _obstruct("fe", "--r", 10 ** 11, "--e", 1)),  # MAX_F_R
        ("obstruct fe", _obstruct("fe", "--r", 10 ** 20, "--e", 1)),
        ("obstruct fe", _obstruct("fe", "--r", 6, "--e", -1)),
        ("obstruct fe", _text(_obstruct("fe", "--r", 6, "--e", 1))),
        # p^total at p = 2: total 14,283 at r = 2998 prints, 14,285 at 2999 not
        ("obstruct min-partition", _obstruct("min-partition", "--p", 2, "--r", 2998)),
        ("obstruct min-partition", _obstruct("min-partition", "--p", 2, "--r", 2999)),
        ("obstruct min-partition", _obstruct("min-partition", "--p", 2, "--r", 10 ** 11,
                                             "--e", 10 ** 11 - 1)),
        ("obstruct min-partition", _obstruct("min-partition", "--p", 2, "--r", 10 ** 11,
                                             "--e", 5 * 10 ** 10)),
        ("obstruct min-partition", _obstruct("min-partition", "--p", P100, "--r", 40)),
        ("obstruct min-partition", _obstruct("min-partition", "--p", P100, "--r", 3)),
        ("obstruct min-partition", _text(_obstruct("min-partition", "--p", 3, "--r", 7))),
        # the module order p^rank1 at p = 2 prints at 14284, not at 14286
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 3, "--rank1", 14284)),
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 3, "--rank1", 14286)),
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 3000)),
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 20000)),
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 2, "--rank1", 3)),
        ("obstruct compare", _obstruct("compare", "--p", 2, "--r", 2, "--rank1", 0)),
        ("obstruct compare", _obstruct("compare", "--p", 6, "--r", 2)),
        ("obstruct compare", _text(_obstruct("compare", "--p", 2, "--r", 3, "--rank1", 6))),
        ("obstruct compare", ["obstruct", "--r", "2"]),  # a usage error
    ]
    return out


SERIES = ["A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8", "X"]


def _tables_calls(rng):
    out = []
    for series in SERIES:
        desc = ["--type", series]
        if len(series) == 1:
            desc += ["--rank", str(rng.randint(1, 9))]
        if rng.randrange(2):
            desc.append("--adjoint")
        out += [
            ("tables torsion", ["tables", "torsion", *desc]),
            ("tables tits", ["tables", "tits", *desc]),
            ("tables check", ["tables", "check", *desc, "--p", str(rng.choice([2, 3, 5, 7])),
                              "--d", str(rng.randint(0, 4))]),
        ]
    for n in range(0, 9):
        out.append(("tables quadform", ["tables", "quadform", "--n", str(n)]
                    + (["--det-one"] if rng.randrange(2) else [])))
    out += [
        ("tables torsion", _text(["tables", "torsion", "--type", "E8"])),
        ("tables torsion", ["tables", "torsion", "--type", "E8", "--adjoint"]),
        ("tables torsion", ["tables", "torsion"]),
        ("tables tits", _text(["tables", "tits", "--type", "E8"])),
        ("tables check", ["tables", "check", "--type", "E7", "--p", "4", "--d", "1"]),
        ("tables check", ["tables", "check", "--type", "E7", "--p", "1", "--d", "1"]),
        ("tables check", _text(["tables", "check", "--type", "E8", "--p", "5", "--d", "1"])),
        ("tables divisors", ["tables", "divisors"]),
        ("tables divisors", _text(["tables", "divisors"])),
        ("tables quadform", _text(["tables", "quadform", "--n", "5"])),
        ("tables quadform", ["tables", "quadform"]),
        ("tables dump", ["tables", "dump"]),
        ("tables dump", _text(["tables", "dump"])),
    ]
    return out


def _verify_calls(rng):
    return [
        ("verify", ["verify", "partitions", "--seed", str(rng.randint(0, 9))]),
        ("verify", _text(["verify", "partitions", "--seed", "1"])),
        ("verify", ["verify", "isometry", "--seed", "1"]),
        ("verify", _text(["verify", "ec8"])),
        ("verify", ["verify", "no-such-suite"]),  # a usage error
    ]


def calls(seed: int = SEED) -> list[tuple[str, list[str]]]:
    """(command kind, argv) for every call of the corpus, in run order."""
    rng = random.Random(seed)
    out = []
    for part in (_group_calls, _form_calls, _pgl_calls, _f2_calls, _obstruct_calls,
                 _tables_calls, _verify_calls):
        out += part(rng)
    out.append(("usage", ["no-such-command"]))
    out.append(("usage", []))
    return out


def outcome(argv) -> tuple[int, str]:
    """(exit status, stdout) of run(argv); an argparse usage error exits
    through SystemExit."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digests(corpus) -> dict[str, str]:
    """sha256 per command kind over (argv, exit status, stdout) of each of
    its calls, in corpus order."""
    hashes = {}
    for kind, argv in corpus:
        code, out = outcome(argv)
        h = hashes.setdefault(kind, hashlib.sha256())
        h.update(json.dumps([argv, code]).encode() + b"\n" + out.encode() + b"\n")
    return {kind: h.hexdigest() for kind, h in hashes.items()}


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else SEED
    print(json.dumps(digests(calls(seed)), indent=1, sort_keys=True))
