"""Seeded query lists for the three benchmark workloads.

Every workload is a single-client closed loop: the worker sends the next
query only after the previous one returned.  A query is either a CLI argv
(run in-process through ``splitbound.cli.run``) or, for the isotropic
transfer, which has no subcommand, a direct call described by ``params``.

The seed picks the random inputs (forms, generators, tuples, sources,
parameters); the group types of ``enumerating``, the sizes of ``direct``
and the order of the queries are fixed, so every seed asks for a
comparable amount of work and the spread between seeds stays small.

Workload notes
--------------
enumerating
    Subgroup enumeration and the isotropy filter: ``pgl depth`` on full
    images, ``form max-isotropic`` on standard modules and on random,
    possibly degenerate, alternating forms, ``obstruct --mode compare`` at
    p = 2, 3, ``group subgroups``/``embeds`` and ``isotropic_transfer``
    with and without ``search_min``.  Group types are distinct within a
    pass (the two transfer calls on a module share it, as a library caller
    would), so the enumeration caches stay mostly cold.

    Excluded on purpose: ``group subgroups 2,2,2,2,2,2,2,2,2,2,2,2``.
    That group has order 4096, inside the default enumeration cap, but
    ``enumerate_subgroups`` materializes every one of its subgroups and
    the process is killed for lack of memory (exit 137).  Including it
    would kill every run; it stays a known defect of the program, not of
    the benchmark.
direct
    Queries that never enumerate, on groups far above the enumeration cap
    (orders up to about 2^40, rank <= 8): spans, quotients and tuple
    reduction, radicals, nondegeneracy and Lagrangian checks, ``pgl
    alpha``/``toral``, the GF(2) Gray sweep and block decomposition in
    dimensions 12-20, the partition search and the table lookups.  An
    enumeration change should leave it unchanged.
replay
    ``verify all --seed S`` in a fresh process: it revisits the same group
    types across suites and exercises the caches the other workloads keep
    cold.  The whole run is one query, as it is for a user.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from oracles import embeds_by_partition

WORKLOADS = ("enumerating", "direct", "replay")


@dataclass(frozen=True)
class Query:
    """One query: its kind (which also names its oracle), the CLI argv,
    the group type or form it is about (for the sharing figure) and the
    parameters the oracle needs."""

    kind: str
    argv: tuple = ()
    key: str = ""
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def group_literal(inv) -> str:
    return ",".join(str(d) for d in inv)


def element_literal(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def random_coords(rng: random.Random, inv) -> list[int]:
    return [rng.randrange(d) for d in inv]


def random_form_spec(rng: random.Random, inv, zero_share: float = 0.0) -> dict:
    """Random alternating Gram matrix on the chain ``inv`` (entry (i, j),
    i < j, is t/d_i); ``zero_share`` of the entries are forced to 0 so
    that degenerate forms occur."""
    k = len(inv)
    gram = [["0/1"] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            t = 0 if rng.random() < zero_share else rng.randrange(inv[i])
            gram[i][j] = f"{t}/{inv[i]}"
            gram[j][i] = f"{(-t) % inv[i]}/{inv[i]}"
    return {"group": list(inv), "gram": gram}


def standard_form_spec(inv) -> dict:
    """The standard module on A x A*, in the interleaved slot layout."""
    doubled = [d for d in inv for _ in (0, 1)]
    k = len(doubled)
    gram = [["0/1"] * k for _ in range(k)]
    for i, d in enumerate(inv):
        gram[2 * i][2 * i + 1] = f"{d - 1}/{d}" if d > 1 else "0/1"
        gram[2 * i + 1][2 * i] = f"1/{d}"
    return {"group": doubled, "gram": gram}


def spec_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def random_chain(rng: random.Random, rank: int, max_log2: float,
                 max_factor: int | None = None) -> list[int]:
    """Random invariant-factor chain d_1 | ... | d_rank, every d_i >= 2."""
    steps = (1, 1, 2, 2, 3, 4, 5, 6, 8, 9)
    while True:
        chain = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16))]
        for _ in range(rank - 1):
            chain.append(chain[-1] * rng.choice(steps))
        order = 1
        for d in chain:
            order *= d
        if order.bit_length() - 1 > max_log2:
            continue
        if max_factor is not None and chain[-1] > max_factor:
            continue
        return chain


# ---------------------------------------------------------------------------
# enumerating
# ---------------------------------------------------------------------------

# Fixed heavy anchors: the same inputs for every seed (about 2.7 s per pass).
_ENUM_ANCHORS = (
    ("pgl.depth", "2,2,8"),
    ("pgl.depth", "7,7"),
    ("pgl.depth", "2,2,2"),
    ("form.max-isotropic.standard", "2,2,4"),
)

# The rest of a pass: every listed group once; the seed draws the forms,
# the embedding sources and the transfer subgroups.  Depth and standard
# max-isotropic use different groups, so their modules do not repeat.
_DEPTH_GROUPS = ("2", "3", "4", "8", "9", "2,2", "2,4", "16", "27", "25", "4,4", "5,5",
                 "2,16")
_STD_ISO_GROUPS = ("3,3", "5", "11", "2,8", "3,9", "4,8")
_RANDOM_FORM_GROUPS = (
    (2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (2, 4, 4, 8), (4, 4, 4, 4), (3, 3, 9, 9),
    (5, 5, 5, 5), (2, 2, 2, 4, 4), (3, 3, 3, 3), (2, 2, 2, 2, 4),
)
_ZERO_SHARES = (0.0, 0.3, 0.6)
_COMPARE_CASES = ((2, 2, 4), (2, 3, 6), (3, 2, 4), (2, 2, 6), (2, 3, 4), (2, 4, 6),
                  (5, 2, 4), (2, 4, 4))
_SUBGROUP_GROUPS = ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (3, 3, 3, 3), (2, 2, 4, 4),
                    (4, 4, 4), (8, 8, 8), (4, 4, 4, 4), (2, 2, 2, 2, 4), (5, 5, 5),
                    (3, 3, 9), (2, 4, 8), (16, 16), (9, 9, 9))
_EMBED_TARGETS = ((2, 2, 2, 2, 2, 2), (2, 4, 8), (4, 4, 4), (2, 2, 4, 4), (3, 3, 9),
                  (2, 4, 4, 4), (3, 3, 3, 3), (8, 8, 8), (2, 2, 2, 2, 4))
_TRANSFER_MODULES = ((2,), (3,), (4,), (2, 2), (5,), (7,), (8,), (2, 4), (9,), (3, 3))
_TRANSFER_CALLS = 2
# Tiny enumerations: the subgroups of the cyclic groups of order 1000-1057.
# Their costs differ little, so the median latency lands inside this block
# and does not jump between unlike neighbours from seed to seed.
_TINY_CYCLIC = tuple(range(1000, 1058))


def _embed_source(rng: random.Random, target, embeds: bool) -> list[int]:
    """A random group whose order divides |target| and which embeds in
    the target or not, as asked: cyclic factors of the target shrunk at
    random, sometimes with two of them merged into one larger factor."""
    total = 1
    for d in target:
        total *= d
    while True:
        src = [x for x in (rng.choice([x for x in range(1, d + 1) if d % x == 0])
                           for d in target) if x > 1]
        if len(src) >= 2 and rng.random() < 0.5:
            a = src.pop(rng.randrange(len(src)))
            b = src.pop(rng.randrange(len(src)))
            src.append(a * b)
        order = 1
        for d in src:
            order *= d
        if src and total % order == 0 and embeds_by_partition(src, target) == embeds:
            return src


def enumerating_queries(seed: int) -> list[Query]:
    rng = random.Random(f"enumerating:{seed}")
    out: list[Query] = []
    for kind, spec in _ENUM_ANCHORS:
        if kind == "pgl.depth":
            out.append(_depth_query(spec))
        else:
            out.append(_std_iso_query([int(x) for x in spec.split(",")]))
    out.extend(_depth_query(g) for g in _DEPTH_GROUPS)
    out.extend(_std_iso_query([int(x) for x in g.split(",")]) for g in _STD_ISO_GROUPS)
    out.extend(_subgroups_query([n]) for n in _TINY_CYCLIC)
    for i, inv in enumerate(_RANDOM_FORM_GROUPS):
        spec = random_form_spec(rng, inv, zero_share=_ZERO_SHARES[i % len(_ZERO_SHARES)])
        text = spec_text(spec)
        out.append(Query("form.max-isotropic.random",
                         ("form", "max-isotropic", "--form", text), key=text,
                         params={"form": spec}))
    for i, (p, r, rank1) in enumerate(_COMPARE_CASES):
        out.append(_compare_query(p, r, i % 2, rank1))
    out.extend(_subgroups_query(list(inv)) for inv in _SUBGROUP_GROUPS)
    for i, target in enumerate(_EMBED_TARGETS):
        # a fixed pattern of answers keeps the work per seed comparable:
        # "no" enumerates the whole target, "yes" stops at the first match
        src = _embed_source(rng, target, i % 2 == 1)
        argv = ("group", "embeds", group_literal(src), "--into", group_literal(target))
        out.append(Query("group.embeds", argv, key=group_literal(target),
                         params={"a": src, "b": list(target)}))
    for inv in _TRANSFER_MODULES:
        out.extend(_transfer_queries(rng, list(inv)))
    return out


def _depth_query(g: str) -> Query:
    return Query("pgl.depth", ("pgl", "depth", "--group", g), key=g,
                 params={"group": [int(x) for x in g.split(",")]})


def _subgroups_query(inv) -> Query:
    g = group_literal(inv)
    return Query("group.subgroups", ("group", "subgroups", g), key=g, params={"group": inv})


def _compare_query(p: int, r: int, e: int, rank1: int) -> Query:
    argv = ("obstruct", "--mode", "compare", "--p", str(p), "--r", str(r), "--e", str(e),
            "--rank1", str(rank1))
    return Query("obstruct.compare", argv, key=" ".join(argv),
                 params={"p": p, "r": r, "e": e, "rank1": rank1})


def _std_iso_query(inv) -> Query:
    spec = standard_form_spec(inv)
    text = spec_text(spec)
    return Query("form.max-isotropic.standard", ("form", "max-isotropic", "--form", text),
                 key=text, params={"form": spec})


def _transfer_queries(rng: random.Random, inv) -> list[Query]:
    doubled = [d for d in inv for _ in (0, 1)]
    out = []
    for call in range(_TRANSFER_CALLS):
        gens = [random_coords(rng, doubled) for _ in range(rng.choice((1, 2, 3)))]
        iso = [gens[0]]
        params = {"a": inv, "h1": gens, "iso": iso, "search_min": call % 2 == 1}
        out.append(Query("qzforms.isotropic_transfer", (), key=group_literal(doubled),
                         params=params))
    return out


# ---------------------------------------------------------------------------
# direct
# ---------------------------------------------------------------------------

def _lagrangian_gens(rng: random.Random, inv) -> list[list[int]]:
    """Generators of a Lagrangian of the standard module: per block either
    e_a + t e_chi or e_chi + t e_a."""
    k = 2 * len(inv)
    gens = []
    for i, d in enumerate(inv):
        row = [0] * k
        t = rng.randrange(d)
        if rng.random() < 0.5:
            row[2 * i], row[2 * i + 1] = 1, t
        else:
            row[2 * i], row[2 * i + 1] = t, 1
        gens.append(row)
    return gens


def _gens_literal(gens) -> str:
    return ";".join(element_literal(g) for g in gens)


# The sweep cost depends on the dimension only.  Twelve sweeps share
# dimension 17, so the latency tail (the 11th slowest query) lands inside
# a block of equal-cost queries.
_F2_COUNT_DIMS = (12, 13, 14, 15, 16, 18, 19, 20) + (17,) * 12
_F2_DECOMPOSE_DIMS = tuple(range(12, 21)) * 2
# |A| <= 9, so a generated subgroup has at most 81 elements
_PGL_GROUPS = ((2, 2), (2, 4), (3, 3), (8,), (9,), (2, 2, 2), (4,), (7,), (5,))


def direct_queries(seed: int) -> list[Query]:
    """Sizes (ranks, generator counts, dimensions, r) are fixed per slot;
    the seed draws the entries."""
    rng = random.Random(f"direct:{seed}")
    out: list[Query] = []
    for action in ("span", "quotient"):
        for i in range(40):
            inv = random_chain(rng, 1 + i % 8, 40)
            gens = [random_coords(rng, inv) for _ in range(1 + i % 4)]
            g = group_literal(inv)
            out.append(Query(f"group.{action}",
                             ("group", action, g, "--gens", _gens_literal(gens)),
                             key=g, params={"group": inv, "gens": gens}))
    for i in range(40):
        inv = random_chain(rng, 1 + i % 6, 40, max_factor=1024)
        tup = [random_coords(rng, inv) for _ in range(len(inv) + i % 4)]
        g = group_literal(inv)
        out.append(Query("group.reduce", ("group", "reduce", g, "--tuple", _gens_literal(tup)),
                         key=g, params={"group": inv, "tuple": tup}))
    for action in ("radical", "nondegenerate"):
        for i in range(30):
            inv = random_chain(rng, 2 + i % 7, 40)
            spec = random_form_spec(rng, inv, zero_share=(0.0, 0.3)[i % 2])
            text = spec_text(spec)
            out.append(Query(f"form.{action}", ("form", action, "--form", text), key=text,
                             params={"form": spec}))
    for i in range(30):
        inv = random_chain(rng, 1 + i % 4, 20)
        spec = standard_form_spec(inv)
        gens = _lagrangian_gens(rng, inv)
        expect = True
        if i % 4 == 1 and len(gens) > 1:
            gens = gens[:-1]  # too small
            expect = False
        elif i % 4 == 2:
            extra = [0] * (2 * len(inv))
            extra[1 if gens[0][0] == 1 else 0] = 1  # breaks isotropy
            gens = gens + [extra]
            expect = False
        text = spec_text(spec)
        out.append(Query("form.lagrangian",
                         ("form", "lagrangian", "--form", text, "--gens", _gens_literal(gens)),
                         key=text, params={"form": spec, "gens": gens, "expect": expect}))
    for i in range(30):
        inv = random_chain(rng, 1 + i % 4, 20)
        spec = standard_form_spec(inv)
        gens = _lagrangian_gens(rng, inv)
        text = spec_text(spec)
        out.append(Query("form.quotient-lagrangian",
                         ("form", "quotient-lagrangian", "--form", text,
                          "--gens", _gens_literal(gens)),
                         key=text, params={"form": spec, "gens": gens, "a": inv}))
    for action in ("alpha", "toral"):
        for i in range(18):
            inv = list(_PGL_GROUPS[i % len(_PGL_GROUPS)])
            elems = [(random_coords(rng, inv), random_coords(rng, inv))
                     for _ in range(1 + i % 3)]
            lit = ";".join("(" + ",".join(map(str, a)) + "|" + ",".join(map(str, c)) + ")"
                           for a, c in elems)
            g = group_literal(inv)
            out.append(Query(f"pgl.{action}",
                             ("pgl", action, "--group", g, "--elements", lit), key=g,
                             params={"group": inv, "elements": elems}))
        for inv in ((2,), (3,), (4,), (2, 2), (5,), (6,)):
            g = group_literal(inv)
            out.append(Query(f"pgl.{action}", ("pgl", action, "--group", g), key=g,
                             params={"group": list(inv)}))
    for action, dims in (("count", _F2_COUNT_DIMS), ("decompose", _F2_DECOMPOSE_DIMS)):
        for m in dims:
            rows = [rng.getrandbits(m) >> i << i for i in range(m)]
            spec = {"dim": m, "rows": [format(r, "#x") for r in rows]}
            text = spec_text(spec)
            out.append(Query(f"f2.{action}", ("f2", action, "--form", text), key=text,
                             params={"dim": m, "rows": rows}))
    for i in range(30):
        p = rng.choice((2, 3, 5, 7))
        r = 10 + i
        e = rng.randint(0, 3)
        out.append(Query("obstruct.min-partition",
                         ("obstruct", "--mode", "min-partition", "--p", str(p), "--r", str(r),
                          "--e", str(e)),
                         key=f"{p} {r} {e}", params={"p": p, "r": r, "e": e}))
    for i in range(20):
        p = rng.choice((2, 3, 5, 7, 11))
        r = 1 + 2 * i
        e = rng.randint(0, r - 1)
        out.append(Query("obstruct.thm13",
                         ("obstruct", "--mode", "thm13", "--p", str(p), "--r", str(r),
                          "--e", str(e)),
                         key=f"{p} {r} {e}", params={"p": p, "r": r, "e": e}))
    for i in range(20):
        r = 1 + 3 * i
        e = rng.randint(0, 5)
        out.append(Query("obstruct.fe", ("obstruct", "--mode", "fe", "--r", str(r), "--e", str(e)),
                         key=f"{r} {e}", params={"r": r, "e": e}))
    out.extend(_table_queries(rng, 30))
    return out


def _table_queries(rng: random.Random, n: int) -> list[Query]:
    out = []
    actions = ("torsion", "tits", "check", "divisors", "quadform", "dump")
    for i in range(n):
        action = actions[i % len(actions)]
        if action in ("torsion", "tits", "check"):
            series = rng.choice(("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8"))
            argv = ["tables", action, "--type", series]
            params = {"series": series}
            if series in ("A", "B", "C", "D"):
                rank = rng.randint(4, 12)
                argv += ["--rank", str(rank)]
                params["rank"] = rank
            if action == "torsion" or series in ("G2", "F4", "E8"):
                pass  # simply connected (the adjoint G2/F4/E8 entries are absent)
            elif rng.random() < 0.5:
                argv.append("--adjoint")
                params["adjoint"] = True
            if action == "check":
                p = rng.choice((2, 3, 5))
                d = rng.randint(0, 3)
                argv += ["--p", str(p), "--d", str(d)]
                params.update(p=p, d=d)
        elif action == "quadform":
            m = rng.randint(1, 30)
            argv = ["tables", "quadform", "--n", str(m)]
            params = {"n": m, "det_one": rng.random() < 0.5}
            if params["det_one"]:
                argv.append("--det-one")
        else:
            argv = ["tables", action]
            params = {}
        out.append(Query(f"tables.{action}", tuple(argv), key=" ".join(argv), params=params))
    return out


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay_queries(seed: int) -> list[Query]:
    argv = ("verify", "all", "--seed", str(seed))
    return [Query("verify.all", argv, key="verify all", params={"seed": seed})]


def build(workload: str, seed: int) -> list[Query]:
    if workload == "enumerating":
        return enumerating_queries(seed)
    if workload == "direct":
        return direct_queries(seed)
    if workload == "replay":
        return replay_queries(seed)
    raise ValueError(f"unknown workload {workload!r}")
