"""Seeded fuzz of the whole CLI: every subcommand and action, with small
literals and malformed specs, run as a user runs them.  Each call must exit
0 or 2 (a traceback fails the test) and print JSON that validates against
schemas.json: the action's schema on exit 0, the error schema on exit 2.
A `group reduce` that answers must also print a well-formed op log that
replays to its `reduced`.

`obstruct --mode compare` is drawn with --r and --rank1 up to 64 (module
orders up to 4^64), and each such call must end within COMPARE_SECONDS
with the closed-form answer.  `form max-isotropic` on a standard module,
drawn up to |H| = 2^20, enumerates nothing and must answer within
MAX_ISOTROPIC_SECONDS; so must a degenerate form whose radical is a direct
summand (a standard module plus a zero summand), drawn up to |H| = 2^14.
`obstruct --mode min-partition`, drawn up to r = 3,100 (where p^total stops
printing) and near r = 10^11, must answer or refuse with kind output-bound
within MIN_PARTITION_SECONDS.  No other per-call time is asserted: `group subgroups --list` and `pgl
element` print one entry per subgroup or per element, and a form whose
radical is not a direct summand is enumerated, so the groups drawn (order
at most 1728) and the arbitrary forms (order at most 64) are kept small
enough that these calls stay quick.
"""

import json
import time
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from splitbound.errors import InvalidInvariantError  # noqa: E402
from splitbound.finabel import make_group, replay_ops  # noqa: E402
from splitbound.qzforms import standard_module  # noqa: E402
from test_cli import check_schema, compare_closed_form, invoke  # noqa: E402


@st.composite
def _mostly(draw, valid, malformed):
    """A draw from `valid`, or one in four times a malformed literal."""
    if draw(st.integers(0, 3)) == 3:
        return draw(st.sampled_from(malformed))
    return draw(valid)


def _ints(items) -> str:
    return ",".join(str(x) for x in items)


def _coords(k):
    """Element literals of rank k (coordinates need not be reduced)."""
    return st.lists(st.integers(-3, 12), min_size=k, max_size=k).map(lambda xs: f"({_ints(xs)})")


def _element(k):
    return _mostly(_coords(k), ["", "()", "(1,2,3,4)", "1,2", "(a)", "(1,", "(1;2)"])


def _elements(k):
    return _mostly(
        st.lists(_coords(k), max_size=k + 3).map(";".join),
        [";", "(1);(a)", "(0,0,0,0,0);(1)", "()"],
    )


@st.composite
def _group(draw):
    """(literal, rank): a group of order <= 1728 or a malformed literal."""
    literal = draw(_mostly(
        st.lists(st.integers(2, 12), min_size=1, max_size=3).map(_ints),
        ["", "x", "2,,4", "-4", "0", "1", "2.5", "1e3"],
    ))
    try:
        return literal, make_group(int(x) for x in literal.split(",")).rank
    except (ValueError, InvalidInvariantError):
        return literal, 1


def _flags(draw, argv, flags):
    """Append each flag with its drawn value, three times in four."""
    for flag, strategy in flags.items():
        if draw(st.integers(0, 3)) != 3:
            argv += [flag, draw(strategy)]
    return argv


MAX_EXAMPLES = 30

# invariant chains of order <= 64, so every form is small
CHAINS = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (4, 4), (2, 6),
          (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]


@st.composite
def _skew_form(draw):
    chain = draw(st.sampled_from(CHAINS))
    k = len(chain)
    gram = [["0/1"] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            den = gcd(chain[i], chain[j])
            num = draw(st.integers(0, den - 1))
            gram[i][j] = f"{num}/{den}"
            gram[j][i] = f"{-num}/{den}"
    return json.dumps({"group": list(chain), "gram": gram}), k


def _standard_spec(a):
    w = standard_module(make_group(a))
    spec = {"group": list(w.group.invariants), "gram": [[str(e) for e in row] for row in w.gram]}
    return json.dumps(spec), w.group.rank


# the standard modules drawn: |H| from 4 to 2^20, (Z/2)^5 and the ones
# after it above 4096, the largest order of an enumerated form
STANDARD_SPECS = [_standard_spec(a) for a in [
    (2,), (3,), (4,), (2, 2), (2, 4), (2, 2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 4),
    (4, 4, 4), (2, 6, 6), (2,) * 10,
]]


def _split_spec(p, a_exps, r_exps):
    """The standard module on A = prod Z/p^a plus the zero form on
    R = prod Z/p^r, on the canonical generators of the p-group A x A* x R
    (sorted by order): a degenerate form whose radical R is a direct
    summand."""
    slots = sorted([(p ** e, ("a", i, s)) for i, e in enumerate(a_exps) for s in (0, 1)]
                   + [(p ** e, ("r", i, 0)) for i, e in enumerate(r_exps)], key=lambda t: t[0])
    at = {label: j for j, (_, label) in enumerate(slots)}
    k = len(slots)
    gram = [["0/1"] * k for _ in range(k)]
    for i, e in enumerate(a_exps):
        x, y = at["a", i, 0], at["a", i, 1]
        gram[x][y], gram[y][x] = f"-1/{p ** e}", f"1/{p ** e}"
    return json.dumps({"group": [d for d, _ in slots], "gram": gram}), k


# split degenerate forms, all above 4096, the largest order of an enumerated form
SPLIT_SPECS = [_split_spec(p, a, r) for p, a, r in [
    (2, (1,) * 5, (1,)), (2, (1, 1, 1, 2), (2,)), (2, (1, 1, 1), (1, 3)),
    (3, (1, 1, 1), (2,)), (2, (1,) * 6, (1, 1)),
]]


@st.composite
def _standard_form(draw):
    return draw(st.sampled_from(STANDARD_SPECS + SPLIT_SPECS))


MALFORMED_FORMS = [
    "", "nope", "[]", "{}", '{"group": [2]}', '{"group": "2", "gram": []}',
    '{"group": [2], "gram": [["1/2"]]}',
    '{"group": [2, 2], "gram": [["0/1", "1/2"], ["0/1", "0/1"]]}',
    '{"group": [4], "gram": [["0/1", "3/4"], ["1/4", "0/1"]]}',
    '{"group": [2], "gram": [["0/0"]]}',
    '{"group": [4.0], "gram": [["0/1"]]}', '{"group": [true], "gram": [["0/1"]]}',
    '{"group": [NaN], "gram": [["0/1"]]}', '{"group": [1e400], "gram": [["0/1"]]}',
    '{"group": [1], "gram": [["0/1"]]}', "@no-such-dir/spec.json",
]


@st.composite
def _f2_form(draw):
    dim = draw(st.integers(0, 10))
    rows = [draw(st.integers(0, (1 << dim) - 1)) >> i << i for i in range(dim)]
    if draw(st.integers(0, 3)) == 0:  # sometimes not upper triangular
        rows = [draw(st.integers(0, (1 << dim) - 1)) for _ in range(dim)]
    return json.dumps({"dim": dim, "rows": [format(r, "#x") for r in rows]})


F2_SPECS = _mostly(_f2_form(), [
    "", "{}", '{"rows": []}', '{"dim": 2.5, "rows": ["0x2", "0x0"]}',
    '{"dim": "2", "rows": ["0x2", "0x0"]}', '{"dim": true, "rows": ["0x2"]}',
    '{"dim": 1e400, "rows": []}', '{"dim": -1, "rows": []}',
    '{"dim": 2000, "rows": []}', '{"dim": 2, "rows": [2, 0]}',
    '{"dim": 1, "rows": ["zz"]}', '{"dim": 1, "rows": ["0x4"]}',
])


@st.composite
def group_call(draw, action):
    literal, k = draw(_group())
    argv = _flags(draw, ["group", action, literal], {
        "--chi": _element(k), "--a": _element(k), "--gens": _elements(k),
        "--tuple": _elements(k), "--into": _group().map(lambda g: g[0]),
    })
    if draw(st.booleans()):
        argv.append("--list")
    return f"group {action}", argv


@st.composite
def form_call(draw, action):
    spec, k = draw(_mostly(
        st.one_of(_standard_form(), _skew_form()),
        [(text, 1) for text in MALFORMED_FORMS],
    ))
    # the A factor of a standard module, a Lagrangian of it
    a_factor = ";".join(f"({_ints(int(j == i) for j in range(k))})" for i in range(0, k, 2))
    argv = _flags(draw, ["form", action], {
        "--group": _group().map(lambda g: g[0]), "--form": st.just(spec),
        "--x": _element(k), "--y": _element(k),
        "--gens": st.one_of(_elements(k), st.just(a_factor)),
    })
    return f"form {action}", argv


@st.composite
def pgl_call(draw, action):
    literal, k = draw(_group())
    coords = st.lists(st.integers(0, 8), min_size=k, max_size=k).map(_ints)
    pair = _mostly(
        st.tuples(coords, coords).map(lambda ac: f"({ac[0]}|{ac[1]})"),
        ["(1)", "1|1", "(|)", "(a|b)"],
    )
    argv = _flags(draw, ["pgl", action, "--group", literal], {
        "--a": _element(k), "--chi": _element(k),
        "--elements": st.lists(pair, max_size=3).map(";".join),
    })
    return f"pgl {action}", argv


@st.composite
def f2_call(draw, action):
    argv = ["f2", action]
    key = f"f2 {action}"
    if draw(st.booleans()):
        argv += ["--lemma", "quad"]
    if draw(st.booleans()):
        argv.append("--by-class")
    if draw(st.booleans()):
        argv.append("--e8-torus")
    if action == "census":
        if "--lemma" in argv:
            key += " --lemma" + (" --by-class" if "--by-class" in argv else "")
        else:
            key += " --e8-torus"
    return key, _flags(draw, argv, {"--form": F2_SPECS})


@st.composite
def obstruct_call(draw, mode):
    # compare reads its types off the group types, so it takes large
    # literals (4^64 is the largest module order drawn)
    top = 64 if mode == "compare" else 6
    argv = ["obstruct", "--mode", mode, "--r", draw(_mostly(st.integers(1, top).map(str), ["-1", "0"]))]
    return f"obstruct {mode}", _flags(draw, argv, {
        "--p": _mostly(st.sampled_from(["2", "3", "5"]), ["-1", "0", "1", "4"]),
        "--e": _mostly(st.integers(0, 4).map(str), ["-1"]),
        "--rank1": _mostly(st.integers(1, top // 2).map(lambda m: str(2 * m)), ["-2", "0", "3"]),
    })


# the per-call wall-time bound on every `obstruct --mode compare` draw
COMPARE_SECONDS = 1.0
# and on every `form max-isotropic` draw on a standard module or a split
# degenerate form
MAX_ISOTROPIC_SECONDS = 1.0


def check_compare(argv, payload):
    """The answer of the two standard modules, from their closed form."""
    def flag(name, default):
        return int(argv[argv.index(name) + 1]) if name in argv else default

    r = flag("--r", None)
    want = compare_closed_form(flag("--p", 2), r, flag("--e", 0), flag("--rank1", 2 * r))
    assert payload == want, argv


@st.composite
def tables_call(draw, action):
    series = draw(_mostly(
        st.sampled_from(["A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8"]),
        ["X", "e8", ""],
    ))
    argv = _flags(draw, ["tables", action], {
        "--type": st.just(series),
        "--p": _mostly(st.integers(2, 7).map(str), ["-1", "0", "1"]),
        "--d": _mostly(st.integers(0, 4).map(str), ["-1"]),
        "--n": _mostly(st.integers(1, 12).map(str), ["-1", "0"]),
    })
    if series in ("A", "B", "C", "D") or not draw(st.integers(0, 3)):
        argv += ["--rank", draw(_mostly(st.integers(1, 9).map(str), ["-1", "0"]))]
    if not draw(st.integers(0, 3)):
        argv.append("--adjoint")
    if draw(st.booleans()):
        argv.append("--det-one")
    return f"tables {action}", argv


def verify_call(_suite):
    # verify lagrangian and verify all take seconds (test_verify_all_exits_zero
    # runs them), so one of the quick suites is drawn
    return st.tuples(
        st.sampled_from(["isometry", "ec8", "partitions"]), st.integers(0, 3)
    ).map(lambda sd: ("verify", ["verify", sd[0], "--seed", str(sd[1])]))


def check_reduce_ops(argv, payload):
    """Each printed op is ["sub", i, j, q] (i != j in range, q >= 1) or
    ["swap", i, j], and replaying them gives the printed reduced tuple."""
    a = make_group(int(x) for x in argv[argv.index("reduce") + 1].split(","))
    tup = argv[argv.index("--tuple") + 1]
    xi = [a.element(tuple(int(c) for c in part.strip()[1:-1].split(",")))
          for part in tup.split(";") if part.strip()]
    for op in payload["ops"]:
        if op[0] == "sub":
            _kind, i, j, q = op
            assert type(q) is int and q >= 1, (argv, op)
        else:
            kind, i, j = op
            assert kind == "swap", (argv, op)
        assert i != j and {i, j} <= set(range(len(xi))), (argv, op)
    replayed = [list(e.coords) for e in replay_ops(a, xi, payload["ops"])]
    assert replayed == payload["reduced"], argv


# every (command, action) the parser accepts; obstruct takes --mode
ACTIONS = [
    (group_call, ["info", "dual", "char", "span", "quotient", "subgroups", "embeds", "reduce"]),
    (form_call, ["standard", "radical", "nondegenerate", "evaluate", "max-isotropic",
                 "lagrangian", "quotient-lagrangian"]),
    (pgl_call, ["depth", "toral", "alpha", "element"]),
    (f2_call, ["census", "ec8", "count", "decompose", "radical"]),
    (obstruct_call, ["thm13", "f", "fe", "min-partition", "compare"]),
    (tables_call, ["torsion", "tits", "check", "divisors", "quadform", "dump"]),
    (verify_call, ["any"]),
]


# no shrinking: a failing example is reported as drawn, call by call, and a
# shrink over dozens of CLI calls per example would take minutes
@settings(max_examples=MAX_EXAMPLES, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exits_0_or_2_with_schema_valid_json(data):
    # each example runs every action once, on freshly drawn literals
    for builder, actions in ACTIONS:
        for action in actions:
            key, argv = data.draw(builder(action))
            t0 = time.perf_counter()
            code, out, _ = invoke(argv)
            if key == "obstruct compare":
                assert time.perf_counter() - t0 < COMPARE_SECONDS, argv
            if key == "form max-isotropic" and _is_standard(argv):
                assert time.perf_counter() - t0 < MAX_ISOTROPIC_SECONDS, argv
                assert code == 0, (argv, out)
            assert code in (0, 2), (argv, out)
            payload = json.loads(out)
            if code == 2:
                check_schema("error", payload)
                assert isinstance(payload["error"]["kind"], str), argv
                assert isinstance(payload["error"]["message"], str), argv
            else:
                check_schema(key, payload)
                if key == "group reduce":
                    check_reduce_ops(argv, payload)
                if key == "obstruct compare":
                    check_compare(argv, payload)


def _is_standard(argv):
    specs = {spec for spec, _ in STANDARD_SPECS + SPLIT_SPECS}
    return "--form" in argv and argv[argv.index("--form") + 1] in specs


# the whole-CLI draws above answer few `group reduce` calls (most tuples are
# malformed or shorter than the rank), so well-formed ones are drawn here,
# with invariant factors up to 10^6 for long Euclidean runs
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(st.data())
def test_cli_fuzz_group_reduce_prints_ops_that_replay(data):
    chain = data.draw(st.lists(st.one_of(st.integers(2, 12), st.integers(2, 10**6)),
                               min_size=1, max_size=3))
    k = make_group(chain).rank
    tup = data.draw(st.lists(
        st.lists(st.integers(-3, 10**6), min_size=k, max_size=k).map(lambda xs: f"({_ints(xs)})"),
        min_size=k, max_size=k + 3,
    ))
    argv = ["group", "reduce", _ints(chain), "--tuple", ";".join(tup)]
    code, out, _ = invoke(argv)
    assert code == 0, (argv, out)
    payload = json.loads(out)
    check_schema("group reduce", payload)
    check_reduce_ops(argv, payload)


# the whole-CLI draws above answer about half of their 30 compare calls, so
# well-formed ones are drawn here: module orders up to 7^128, each within
# COMPARE_SECONDS
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(p=st.sampled_from([2, 3, 5, 7]), r=st.integers(1, 64), m=st.integers(1, 32),
       e=st.integers(0, 70))
def test_cli_fuzz_compare_answers_large_modules_in_time(p, r, m, e):
    argv = ["obstruct", "--mode", "compare", "--p", str(p), "--r", str(r), "--e", str(e),
            "--rank1", str(2 * m)]
    t0 = time.perf_counter()
    code, out, _ = invoke(argv)
    assert time.perf_counter() - t0 < COMPARE_SECONDS, argv
    assert code == 0, (argv, out)
    payload = json.loads(out)
    check_schema("obstruct compare", payload)
    check_compare(argv, payload)


# well-formed standard modules on chains of up to five factors 2..12
# (|H| up to 12^10): each answers within
# MAX_ISOTROPIC_SECONDS with a Lagrangian witness and the types of the LR rule
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(chain=st.lists(st.integers(2, 12), min_size=1, max_size=5))
def test_cli_fuzz_max_isotropic_answers_standard_modules_in_time(chain):
    from splitbound.finabel import Subgroup
    from splitbound.qzforms import is_lagrangian, isotropic_types

    spec, _ = _standard_spec(chain)
    t0 = time.perf_counter()
    code, out, _ = invoke(["form", "max-isotropic", "--form", spec])
    assert time.perf_counter() - t0 < MAX_ISOTROPIC_SECONDS, chain
    assert code == 0, (chain, out)
    payload = json.loads(out)
    check_schema("form max-isotropic", payload)
    w = standard_module(make_group(chain))
    witness = Subgroup(w.group, payload["witness"]["basis"])
    assert payload["order"] ** 2 == w.group.order == witness.order ** 2, chain
    assert is_lagrangian(w, witness), chain
    assert payload["types"] == [list(t) for t in isotropic_types(w, payload["order"])], chain


# well-formed split degenerate forms: a standard module on up to three
# factors plus a zero summand on up to two, over p = 2, 3 (|H| up to 3^24),
# mostly above 4096: each answers within
# MAX_ISOTROPIC_SECONDS with an isotropic witness of order |A| |R| that holds
# R, and the types type(R) ∪ nu for nu a Lagrangian type of the module on A
@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(p=st.sampled_from([2, 3]), a_exps=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       r_exps=st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_cli_fuzz_max_isotropic_answers_split_degenerate_forms(p, a_exps, r_exps):
    from splitbound.cli import _parse_form
    from splitbound.finabel import Subgroup, _canonical_chain
    from splitbound.qzforms import is_isotropic, isotropic_types, radical

    spec, _ = _split_spec(p, a_exps, r_exps)
    t0 = time.perf_counter()
    code, out, _ = invoke(["form", "max-isotropic", "--form", spec])
    assert time.perf_counter() - t0 < MAX_ISOTROPIC_SECONDS, (p, a_exps, r_exps)
    assert code == 0, (spec, out)
    payload = json.loads(out)
    check_schema("form max-isotropic", payload)
    w = _parse_form(spec)
    rad = radical(w)
    a = make_group([p ** e for e in a_exps])
    assert rad.sub_invariants == make_group([p ** e for e in r_exps]).invariants
    witness = Subgroup(w.group, payload["witness"]["basis"])
    assert payload["order"] == witness.order == a.order * rad.order, spec
    assert is_isotropic(w, witness) and witness.contains_subgroup(rad), spec
    types = {_canonical_chain(rad.sub_invariants + t)
             for t in isotropic_types(standard_module(a), a.order)}
    assert payload["types"] == [list(t) for t in sorted(types)], spec


# the per-call wall-time bound on every well-formed `min-partition` draw
MIN_PARTITION_SECONDS = 1.0


@st.composite
def _min_partition_query(draw):
    """(p, r, e): r up to 3,100, a quarter of them from 2,900 (where 2^total
    stops printing), or one time in eight near 10^11; e drawn from
    0..r + 1, mostly near either end."""
    p = draw(st.sampled_from([2, 3, 5, 7, 10 ** 99 + 289]))
    branch = draw(st.integers(0, 7))
    if branch == 7:
        r = draw(st.integers(10 ** 11 - 5, 10 ** 11))
    else:
        r = draw(st.integers(2900 if branch >= 5 else 1, 3100))
    e = draw(st.one_of(st.integers(0, 3), st.integers(max(0, r - 3), r + 1),
                       st.integers(0, r + 1)))
    return p, r, e


# well-formed min-partition queries near the output bound: each answers
# within MIN_PARTITION_SECONDS with a feasible witness of a total at least
# f_e(r) and bound p^total, or is refused with kind output-bound
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(query=_min_partition_query())
def test_cli_fuzz_min_partition_answers_or_refuses_in_time(query):
    from splitbound.obstruction import f_bound

    p, r, e = query
    argv = ["obstruct", "--mode", "min-partition", "--p", str(p), "--r", str(r), "--e", str(e)]
    t0 = time.perf_counter()
    code, out, _ = invoke(argv)
    assert time.perf_counter() - t0 < MIN_PARTITION_SECONDS, query
    assert code in (0, 2), (query, out)
    payload = json.loads(out)
    if code == 2:
        check_schema("error", payload)
        assert payload["error"]["kind"] == "output-bound", (query, out)
        return
    check_schema("obstruct min-partition", payload)
    wit = payload["witness"]
    assert all(n >= 1 for n in wit) and wit == sorted(wit, reverse=True), query
    # the need [r/v] - e falls with v, and from v = len(wit) + 2 on it
    # meets two zero entries, so no later v needs a check
    padded = wit + [0, 0, 0]
    for v in range(1, len(wit) + 3):
        assert padded[v - 1] + padded[v] >= r // v - e, (query, v)
    assert payload["total"] == sum(wit) >= payload["fe"] == f_bound(r, e), query
    assert payload["bound"] == p ** payload["total"], query
