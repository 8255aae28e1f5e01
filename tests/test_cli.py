import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import splitbound
from splitbound.cli import run


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


SCHEMAS = json.loads(
    resources.files("splitbound").joinpath("schemas.json").read_text()
)

_TYPES = {
    "int": int,
    "str": str,
    "bool": bool,
    "array": list,
    "object": dict,
}


def check_schema(key, payload):
    spec = SCHEMAS[key]
    for field, typename in spec.items():
        assert field in payload, (key, field)
        assert isinstance(payload[field], _TYPES[typename]), (key, field)


# -- golden bytes ---------------------------------------------------------------

def test_golden_depth():
    code, out, _ = invoke(["pgl", "depth", "--group", "4"])
    assert code == 0
    assert out == '{"depth": 2}\n'


def test_golden_census():
    code, out, _ = invoke(["f2", "census", "--lemma", "quad"])
    assert code == 0
    assert out == '{"counts": [56, 64, 72]}\n'


def test_golden_thm13():
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "3", "--e", "0"])
    assert code == 0
    assert out == '{"bound": 16}\n'


def test_byte_determinism():
    # a rank-2 Gram matrix on group [4]: the invalid-form error
    args = ["form", "max-isotropic", "--form",
            '{"group": [4], "gram": [["0/1", "3/4"], ["1/4", "0/1"]]}']
    outs = {invoke(args)[1] for _ in range(3)}
    assert len(outs) == 1
    # the standard module on [4]: a max-isotropic answer
    args = ["form", "max-isotropic", "--form",
            '{"group": [4, 4], "gram": [["0/1", "3/4"], ["1/4", "0/1"]]}']
    runs = {invoke(args)[:2] for _ in range(3)}
    assert len(runs) == 1
    (code, out), = runs
    assert code == 0 and json.loads(out)["order"] == 4


def test_depth_above_enum_limit():
    # depth reads the radical, so order 2^14 > 4096 is answered
    code, out, _ = invoke(["pgl", "depth", "--group", "2,2,2,2,2,2,2"])
    assert code == 0
    assert out == '{"depth": 7}\n'


def test_pgl_depth_beyond_matrix_sizes():
    # depth is read off the lattice S, so |A| = 2^20 builds no 2^20-sized
    # matrix and 16 x 16 given as --elements needs no closure
    code, out, _ = invoke(["pgl", "depth", "--group", "1048576"])
    assert (code, out) == (0, '{"depth": 20}\n')
    gens = "(1,0|0,0);(0,1|0,0);(0,0|1,0);(0,0|0,1)"
    code, out, _ = invoke(["pgl", "depth", "--group", "16,16", "--elements", gens])
    assert (code, out) == (0, '{"depth": 8}\n')


def test_pgl_element_is_bounded_by_the_enum_limit():
    # perm and diag have |A| entries: |A| = 4096 answers, 4097 is refused
    code, out, _ = invoke(["pgl", "element", "--group", "4096", "--a", "(1)", "--chi", "(0)"])
    assert code == 0
    assert json.loads(out)["perm"][:3] == [1, 2, 3]
    code, out, _ = invoke(["pgl", "element", "--group", "4097", "--a", "(1)", "--chi", "(0)"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "enumeration-bound"


def test_pgl_element_refuses_large_groups_quickly():
    import time

    t0 = time.perf_counter()
    code, out, _ = invoke(["pgl", "element", "--group", "1048576", "--a", "(1)", "--chi", "(1)"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "enumeration-bound"


def test_embeds_answers_above_the_enum_limit():
    # decided by partition containment: nothing is enumerated, so no bound
    argv = ["group", "embeds", "2,4", "--into", "2,2,2,2,2,2,2,2,2,2,2,2,4"]
    for prefix in ([], ["--enum-limit", "1"]):
        code, out, _ = invoke(prefix + argv)
        assert code == 0, out
        payload = json.loads(out)
        assert payload == {"embeds": True}
        check_schema("group embeds", payload)


def _answered_fast(argv):
    t0 = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - t0 < 1.0, argv[:3]
    assert code == 0 and err == "", out
    return json.loads(out)


def test_subgroup_census_answers_above_the_enum_limit():
    # the plain form is Birkhoff's closed form: nothing is enumerated, so no bound
    for prefix in ([], ["--enum-limit", "1"]):
        payload = _answered_fast(prefix + ["group", "subgroups", "2," * 11 + "2"])
        check_schema("group subgroups", payload)
        assert payload == {"count": 488176700923, "types": [[2] * k for k in range(13)]}
        payload = _answered_fast(prefix + ["group", "subgroups", "8,8,16,720720"])
        check_schema("group subgroups", payload)
        assert payload["count"] == 6571824 and len(payload["types"]) == 3120
        assert payload["types"] == sorted(payload["types"])


def test_subgroup_census_refusals():
    # 5^8 types (rank 4 at each of 8 primes) are refused before any is listed
    msg = _refused_fast(["group", "subgroups", ",".join(["9699690"] * 4)], "output-bound")
    assert msg == "390625 subgroup types are more than the listing bound 65536"
    # the type count is a DP over the parts, not a listing: C(4004, 4) types
    big = str(2 ** 4000)
    _refused_fast(["group", "subgroups", ",".join([big] * 4)], "output-bound")
    # (Z/2)^300 has more than 2^22500 subgroups: refused before the count is formed
    msg = _refused_fast(["group", "subgroups", "2," * 299 + "2"], "output-bound")
    assert msg == "the subgroup count has more than 4300 decimal digits (the int-to-str limit)"
    # an exponent with two primes above 2^10 is not factored
    msg = _refused_fast(["group", "subgroups", str(1031 * 1033)], "input")
    assert msg == ("the primes of the exponent are not found: the cofactor 1065023"
                   " left by trial division below 1024 is not a prime power")
    # one such prime, or a power of it, is found: Z/p^3 x Z/p has 3p + 5
    # subgroups (types (), (1), (2), (3), (1,1), (2,1), (3,1): 1, p+1, p, p, 1, 1, 1)
    for literal, count in ((str(1031 * 2), 4), (f"{1031 ** 3},{1031}", 3 * 1031 + 5)):
        assert _answered_fast(["group", "subgroups", literal])["count"] == count


def test_subgroup_census_bounds_the_printed_digits():
    # Z/2^13000 has 13,001 types whose factors reach 3,914 digits (25.5 MB):
    # refused from the partitions, before any factor is formed
    msg = _refused_fast(["group", "subgroups", str(2 ** 13000)], "output-bound")
    assert msg == ("the 13001 subgroup types may print up to 50890984 decimal digits,"
                   " more than the bound 1048576")
    # a cyclic group of 500-digit order still answers
    payload = _answered_fast(["group", "subgroups", str(2 ** 1660)])
    assert payload["count"] == len(payload["types"]) == 1661


def test_subgroup_list_is_bounded_by_what_it_prints():
    # (Z/2)^8 is inside the enumeration limit but has 417,199 subgroups
    msg = _refused_fast(["group", "subgroups", "2," * 7 + "2", "--list"], "output-bound")
    assert msg == "417199 subgroups are more than the listing bound 65536"
    # the enumeration limit is checked first, with its own kind
    msg = _refused_fast(["group", "subgroups", "2," * 12 + "2", "--list"], "enumeration-bound")
    assert msg == "group order 8192 exceeds the enumeration bound 4096"
    payload = _answered_fast(["group", "subgroups", "2,4", "--list"])
    assert payload["count"] == len(payload["subgroups"]) == 8


def test_isotropic_queries_keep_the_enum_limit():
    # only isotropic subgroups are grown, but the limit is still on |H|
    code, std, _ = invoke(["form", "standard", "--group", "2,2,2,2,2,2,2"])
    assert code == 0
    for argv in (
        ["form", "max-isotropic", "--form", std.strip()],
        ["obstruct", "--mode", "compare", "--p", "2", "--r", "2", "--rank1", "14"],
    ):
        code, out, _ = invoke(argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["kind"] == "enumeration-bound", argv


def test_compare_enumerates_each_module_once(monkeypatch):
    import splitbound.obstruction as ob

    calls = []
    orig = ob.iter_isotropic_bases
    monkeypatch.setattr(ob, "iter_isotropic_bases", lambda *a: calls.append(a) or orig(*a))
    code, out, _ = invoke(["obstruct", "--mode", "compare", "--p", "2", "--r", "3", "--rank1", "6"])
    assert code == 0
    assert json.loads(out) == {
        "bound": 16, "types": {"first": [[2, 2, 2]], "second": [[2, 4], [8]]}
    }
    assert len(calls) == 2


def test_thm13_bound_beyond_the_digit_limit():
    # p^(2r-2) is refused before it is computed once it has more decimal
    # digits than the interpreter prints; the largest printable one answers
    import sys

    limit = sys.get_int_max_str_digits()
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "10000"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "output-bound"
    cap = 10 ** limit  # 2^e prints iff 2^e < cap
    exp = 2
    while 2 ** (exp + 2) < cap:
        exp += 2
    r = exp // 2 + 1
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", str(r)])
    assert code == 0 and json.loads(out) == {"bound": 2 ** exp}
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", str(r + 1)])
    assert code == 2 and json.loads(out)["error"]["kind"] == "output-bound"


# a 100-digit prime: 10^99 + 289
P100 = 10 ** 99 + 289


def test_min_partition_bound_beyond_the_digit_limit():
    # p^total is refused before it is computed, as in thm13 mode
    code, out, _ = invoke(["obstruct", "--mode", "min-partition", "--p", str(P100), "--r", "40"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "output-bound"
    code, out, _ = invoke(["obstruct", "--mode", "min-partition", "--p", str(P100), "--r", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == P100 ** payload["total"]


def test_group_info_large_prime_answers_fast():
    t0 = time.perf_counter()
    code, out, _ = invoke(["group", "info", "1000000000000000003"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["invariants"] == [1000000000000000003]


def test_group_invariants_beyond_trial_division():
    # invariants come from gcd/lcm merging and factor nothing: smooth ones,
    # p and p^2, and a composite with no small factor all answer
    code, out, _ = invoke(["group", "info", str(2 ** 100)])
    assert code == 0 and json.loads(out)["invariants"] == [2 ** 100]
    p = 1000000000000000003
    code, out, _ = invoke(["group", "info", f"{p},{p ** 2}"])
    assert code == 0 and json.loads(out)["invariants"] == [p, p ** 2]
    code, out, _ = invoke(["pgl", "depth", "--group", str(p)])
    assert code == 0 and json.loads(out) == {"depth": 1}
    # the least strong pseudoprime to the prime bases up to 41 (1287836182261 * 2575672364521)
    code, out, _ = invoke(["group", "info", "3317044064679887385961981"])
    assert code == 0
    assert json.loads(out) == {
        "exponent": 3317044064679887385961981,
        "invariants": [3317044064679887385961981],
        "order": 3317044064679887385961981,
        "rank": 1,
    }


M607 = 2 ** 607 - 1  # a Mersenne prime


def test_p_group_test_reads_the_exponent():
    # |H| = P^2 and P^4 are above the 1024-bit primality bound; the exponent
    # P is not
    for group, depth in ((str(M607), 1), (f"{M607},{M607}", 2)):
        t0 = time.perf_counter()
        code, out, _ = invoke(["pgl", "depth", "--group", group])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and json.loads(out) == {"depth": depth}
    # refusals keep their messages, which name the order
    msg = _refused_fast(["pgl", "depth", "--group", "6"], "not-p-group")
    assert msg == "|H| = 36 is not a prime power"
    p, q = 1000000000000000003, 1000000000000000009
    msg = _refused_fast(["pgl", "depth", "--group", f"{p},{q}"], "not-p-group")
    assert msg == f"|H| = {(p * q) ** 2} is not a prime power"
    for rank1 in ("-2", "0"):
        argv = ["obstruct", "--mode", "compare", "--r", "1", "--rank1", rank1]
        assert _refused_fast(argv, "precondition") == "module order 1 is not a prime power"


def test_semiprime_order_answers_and_is_no_p_group():
    # |A| = p * q with two 60-bit primes: the cokernel is reduced modulo
    # |A| itself, and the p-group test takes the exact square root of |H|
    p, q = 1000000000000000003, 1000000000000000009
    code, out, _ = invoke(["group", "span", f"{p},{q}", "--gens", "(2)"])
    assert code == 0
    assert json.loads(out) == {"basis": [[1]], "invariants": [p * q], "order": p * q}
    code, out, _ = invoke(["group", "quotient", f"{p},{q}", "--gens", f"({q})"])
    assert code == 0 and json.loads(out) == {"invariants": [q]}
    code, out, _ = invoke(["pgl", "depth", "--group", f"{p},{q}"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "not-p-group"


def _refused_fast(argv, kind):
    t0 = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - t0 < 1.0, argv[:3]
    assert code == 2 and err == ""
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == kind
    return payload["error"]["message"]


def test_results_above_the_int_to_str_limit_are_refused():
    big = str(10 ** 4000)
    msg = _refused_fast(["group", "info", f"{big},{big}"], "output-bound")
    assert msg == "the result has an integer of more than 4300 decimal digits (the int-to-str limit)"
    # text output is rendered whole first: nothing but the error is printed
    code, out, _ = invoke(["--format", "text", "group", "info", f"{big},{big}"])
    assert code == 2 and out.startswith("error.kind: output-bound\n")


def test_enumeration_refusals_name_long_orders_by_digit_count():
    big = str(10 ** 2200)
    want = "group order <4401 digits> exceeds the enumeration bound 4096"
    argv = ["group", "subgroups", f"{big},{big}", "--list"]
    assert _refused_fast(argv, "enumeration-bound") == want
    argv = ["pgl", "element", "--group", f"{big},{big}", "--a", "(0,0)", "--chi", "(0,0)"]
    assert _refused_fast(argv, "enumeration-bound") == want
    msg = _refused_fast(["pgl", "depth", "--group", f"{big},3"], "not-p-group")
    assert msg == "|H| = <4401 digits> is not a prime power"  # 9 * 10^4400
    # a printable order is still printed in full
    msg = _refused_fast(["group", "subgroups", "4096,2", "--list"], "enumeration-bound")
    assert msg == "group order 8192 exceeds the enumeration bound 4096"


def test_json_specs_with_integers_above_the_int_to_str_limit_are_refused():
    big = "1" + "0" * 4400
    _refused_fast(["f2", "count", "--form", f'{{"dim": {big}, "rows": []}}'], "input")
    spec = f'{{"group": [{big}], "gram": [["0/1"]]}}'
    _refused_fast(["form", "radical", "--form", spec], "input")


def test_compare_checks_the_limit_before_building_modules():
    argv = ["obstruct", "--mode", "compare", "--p", "2"]
    msg = _refused_fast(argv + ["--r", "20000"], "output-bound")
    assert msg == "p^40000 has more than 4300 decimal digits (the int-to-str limit)"
    msg = _refused_fast(argv + ["--r", "1", "--rank1", "1000"], "enumeration-bound")
    assert msg == f"group order {2 ** 1000} exceeds the enumeration bound 4096"
    msg = _refused_fast(argv + ["--r", "2", "--rank1", "14"], "enumeration-bound")
    assert msg == "group order 16384 exceeds the enumeration bound 4096"
    # the second module is checked after the first, as when both were built
    msg = _refused_fast(argv + ["--r", "7", "--rank1", "2"], "enumeration-bound")
    assert msg == "group order 16384 exceeds the enumeration bound 4096"


# -- schema conformance -----------------------------------------------------------

CASES = [
    ("group info", ["group", "info", "2,4"]),
    ("group dual", ["group", "dual", "2,4"]),
    ("group char", ["group", "char", "4", "--chi", "(1)", "--a", "(2)"]),
    ("group span", ["group", "span", "2,4", "--gens", "(1,1);(0,2)"]),
    ("group quotient", ["group", "quotient", "4,4", "--gens", "(1,0)"]),
    ("group subgroups", ["group", "subgroups", "2,2"]),
    ("group embeds", ["group", "embeds", "4", "--into", "2,8"]),
    ("group reduce", ["group", "reduce", "6", "--tuple", "(2);(3)"]),
    ("form standard", ["form", "standard", "--group", "2"]),
    ("form radical", ["form", "radical", "--form",
                      '{"group": [2, 2], "gram": [["0/1", "0/1"], ["0/1", "0/1"]]}']),
    ("form nondegenerate", ["form", "nondegenerate", "--form",
                            '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}']),
    ("form evaluate", ["form", "evaluate", "--form",
                       '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}',
                       "--x", "(1,0)", "--y", "(0,1)"]),
    ("form max-isotropic", ["form", "max-isotropic", "--form",
                            '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}']),
    ("form lagrangian", ["form", "lagrangian", "--form",
                         '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}',
                         "--gens", "(1,1)"]),
    ("form quotient-lagrangian", ["form", "quotient-lagrangian", "--form",
                                  '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}',
                                  "--gens", "(1,1)"]),
    ("pgl depth", ["pgl", "depth", "--group", "2,2"]),
    ("pgl toral", ["pgl", "toral", "--group", "2", "--elements", "(0|1)"]),
    ("pgl alpha", ["pgl", "alpha", "--group", "2"]),
    ("pgl element", ["pgl", "element", "--group", "2", "--a", "(1)", "--chi", "(1)"]),
    ("f2 census --lemma", ["f2", "census", "--lemma", "quad"]),
    ("f2 census --lemma --by-class", ["f2", "census", "--lemma", "quad", "--by-class"]),
    ("f2 census --e8-torus", ["f2", "census", "--e8-torus"]),
    ("f2 ec8", ["f2", "ec8"]),
    ("f2 count", ["f2", "count", "--form", '{"dim": 2, "rows": ["0x2", "0x0"]}']),
    ("f2 decompose", ["f2", "decompose", "--form", '{"dim": 3, "rows": ["0x3", "0x2", "0x0"]}']),
    ("f2 radical", ["f2", "radical", "--form", '{"dim": 2, "rows": ["0x2", "0x0"]}']),
    ("obstruct thm13", ["obstruct", "--mode", "thm13", "--p", "2", "--r", "3"]),
    ("obstruct f", ["obstruct", "--mode", "f", "--r", "6"]),
    ("obstruct fe", ["obstruct", "--mode", "fe", "--r", "6", "--e", "1"]),
    ("obstruct min-partition", ["obstruct", "--mode", "min-partition", "--p", "2", "--r", "3"]),
    ("obstruct compare", ["obstruct", "--mode", "compare", "--p", "2", "--r", "2"]),
    ("tables torsion", ["tables", "torsion", "--type", "E8"]),
    ("tables tits", ["tables", "tits", "--type", "E7"]),
    ("tables check", ["tables", "check", "--type", "E8", "--p", "2", "--d", "2"]),
    ("tables divisors", ["tables", "divisors"]),
    ("tables quadform", ["tables", "quadform", "--n", "5"]),
]


@pytest.mark.parametrize("key,argv", CASES, ids=[c[0] for c in CASES])
def test_schema(key, argv):
    code, out, _ = invoke(argv)
    assert code == 0, out
    check_schema(key, json.loads(out))


ELEMENT_CASES = [
    ("pgl depth", ["pgl", "depth", "--group", "2,4", "--elements", "(1,0|0,1);(0,1|1,2)"]),
    ("pgl alpha", ["pgl", "alpha", "--group", "2,4", "--elements", "(1,0|0,1);(0,1|1,2)"]),
]


@pytest.mark.parametrize("key,argv", ELEMENT_CASES, ids=[c[0] for c in ELEMENT_CASES])
def test_schema_with_elements(key, argv):
    code, out, _ = invoke(argv)
    assert code == 0, out
    check_schema(key, json.loads(out))


# the flags an action cannot do without (beyond those argparse requires)
NEEDED_FLAGS = {
    "group char": ("--chi", "--a"),
    "group embeds": ("--into",),
    "group reduce": ("--tuple",),
    "form standard": ("--group",),
    "form radical": ("--form",),
    "form nondegenerate": ("--form",),
    "form evaluate": ("--form", "--x", "--y"),
    "form max-isotropic": ("--form",),
    "form lagrangian": ("--form",),
    "form quotient-lagrangian": ("--form",),
    "pgl element": ("--a", "--chi"),
    "f2 count": ("--form",),
    "f2 decompose": ("--form",),
    "f2 radical": ("--form",),
    "tables torsion": ("--type",),
    "tables tits": ("--type",),
    "tables check": ("--type", "--p", "--d"),
    "tables quadform": ("--n",),
}
MISSING = [(key, flag) for key, flags in NEEDED_FLAGS.items() for flag in flags]


@pytest.mark.parametrize("key,flag", MISSING, ids=[f"{k} {f}" for k, f in MISSING])
def test_missing_flag_is_an_input_error(key, flag):
    # the complete command is a schema case above; without the flag it is
    # refused with a message naming the flag, not a traceback
    argv = dict(CASES)[key]
    i = argv.index(flag)
    assert _refused_fast(argv[:i] + argv[i + 2:], "input") == f"{key} needs {flag}"


# specs that cannot be read or hold a number that is no integer; {tmp} is a
# scratch directory holding binary.json, which is not UTF-8
MALFORMED_SPECS = {
    "missing file": ["form", "radical", "--form", "@{tmp}/missing.json"],
    "directory": ["form", "radical", "--form", "@{tmp}"],
    "not utf-8": ["f2", "count", "--form", "@{tmp}/binary.json"],
    "dim 1e400": ["f2", "count", "--form", '{"dim": 1e400, "rows": []}'],
    "group 4.0": ["form", "radical", "--form", '{"group": [4.0], "gram": [["0/1"]]}'],
    "group 1e400": ["form", "radical", "--form", '{"group": [1e400], "gram": [["0/1"]]}'],
    "group NaN": ["form", "radical", "--form", '{"group": [NaN], "gram": [["0/1"]]}'],
    "dim 2.5": ["f2", "count", "--form", '{"dim": 2.5, "rows": ["0x2", "0x0"]}'],
    "dim string": ["f2", "count", "--form", '{"dim": "2", "rows": ["0x2", "0x0"]}'],
    "dim true": ["f2", "count", "--form", '{"dim": true, "rows": ["0x2"]}'],
}


@pytest.mark.parametrize("case", list(MALFORMED_SPECS))
def test_malformed_spec_is_an_input_error(case, tmp_path):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in MALFORMED_SPECS[case]]
    _refused_fast(argv, "input")


# -- specific output values ---------------------------------------------------------

def test_group_values():
    _, out, _ = invoke(["group", "info", "4,2"])
    assert json.loads(out) == {"exponent": 4, "invariants": [2, 4], "order": 8, "rank": 2}
    _, out, _ = invoke(["group", "span", "2,4", "--gens", "(1,1);(0,2)"])
    assert json.loads(out)["order"] == 4
    _, out, _ = invoke(["group", "quotient", "4,4", "--gens", "(1,0)"])
    assert json.loads(out)["invariants"] == [4]
    _, out, _ = invoke(["group", "subgroups", "2,2"])
    assert json.loads(out)["count"] == 5
    _, out, _ = invoke(["group", "embeds", "4", "--into", "2,2,2"])
    assert json.loads(out) == {"embeds": False}
    _, out, _ = invoke(["group", "char", "4", "--chi", "(1)", "--a", "(2)"])
    assert json.loads(out) == {"value": "1/2"}


def test_reduce_replay_through_cli():
    _, out, _ = invoke(["group", "reduce", "2,2", "--tuple", "(1,0);(0,1);(1,1)"])
    data = json.loads(out)
    assert data["nonzero"] <= 2
    assert all(kind in ("sub", "swap") for kind, _i, _j in data["ops"])


def test_reduce_ops_print_as_the_expanded_log():
    # the ops are written a run at a time; the bytes are json.dumps of the
    # op-by-op log, in both formats, with and without ops
    from splitbound.finabel import make_group, reduce_tuple

    cases = [("960,960", "(1,959);(958,3);(0,0)"), ("2,2", "(0,0);(0,0)"),
             ("6", "(2);(3)"), ("1024", "(1023);(1)")]
    for group, tup in cases:
        a = make_group([int(d) for d in group.split(",")])
        xi = [a.element(tuple(int(c) for c in el.strip("()").split(",")))
              for el in tup.split(";")]
        log, red = reduce_tuple(a, xi)
        expect = {"nonzero": sum(1 for e in red if not e.is_zero()), "ops": log,
                  "reduced": [list(e.coords) for e in red]}
        code, out, _ = invoke(["group", "reduce", group, "--tuple", tup])
        assert code == 0
        assert out == json.dumps(expect, sort_keys=True) + "\n"
        code, out, _ = invoke(["--format", "text", "group", "reduce", group, "--tuple", tup])
        assert f"ops: {json.dumps(log)}\n" in out
    assert invoke(["group", "reduce", "2,2", "--tuple", "(0,0);(0,0)"])[1].count('"ops": []') == 1


def test_form_values():
    _, out, _ = invoke(["form", "standard", "--group", "4"])
    data = json.loads(out)
    assert data["group"] == [4, 4]
    assert data["gram"][0][1] == "3/4"
    _, out, _ = invoke(["form", "max-isotropic", "--form", json.dumps(data)])
    got = json.loads(out)
    assert got["order"] == 4 and got["types"] == [[2, 2], [4]]


def test_pgl_values():
    _, out, _ = invoke(["pgl", "element", "--group", "2", "--a", "(1)", "--chi", "(0)"])
    assert json.loads(out) == {"diag": [0, 0], "modulus": 2, "perm": [1, 0]}
    _, out, _ = invoke(["pgl", "toral", "--group", "4", "--elements", "(0|1)"])
    assert json.loads(out) == {"toral": True}
    _, out, _ = invoke(["pgl", "depth", "--group", "3,3"])
    assert json.loads(out) == {"depth": 2}
    _, out, _ = invoke(["pgl", "alpha", "--group", "2"])
    std = invoke(["form", "standard", "--group", "2"])[1]
    assert out == std


def test_f2_values():
    _, out, _ = invoke(["f2", "census", "--e8-torus"])
    assert json.loads(out) == {"typeA": 120, "typeB": 135}
    _, out, _ = invoke(["f2", "ec8"])
    data = json.loads(out)
    assert data["typeA"] == 56 and data["typeB"] == 199
    assert data["a2_minus_r"] == 28 and data["generates"] is True
    _, out, _ = invoke(["f2", "count", "--form", '{"dim": 2, "rows": ["0x2", "0x0"]}'])
    assert json.loads(out) == {"anisotropic": 1, "isotropic": 3}
    _, out, _ = invoke(["f2", "decompose", "--form", '{"dim": 4, "rows": ["0x3", "0x2", "0xc", "0x8"]}'])
    data = json.loads(out)
    assert data["blocks"] == ["h", "h"]  # a + a rewritten
    assert data["ones"] == 6


def test_obstruct_values():
    _, out, _ = invoke(["obstruct", "--mode", "f", "--r", "6"])
    assert json.loads(out) == {"bound": 10}
    _, out, _ = invoke(["obstruct", "--mode", "min-partition", "--p", "2", "--r", "3"])
    data = json.loads(out)
    assert data == {"bound": 16, "fe": 4, "total": 4, "witness": [2, 1, 1]}
    _, out, _ = invoke(["obstruct", "--mode", "compare", "--p", "2", "--r", "3", "--rank1", "6"])
    assert json.loads(out)["bound"] == 16


def test_tables_values():
    _, out, _ = invoke(["tables", "tits", "--type", "E8"])
    data = json.loads(out)
    assert data["n"] == 17280 and data["resolution"] == "lcm"
    _, out, _ = invoke(["tables", "tits", "--type", "E7", "--adjoint"])
    assert json.loads(out) == {"n": 96}
    _, out, _ = invoke(["tables", "divisors"])
    assert json.loads(out) == {"E7_splitting": 12, "E8_splitting": 60}
    _, out, _ = invoke(["tables", "check", "--type", "E8", "--p", "7", "--d", "1"])
    assert json.loads(out) == {"divides": False}


def test_tables_check_needs_a_prime():
    # --p 4 answered {"divides": true}, though the check is on a prime
    for p in ("4", "6", "91"):
        argv = ["tables", "check", "--type", "E7", "--p", p, "--d", "1"]
        assert _refused_fast(argv, "input") == f"--p {p} is not prime"
    # p < 2 stays the precondition that depth_consistency states
    argv = ["tables", "check", "--type", "E7", "--p", "1", "--d", "1"]
    assert _refused_fast(argv, "precondition") == "need p >= 2 and d >= 0"


def test_f_bound_sums_over_runs():
    # one summand per run of equal [r/v]: r = 10^9 takes ~6 * 10^4 steps
    for mode in ("f", "fe"):
        payload = _answered_fast(["obstruct", "--mode", mode, "--r", str(10 ** 9), "--e", "3"])
        assert isinstance(payload["bound"], int) and payload["bound"] > 10 ** 9


def test_f_bound_caps_r():
    from splitbound.obstruction import MAX_F_R

    for mode in ("f", "fe"):
        payload = _answered_fast(["obstruct", "--mode", mode, "--r", str(MAX_F_R), "--e", "1"])
        assert payload["bound"] > MAX_F_R
        for r in (MAX_F_R + 1, 10 ** 14, 10 ** 20):
            msg = _refused_fast(["obstruct", "--mode", mode, "--r", str(r)], "precondition")
            assert msg == f"r = {r} above the f bound's limit {MAX_F_R}"


# -- errors and exit codes ------------------------------------------------------------

def test_error_exit_codes():
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "2", "--e", "2"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "hypothesis-violation"

    code, out, _ = invoke(["group", "info", "1,2"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-invariant"

    code, out, _ = invoke(["group", "subgroups", "2," * 12 + "2", "--list"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "enumeration-bound"

    code, out, _ = invoke(["tables", "torsion", "--type", "E8", "--adjoint"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "unsupported-type"

    code, out, _ = invoke(["group", "char", "4", "--chi", "bogus", "--a", "(1)"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"

    for entry in ('"0/0"', "0"):
        form = '{"group": [2, 2], "gram": [[%s, "1/2"], ["1/2", "0/1"]]}' % entry
        code, out, _ = invoke(["form", "max-isotropic", "--form", form])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        invoke(["no-such-command"])
    assert exc.value.code == 2


# -- one parser per process --------------------------------------------------------

ONE_PER_COMMAND = [
    ["group", "subgroups", "1000"],
    ["group", "reduce", "2,4", "--tuple", "(1,1);(0,2)"],
    ["--format", "text", "form", "standard", "--group", "2,4"],
    ["form", "max-isotropic", "--form", '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}'],
    ["pgl", "depth", "--group", "4,4"],
    ["f2", "radical", "--form", '{"dim": 3, "rows": ["0x1", "0x2", "0x4"]}'],
    ["obstruct", "--mode", "compare", "--r", "2"],
    ["tables", "tits", "--type", "E8"],
    ["--enum-limit", "16", "group", "subgroups", "2,2", "--list"],
    ["verify", "partitions", "--seed", "1"],
]


def test_run_builds_no_parser(monkeypatch):
    import argparse

    from splitbound import cli

    def refuse(*args, **kwargs):
        raise AssertionError("run built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in ONE_PER_COMMAND:
        code, out, _ = invoke(argv)
        assert code == 0 and out, argv


def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(splitbound.__file__).parents[1])}
    env.pop("SPLITBOUND_ENUM_LIMIT", None)
    done = subprocess.run(
        [sys.executable, "-m", "splitbound.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout.decode()


def _exit_code(argv):
    try:
        return invoke(argv)[0]
    except SystemExit as exc:  # an argparse usage error
        return exc.code


def _help(parse, argv):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue()


def test_the_shared_parser_carries_nothing_between_calls(monkeypatch):
    from splitbound.cli import build_parser

    monkeypatch.delenv("SPLITBOUND_ENUM_LIMIT", raising=False)
    census = ["group", "subgroups", "2,2"]
    # (first call, its exit status, the call after it)
    pairs = [
        (["--enum-limit", "1", *census, "--list"], 2, [*census, "--list"]),
        ([*census, "--list"], 0, census),
        (["--format", "text", *census], 0, census),
        (["group", "no-such-action", "2"], 2, census),
    ]
    for first, first_code, second in pairs:
        assert _exit_code(first) == first_code, first
        code, out, _ = invoke(second)
        assert (code, out) == _fresh_process(second), first
    assert "subgroups" not in json.loads(out)
    # help is rendered at call time, the same as by a fresh parser
    assert _help(run, ["--help"]) == (0, build_parser().format_help())
    assert _help(run, ["pgl", "--help"]) == _help(build_parser().parse_args, ["pgl", "--help"])


def test_enum_limit_flag_and_env(monkeypatch):
    code, out, _ = invoke(["--enum-limit", "10", "group", "subgroups", "2,2,2,2", "--list"])
    assert code == 2
    assert "10" in json.loads(out)["error"]["message"]
    monkeypatch.setenv("SPLITBOUND_ENUM_LIMIT", "8")
    code, out, _ = invoke(["group", "subgroups", "2,2,2,2", "--list"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "enumeration-bound"
    # the flag wins over the variable, and a value that is no integer is
    # refused with a message naming the variable
    code, out, _ = invoke(["--enum-limit", "16", "group", "subgroups", "2,2,2,2", "--list"])
    assert code == 0 and json.loads(out)["count"] == 67
    monkeypatch.setenv("SPLITBOUND_ENUM_LIMIT", "abc")
    msg = _refused_fast(["group", "subgroups", "2", "--list"], "input")
    assert msg == "SPLITBOUND_ENUM_LIMIT='abc' is not an integer"
    code, out, _ = invoke(["--enum-limit", "16", "group", "subgroups", "2", "--list"])
    assert code == 0 and json.loads(out)["count"] == 2
    monkeypatch.delenv("SPLITBOUND_ENUM_LIMIT")


def test_text_format():
    code, out, _ = invoke(["--format", "text", "group", "info", "2,4"])
    assert code == 0
    assert "order: 8" in out and "invariants: [2, 4]" in out


def _f2_rows_spec(rows) -> str:
    return json.dumps({"dim": len(rows), "rows": [format(r, "#x") for r in rows]})


def _random_f2_rows(m, rng):
    return [rng.getrandbits(m) >> i << i for i in range(m)]


def test_f2_count_matches_sweep():
    from splitbound.f2quad import F2QuadForm, count_anisotropic

    rng = random.Random(21)
    for m in range(17):
        for _ in range(3):
            rows = _random_f2_rows(m, rng)
            ones = count_anisotropic(F2QuadForm(m, rows))
            code, out, _ = invoke(["f2", "count", "--form", _f2_rows_spec(rows)])
            assert code == 0
            assert json.loads(out) == {"anisotropic": ones, "isotropic": (1 << m) - ones}


def test_f2_count_does_not_sweep(monkeypatch):
    # the count comes from the block decomposition: a sweep that refuses
    # must not change a byte
    from splitbound import f2quad

    argv = ["f2", "count", "--form", _f2_rows_spec(_random_f2_rows(17, random.Random(23)))]
    expected = invoke(argv)

    def refuse(q):
        raise AssertionError("f2 count swept")

    monkeypatch.setattr(f2quad, "count_anisotropic", refuse)
    assert invoke(argv) == expected


@pytest.mark.parametrize("action", ["count", "decompose", "radical"])
def test_f2_dimension_bound(action, tmp_path):
    from splitbound.f2quad import MAX_DIM

    rng = random.Random(24)
    for m in (25, MAX_DIM):
        path = tmp_path / f"form{m}.json"
        path.write_text(_f2_rows_spec(_random_f2_rows(m, rng)))
        code, out, _ = invoke(["f2", action, "--form", f"@{path}"])
        assert code == 0, out
        payload = json.loads(out)
        check_schema(f"f2 {action}", payload)
        if action == "count":
            assert payload["anisotropic"] + payload["isotropic"] == 1 << m
    path = tmp_path / "above.json"
    path.write_text(_f2_rows_spec(_random_f2_rows(MAX_DIM + 1, rng)))
    code, out, _ = invoke(["f2", action, "--form", f"@{path}"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "precondition"


def test_f2_census_by_class_rows():
    _, out, _ = invoke(["f2", "census", "--lemma", "quad", "--by-class"])
    rows = json.loads(out)["census"]
    assert {r["count"] for r in rows} == {56, 64, 72}
    assert all(set(r) == {"class", "count"} for r in rows)


def test_verify_all_exits_zero():
    # a correct build passes the full replay suite
    code, out, _ = invoke(["verify", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and len(payload["checks"]) >= 15


def test_verify_suite_cli():
    code, out, err = invoke(["verify", "ec8"])
    assert code == 0
    payload = json.loads(out)
    check_schema("verify", payload)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    # timings land on stderr, keeping stdout byte-deterministic
    assert "ms" in err

    code, out, _ = invoke(["--format", "text", "verify", "partitions", "--seed", "1"])
    assert code == 0
    assert out.count("PASS") == 4
    assert out.strip().endswith("suite=partitions")
