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
from splitbound.cli import MAX_SPEC_BYTES, run


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


def test_golden_pgl_element_and_alpha():
    # the bytes of `pgl element` read the lex order of the index group's
    # elements, and those of `pgl alpha` the Gram on the canonical basis of
    # S (the U^-1 of a Smith form); a digest per group pins both
    import hashlib
    from itertools import product

    def csv(coords):
        return ",".join(map(str, coords))

    digests = {}
    for inv in ((2, 4), (9,)):
        g = csv(inv)
        h = hashlib.sha256()
        for a in product(*map(range, inv)):
            for chi in product(*map(range, inv)):
                code, out, _ = invoke(["pgl", "element", "--group", g,
                                       "--a", f"({csv(a)})", "--chi", f"({csv(chi)})"])
                assert code == 0, out
                h.update(out.encode())
        digests["element " + g] = h.hexdigest()
    rng = random.Random(24)
    for inv in ((2, 2), (2, 4), (3, 3), (8,), (9,), (2, 2, 2)):
        g = csv(inv)
        h = hashlib.sha256()
        for _ in range(20):
            lit = ";".join(
                f"({csv(rng.randrange(d) for d in inv)}|{csv(rng.randrange(d) for d in inv)})"
                for _ in range(rng.randrange(1, 4)))
            code, out, _ = invoke(["pgl", "alpha", "--group", g, "--elements", lit])
            assert code == 0, out
            h.update(out.encode())
        digests["alpha " + g] = h.hexdigest()
    assert digests == {
        "element 2,4": "696866bc8300859aad077d8a9cab6cfbdbd8c3db5121fd1ce9bdd71e63195860",
        "element 9": "6b4733b0ef0e939ab47216c38cb522c3ffd576161e97fb90328e46c7da707735",
        "alpha 2,2": "96d25a1813d1c8d56dea7bd8df3ce7090db8393520497160bb15a7b293b13b3a",
        "alpha 2,4": "9798ac36855ec1b5d1d0cfe8dc48ece99b559e35f4ecdad9a37984e5b0adaa60",
        "alpha 3,3": "358b7387527af1930c9b8d954ca7e549588ce70954a92989a790dcc21ee71b41",
        "alpha 8": "da586de6a69cf9ac3e2f7d074aae17de57b1401a1a3ca39ef4af456cc5390556",
        "alpha 9": "8cb03fa93e21b2f37f868e6a6a8d723bab2e5f8b16e34c82dbe82aad17bfda72",
        "alpha 2,2,2": "098e45513057a9c680b10272ebaef6643ece0f5eb654c3bf9452878d72584eac",
    }


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


def test_depth_reads_the_radical_of_a_large_group():
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


def test_pgl_empty_elements_are_refused():
    # an --elements list with no pair in it names no subgroup: it is
    # refused like ";", not read as the full image
    for act in ("depth", "toral", "alpha"):
        for lit in ("", ";", " ; "):
            code, out, _ = invoke(["pgl", act, "--group", "2,2", "--elements", lit])
            assert code == 2, (act, lit, out)
            assert json.loads(out)["error"] == {"kind": "input",
                                                "message": "no generators given"}


def test_pgl_element_is_bounded_by_what_it_prints():
    # perm and diag have |A| entries each: |A| = 65536, the listing bound,
    # answers, and 65537 is refused
    code, out, _ = invoke(["pgl", "element", "--group", "65536", "--a", "(1)", "--chi", "(0)"])
    assert code == 0
    payload = json.loads(out)
    assert payload["perm"][:3] == [1, 2, 3] and len(payload["diag"]) == 65536
    msg = _refused_fast(["pgl", "element", "--group", "65537", "--a", "(1)", "--chi", "(0)"],
                        "output-bound")
    assert msg == ("the lift's perm and diag have 65537 entries each,"
                   " more than the listing bound 65536")


def test_pgl_element_refuses_large_groups_quickly():
    import time

    t0 = time.perf_counter()
    code, out, _ = invoke(["pgl", "element", "--group", "1048576", "--a", "(1)", "--chi", "(1)"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "output-bound"


def test_embeds_answers_large_groups_by_partition_containment():
    # decided by partition containment: nothing is enumerated, so no bound
    argv = ["group", "embeds", "2,4", "--into", "2,2,2,2,2,2,2,2,2,2,2,2,4"]
    code, out, _ = invoke(argv)
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


def test_subgroup_census_answers_large_groups_in_closed_form():
    # the plain form is Birkhoff's closed form: nothing is enumerated, so no bound
    payload = _answered_fast(["group", "subgroups", "2," * 11 + "2"])
    check_schema("group subgroups", payload)
    assert payload == {"count": 488176700923, "types": [[2] * k for k in range(13)]}
    payload = _answered_fast(["group", "subgroups", "8,8,16,720720"])
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
    # nor for the lex-first isotropic search: the nondegenerate form on
    # Z/1065023 x Z/1065023 is refused with the same message
    spec = {"group": [1031 * 1033] * 2, "gram": [["0", "1/1065023"], ["-1/1065023", "0"]]}
    assert _refused_fast(["form", "max-isotropic", "--form", json.dumps(spec)], "input") == msg
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
    # (Z/2)^8, of order 256, has 417,199 subgroups; the count is Birkhoff's,
    # so the refusal lists nothing, at any order
    msg = _refused_fast(["group", "subgroups", "2," * 7 + "2", "--list"], "output-bound")
    assert msg == "417199 subgroups are more than the listing bound 65536"
    msg = _refused_fast(["group", "subgroups", "2," * 12 + "2", "--list"], "output-bound")
    assert msg == "37558989808526 subgroups are more than the listing bound 65536"
    payload = _answered_fast(["group", "subgroups", "2,4", "--list"])
    assert payload["count"] == len(payload["subgroups"]) == 8


def test_subgroup_list_of_a_large_cyclic_group_is_fast():
    # Z/2^e has e + 1 subgroups; the pivot divisors are built from the
    # primes of the exponent, not by trial division up to isqrt(2^e)
    for e in (24, 60):
        payload = _answered_fast(["group", "subgroups", str(2 ** e), "--list"])
        assert payload["count"] == len(payload["subgroups"]) == e + 1
        assert [s["order"] for s in payload["subgroups"]] == [2 ** j for j in range(e, -1, -1)]


def test_subgroup_list_prints_the_pinned_bytes():
    # the sha256 of the --list stdout; the first two list 58,424 and 64,699
    # subgroups, just under the listing bound of 65,536
    import hashlib

    pinned = {
        "2,2,2,2,2,2,62": "d67905fbd3fde2ae3fb94b3267d60268ed65b531f2661509f4cfa8e550926d64",
        "2,2,2,2,8,32": "0d41a01c7995a741ed3bb0fb1875edd2ce323788522620cee16463e7cb346bf7",
        "2,2,2,2,2,2,2": "91de10d2dda7fb163d1064a44e4a9c5624f570af6e3d2c5620103792245693b3",
        "3,3,3,3,3,3": "0be5c896e2f5ffc76dee197e71aaf2b28f1c2ba73af0221fcacc0c8df1fa4489",
        "6,12": "c80d895143566d3b5b8e8a0a9622dfe7ce467bd9a062e783db74d03a35843a0c",
        "2,6,30": "5f7165fdb31c037ff85bdb5c22a15a6671bb87624def959f9d3e8afa17df0594",
        "4,12,36": "3d9aa8c6b20602c9fa2a1d47ae347f28e7274a46e9f0cf1789432b75761b3419",
    }
    for group, digest in pinned.items():
        code, out, _ = invoke(["group", "subgroups", group, "--list"])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, group


def _standard_spec(group):
    code, std, _ = invoke(["form", "standard", "--group", group])
    assert code == 0
    return std.strip()


def _nonsplit_spec(group="2,2,2,2,2"):
    """The standard module on the group plus Z/4 x Z/4 with w(e, f) = 1/2;
    on (Z/2)^5, |H| = 16384: the radical 2(Z/4 x Z/4) ~ (2, 2) is not a
    direct summand, and it leaves H/R ~ 2^12."""
    spec = json.loads(_standard_spec(group))
    k = len(spec["group"])
    spec["group"] += [4, 4]
    spec["gram"] = [row + ["0/1", "0/1"] for row in spec["gram"]] + [
        ["0/1"] * (k + 1) + ["1/2"], ["0/1"] * k + ["1/2", "0/1"]]
    return json.dumps(spec)


def test_isotropic_queries_bound_only_the_nonsplit_pass():
    # max-isotropic lists the isotropic subgroups of one order only on a
    # degenerate form whose radical is not a direct summand, so the bound on
    # |H| stays there (_nonsplit_spec)
    from splitbound.finabel import Subgroup, make_group
    from splitbound.qzforms import is_lagrangian, isotropic_types, standard_module

    msg = _refused_fast(["form", "max-isotropic", "--form", _nonsplit_spec()],
                        "enumeration-bound")
    assert msg == "group order 16384 exceeds the enumeration bound 4096"
    # a split radical enumerates nothing: (Z/2)^6 x (Z/2)^6* plus a Z/2 in
    # the radical, |H| = 8192, takes the radical's type with each
    # Lagrangian type of H/R
    spec = json.loads(_standard_spec("2,2,2,2,2,2"))
    spec["group"].append(2)
    spec["gram"] = [row + ["0/1"] for row in spec["gram"]] + [["0/1"] * 13]
    payload = _answered_fast(["form", "max-isotropic", "--form", json.dumps(spec)])
    assert payload["order"] == 128 and payload["types"] == [[2] * 7]
    # a nondegenerate form enumerates nothing: its witness is the lex-first
    # search and its types the LR rule, at |H| = 16384
    payload = _answered_fast(["form", "max-isotropic", "--form", _standard_spec("2," * 6 + "2")])
    w = standard_module(make_group([2] * 7))
    witness = Subgroup(w.group, payload["witness"]["basis"])
    assert payload["order"] == witness.order == 128 and is_lagrangian(w, witness)
    assert payload["types"] == [list(t) for t in isotropic_types(w, 128)] == [[2] * 7]
    argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", "2", "--rank1", "14"]
    assert _answered_fast(argv) == compare_closed_form(2, 2, 0, 14)


def test_max_isotropic_answers_the_baseline_rows():
    # the first three listed every Lagrangian before (23-26 s, > 20 s and
    # 126 s); (Z/2)^10, |H| = 2^20, was refused by the enumeration limit
    import hashlib

    from splitbound.finabel import Subgroup, make_group
    from splitbound.qzforms import is_lagrangian, isotropic_types, standard_module

    for group in ("2,2,2,2,2", "2,2,2,2,2,2", "2,2,2,2,4", "2," * 9 + "2"):
        argv = ["form", "max-isotropic", "--form", _standard_spec(group)]
        payload = _answered_fast(argv)
        check_schema("form max-isotropic", payload)
        w = standard_module(make_group([int(x) for x in group.split(",")]))
        witness = Subgroup(w.group, payload["witness"]["basis"])
        assert payload["order"] ** 2 == w.group.order and is_lagrangian(w, witness), group
        assert payload["types"] == [list(t) for t in isotropic_types(w, payload["order"])]
        if group == "2,2,2,2,2":
            # the bytes the Lagrangian listing printed
            _, out, _ = invoke(argv)
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "f45b4ffd124e76dc21c180cb1824efd4968b56e3599a83cd5f25c5ecfcc4ed9a")


def test_max_isotropic_answers_the_split_degenerate_baseline_row():
    # (Z/2)^5 x (Z/2)^5* plus a Z/2 in the radical: the pass over its
    # isotropic subgroups of order 64 took 75-83 s and printed these bytes
    import hashlib

    spec = json.loads(_standard_spec("2,2,2,2,2"))
    spec["group"].append(2)
    spec["gram"] = [row + ["0/1"] for row in spec["gram"]] + [["0/1"] * 11]
    argv = ["form", "max-isotropic", "--form", json.dumps(spec)]
    payload = _answered_fast(argv)
    check_schema("form max-isotropic", payload)
    assert payload["order"] == 64 and payload["types"] == [[2] * 6]
    _, out, _ = invoke(argv)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d23820c4f5eb2c49c1181033b66fdefd522fc71c291edbd477a07d71807a305b")


def test_max_isotropic_prints_the_pinned_bytes_on_a_nonsplit_form():
    # (Z/2)^3 x (Z/2)^3* plus Z/4 x Z/4 with w(e, f) = 1/2, |H| = 1024: the
    # radical 2(Z/4 x Z/4) is not a direct summand, so the types come from
    # the pass over the isotropic subgroups of order 64
    import hashlib

    code, out, err = invoke(["form", "max-isotropic", "--form", _nonsplit_spec("2,2,2")])
    assert code == 0 and err == "", out
    payload = json.loads(out)
    check_schema("form max-isotropic", payload)
    assert payload["order"] == 64
    assert payload["types"] == [[2, 2, 2, 2, 4], [2, 2, 4, 4]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "975e897caafbeff4f3104c5729806a4187255806202fc127c88e2d4c72e2982b")


def test_span_of_dense_generators_in_a_large_elementary_group():
    # 61 seeded 0/1 generators in (Z/2)^48: the Hermite form over Z took
    # about 25 s on these and printed these bytes
    import hashlib

    rng = random.Random(5)
    gens = ";".join(
        "(" + ",".join(str(rng.randrange(2)) for _ in range(48)) + ")" for _ in range(61)
    )
    argv = ["group", "span", ",".join(["2"] * 48), "--gens", gens]
    payload = _answered_fast(argv)
    check_schema("group span", payload)
    assert payload["order"] == 2 ** len(payload["invariants"])
    _, out, _ = invoke(argv)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e9fb7c263cba4364774288bb62e725ec17c611889af6f24fe10fa452ac4fde89")


def compare_closed_form(p, r, e, rank1):
    """The compare answer from the two module shapes: the isotropic types of
    order p^k in the standard module on (Z/p)^m are (Z/p)^k, and in the one
    on Z/p^r every type with at most two factors; a common subgroup of
    (Z/p)^k1 and a type t has rank min(k1, len(t))."""
    m = rank1 // 2
    k1, k2 = m - min(e, m), r - min(e, r)
    second = sorted(sorted(p ** x for x in (a, k2 - a) if x) for a in range((k2 + 1) // 2, k2 + 1))
    bound = min(p ** (k1 + k2 - min(k1, len(t))) for t in second)
    return {"bound": bound, "types": {"first": [[p] * k1], "second": second}}


def test_compare_enumerates_nothing(monkeypatch):
    import splitbound.finabel as fa
    import splitbound.qzforms as qz

    def refuse(*args, **kwargs):
        raise AssertionError("compare enumerated subgroups")

    argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", "3", "--rank1", "6"]
    _, before, _ = invoke(argv)
    for module, name in ((qz, "iter_isotropic_bases"), (qz, "_iter_bases_general"),
                         (fa, "_iter_bases_general")):
        monkeypatch.setattr(module, name, refuse)
    code, out, _ = invoke(argv)
    assert code == 0 and out == before
    assert json.loads(out) == {
        "bound": 16, "types": {"first": [[2, 2, 2]], "second": [[2, 4], [8]]}
    }


def test_compare_answers_the_baseline_rows():
    # each of these listed every isotropic subgroup before: 26.7 s, > 30 s
    # and > 60 s as cold calls; the closed form is the oracle
    for r, e, rank1 in ((5, 0, 10), (5, 1, 10), (6, 0, 12)):
        argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", str(r), "--e", str(e),
                "--rank1", str(rank1)]
        assert _answered_fast(argv) == compare_closed_form(2, r, e, rank1), argv


def test_compare_refuses_types_it_cannot_print():
    # Z/2^3000 has 1,501 isotropic types of order 2^3000 (every type with
    # two factors), of about 900 digits each: refused before they are listed
    argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", "3000"]
    msg = _refused_fast(argv, "output-bound")
    assert msg == "the isotropic types, more than 1158, may print more than 1048576 decimal digits"
    # one type of 7,142 factors, and at 2^2600 1,301 types in about 1 MB
    argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", "3", "--rank1", "14284"]
    assert _answered_fast(argv) == compare_closed_form(2, 3, 0, 14284)
    argv = ["obstruct", "--mode", "compare", "--p", "2", "--r", "2600", "--rank1", "2"]
    assert _answered_fast(argv) == compare_closed_form(2, 2600, 0, 2)


def test_thm13_bound_beyond_the_digit_limit():
    # p^(2r-2) is refused before it is computed once it has more than
    # MAX_INT_DIGITS decimal digits; the largest printable one answers
    from splitbound.errors import MAX_INT_DIGITS

    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "10000"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "output-bound"
    cap = 10 ** MAX_INT_DIGITS  # 2^e prints iff 2^e < cap
    exp = 2
    while 2 ** (exp + 2) < cap:
        exp += 2
    r = exp // 2 + 1
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", str(r)])
    assert code == 0 and json.loads(out) == {"bound": 2 ** exp}
    code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", str(r + 1)])
    assert code == 2 and json.loads(out)["error"]["kind"] == "output-bound"


def test_run_gives_the_caller_its_int_to_str_limit_back(monkeypatch):
    # run reads and prints under errors.MAX_INT_DIGITS whatever the
    # interpreter's limit, and an in-process caller finds its own limit
    # again however the call ends
    from splitbound import cli

    def boom(args):
        raise RuntimeError("an unexpected fault")

    bound = f'{{"bound": {2 ** 2398}}}\n'  # 722 digits: above 700, inside the bound
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(700)
    try:
        assert invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "1200"])[:2] == (0, bound)
        assert sys.get_int_max_str_digits() == 700
        code, out, _ = invoke(["obstruct", "--mode", "thm13", "--p", "2", "--r", "7144"])
        assert code == 2 and json.loads(out)["error"]["kind"] == "output-bound"
        assert sys.get_int_max_str_digits() == 700
        with pytest.raises(SystemExit):
            invoke(["no-such-command"])
        assert sys.get_int_max_str_digits() == 700
        monkeypatch.setitem(cli._HANDLERS, "tables", boom)
        with pytest.raises(RuntimeError):
            invoke(["tables", "divisors"])
        assert sys.get_int_max_str_digits() == 700
    finally:
        sys.set_int_max_str_digits(caller)


# a 100-digit prime: 10^99 + 289
P100 = 10 ** 99 + 289


def test_min_partition_bound_beyond_the_digit_limit():
    # p^total is refused before it is computed, as in thm13 mode
    code, out, _ = invoke(["obstruct", "--mode", "min-partition", "--p", str(P100), "--r", "40"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"]["kind"] == "output-bound"
    assert out == ('{"error": {"kind": "output-bound", "message": "p^104 has more than 4300 '
                   'decimal digits (the int-to-str limit)"}}\n')
    code, out, _ = invoke(["obstruct", "--mode", "min-partition", "--p", str(P100), "--r", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == P100 ** payload["total"]


def test_min_partition_is_bounded_by_what_it_prints():
    # the DP runs over O(f_e(r)) states, so every r whose p^total prints
    # answers within a second, and the rest are refused with kind output-bound
    argv = ["obstruct", "--mode", "min-partition", "--p", "2", "--r"]
    payload = _answered_fast(argv + ["2998"])
    assert payload["total"] == 14283 and payload["bound"] == 2 ** 14283
    msg = _refused_fast(argv + ["2999"], "output-bound")
    assert msg == "p^14285 has more than 4300 decimal digits (the int-to-str limit)"
    # a large e leaves few positive needs, and partition_feasible checks only those
    payload = _answered_fast(argv + [str(10 ** 11), "--e", str(10 ** 11 - 1)])
    assert payload == {"bound": 2, "fe": 1, "total": 1, "witness": [1]}
    _refused_fast(argv + [str(10 ** 11), "--e", str(5 * 10 ** 10)], "output-bound")


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
    # Z/4 x Z/4 with w(e, f) = 1/2 plus a zero form on Z/10^2200 x Z/10^2200:
    # the radical (2, 2, 10^2200, 10^2200) is not a direct summand
    spec = '{"group": [4, 4, %s, %s], "gram": [["0/1", "1/2", "0/1", "0/1"],' \
        ' ["1/2", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1"],' \
        ' ["0/1", "0/1", "0/1", "0/1"]]}' % (big, big)
    msg = _refused_fast(["form", "max-isotropic", "--form", spec], "enumeration-bound")
    assert msg == "group order <4402 digits> exceeds the enumeration bound 4096"
    argv = ["pgl", "element", "--group", f"{big},{big}", "--a", "(0,0)", "--chi", "(0,0)"]
    msg = _refused_fast(argv, "output-bound")
    assert msg == ("the lift's perm and diag have <4401 digits> entries each,"
                   " more than the listing bound 65536")
    msg = _refused_fast(["pgl", "depth", "--group", f"{big},3"], "not-p-group")
    assert msg == "|H| = <4401 digits> is not a prime power"  # 9 * 10^4400
    # a printable order is still printed in full
    msg = _refused_fast(["form", "max-isotropic", "--form", _nonsplit_spec()],
                        "enumeration-bound")
    assert msg == "group order 16384 exceeds the enumeration bound 4096"


def test_json_specs_with_integers_above_the_int_to_str_limit_are_refused():
    # in the package's words, not the interpreter's; a sign is no digit
    msg = "bad JSON spec: an integer has more than 4300 decimal digits"
    for big in ("1" + "0" * 4400, "1" + "0" * 4300, "-1" + "0" * 4300):
        argv = ["f2", "count", "--form", f'{{"dim": {big}, "rows": []}}']
        assert _refused_fast(argv, "input") == msg
        spec = f'{{"group": [{big}], "gram": [["0/1"]]}}'
        assert _refused_fast(["form", "radical", "--form", spec], "input") == msg
    # 4,300 digits are read
    big = "1" + "0" * 4299
    msg = _refused_fast(["f2", "count", "--form", f'{{"dim": {big}, "rows": []}}'],
                        "precondition")
    assert msg == f"dimension {big} above the bound 1024"
    spec = f'{{"group": [-{big}], "gram": [["0/1"]]}}'
    assert _refused_fast(["form", "radical", "--form", spec], "invalid-invariant")
    # so are the numerator and denominator of a Gram entry, and 4,300 are read
    msg = ("bad form spec: a Q/Z literal's numerator or denominator has more than"
           " 4300 decimal digits")
    for entry in (f"0/1{'0' * 4300}", f"{big}0/2", f"-{big}0/2", f" 1/{'1' * 4301} "):
        spec = json.dumps({"group": [2], "gram": [[entry]]})
        assert _refused_fast(["form", "radical", "--form", spec], "input") == msg
    spec = json.dumps({"group": [2], "gram": [[f"0/{big}"]]})
    assert invoke(["form", "radical", "--form", spec])[0] == 0


def test_literals_above_the_digit_bound_are_refused_in_a_short_message():
    # the refusal names the bound and echoes at most 60 characters
    big = "1" + "0" * 4300
    cut = f"{big[:60]!r}..."
    assert _refused_fast(["group", "info", f"2,{big}"], "input") == (
        f"bad group literal {'2,' + big[:58]!r}...: an entry has more than 4300 decimal digits")
    form = json.dumps({"group": [2], "gram": [["0/1"]]})
    for argv in (["group", "span", "2", "--gens", f"({big})"],
                 ["group", "char", "2", "--chi", "(1)", "--a", f"({big})"],
                 ["group", "reduce", "2", "--tuple", f"(1);({big})"],
                 ["form", "evaluate", "--form", form, "--x", "(1)", "--y", f"({big})"],
                 ["pgl", "alpha", "--group", "2", "--elements", f"({big}|1)"]):
        assert _refused_fast(argv, "input") == (
            f"bad element literal {'(' + big[:59]!r}...: an entry has more than 4300 decimal"
            " digits"), argv
    # a long literal refused for another reason is cut as well
    assert _refused_fast(["group", "info", big[:99] + "x"], "input") == f"bad group literal {cut}"
    assert _refused_fast(["group", "span", "2", "--gens", big], "input") == (
        f"element literal must be parenthesized: {cut}")
    msg = _refused_fast(["pgl", "alpha", "--group", "2", "--elements", f"({big})"], "input")
    assert msg == f"pgl element literal must be '(a|chi)': {'(' + big[:59]!r}..."
    # 4,300 digits are read
    assert invoke(["group", "span", "2", "--gens", f"({big[:-1]})"])[0] == 0


def test_compare_checks_the_limit_before_building_modules():
    # the module orders must be printable, so p^rank1 and p^(2r) are
    # checked first; the enumeration limit no longer applies
    argv = ["obstruct", "--mode", "compare", "--p", "2"]
    msg = _refused_fast(argv + ["--r", "20000"], "output-bound")
    assert msg == "p^40000 has more than 4300 decimal digits (the int-to-str limit)"
    # the rank checks come first, with their own kinds
    for rank1 in ("3", "-1"):
        msg = _refused_fast(argv + ["--r", "20000", "--rank1", rank1], "input")
        assert msg == "--rank1 must be even"
    for rank1 in ("0", "-2"):
        msg = _refused_fast(argv + ["--r", "20000", "--rank1", rank1], "precondition")
        assert msg == "module order 1 is not a prime power"
    for r, rank1 in ((1, 1000), (2, 14), (7, 2)):  # refused by the limit before
        got = _answered_fast(argv + ["--r", str(r), "--rank1", str(rank1)])
        assert got == compare_closed_form(2, r, 0, rank1), (r, rank1)


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
    "file over the bound": ["form", "radical", "--form", "@{tmp}/long.json"],
    "dim 1e400": ["f2", "count", "--form", '{"dim": 1e400, "rows": []}'],
    "group 4.0": ["form", "radical", "--form", '{"group": [4.0], "gram": [["0/1"]]}'],
    "group 1e400": ["form", "radical", "--form", '{"group": [1e400], "gram": [["0/1"]]}'],
    "group NaN": ["form", "radical", "--form", '{"group": [NaN], "gram": [["0/1"]]}'],
    "dim 2.5": ["f2", "count", "--form", '{"dim": 2.5, "rows": ["0x2", "0x0"]}'],
    "dim string": ["f2", "count", "--form", '{"dim": "2", "rows": ["0x2", "0x0"]}'],
    "dim true": ["f2", "count", "--form", '{"dim": true, "rows": ["0x2"]}'],
    "group 2": ["form", "radical", "--form", '{"group": 2, "gram": [["0/1"]]}'],
    "group object": ["form", "radical", "--form", '{"group": {"a": 1}, "gram": [["0/1"]]}'],
    "group true": ["form", "radical", "--form", '{"group": [true], "gram": [["0/1"]]}'],
    "gram string": ["form", "radical", "--form", '{"group": [2], "gram": "0"}'],
    "gram row string": ["form", "radical", "--form", '{"group": [2], "gram": ["0"]}'],
    "rows ints": ["f2", "count", "--form", '{"dim": 2, "rows": [1, 2]}'],
    "rows string": ["f2", "count", "--form", '{"dim": 1, "rows": "1"}'],
    "no group": ["form", "radical", "--form", '{"gram": [["0/1"]]}'],
    "no gram": ["form", "radical", "--form", '{"group": [2]}'],
    "no dim": ["f2", "count", "--form", '{"rows": []}'],
    "no rows": ["f2", "count", "--form", '{"dim": 1}'],
}
# the refusals of a spec's shape, in the package's words, not Python's
SPEC_MESSAGES = {
    **dict.fromkeys(["group 4.0", "group 1e400", "group NaN", "group 2", "group object",
                     "group true"], "bad form spec: group must be a list of integers"),
    **dict.fromkeys(["gram string", "gram row string"],
                    "bad form spec: gram must be a list of lists"),
    **dict.fromkeys(["rows ints", "rows string"],
                    "bad F2 form spec: rows must be a list of strings"),
    "no group": "bad form spec: missing key 'group'",
    "no gram": "bad form spec: missing key 'gram'",
    "no dim": "bad F2 form spec: missing key 'dim'",
    "no rows": "bad F2 form spec: missing key 'rows'",
    "file over the bound": f"spec file has more than {MAX_SPEC_BYTES} bytes",
}


@pytest.mark.parametrize("case", list(MALFORMED_SPECS))
def test_malformed_spec_is_an_input_error(case, tmp_path):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    (tmp_path / "long.json").touch()  # sparse: read up to one byte over the bound
    os.truncate(tmp_path / "long.json", MAX_SPEC_BYTES + 1)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in MALFORMED_SPECS[case]]
    msg = _refused_fast(argv, "input")
    assert msg == SPEC_MESSAGES.get(case, msg)


def _gram_spec(entries) -> str:
    """A spec on (Z/2)^3 whose Gram entries, row-major, are "0/1", "1/2",
    "1/2", then the given JSON texts, then "0/1" to the end."""
    texts = ['"0/1"', '"1/2"', '"1/2"', *entries]
    texts += ['"0/1"'] * (9 - len(texts))
    rows = [", ".join(texts[i:i + 3]) for i in (0, 3, 6)]
    return '{"group": [2, 2, 2], "gram": [%s]}' % ", ".join(f"[{r}]" for r in rows)


def test_form_spec_entries_refused_after_repeated_literals():
    # a Gram literal is parsed once per spec; every other entry is still
    # refused in row-major order, with parse's own words
    literal = "bad form spec: Q/Z literal must be a 'num/den' string, not "
    cases = {
        ("0",): literal + "0",
        ("0.5",): literal + "0.5",
        ("null",): literal + "None",
        ('["1/2"]',): literal + "['1/2']",
        ("{}",): literal + "{}",
        ('"1/2"', '"0/1"', '"x/2"'): "bad form spec: invalid literal for int() with base 10: 'x'",
        ('"1/2"', '"0/1"', '"1/0"'): "bad form spec: Q/Z denominator must be nonzero",
        ('"1/2"', "[]", '"1/0"'): literal + "[]",
        ('"1/2"', '"1/0"', "[]"): "bad form spec: Q/Z denominator must be nonzero",
    }
    for entries, msg in cases.items():
        got = _refused_fast(["form", "radical", "--form", _gram_spec(entries)], "input")
        assert got == msg, entries
        assert "unhashable" not in got


def test_form_spec_with_repeated_literals_parses_as_entry_by_entry():
    from splitbound.cli import _parse_form
    from splitbound.finabel import QmodZ, make_group
    from splitbound.qzforms import SkewForm

    for spec in (_gram_spec(['"1/2"', '"0/1"', '"1/2"', '"-1/2"', '"3/2"', '"0/2"']),
                 json.dumps({"group": [6, 12, 12], "gram": [
                     ["0", "1/6", "-5/6"], ["5/6", "0/1", "7/12"], ["5/6", "-7/12", "0"]]})):
        obj = json.loads(spec)
        want = SkewForm(make_group(obj["group"]),
                        [[QmodZ.parse(e) for e in row] for row in obj["gram"]])
        got = _parse_form(spec)
        assert got == want and got.gram == want.gram


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
    from splitbound.finabel import make_group, replay_ops

    _, out, _ = invoke(["group", "reduce", "2,2", "--tuple", "(1,0);(0,1);(1,1)"])
    data = json.loads(out)
    assert data["nonzero"] <= 2
    for op in data["ops"]:
        if op[0] == "sub":
            _kind, i, j, q = op
            assert q >= 1
        else:
            kind, i, j = op
            assert kind == "swap"
        assert {i, j} <= {0, 1, 2} and i != j
    a = make_group([2, 2])
    xi = [a.element(c) for c in [(1, 0), (0, 1), (1, 1)]]
    assert [list(e.coords) for e in replay_ops(a, xi, data["ops"])] == data["reduced"]


def test_reduce_ops_print_as_the_expanded_log():
    # the bytes are json.dumps of the returned log, in both formats, with
    # and without ops, and that log expands to the op-by-op oracle's
    from splitbound.finabel import make_group, reduce_tuple
    from test_finabel import expand_ops, reduce_tuple_oracle

    cases = [("960,960", "(1,959);(958,3);(0,0)"), ("2,2", "(0,0);(0,0)"),
             ("6", "(2);(3)"), ("1024", "(1023);(1)")]
    for group, tup in cases:
        a = make_group([int(d) for d in group.split(",")])
        xi = [a.element(tuple(int(c) for c in el.strip("()").split(",")))
              for el in tup.split(";")]
        log, red = reduce_tuple(a, xi)
        assert (expand_ops(log), [e.coords for e in red]) == reduce_tuple_oracle(a, xi)
        expect = {"nonzero": sum(1 for e in red if not e.is_zero()), "ops": log,
                  "reduced": [list(e.coords) for e in red]}
        code, out, _ = invoke(["group", "reduce", group, "--tuple", tup])
        assert code == 0
        assert out == json.dumps(expect, sort_keys=True) + "\n"
        code, out, _ = invoke(["--format", "text", "group", "reduce", group, "--tuple", tup])
        assert f"ops: {json.dumps(log)}\n" in out
    assert invoke(["group", "reduce", "2,2", "--tuple", "(0,0);(0,0)"])[1].count('"ops": []') == 1


def test_reduce_of_a_large_invariant_factor_prints_three_ops():
    # 999,998 unit steps are one quotient op, so the log does not grow
    # with the invariant factor
    code, out, _ = invoke(["group", "reduce", "1000000", "--tuple", "(1);(999999)"])
    assert code == 0 and len(out.encode()) < 200
    assert json.loads(out)["ops"] == [["sub", 1, 0, 999998], ["sub", 0, 1, 1], ["swap", 0, 1]]


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


def test_tits_bounds_at_large_ranks_form_no_power_of_two():
    # the adjoint B_n and D_n bounds are powers of two: tits at rank 10^10
    # formed 2^rank and ran out of memory, and check at rank 10^8 took the
    # 2-adic valuation of 2^rank by 10^8 divisions
    from splitbound.errors import OVER_DIGIT_BOUND

    for series in ("B", "D"):
        for rank in (10 ** 8, 10 ** 10):
            flags = ["--type", series, "--rank", str(rank), "--adjoint"]
            assert _refused_fast(["tables", "tits", *flags], "output-bound") == OVER_DIGIT_BOUND
            for d, divides in ((rank, True), (2 * rank, False)):
                argv = ["tables", "check", *flags, "--p", "2", "--d", str(d)]
                assert _answered_fast(argv) == {"divides": divides}, argv


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

    code, out, _ = invoke(["form", "max-isotropic", "--form", _nonsplit_spec()])
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
    ["group", "subgroups", "2,2", "--list"],
    ["verify", "partitions", "--seed", "1"],
]


def test_run_builds_no_parser(monkeypatch):
    import argparse

    from splitbound import cli

    def refuse(*args, **kwargs):
        raise AssertionError("run built or ran a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    # a plain argv is read off the declarations: a command that a later
    # declaration takes off the table path fails here, not only runs slower
    for argv in ONE_PER_COMMAND:
        code, out, _ = invoke(argv)
        assert code == 0 and out, argv


def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(splitbound.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "splitbound.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout.decode()


def test_a_fresh_process_prints_the_bytes_of_run():
    # a cold process imports each command's layers on its first call
    for argv in ONE_PER_COMMAND:
        code, out, _ = invoke(argv)
        assert (code, out) == _fresh_process(argv), argv


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


def test_the_shared_parser_carries_nothing_between_calls():
    from splitbound.cli import build_parser

    census = ["group", "subgroups", "2,2"]
    # (first call, its exit status, the call after it)
    pairs = [
        (["group", "subgroups", "2," * 7 + "2", "--list"], 2, [*census, "--list"]),
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


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the stdout of each --help, at 80 columns (CPython 3.11's argparse)
HELP_DIGESTS = {
    (): "39d79b83f743a34d10c43555f1a9639b0e20c3e2f4528a8f451571b7e6ab7432",
    ("group",): "f0d19fdc617855f2097b3e41d7eef51deb46025a464dcab7a44ecd6faa8ff54a",
    ("form",): "839a49cc7edc18a0ffe667fdbf7aa08239e615f16bee842dd4a70e039caf642c",
    ("pgl",): "f1575ac3abb49f456a9fa1ab9771d97e78909ed8af171d2e97df5d0d80a8edeb",
    ("f2",): "d99ce4bab69a98cf1898971066afbe366e5a1a5dafadfb16ed35d071cc60530c",
    ("obstruct",): "bd01cd117062bcb1320f53a55c0f00bca62b1613916efd85ac3b2ac73cb533e0",
    ("tables",): "634eadbd0ddadb46a0865b61c64e9df910173c484ca908083ca85f8ea762bd2b",
    ("verify",): "ea0d3a69ebf36447efd4c4e8a4b722e684bed20e4fc8411747bc620ed1223de8",
}
# sha256 of the stderr of a usage error (exit 2, nothing on stdout)
USAGE_DIGESTS = {
    (): "28f2d9a708746cd797c75c5fcc978975eed6609d63b9ab9ddc144b6a884f4629",
    ("group",): "8ca7e6946afc5395248f418b39ab2f02532e3e02222b44f8be68dbd76324eb42",
    ("group", "nope", "2"): "662d4affe0453e79e9387adf8216ccdd1a14569cd615dbdbed2618e49c8becbd",
    ("obstruct", "--mode", "x", "--r", "1"):
        "d784930fe873548b5f5ab00e83ecfa1811b78a4247e114aebc42dd5d108bb224",
    ("verify", "all", "--seed", "x"):
        "b613ec7950b9f54d815b90fb1b39a36907e45954ae8f46758c13912d691ec245",
}


def test_help_and_usage_errors_print_the_pinned_bytes(monkeypatch):
    # the corpus hashes stdout of answers only; this pins what argparse
    # prints for help and for a usage error, so a parser built another way
    # must print the same bytes
    monkeypatch.setenv("COLUMNS", "80")

    def printed(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            run(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    for argv, digest in HELP_DIGESTS.items():
        code, out, err = printed([*argv, "--help"])
        assert (code, _sha256(out), err) == (0, digest, ""), argv
    for argv, digest in USAGE_DIGESTS.items():
        code, out, err = printed(list(argv))
        assert (code, out, _sha256(err)) == (2, "", digest), argv


def _argparse_reads(parser, argv):
    """vars() of parser.parse_args(argv), or None where it exits (usage
    error or help)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _declarations(parser):
    """{command: (its positional actions, its option actions but -h)}."""
    import argparse

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: ([a for a in p._actions if not a.option_strings],
                   [a for a in p._actions if a.option_strings and a.dest != "help"])
            for name, p in sub.choices.items()}


def _plain_value(draw, st, action):
    if action.choices is not None:
        return draw(st.sampled_from(list(action.choices)))
    if action.type is int:
        return str(draw(st.integers(0, 99)))
    return draw(st.sampled_from(["2,4", "(1,0)", "(1,3);(0,2)", "E8", '{"dim": 1}', "", "x y"]))


def _perturbed(draw, st, units):
    """units, each (action or None, its tokens) in argv order, with one
    perturbation of the kinds a plain argv excludes."""
    units = list(units)
    i = draw(st.integers(0, len(units)))
    options = [k for k, (a, _) in enumerate(units) if a.option_strings]
    # the units that end in a value: positionals, and options that are no flag
    valued = [k for k, (a, toks) in enumerate(units) if toks[-1:] != a.option_strings[:1]]
    kind = draw(st.sampled_from(["repeat", "abbreviate", "equals", "dash", "choice", "int",
                                 "insert", "drop"]))
    if kind in ("repeat", "abbreviate", "equals") and options:
        k = draw(st.sampled_from(options))
        a, toks = units[k]
        if kind == "repeat":
            units.insert(i, units[k])
        elif kind == "abbreviate":
            units[k] = a, [toks[0][:-1], *toks[1:]]
        else:
            units[k] = a, ["=".join(toks)]
    elif kind in ("dash", "choice", "int") and valued:
        k = draw(st.sampled_from(valued))
        a, toks = units[k]
        bad = {"dash": ["-5", "-x", "-(1)", "--"], "choice": ["nope", "Json"],
               "int": ["x", "1.5", "", "2 3"]}[kind]
        units[k] = a, [*toks[:-1], draw(st.sampled_from(bad))]
    elif kind == "drop" and units:  # a missing positional or required option
        del units[min(i, len(units) - 1)]
    else:  # -h, --, a misplaced --format, an unknown option or an extra positional
        stray = draw(st.sampled_from([["-h"], ["--help"], ["--"], ["--format", "json"],
                                      ["--nope"], ["2"], ["info"]]))
        units.insert(i, (None, stray))
    return units


def test_plain_argv_parses_as_argparse_does():
    # the table path (cli._fast_parse) either builds the Namespace argparse
    # builds or leaves the argv to argparse, which it must for every usage
    # error and help; argvs are drawn from build_parser()'s own declarations
    from corpus import calls

    from splitbound import cli
    from splitbound.cli import build_parser

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parser = build_parser()
    commands = _declarations(parser)

    def check(argv, plain=False):
        got, want = cli._fast_parse(list(argv)), _argparse_reads(parser, argv)
        if got is None:
            assert not plain, argv
        else:
            assert vars(got) == want, argv
        if want is None:
            assert got is None, argv

    @hypothesis.settings(max_examples=800, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def drawn(data):
        draw = data.draw
        command = draw(st.sampled_from(sorted(commands)))
        positionals, options = commands[command]
        units = [(a, [_plain_value(draw, st, a)]) for a in positionals]
        for a in options:
            if a.required or draw(st.booleans()):
                value = [] if a.nargs == 0 else [_plain_value(draw, st, a)]
                units.append((a, [a.option_strings[0], *value]))
        # options interleave with the positionals, which keep their order
        order = draw(st.permutations(range(len(units))))
        slots = iter(units[:len(positionals)])
        units = [next(slots) if k < len(positionals) else units[k] for k in order]
        head = draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
        check([*head, command, *(tok for _, toks in units for tok in toks)], plain=True)
        if draw(st.booleans()):
            command = draw(st.sampled_from([command, command, "nope"]))
            units = _perturbed(draw, st, units)
            check([*head, command, *(tok for _, toks in units for tok in toks)])

    drawn()
    for _, argv in calls():
        check(argv)


def test_enum_limit_flag_and_env(monkeypatch):
    # the enumeration limit is retired: --enum-limit is a usage error, and
    # SPLITBOUND_ENUM_LIMIT changes no stdout byte and no exit status, not
    # even when it is no integer; verify's enumerating oracles run on their
    # fixed small inputs and still pass
    argv = ["group", "subgroups", "2,2,2,2", "--list"]
    for value in ("10", "100000"):
        assert _exit_code(["--enum-limit", value, *argv]) == 2
    monkeypatch.delenv("SPLITBOUND_ENUM_LIMIT", raising=False)
    calls = [argv, ["group", "subgroups", "2", "--list"],
             ["pgl", "element", "--group", "4097", "--a", "(1)", "--chi", "(0)"],
             ["form", "max-isotropic", "--form", _nonsplit_spec()], ["verify", "lagrangian"]]
    want = [invoke(call)[:2] for call in calls]
    assert [code for code, _ in want] == [0, 0, 0, 2, 0]
    assert json.loads(want[-1][1])["passed"]
    for value in ("1", "8", "abc", ""):
        monkeypatch.setenv("SPLITBOUND_ENUM_LIMIT", value)
        assert [invoke(call)[:2] for call in calls] == want, value


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
    # a correct build passes the full replay suite, and prints the same
    # counts (these bytes) at the default seed and at --seed 1
    import hashlib

    for argv in (["verify", "all"], ["verify", "all", "--seed", "1"]):
        code, out, _ = invoke(argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and len(payload["checks"]) >= 15
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "64acdac91090903003bf1def2487b74f467bfee2dfcb1121dd6c3359c31972f7"), argv


def test_verify_reports_a_check_whose_library_call_asserts_as_failed(monkeypatch):
    # min_splitting_exponent asserts the bound that search-vs-formula tests;
    # with f_e(r) read 100 higher at e = 2 that check fails, named on
    # stderr, and every other check still runs and passes
    from splitbound import obstruction

    f_bound = obstruction.f_bound
    monkeypatch.setattr(obstruction, "f_bound", lambda r, e=0: f_bound(r, e) + 100 * (e == 2))
    code, out, err = invoke(["--format", "text", "verify", "all"])
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert len(lines) == 20 and len(failed) == 2
    assert failed[0] == "FAIL partitions.search-vs-formula count=0"
    assert failed[1] == "FAILED suite=all"
    assert "# partitions.search-vs-formula: AssertionError" in err


def test_verify_reports_a_refusal_inside_a_check_as_failed(monkeypatch, capsys):
    from splitbound import liedata, verify
    from splitbound.errors import InputError

    def refuse(_desc):
        raise InputError("refused")

    monkeypatch.setattr(liedata, "tits_n", refuse)
    (check,) = verify.suite_tables()
    assert (check.name, check.passed, check.count) == ("tables.fixtures", False, 0)
    assert capsys.readouterr().err == "# tables.fixtures: InputError: refused\n"


def test_verify_suite_cli():
    code, out, err = invoke(["verify", "ec8"])
    assert code == 0
    payload = json.loads(out)
    check_schema("verify", payload)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    # timings land on stderr, keeping stdout byte-deterministic
    assert "ms" in err

    # the text format too: one line per check on stdout, each time on stderr
    code, out, err = invoke(["--format", "text", "verify", "partitions", "--seed", "1"])
    assert code == 0
    assert out.count("PASS") == 4
    assert out.strip().endswith("suite=partitions")
    assert "ms" not in out
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "# " + line.split()[1] for line in out.splitlines()[:-1]]
