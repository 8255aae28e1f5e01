import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest

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

    code, out, _ = invoke(["group", "subgroups", "2," * 12 + "2"])
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


def test_enum_limit_flag_and_env(monkeypatch):
    code, out, _ = invoke(["--enum-limit", "10", "group", "subgroups", "2,2,2,2"])
    assert code == 2
    assert "10" in json.loads(out)["error"]["message"]
    monkeypatch.setenv("SPLITBOUND_ENUM_LIMIT", "8")
    code, out, _ = invoke(["group", "subgroups", "2,2,2,2"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "enumeration-bound"
    monkeypatch.delenv("SPLITBOUND_ENUM_LIMIT")


def test_text_format():
    code, out, _ = invoke(["--format", "text", "group", "info", "2,4"])
    assert code == 0
    assert "order: 8" in out and "invariants: [2, 4]" in out


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
