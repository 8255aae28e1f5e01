"""Command-line frontend.

Every subcommand prints a single JSON object (sorted keys, LF terminated)
so identical flags give byte-identical output; --format text renders the
same data as key: value lines.  Validation and precondition failures exit
with status 2 and a structured error object; unexpected faults exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby

from . import f2quad, heisenberg, liedata, obstruction, qzforms, verify
from .errors import InputError, OutputBoundError, PreconditionError, SplitboundError, _int_text
from .finabel import (
    MAX_LISTED,
    Element,
    FinAbGroup,
    QmodZ,
    Subgroup,
    _check_limit,
    _is_prime,
    dual_group,
    embeds_into,
    enumerate_subgroups,
    eval_character,
    make_group,
    quotient,
    reduce_tuple,
    subgroup_census,
    subgroup_from_generators,
)

__all__ = ["main", "run", "build_parser"]


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def _parse_group(text: str) -> FinAbGroup:
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as ex:
        raise InputError(f"bad group literal {text!r}") from ex
    return make_group(parts)


def _parse_coords(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise InputError(f"element literal must be parenthesized: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(x) for x in inner.split(","))
    except ValueError as ex:
        raise InputError(f"bad element literal {text!r}") from ex


def _parse_element(group: FinAbGroup, text: str) -> Element:
    return group.element(_parse_coords(text))


def _parse_elements(group: FinAbGroup, text: str) -> list[Element]:
    return [_parse_element(group, part) for part in text.split(";") if part.strip()]


def _need(args, flag: str):
    """The value of --flag, which the command's action cannot do without."""
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"{args.command} {args.action} needs --{flag}")
    return value


def _load_spec(text: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as ex:
            raise InputError(f"cannot read spec file: {ex}") from ex
    try:
        obj = json.loads(text)
    except ValueError as ex:  # malformed, or an integer above the int-to-str limit
        raise InputError(f"bad JSON spec: {ex}") from ex
    if not isinstance(obj, dict):
        raise InputError("form spec must be a JSON object")
    return obj


def _parse_form(text: str) -> qzforms.SkewForm:
    obj = _load_spec(text)
    try:
        # JSON numbers load as int or float; a float is no invariant factor
        if any(isinstance(d, float) for d in obj["group"]):
            raise InputError("bad form spec: group entries must be integers")
        group = make_group(obj["group"])
        gram = [[QmodZ.parse(entry) for entry in row] for row in obj["gram"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as ex:
        raise InputError(f"bad form spec: {ex}") from ex
    return qzforms.SkewForm(group, gram)


def _parse_f2(text: str) -> f2quad.F2QuadForm:
    obj = _load_spec(text)
    try:
        dim = obj["dim"]
        rows = [int(r, 16) for r in obj["rows"]]
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"bad F2 form spec: {ex}") from ex
    # JSON numbers load as int, float or bool; only an int is a dimension
    if type(dim) is not int:
        raise InputError("bad F2 form spec: dim must be an integer")
    if dim > f2quad.MAX_DIM:
        raise PreconditionError(f"dimension {dim} above the bound {f2quad.MAX_DIM}")
    return f2quad.F2QuadForm(dim, rows)


def _form_obj(w: qzforms.SkewForm) -> dict:
    return {
        "group": list(w.group.invariants),
        "gram": [[str(e) for e in row] for row in w.gram],
    }


def _subgroup_obj(s: Subgroup) -> dict:
    return {
        "order": s.order,
        "invariants": list(s.sub_invariants),
        "basis": [list(r) for r in s.basis],
    }


def _descriptor(args) -> liedata.GroupDescriptor:
    series = _need(args, "type")
    n = getattr(args, "rank", None)
    return liedata.GroupDescriptor(series, n, not getattr(args, "adjoint", False))


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_group(args) -> dict:
    a = _parse_group(args.invariants)
    act = args.action
    if act == "info":
        return {
            "invariants": list(a.invariants),
            "order": a.order,
            "rank": a.rank,
            "exponent": a.exponent,
        }
    if act == "dual":
        return {"invariants": list(dual_group(a).invariants)}
    if act == "char":
        chi = _parse_element(dual_group(a), _need(args, "chi"))
        x = _parse_element(a, _need(args, "a"))
        return {"value": str(eval_character(chi, x))}
    if act == "span":
        s = subgroup_from_generators(a, _parse_elements(a, args.gens or ""))
        return _subgroup_obj(s)
    if act == "quotient":
        s = subgroup_from_generators(a, _parse_elements(a, args.gens or ""))
        return {"invariants": list(quotient(a, s).invariants)}
    if act == "subgroups":
        if not args.list:
            count, types = subgroup_census(a)
            return {"count": count, "types": [list(t) for t in types]}
        _check_limit(a.order, args.enum_limit)
        count, _ = subgroup_census(a)
        if count > MAX_LISTED:
            raise OutputBoundError(
                f"{_int_text(count)} subgroups are more than the listing bound {MAX_LISTED}"
            )
        subs = enumerate_subgroups(a, args.enum_limit)
        return {"count": len(subs), "subgroups": [_subgroup_obj(s) for s in subs]}
    if act == "embeds":
        b = _parse_group(_need(args, "into"))
        return {"embeds": embeds_into(a, b)}
    if act == "reduce":
        xi = _parse_elements(a, _need(args, "tuple"))
        log, reduced = reduce_tuple(a, xi)
        return {
            "ops": _ops_json(log),
            "reduced": [list(el.coords) for el in reduced],
            "nonzero": sum(1 for el in reduced if not el.is_zero()),
        }
    raise InputError(f"unknown group action {act!r}")


def _cmd_form(args) -> dict:
    act = args.action
    if act == "standard":
        return _form_obj(qzforms.standard_module(_parse_group(_need(args, "group"))))
    w = _parse_form(_need(args, "form"))
    if act == "radical":
        return _subgroup_obj(qzforms.radical(w))
    if act == "nondegenerate":
        return {"nondegenerate": qzforms.is_nondegenerate(w)}
    if act == "evaluate":
        x = _parse_element(w.group, _need(args, "x"))
        y = _parse_element(w.group, _need(args, "y"))
        return {"value": str(qzforms.evaluate(w, x, y))}
    if act == "max-isotropic":
        mi = qzforms.max_isotropic(w, args.enum_limit)
        return {
            "order": mi.order,
            "types": [list(t) for t in mi.types],
            "witness": _subgroup_obj(mi.witness),
        }
    if act == "lagrangian":
        s = subgroup_from_generators(w.group, _parse_elements(w.group, args.gens or ""))
        return {"lagrangian": qzforms.is_lagrangian(w, s)}
    if act == "quotient-lagrangian":
        s = subgroup_from_generators(w.group, _parse_elements(w.group, args.gens or ""))
        return {"invariants": list(qzforms.quotient_by_lagrangian(w, s).invariants)}
    raise InputError(f"unknown form action {act!r}")


def _pgl_subgroup(args) -> heisenberg.PglSubgroup:
    a = _parse_group(args.group)
    if getattr(args, "elements", None):
        dual = dual_group(a)
        pairs = []
        for part in args.elements.split(";"):
            part = part.strip()
            if not part:
                continue
            if not (part.startswith("(") and part.endswith(")")) or "|" not in part:
                raise InputError(f"pgl element literal must be '(a|chi)': {part!r}")
            left, right = part[1:-1].split("|", 1)
            pairs.append(
                (_parse_element(a, f"({left})"), _parse_element(dual, f"({right})"))
            )
        if not pairs:
            raise InputError("no generators given")
        return heisenberg.phi_span(a, pairs)
    return heisenberg.phi_image(a)


def _cmd_pgl(args) -> dict:
    act = args.action
    if act == "element":
        a = _parse_group(args.group)
        x = _parse_element(a, _need(args, "a"))
        chi = _parse_element(dual_group(a), _need(args, "chi"))
        # the lift and its printed perm and diag have |A| entries each
        _check_limit(a.order, args.enum_limit)
        lift = heisenberg.phi(x, chi).canonical_lift()
        return {
            "perm": list(lift.perm),
            "diag": list(lift.diag),
            "modulus": lift.modulus,
        }
    h = _pgl_subgroup(args)
    if act == "depth":
        return {"depth": heisenberg.depth(h)}
    if act == "toral":
        return {"toral": heisenberg.is_toral(h)}
    if act == "alpha":
        return _form_obj(heisenberg.alpha_form(h))
    raise InputError(f"unknown pgl action {act!r}")


def _cmd_f2(args) -> dict:
    act = args.action
    if act == "census":
        if args.lemma == "quad":
            if args.by_class:
                return {
                    "census": [
                        {"class": label, "count": count}
                        for label, count in f2quad.census_dim7_radical1_by_class()
                    ]
                }
            return {"counts": sorted(f2quad.census_dim7_radical1())}
        if args.e8_torus:
            type_a, type_b = f2quad.e8_torus_census()
            return {"typeA": type_a, "typeB": type_b}
        raise InputError("census needs --lemma quad or --e8-torus")
    if act == "ec8":
        model = f2quad.ec8_model()
        best, missed = f2quad.ec8_hyperplane_census(model)
        return {
            "typeA": len(model.type_a),
            "typeB": model.type_b_count,
            "a2_minus_r": 28,
            "a1r_minus_r": 28,
            "generates": f2quad.ec8_generation_check(model),
            "hyperplane_max_typeA": best,
            "hyperplane_min_missed": missed,
        }
    q = _parse_f2(_need(args, "form"))
    if act == "count":
        zeros, ones = f2quad.count_by_recursion(f2quad.decompose(q))
        return {"anisotropic": ones, "isotropic": zeros}
    if act == "decompose":
        blocks = f2quad.decompose(q)
        zeros, ones = f2quad.count_by_recursion(blocks)
        return {"blocks": blocks, "zeros": zeros, "ones": ones}
    if act == "radical":
        basis = f2quad.radical_basis(q)
        return {"dim": len(basis), "basis": [format(v, "#x") for v in basis]}
    raise InputError(f"unknown f2 action {act!r}")


def _cmd_obstruct(args) -> dict:
    mode = args.mode
    if mode == "f":
        return {"bound": obstruction.f_bound(args.r)}
    if mode == "fe":
        return {"bound": obstruction.f_bound(args.r, args.e)}
    q = obstruction.ObstructionQuery(args.p, args.r, args.e)
    if mode == "thm13":
        return {"bound": obstruction.splitting_order_bound(q)}
    if mode == "min-partition":
        total, wit = obstruction.min_splitting_exponent(q)
        return {
            "bound": obstruction.checked_power(args.p, total),
            "total": total,
            "witness": list(wit.exponents),
            "fe": obstruction.f_bound(args.r, args.e),
        }
    if mode == "compare":
        rank1 = 2 * args.r if args.rank1 is None else args.rank1
        if rank1 % 2:
            raise InputError("--rank1 must be even")
        if rank1 > 0:  # the module orders, checked before either module is built
            for exp in (rank1, 2 * args.r):
                _check_limit(obstruction.checked_power(args.p, exp), args.enum_limit)
        el = qzforms.standard_module(make_group([args.p] * (rank1 // 2)))
        cy = qzforms.standard_module(make_group([args.p ** args.r]))
        o1, types1 = obstruction.splitting_group_isotropic_bound(
            el, min(args.e, rank1 // 2), args.enum_limit
        )
        o2, types2 = obstruction.splitting_group_isotropic_bound(
            cy, min(args.e, args.r), args.enum_limit
        )
        return {
            "bound": obstruction.comparison_from_types(o1, types1, o2, types2, args.p),
            "types": {
                "first": [list(t) for t in types1],
                "second": [list(t) for t in types2],
            },
        }
    raise InputError(f"unknown obstruct mode {mode!r}")


def _cmd_tables(args) -> dict:
    act = args.action
    if act == "torsion":
        return {"primes": sorted(liedata.torsion_primes(_descriptor(args)))}
    if act == "tits":
        desc = _descriptor(args)
        out = {"n": liedata.tits_n(desc)}
        if desc.series == "E8":
            values, resolution = liedata.e8_candidates()
            out["candidates"] = values
            out["resolution"] = resolution
        return out
    if act == "check":
        desc = _descriptor(args)
        p, d = _need(args, "p"), _need(args, "d")
        if p >= 2 and not _is_prime(p):  # p < 2 is depth_consistency's precondition
            raise InputError(f"--p {p} is not prime")
        return {"divides": liedata.depth_consistency(desc, p, d)}
    if act == "divisors":
        return dict(liedata.fixed_divisors())
    if act == "quadform":
        upper, lower = liedata.quadform_split_exponents(_need(args, "n"), args.det_one)
        return {"upper_l": upper, "lower_exp": lower}
    if act == "dump":
        return liedata.table_rows()
    raise InputError(f"unknown tables action {act!r}")


def _cmd_verify(args, fmt: str) -> int:
    checks = verify.run_suite(args.suite, args.seed)
    ok = all(c.passed for c in checks)
    if fmt == "json":
        payload = {
            "suite": args.suite,
            "passed": ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "count": c.count}
                for c in checks
            ],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        for c in checks:
            sys.stderr.write(f"# {c.name}: {c.millis:.1f} ms\n")
    else:
        for c in checks:
            word = "PASS" if c.passed else "FAIL"
            sys.stdout.write(
                f"{word} {c.name} count={c.count} ({c.millis:.1f} ms)\n"
            )
        sys.stdout.write(("ok" if ok else "FAILED") + f" suite={args.suite}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splitbound",
        description="Exact computations on symplectic modules, abelian "
        "subgroups of PGL_n, F2 quadratic forms, and splitting bounds.",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument(
        "--enum-limit",
        type=int,
        default=None,
        help="override the subgroup-enumeration bound "
        "(default 4096 or SPLITBOUND_ENUM_LIMIT)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="finite abelian group operations")
    g.add_argument("action", choices=(
        "info", "dual", "char", "span", "quotient", "subgroups", "embeds", "reduce"))
    g.add_argument("invariants", help="group literal, e.g. 2,4")
    g.add_argument("--chi", help="character literal, e.g. (1,0)")
    g.add_argument("--a", help="element literal, e.g. (1,3)")
    g.add_argument("--gens", help="semicolon-separated element literals")
    g.add_argument("--tuple", help="semicolon-separated element literals")
    g.add_argument("--into", help="target group literal for embeds")
    g.add_argument("--list", action="store_true", help="list subgroup bases")

    f = sub.add_parser("form", help="Q/Z alternating form operations")
    f.add_argument("action", choices=(
        "standard", "radical", "nondegenerate", "evaluate", "max-isotropic",
        "lagrangian", "quotient-lagrangian"))
    f.add_argument("--group", help="group literal (standard)")
    f.add_argument("--form", help="form spec JSON or @file")
    f.add_argument("--x", help="element literal")
    f.add_argument("--y", help="element literal")
    f.add_argument("--gens", help="semicolon-separated element literals")

    p = sub.add_parser("pgl", help="monomial-matrix subgroups of PGL_n")
    p.add_argument("action", choices=("depth", "toral", "alpha", "element"))
    p.add_argument("--group", required=True, help="group literal for A")
    p.add_argument("--a", help="element literal (element action)")
    p.add_argument("--chi", help="character literal (element action)")
    p.add_argument(
        "--elements",
        help="generators '(a|chi);(a|chi)' inside phi(A x A*); "
        "defaults to the full image",
    )

    q = sub.add_parser("f2", help="quadratic forms over GF(2)")
    q.add_argument("action", choices=("census", "ec8", "count", "decompose", "radical"))
    q.add_argument("--lemma", choices=("quad",), help="named census")
    q.add_argument("--by-class", action="store_true",
                   help="emit {class, count} rows instead of the count set")
    q.add_argument("--e8-torus", action="store_true", help="torus involution census")
    q.add_argument("--form", help="form spec JSON or @file")

    o = sub.add_parser("obstruct", help="crossed-product obstruction bounds")
    o.add_argument("--mode", required=True,
                   choices=("thm13", "f", "fe", "min-partition", "compare"))
    o.add_argument("--p", type=int, default=2)
    o.add_argument("--r", type=int, required=True)
    o.add_argument("--e", type=int, default=0)
    o.add_argument("--rank1", type=int, default=None,
                   help="rank of the elementary module in compare mode")

    t = sub.add_parser("tables", help="torsion primes and splitting bounds")
    t.add_argument("action", choices=("torsion", "tits", "check", "divisors",
                                      "quadform", "dump"))
    t.add_argument("--type", help="series: A B C D G2 F4 E6 E7 E8")
    t.add_argument("--rank", type=int, default=None, help="series rank n")
    t.add_argument("--adjoint", action="store_true",
                   help="not simply connected")
    t.add_argument("--p", type=int, help="prime (check)")
    t.add_argument("--d", type=int, help="depth (check)")
    t.add_argument("--n", type=int, help="form dimension (quadform)")
    t.add_argument("--det-one", action="store_true", help="determinant-one forms")

    v = sub.add_parser("verify", help="replay named invariant suites")
    v.add_argument("suite", choices=verify.SUITES)
    v.add_argument("--seed", type=int, default=0)

    return top


# One parser serves every run() in the process: parse_args returns a new
# Namespace each call and keeps nothing from the last.  It is built here, not
# on first use, so a wrapper around build_parser never ends up on it.
_PARSER = build_parser()

_HANDLERS = {
    "group": _cmd_group,
    "form": _cmd_form,
    "pgl": _cmd_pgl,
    "f2": _cmd_f2,
    "obstruct": _cmd_obstruct,
    "tables": _cmd_tables,
}


class _JSONText(str):
    """A value already rendered as JSON: _emit writes it as it is, in
    either format."""


def _ops_json(log) -> _JSONText:
    """The JSON array json.dumps writes for a reduce_tuple log, a run of
    equal ops at a time: a Euclidean step can repeat one op hundreds of
    times, and a run is one string repeated."""
    text = "".join(f'["{kind}", {i}, {j}], ' * len(list(run))
                   for (kind, i, j), run in groupby(log))
    return _JSONText("[" + text[:-2] + "]")


def _json_dumps(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True), with a _JSONText value at the top
    level written as it is."""
    if not any(isinstance(val, _JSONText) for val in obj.values()):
        return json.dumps(obj, sort_keys=True)
    return "{" + ", ".join(
        json.dumps(key) + ": "
        + (val if isinstance(val, _JSONText) else json.dumps(val, sort_keys=True))
        for key, val in sorted(obj.items())
    ) + "}"


def _emit(obj: dict, fmt: str) -> None:
    """Write obj as one JSON line or as key: value lines.  The text is
    rendered whole before anything is written, so a result with an integer
    above the int-to-str limit is refused (OutputBoundError) unprinted."""
    def lines(prefix, val):
        if isinstance(val, dict):
            for key in sorted(val):
                yield from lines(f"{prefix}{key}.", val[key])
        elif isinstance(val, list):
            yield f"{prefix[:-1]}: {json.dumps(val)}"
        else:
            yield f"{prefix[:-1]}: {val}"
    try:
        if fmt == "json":
            text = _json_dumps(obj) + "\n"
        else:
            text = "".join(line + "\n" for line in lines("", obj))
    except ValueError as ex:
        limit = sys.get_int_max_str_digits()
        raise OutputBoundError(
            f"the result has an integer of more than {limit} decimal digits"
            " (the int-to-str limit)"
        ) from ex
    sys.stdout.write(text)


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args, args.format)
        _emit(_HANDLERS[args.command](args), args.format)
    except SplitboundError as ex:
        _emit({"error": {"kind": ex.kind, "message": str(ex)}}, args.format)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
