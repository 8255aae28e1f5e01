"""Command-line frontend.

Every subcommand prints a single JSON object (sorted keys, LF terminated)
so identical flags give byte-identical output; --format text renders the
same data as key: value lines.  Validation and precondition failures exit
with status 2 and a structured error object; unexpected faults exit 1.

Each handler imports the layers it runs, so a cold call compiles only
those: importing this module loads `errors` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (MAX_INT_DIGITS, InputError, OutputBoundError, PreconditionError,
                     SplitboundError, _int_text, _over_digit_bound)

__all__ = ["main", "run", "build_parser"]


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def _shown(text: str) -> str:
    """text quoted for a message, cut after its first 60 characters."""
    return repr(text) if len(text) <= 60 else repr(text[:60]) + "..."


def _bad_literal(what: str, text: str, parts) -> InputError:
    """The refusal of a literal one of whose parts int() refused; it names
    the digit bound when a part is above it."""
    why = (f": an entry has more than {MAX_INT_DIGITS} decimal digits"
           if any(map(_over_digit_bound, parts)) else "")
    return InputError(f"bad {what} literal {_shown(text)}{why}")


def _parse_group(text: str):
    from . import finabel

    parts = text.split(",")
    try:
        ints = [int(x) for x in parts if x.strip() != ""]
    except ValueError as ex:
        raise _bad_literal("group", text, parts) from ex
    return finabel.make_group(ints)


def _parse_coords(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise InputError(f"element literal must be parenthesized: {_shown(text)}")
    inner = body[1:-1].strip()
    if not inner:
        return ()
    parts = inner.split(",")
    try:
        return tuple(int(x) for x in parts)
    except ValueError as ex:
        raise _bad_literal("element", text, parts) from ex


def _parse_element(group, text: str):
    return group.element(_parse_coords(text))


def _parse_elements(group, text: str) -> list:
    return [_parse_element(group, part) for part in text.split(";") if part.strip()]


def _need(args, flag: str):
    """The value of --flag, which the command's action cannot do without."""
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"{args.command} {args.action} needs --{flag}")
    return value


def _spec_int(literal: str) -> int:
    """A JSON integer literal of at most MAX_INT_DIGITS digits, as an int."""
    if len(literal.lstrip("-")) > MAX_INT_DIGITS:
        raise InputError("bad JSON spec: an integer has more than"
                         f" {MAX_INT_DIGITS} decimal digits")
    return int(literal)


def _load_spec(text: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as ex:
            raise InputError(f"cannot read spec file: {ex}") from ex
    try:
        obj = json.loads(text, parse_int=_spec_int)
    except ValueError as ex:
        raise InputError(f"bad JSON spec: {ex}") from ex
    if not isinstance(obj, dict):
        raise InputError("form spec must be a JSON object")
    return obj


def _parse_form(text: str):
    from . import finabel, qzforms

    obj = _load_spec(text)
    try:
        # JSON numbers load as int, float or bool; only an int is an invariant factor
        if not isinstance(obj["group"], list) or any(type(d) is not int for d in obj["group"]):
            raise InputError("bad form spec: group must be a list of integers")
        group = finabel.make_group(obj["group"])
        if not isinstance(obj["gram"], list) or not all(isinstance(r, list) for r in obj["gram"]):
            raise InputError("bad form spec: gram must be a list of lists")
        gram = [[finabel.QmodZ.parse(entry) for entry in row] for row in obj["gram"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as ex:
        raise InputError(f"bad form spec: {ex}") from ex
    return qzforms.SkewForm(group, gram)


def _parse_f2(text: str):
    from . import f2quad

    obj = _load_spec(text)
    try:
        dim = obj["dim"]
        if not isinstance(obj["rows"], list) or not all(isinstance(r, str) for r in obj["rows"]):
            raise InputError("bad F2 form spec: rows must be a list of strings")
        rows = [int(r, 16) for r in obj["rows"]]
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"bad F2 form spec: {ex}") from ex
    # JSON numbers load as int, float or bool; only an int is a dimension
    if type(dim) is not int:
        raise InputError("bad F2 form spec: dim must be an integer")
    if dim > f2quad.MAX_DIM:
        raise PreconditionError(f"dimension {dim} above the bound {f2quad.MAX_DIM}")
    return f2quad.F2QuadForm(dim, rows)


def _form_obj(w) -> dict:
    return {
        "group": list(w.group.invariants),
        "gram": [[str(e) for e in row] for row in w.gram],
    }


def _subgroup_obj(s, invariants=None) -> dict:
    return {
        "order": s.order,
        "invariants": list(s.sub_invariants if invariants is None else invariants),
        "basis": [list(r) for r in s.basis],
    }


def _descriptor(args):
    from . import liedata

    series = _need(args, "type")
    n = getattr(args, "rank", None)
    return liedata.GroupDescriptor(series, n, not getattr(args, "adjoint", False))


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_group(args) -> dict:
    from . import finabel

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
        return {"invariants": list(finabel.dual_group(a).invariants)}
    if act == "char":
        chi = _parse_element(finabel.dual_group(a), _need(args, "chi"))
        x = _parse_element(a, _need(args, "a"))
        return {"value": str(finabel.eval_character(chi, x))}
    if act == "span":
        s = finabel.subgroup_from_generators(a, _parse_elements(a, args.gens or ""))
        return _subgroup_obj(s)
    if act == "quotient":
        s = finabel.subgroup_from_generators(a, _parse_elements(a, args.gens or ""))
        return {"invariants": list(finabel.quotient(a, s).invariants)}
    if act == "subgroups":
        if not args.list:
            count, types = finabel.subgroup_census(a)
            return {"count": count, "types": [list(t) for t in types]}
        count, _ = finabel.subgroup_census(a)
        if count > finabel.MAX_LISTED:
            raise OutputBoundError(f"{_int_text(count)} subgroups are more than"
                                   f" the listing bound {finabel.MAX_LISTED}")
        type_of = finabel._types_by_live_block(a)
        subs = [_subgroup_obj(s, type_of(s.basis)) for s in finabel.enumerate_subgroups(a)]
        return {"count": len(subs), "subgroups": subs}
    if act == "embeds":
        b = _parse_group(_need(args, "into"))
        return {"embeds": finabel.embeds_into(a, b)}
    if act == "reduce":
        xi = _parse_elements(a, _need(args, "tuple"))
        log, reduced = finabel.reduce_tuple(a, xi)
        return {
            "ops": [list(op) for op in log],
            "reduced": [list(el.coords) for el in reduced],
            "nonzero": sum(1 for el in reduced if not el.is_zero()),
        }
    raise InputError(f"unknown group action {act!r}")


def _cmd_form(args) -> dict:
    from . import finabel, qzforms

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
        mi = qzforms.max_isotropic(w)
        return {
            "order": mi.order,
            "types": [list(t) for t in mi.types],
            "witness": _subgroup_obj(mi.witness),
        }
    if act == "lagrangian":
        s = finabel.subgroup_from_generators(w.group, _parse_elements(w.group, args.gens or ""))
        return {"lagrangian": qzforms.is_lagrangian(w, s)}
    if act == "quotient-lagrangian":
        s = finabel.subgroup_from_generators(w.group, _parse_elements(w.group, args.gens or ""))
        return {"invariants": list(qzforms.quotient_by_lagrangian(w, s).invariants)}
    raise InputError(f"unknown form action {act!r}")


def _pgl_subgroup(args):
    from . import finabel, heisenberg

    a = _parse_group(args.group)
    if args.elements is not None:
        dual = finabel.dual_group(a)
        pairs = []
        for part in args.elements.split(";"):
            part = part.strip()
            if not part:
                continue
            if not (part.startswith("(") and part.endswith(")")) or "|" not in part:
                raise InputError(f"pgl element literal must be '(a|chi)': {_shown(part)}")
            left, right = part[1:-1].split("|", 1)
            pairs.append(
                (_parse_element(a, f"({left})"), _parse_element(dual, f"({right})"))
            )
        if not pairs:
            raise InputError("no generators given")
        return heisenberg.phi_span(a, pairs)
    return heisenberg.phi_image(a)


def _cmd_pgl(args) -> dict:
    from . import finabel, heisenberg

    act = args.action
    if act == "element":
        a = _parse_group(args.group)
        x = _parse_element(a, _need(args, "a"))
        chi = _parse_element(finabel.dual_group(a), _need(args, "chi"))
        # the lift and its printed perm and diag have |A| entries each
        if a.order > finabel.MAX_LISTED:
            raise OutputBoundError(
                f"the lift's perm and diag have {_int_text(a.order)} entries each,"
                f" more than the listing bound {finabel.MAX_LISTED}"
            )
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
    from . import f2quad

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
    from . import finabel, obstruction, qzforms

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
        p, m, r = args.p, rank1 // 2, args.r
        if m < 1:  # the first module is on the trivial group
            raise PreconditionError("module order 1 is not a prime power")
        for exp in (rank1, 2 * r):  # the module orders must be printable
            obstruction.checked_power(p, exp)
        # the two standard modules, on (Z/p)^m and on Z/p^r, are never
        # built: their isotropic types come from those groups alone
        o1 = p ** (m - min(args.e, m))
        o2 = p ** (r - min(args.e, r))
        types1 = qzforms.standard_isotropic_types(finabel.make_group([p] * m), o1)
        types2 = qzforms.standard_isotropic_types(finabel.make_group([p ** r]), o2)
        return {
            "bound": obstruction.comparison_from_types(o1, types1, o2, types2),
            "types": {
                "first": [list(t) for t in types1],
                "second": [list(t) for t in types2],
            },
        }
    raise InputError(f"unknown obstruct mode {mode!r}")


def _cmd_tables(args) -> dict:
    from . import liedata

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
        from .finabel import _is_prime

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
    from . import verify

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
        _emit(payload, fmt)
    else:
        for c in checks:
            word = "PASS" if c.passed else "FAIL"
            sys.stdout.write(f"{word} {c.name} count={c.count}\n")
        sys.stdout.write(("ok" if ok else "FAILED") + f" suite={args.suite}\n")
    # timings go to stderr in both formats, so stdout stays byte-deterministic
    for c in checks:
        sys.stderr.write(f"# {c.name}: {c.millis:.1f} ms\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the suite names verify.run_suite answers
SUITES = ("isometry", "lagrangian", "ec8", "partitions", "all")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splitbound",
        description="Exact computations on symplectic modules, abelian "
        "subgroups of PGL_n, F2 quadratic forms, and splitting bounds.",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
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
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--seed", type=int, default=0)

    return top


def _declared(parser, skip=None):
    """(options by option string, positionals, defaults by dest, required
    options) of parser's actions: store with one str or int value, and
    store_true.  -h is left to argparse; a parser with any other action is
    argparse's alone (None)."""
    options, positionals, defaults = {}, [], {}
    for a in parser._actions:
        if type(a) is argparse._HelpAction or a is skip:
            continue
        if not (type(a) is argparse._StoreTrueAction or type(a) is argparse._StoreAction
                and a.nargs is None and a.type in (None, int)
                and not (a.type and isinstance(a.default, str))):
            return None
        defaults[a.dest] = a.default
        options.update(dict.fromkeys(a.option_strings, a))
        positionals += [] if a.option_strings else [a]
    return options, positionals, defaults, {a for a in options.values() if a.required}


def _value(action, text: str):
    """argparse's value for text given to action; ValueError where it refuses text."""
    value = text if action.type is None else action.type(text)
    if text.startswith("-") or action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read(declared, tokens, values: dict) -> None:
    """Store into values argparse's reading of one parser's tokens; ValueError if not plain."""
    options, positionals, defaults, required = declared
    values.update(defaults)
    seen, args, tokens = set(), [], iter(tokens)
    for tok in tokens:
        a = options.get(tok)
        if a is None or a in seen:  # _value refuses a repeated option as a positional
            args.append(tok)
        else:  # an option with no value left gets "-", which _value refuses
            seen.add(a)
            values[a.dest] = a.const if a.nargs == 0 else _value(a, next(tokens, "-"))
    if not required <= seen:
        raise ValueError(tokens)
    for a, text in zip(positionals, args, strict=True):  # ValueError on a count mismatch
        values[a.dest] = _value(a, text)


def _fast_parse(argv: list):
    """_PARSER.parse_args(argv) read off _TABLE for a plain argv: an optional
    leading --format, a command, its positionals, and each declared option at
    most once, as `--name value` (value not starting with '-') or a bare flag.
    None for any other argv, so argparse keeps help, usage and every error."""
    head, commands = _TABLE
    i = 0
    while head and i < len(argv) and argv[i] in head[0]:
        i += 1 if head[0][argv[i]].nargs == 0 else 2
    if not head or i >= len(argv) or commands.get(argv[i]) is None:
        return None
    values = {_SUBPARSERS.dest: argv[i]}
    try:
        _read(head, argv[:i], values)
        _read(commands[argv[i]], argv[i + 1:], values)
    except ValueError:
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # what Namespace(**values) does, one setattr at a time
    return args


# One parser serves every run() in the process: parse_args returns a new
# Namespace each call and keeps nothing from the last.  It is built here, not
# on first use, so a wrapper around build_parser never ends up on it.
_PARSER = build_parser()
_SUBPARSERS = next(a for a in _PARSER._actions if type(a) is argparse._SubParsersAction)
_TABLE = _declared(_PARSER, _SUBPARSERS), {n: _declared(p) for n, p in _SUBPARSERS.choices.items()}

_HANDLERS = {
    "group": _cmd_group,
    "form": _cmd_form,
    "pgl": _cmd_pgl,
    "f2": _cmd_f2,
    "obstruct": _cmd_obstruct,
    "tables": _cmd_tables,
}


def _emit(obj: dict, fmt: str) -> None:
    """Write obj as one JSON line or as key: value lines.  The text is
    rendered whole before anything is written, so a result with an integer
    of more than MAX_INT_DIGITS digits is refused (OutputBoundError) unprinted."""
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
            text = json.dumps(obj, sort_keys=True) + "\n"
        else:
            text = "".join(line + "\n" for line in lines("", obj))
    except ValueError as ex:
        raise OutputBoundError(
            f"the result has an integer of more than {MAX_INT_DIGITS} decimal digits"
            " (the int-to-str limit)"
        ) from ex
    sys.stdout.write(text)


def run(argv=None) -> int:
    """Answer argv (sys.argv[1:] if None) on stdout and return the exit status.
    _fast_parse reads a plain argv; argparse parses, helps or refuses the rest."""
    # what the call parses (type=int, int(), json.loads) and prints (str(),
    # json.dumps) is held to MAX_INT_DIGITS; the caller gets its own limit back
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _fast_parse(argv) or _PARSER.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args, args.format)
        _emit(_HANDLERS[args.command](args), args.format)
    except SplitboundError as ex:
        _emit({"error": {"kind": ex.kind, "message": str(ex)}}, args.format)
        return 2
    finally:
        sys.set_int_max_str_digits(caller_limit)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
