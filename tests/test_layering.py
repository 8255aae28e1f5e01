"""The frontends read no other module's private names.

`cli` and `verify` sit on top of the package.  They may use the private
helpers of `finabel` (the group layer every module builds on) and of
`errors`, but a private name of any other module is that module's
business: what they need of it belongs in `finabel` or in a public name.

Subgroup enumeration is pinned the same way: outside `verify`, only the
functions on an allowlist call an enumerator, and only the one enumeration
that no output bound covers raises EnumerationBoundError.  No module
imports `os`: the package reads no environment variable, so the same
arguments give the same bytes in every environment.

A cold call imports only the layers its command runs: `import
splitbound.cli` loads `cli` and `errors`, and each handler imports what it
uses.  A fresh process pins that per command.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitbound"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
OPEN = {"finabel", "errors"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(node, aliases):
    """The package module an expression names, or None: a name bound by
    `from . import m` (or `from splitbound import m`), or `splitbound.m`."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "splitbound" and node.attr in MODULES):
        return node.attr
    return None


def private_reads(path: Path):
    """(module, name) for every private name the file reads from a package
    module, by import or by attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.module and node.module.split(".")[0] == "splitbound":
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if source is None:  # from . import m
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                reads.append((source.split(".")[0], alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = _module_of(node.value, aliases)
            if module is not None:
                reads.append((module, node.attr))
    return reads


def test_frontends_read_private_names_of_finabel_and_errors_only():
    seen = []
    for name in ("verify.py", "cli.py"):
        seen += [(name, module, attr) for module, attr in private_reads(PACKAGE / name)]
    # the walk sees the private helpers the frontends do use
    assert any(module == "finabel" for _, module, _ in seen)
    assert [read for read in seen if read[1] not in OPEN] == []


def test_private_reads_are_found_by_import_and_by_attribute(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import qzforms, finabel as fa\n"
        "from .heisenberg import _peel_basis, depth\n"
        "import splitbound.liedata\n"
        "from splitbound.f2quad import _x\n"
        "qzforms._partitions_inside(1, 1)\n"
        "fa._hnf\n"
        "splitbound.liedata._DEPTHS\n"
        "qzforms.__doc__\n"
    )
    assert sorted(private_reads(src)) == [
        ("f2quad", "_x"), ("finabel", "_hnf"), ("heisenberg", "_peel_basis"),
        ("liedata", "_DEPTHS"), ("qzforms", "_partitions_inside"),
    ]


# Where production enumerates subgroups.  Each entry is a top-level
# function (module, name) and the enumerators it may call; `verify`, whose
# suites are the enumeration oracles, may call any of them anywhere.
ENUMERATORS = {"enumerate_subgroups", "iter_subgroup_bases", "iter_isotropic_bases",
               "_iter_bases_general"}
ENUMERATING = {
    ("cli", "_cmd_group"): {"enumerate_subgroups"},  # group subgroups --list
    ("qzforms", "max_isotropic"): {"iter_isotropic_bases"},  # the non-split pass
    ("finabel", "enumerate_subgroups"): {"iter_subgroup_bases"},
    ("finabel", "iter_subgroup_bases"): {"_iter_bases_general"},
    ("qzforms", "iter_isotropic_bases"): {"_iter_bases_general"},
}


def _owned(path: Path, name_of):
    """(top-level function, name) for every node of the file that
    name_of(node) names (not None); nested functions count as the
    top-level function (or "Class.method") they sit in, and module level
    as None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owner, scope):
        for child in ast.iter_child_nodes(node):
            name = name_of(child)
            if name is not None:
                found.append((owner, name))
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{scope}{child.name}.")
            elif owner is None and isinstance(child, ast.FunctionDef):
                visit(child, scope + child.name, scope)
            else:
                visit(child, owner, scope)

    visit(tree, None, "")
    return found


def _bare_or_attribute(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def calls_of(path: Path, names):
    """(top-level function, name) for every call in the file of a function
    in names, by bare name or by attribute."""
    def called(node):
        return _bare_or_attribute(node.func) if isinstance(node, ast.Call) else None

    return [(owner, name) for owner, name in _owned(path, called) if name in names]


def enumerator_calls(path: Path):
    """(top-level function, enumerator) for every call of an enumerator in
    the file, by bare name or by attribute."""
    return calls_of(path, ENUMERATORS)


def raise_sites(path: Path):
    """(top-level function, exception) for every raise of a named
    exception (a class or a call of it, by bare name or by attribute) in
    the file; a bare re-raise names none."""
    def raised(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return None
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _bare_or_attribute(exc)

    return _owned(path, raised)


def imported_modules(path: Path):
    """The top-level name of every module the file imports, at any depth:
    `import a.b` and `from a.b import c` give "a"; a relative import gives
    none."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_production_enumerates_only_where_the_allowlist_says():
    seen = set()
    for module in sorted(MODULES - {"verify"}):
        for owner, name in enumerator_calls(PACKAGE / f"{module}.py"):
            seen.add((module, owner))
            assert name in ENUMERATING.get((module, owner), set()), (module, owner, name)
    # every entry is still a caller: a stale entry would allow a new one
    assert seen == set(ENUMERATING)
    assert enumerator_calls(PACKAGE / "verify.py")


def test_enumerator_calls_are_found_by_name_and_attribute(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import qzforms\n"
        "def f(w):\n"
        "    def g():\n"
        "        return qzforms.iter_isotropic_bases(w, 4)\n"
        "    return list(enumerate_subgroups(w.group)), g\n"
        "class C:\n"
        "    def m(self):\n"
        "        return _iter_bases_general((2,))\n"
        "iter_subgroup_bases(None)\n"
    )
    assert sorted(enumerator_calls(src), key=str) == sorted([
        ("f", "enumerate_subgroups"), ("f", "iter_isotropic_bases"),
        ("C.m", "_iter_bases_general"), (None, "iter_subgroup_bases"),
    ], key=str)


def test_enumeration_bound_is_raised_only_by_the_non_split_pass():
    # max_isotropic's non-split pass is the one production enumeration whose
    # output does not bound its work; every other command is bounded by what
    # it prints
    seen = set()
    for module in sorted(MODULES):
        for owner, name in raise_sites(PACKAGE / f"{module}.py"):
            seen.add((module, owner, name))
    assert {(m, o) for m, o, name in seen if name == "EnumerationBoundError"} == {
        ("qzforms", "max_isotropic")}
    # the walk sees the other refusals too
    assert ("cli", "_cmd_pgl", "OutputBoundError") in seen


def test_raise_sites_are_found_by_name_and_attribute(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import errors\n"
        "def f(n):\n"
        "    def g():\n"
        "        raise errors.EnumerationBoundError(n, 1)\n"
        "    try:\n"
        "        return g\n"
        "    except KeyError:\n"
        "        raise\n"
        "class C:\n"
        "    def m(self):\n"
        "        raise InputError('x') from None\n"
        "raise StopIteration\n"
    )
    assert sorted(raise_sites(src), key=str) == sorted([
        ("f", "EnumerationBoundError"), ("C.m", "InputError"), (None, "StopIteration"),
    ], key=str)


def test_no_module_imports_os():
    # an environment variable or a path the package picks itself would make
    # the same arguments print different bytes on different machines
    for path in sorted(PACKAGE.glob("*.py")):
        assert "os" not in imported_modules(path), path.name
    # the walk sees the imports the package does make
    assert {"argparse", "json", "sys"} <= imported_modules(PACKAGE / "cli.py")


def test_only_cli_run_touches_the_int_to_str_limit():
    # errors.MAX_INT_DIGITS is the one digit bound: cli.run holds the
    # interpreter's limit to it for the call, and nothing else reads or
    # sets the limit, so no interpreter setting moves a bound or a byte
    limit_calls = {"get_int_max_str_digits", "set_int_max_str_digits"}
    seen = {(path.stem, owner, name) for path in sorted(PACKAGE.glob("*.py"))
            for owner, name in calls_of(path, limit_calls)}
    assert seen == {("cli", "run", name) for name in limit_calls}


def test_imported_modules_are_found_in_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import json, os.path as osp\n"
        "from . import finabel\n"
        "from .errors import InputError\n"
        "from importlib.resources import files\n"
        "def f():\n"
        "    from os import environ\n"
        "    return environ\n"
    )
    assert imported_modules(src) == {"json", "os", "importlib"}


# What a fresh interpreter holds of the package after `import
# splitbound.cli` and one run(argv): the command's own layers and the ones
# they import, nothing else, and no argparse.
LOADED_BY_CLI = {"splitbound", "splitbound.cli", "splitbound.errors"}
FORM_2_2 = '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}'
COMMAND_LAYERS = [
    (None, set()),
    (["tables", "divisors"], {"liedata"}),
    (["tables", "check", "--type", "E8", "--p", "2", "--d", "1"], {"liedata", "finabel"}),
    (["group", "subgroups", "2,2"], {"finabel"}),
    (["form", "max-isotropic", "--form", FORM_2_2], {"finabel", "qzforms"}),
    (["pgl", "depth", "--group", "2,2"], {"finabel", "qzforms", "heisenberg"}),
    (["f2", "count", "--form", '{"dim": 2, "rows": ["0x3", "0x2"]}'], {"f2quad"}),
    (["obstruct", "--mode", "thm13", "--r", "2"], {"finabel", "qzforms", "obstruction"}),
    (["verify", "all", "--seed", "1"], MODULES - {"cli", "errors"}),  # all nine
]
_LOAD_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import splitbound.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = splitbound.cli.run(argv)
        except SystemExit as exc:  # help
            code = exc.code
        assert code == 0, argv
print(json.dumps([m for m in sys.modules if m.partition(".")[0] in ("splitbound", "argparse")]))
"""


def loaded_modules(argv):
    """The splitbound modules, and argparse if loaded, that a fresh
    interpreter holds after importing splitbound.cli and, unless argv is
    None, running that argv."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _LOAD_PROBE, json.dumps(argv)],
                          capture_output=True, env=env, timeout=120, check=True)
    return set(json.loads(done.stdout))


def test_each_command_loads_only_its_layers():
    for argv, layers in COMMAND_LAYERS:
        want = LOADED_BY_CLI | {f"splitbound.{m}" for m in layers}
        assert loaded_modules(argv) == want, argv
    # a plain argv is read off the grammar: argparse is loaded for help alone
    assert loaded_modules(["tables", "--help"]) == LOADED_BY_CLI | {"argparse"}


def test_package_names_are_read_from_their_modules():
    import splitbound

    for name in splitbound.__all__:
        value = getattr(splitbound, name)
        assert value.__module__.startswith("splitbound."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        splitbound.no_such_name
