"""Span and counter recorder for the traced benchmark run.

The tracer wraps the calls that cross module boundaries from outside the
program: it replaces a function or method by a wrapper that opens a span,
and it replaces the name in *every* ``splitbound`` module namespace that
holds the same object, because ``from .finabel import x`` gives each
importing module its own binding.  ``uninstall`` puts every original back.

A span's self time is its duration minus the time of the spans it caused;
spans are aggregated per name in memory.  The layer of a span is the part
of its name before the first dot, which is the module name.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("finabel", "qzforms", "heisenberg", "f2quad", "obstruction", "liedata",
          "cli", "verify")

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("finabel", "_hnf", "finabel.hnf"),
    ("finabel", "_snf_with_transforms", "finabel.snf"),
    ("finabel", "_cokernel_invariants", "finabel.cokernel"),
    ("finabel", "_relation_matrix", "finabel.relation_matrix"),
    ("finabel", "_canonical_chain", "finabel.chain"),
    ("finabel", "Subgroup.sub_invariants", "finabel.sub_invariants"),
    ("finabel", "subgroup_from_generators", "finabel.span"),
    ("finabel", "quotient", "finabel.quotient"),
    ("finabel", "enumerate_subgroups", "finabel.enumerate_subgroups"),
    ("finabel", "embeds_into", "finabel.embeds_into"),
    ("finabel", "replay_ops", "finabel.replay_ops"),
    ("qzforms", "standard_module", "qzforms.standard_module"),
    ("qzforms", "radical", "qzforms.radical"),
    ("qzforms", "restrict", "qzforms.restrict"),
    ("qzforms", "is_isotropic", "qzforms.is_isotropic"),
    ("qzforms", "is_lagrangian", "qzforms.is_lagrangian"),
    ("qzforms", "max_isotropic", "qzforms.max_isotropic"),
    ("qzforms", "quotient_by_lagrangian", "qzforms.quotient_by_lagrangian"),
    ("qzforms", "_subgroup_quotient_type", "qzforms.quotient_type"),
    ("qzforms", "_Workspace.__init__", "qzforms.workspace"),
    ("heisenberg", "phi_image", "heisenberg.phi_image"),
    ("heisenberg", "_peel_basis", "heisenberg.peel"),
    ("heisenberg", "alpha_form", "heisenberg.alpha_form"),
    ("heisenberg", "is_toral", "heisenberg.is_toral"),
    ("heisenberg", "depth", "heisenberg.depth"),
    ("heisenberg", "PglSubgroup.abstract", "heisenberg.abstract"),
    ("f2quad", "decompose", "f2quad.decompose"),
    ("f2quad", "count_by_recursion", "f2quad.count_by_recursion"),
    ("f2quad", "radical_basis", "f2quad.radical_basis"),
    ("f2quad", "census_dim7_radical1_by_class", "f2quad.census"),
    ("f2quad", "e8_torus_census", "f2quad.e8_torus_census"),
    ("f2quad", "ec8_model", "f2quad.ec8_model"),
    ("f2quad", "ec8_hyperplane_census", "f2quad.ec8_hyperplane_census"),
    ("obstruction", "min_splitting_exponent", "obstruction.partition"),
    ("obstruction", "splitting_group_isotropic_bound", "obstruction.isotropic_bound"),
    ("obstruction", "comparison_bound", "obstruction.comparison_bound"),
    ("obstruction", "splitting_order_bound", "obstruction.splitting_order_bound"),
    ("obstruction", "f_bound", "obstruction.f_bound"),
    ("obstruction", "partition_feasible", "obstruction.partition_feasible"),
    ("liedata", "torsion_primes", "liedata.lookup"),
    ("liedata", "tits_n", "liedata.lookup"),
    ("liedata", "depth_consistency", "liedata.lookup"),
    ("liedata", "quadform_split_exponents", "liedata.lookup"),
    ("liedata", "fixed_divisors", "liedata.lookup"),
    ("liedata", "e8_candidates", "liedata.lookup"),
    ("liedata", "table_rows", "liedata.lookup"),
    ("cli", "_emit", "cli.emit"),
    ("verify", "suite_isometry", "verify.suite"),
    ("verify", "suite_lagrangian", "verify.suite"),
    ("verify", "suite_ec8", "verify.suite"),
    ("verify", "suite_partitions", "verify.suite"),
    ("verify", "suite_depth", "verify.suite"),
    ("verify", "suite_tuple_reduction", "verify.suite"),
    ("verify", "suite_subquot", "verify.suite"),
    ("verify", "suite_tables", "verify.suite"),
    ("verify", "subquot_profile", "verify.subquot_profile"),
)


class Tracer:
    """Installs span wrappers, aggregates self time and counters, and
    removes every wrapper again."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.enum_types: list[tuple] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.query_kind = ""
        self.kind_self_s: defaultdict[tuple[str, str], float] = defaultdict(float)

    # -- recording ----------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float], dt: float) -> None:
        self._stack.pop()
        own = dt - frame[0]
        self.self_s[name] += own
        self.kind_self_s[(self.query_kind, name)] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += dt

    def span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, perf_counter() - t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def measure(self, name: str, fn, *args, **kwargs):
        """Run fn as a root span (used for the query calls themselves)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every splitbound module attribute that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "splitbound" or modname.startswith("splitbound.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import splitbound.cli  # noqa: F401  (loads every module)
        mods = {name: sys.modules[f"splitbound.{name}"] for name in LAYERS}
        for modname, attr, name in SPANS:
            mod = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                if isinstance(orig, property):
                    self._set(cls, meth, property(self.span(name, orig.fget)))
                else:
                    self._set(cls, meth, self.span(name, orig))
            else:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self.span(name, orig))
        self._install_special(mods)

    def _install_special(self, mods) -> None:
        finabel, qzforms, heisenberg, f2quad, cli = (
            mods["finabel"], mods["qzforms"], mods["heisenberg"], mods["f2quad"], mods["cli"])
        tracer = self

        # subgroup enumeration: a generator, so time every step of it
        orig_iter = finabel.iter_subgroup_bases
        from splitbound.errors import EnumerationBoundError

        def iter_subgroup_bases(a, limit=None):
            inv = a.invariants
            tracer.counts["finabel.enum.calls"] += 1
            if inv in finabel._BASIS_CACHE:
                tracer.counts["finabel.basis_cache.hits"] += 1
            else:
                tracer.counts["finabel.basis_cache.misses"] += 1
            tracer.enum_types.append(inv)
            it = orig_iter(a, limit)
            while True:
                frame = tracer._enter()
                t0 = perf_counter()
                try:
                    basis = next(it)
                except StopIteration:
                    return
                except EnumerationBoundError:
                    tracer.counts["finabel.enum.refused"] += 1
                    raise
                finally:
                    tracer._exit("finabel.enum", frame, perf_counter() - t0)
                tracer.counts["finabel.enum.bases"] += 1
                yield basis

        iter_subgroup_bases.__wrapped__ = orig_iter
        self._replace_everywhere(orig_iter, iter_subgroup_bases)

        # isotropy tests: span plus hit counting
        orig_iso = qzforms._isotropic_basis
        iso_span = self.span("qzforms.isotropy", orig_iso)

        def isotropic_basis(w, basis):
            hit = iso_span(w, basis)
            tracer.counts["qzforms.isotropy.tests"] += 1
            if hit:
                tracer.counts["qzforms.isotropy.hits"] += 1
            return hit

        isotropic_basis.__wrapped__ = orig_iso
        self._replace_everywhere(orig_iso, isotropic_basis)

        # isotropic transfer: memo hits show as an unchanged memo size
        orig_transfer = qzforms.isotropic_transfer
        transfer_span = self.span("qzforms.transfer", orig_transfer)

        def isotropic_transfer(w, h1, iso, limit=None, search_min=False):
            ws = w._ws
            before = None if ws is None else len(ws.transfer_memo)
            result = transfer_span(w, h1, iso, limit, search_min)
            if before is not None and len(w._ws.transfer_memo) == before:
                tracer.counts["qzforms.transfer.memo_hits"] += 1
            return result

        isotropic_transfer.__wrapped__ = orig_transfer
        self._replace_everywhere(orig_transfer, isotropic_transfer)

        # tuple reduction: span plus op-log length
        orig_reduce = finabel.reduce_tuple
        reduce_span = self.span("finabel.reduce", orig_reduce)

        def reduce_tuple(a, xi):
            log, reduced = reduce_span(a, xi)
            tracer.counts["finabel.reduce.ops"] += len(log)
            return log, reduced

        reduce_tuple.__wrapped__ = orig_reduce
        self._replace_everywhere(orig_reduce, reduce_tuple)

        # Gray sweep: span plus vectors swept
        orig_sweep = f2quad.count_anisotropic
        sweep_span = self.span("f2quad.sweep", orig_sweep)

        def count_anisotropic(q):
            result = sweep_span(q)
            tracer.counts["f2quad.sweep.vectors"] += 1 << q.dim
            return result

        count_anisotropic.__wrapped__ = orig_sweep
        self._replace_everywhere(orig_sweep, count_anisotropic)

        # PGL closure: span plus elements produced by a fresh closure
        pgl = heisenberg.PglSubgroup
        orig_elements = vars(pgl)["elements"]
        elements_span = self.span("heisenberg.closure", orig_elements)

        def elements(sub):
            fresh = sub._elements is None
            result = elements_span(sub)
            if fresh:
                tracer.counts["heisenberg.closure.elements"] += len(result)
            return result

        elements.__wrapped__ = orig_elements
        self._set(pgl, "elements", elements)

        # pure counters on hot constructors and products
        self._count_method(finabel.Element, "__init__", "finabel.elements_built")
        self._count_method(heisenberg.MonomialMatrix, "__mul__", "heisenberg.matmul.count")

        # argument parsing: build_parser and the parse_args of its result
        orig_build = cli.build_parser
        build_span = self.span("cli.parse", orig_build)

        def build_parser():
            parser = build_span()
            parser.parse_args = tracer.span("cli.parse", parser.parse_args)
            return parser

        build_parser.__wrapped__ = orig_build
        self._replace_everywhere(orig_build, build_parser)

    def _count_method(self, cls, meth: str, counter: str) -> None:
        orig = vars(cls)[meth]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        self._set(cls, meth, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- summaries ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def kind_share(self, kind: str, names) -> float:
        """Share of the self time of queries of `kind` spent in `names`."""
        total = sum(s for (k, _n), s in self.kind_self_s.items() if k == kind)
        part = sum(self.kind_self_s.get((kind, n), 0.0) for n in names)
        return part / total if total else 0.0


def snapshot_bindings() -> dict[tuple[str, str], int]:
    """id() of every attribute of the splitbound modules and of the classes
    the tracer patches; equal snapshots mean no wrapper is left behind."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "splitbound" or modname.startswith("splitbound.")):
            continue
        for attr, value in vars(mod).items():
            out[(modname, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    out[(f"{modname}.{attr}", cattr)] = id(cvalue)
    return out
