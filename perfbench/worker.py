"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Builds the seeded query list, sends the queries one at a time (closed
loop, one client) through ``splitbound.cli.run`` with stdout captured,
then checks every output with the oracles and prints one JSON object:
latencies, the sha256 of the query outputs, failures, the loop's wall
time, the process's peak RSS, sharing figures and, with ``--trace``, the
per-layer figures of the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

_CHECK_MS = re.compile(r"^# (.+): ([0-9.]+) ms$")


class Pass:
    """State of one pass: the library handles and the transfer modules."""

    def __init__(self, tracer: Tracer | None):
        import splitbound
        from splitbound import cli, finabel, qzforms, verify

        self.lib = splitbound
        self.cli = cli
        self.finabel = finabel
        self.qzforms = qzforms
        self.verify = verify
        self.tracer = tracer
        self.modules: dict[tuple, object] = {}

    def _subgroup_obj(self, s) -> dict:
        return {"order": s.order, "invariants": list(s.sub_invariants),
                "basis": [list(r) for r in s.basis]}

    def _transfer(self, params) -> str:
        key = tuple(params["a"])
        w = self.modules.get(key)
        if w is None:
            w = self.modules[key] = self.qzforms.standard_module(self.finabel.make_group(key))
        g = w.group
        h1 = self.finabel.subgroup_from_generators(g, [g.element(c) for c in params["h1"]])
        iso = self.finabel.subgroup_from_generators(g, [g.element(c) for c in params["iso"]])
        i1, wit = self.qzforms.isotropic_transfer(w, h1, iso, None, params["search_min"])
        obj = {
            "i1": self._subgroup_obj(i1),
            "i_max": self._subgroup_obj(wit.i_max),
            "lagrangian": self._subgroup_obj(wit.lagrangian),
            "image_type": list(wit.image_type),
            "min_order": wit.min_order,
        }
        return json.dumps(obj, sort_keys=True) + "\n"

    def run(self, query) -> dict:
        """Send one query; returns its exit code, outputs and latency."""
        out, err = io.StringIO(), io.StringIO()
        rc, tb = 0, None
        if self.tracer is not None:
            self.tracer.query_kind = query_class(query)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                if query.kind == "qzforms.isotropic_transfer":
                    out.write(self._transfer(query.params))
                elif self.tracer is not None:
                    rc = self.tracer.measure("cli.run", self.cli.run, list(query.argv))
                else:
                    rc = self.cli.run(list(query.argv))
            except SystemExit as ex:
                rc = ex.code if isinstance(ex.code, int) else 1
            except Exception:  # a traceback is a failed query, not a crash
                rc, tb = 1, traceback.format_exc()
            t1 = perf_counter()
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "traceback": tb, "t0": t0, "t1": t1}


def query_class(query) -> str:
    """Tracing label of a query: its kind, with depth queries on (Z/2)^r,
    r >= 3 (the depth(phi_image(2,2,2,2)) class) set apart."""
    if query.kind == "pgl.depth":
        inv = query.params["group"]
        if len(inv) >= 3 and set(inv) == {2}:
            return "pgl.depth.2elem"
    return query.kind


def _failure(query, message: str) -> dict:
    return {"kind": query.kind, "argv": list(query.argv)[:6], "error": message[:300]}


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run the query list once.  An untraced pass times itself in
    reference seconds (see speed.py); a traced pass in plain seconds."""
    queries = workloads.build(workload, seed)
    tracer = Tracer() if trace else None
    probe = None if trace else SpeedProbe()
    state = Pass(tracer)
    records = []
    if tracer is not None:
        tracer.install()
    else:
        probe.start()
    try:
        t0 = perf_counter()
        for q in queries:
            records.append(state.run(q))
        raw_loop_s = perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            probe.stop()

    digest = hashlib.sha256()
    for rec in records:
        data = rec["stdout"].encode()
        digest.update(b"%d:" % len(data))
        digest.update(data)

    def seconds(a: float, b: float) -> float:
        return b - a if probe is None else probe.reference_seconds(a, b)

    checker = oracles.Oracles(state.lib)
    failures, latencies, attempted = [], [], 0
    for q, rec in zip(queries, records):
        attempted += 1
        latencies.append(seconds(rec["t0"], rec["t1"]) * 1000.0)
        if rec["traceback"]:
            failures.append(_failure(q, rec["traceback"].strip().splitlines()[-1]))
        elif rec["rc"] != 0:
            failures.append(_failure(q, f"exit {rec['rc']}: {rec['stdout'][:200]}"))
        else:
            try:
                msg = checker.check(q, rec["stdout"])
            except Exception:
                msg = "oracle raised " + traceback.format_exc().strip().splitlines()[-1]
            if msg:
                failures.append(_failure(q, msg))

    seen, repeats = set(), 0
    for q in queries:
        repeats += q.key in seen
        seen.add(q.key)
    info = state.verify.subquot_profile.cache_info()
    result = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "queries": len(queries),
        "attempted": attempted,
        "failures": failures,
        "latencies_ms": latencies,
        "loop_s": sum(seconds(r["t0"], r["t1"]) for r in records),
        "net_loop_s": sum(r["t1"] - r["t0"] if probe is None else probe.net(r["t0"], r["t1"])
                          for r in records),
        "ref_median_s": None if probe is None else probe.median_sample_s(),
        "rss_kb": rss_kb,
        "digest": digest.hexdigest(),
        "sharing": {
            "query_repeat_frac": repeats / len(queries),
            "subquot_hits": info.hits,
            "subquot_misses": info.misses,
        },
    }
    if tracer is not None:
        result["layers"] = _layer_figures(tracer, queries, records, raw_loop_s, state)
    return result


def _verify_checks(rec) -> tuple[list[dict], list[float]]:
    try:
        checks = json.loads(rec["stdout"])["checks"]
    except (json.JSONDecodeError, KeyError, TypeError):
        checks = []
    ms = []
    for line in rec["stderr"].splitlines():
        m = _CHECK_MS.match(line)
        if m:
            ms.append(float(m.group(2)))
    return checks, ms


def _layer_figures(tracer: Tracer, queries, records, loop_s: float, state) -> dict:
    s, c, n = tracer.self_s, tracer.counts, tracer.calls
    out = {}

    def ratio(a, b):
        return a / b if b else 0.0

    out["finabel.enum.calls"] = c["finabel.enum.calls"]
    out["finabel.enum.bases"] = c["finabel.enum.bases"]
    out["finabel.enum.self_s"] = s["finabel.enum"]
    out["finabel.enum.bases_per_s"] = ratio(c["finabel.enum.bases"], s["finabel.enum"])
    out["finabel.enum.refused"] = c["finabel.enum.refused"]
    out["finabel.basis_cache.hits"] = c["finabel.basis_cache.hits"]
    out["finabel.basis_cache.misses"] = c["finabel.basis_cache.misses"]
    for op in ("hnf", "snf", "cokernel"):
        out[f"finabel.{op}.calls"] = n[f"finabel.{op}"]
        out[f"finabel.{op}.self_s"] = s[f"finabel.{op}"]
    out["finabel.reduce.ops"] = c["finabel.reduce.ops"]
    out["finabel.reduce.self_s"] = s["finabel.reduce"]
    out["finabel.elements_built"] = c["finabel.elements_built"]
    out["qzforms.max_isotropic.self_s"] = s["qzforms.max_isotropic"]
    out["qzforms.isotropy.tests"] = c["qzforms.isotropy.tests"]
    out["qzforms.isotropy.self_s"] = s["qzforms.isotropy"]
    out["qzforms.isotropy.hit_ratio"] = ratio(c["qzforms.isotropy.hits"],
                                              c["qzforms.isotropy.tests"])
    out["qzforms.radical.calls"] = n["qzforms.radical"]
    out["qzforms.radical.self_s"] = s["qzforms.radical"]
    out["qzforms.workspace.builds"] = n["qzforms.workspace"]
    out["qzforms.workspace.self_s"] = s["qzforms.workspace"]
    out["qzforms.transfer.calls"] = n["qzforms.transfer"]
    out["qzforms.transfer.self_s"] = s["qzforms.transfer"]
    out["qzforms.transfer.memo_hit_ratio"] = ratio(c["qzforms.transfer.memo_hits"],
                                                   n["qzforms.transfer"])
    out["heisenberg.phi_image.self_s"] = s["heisenberg.phi_image"]
    out["heisenberg.closure.elements"] = c["heisenberg.closure.elements"]
    out["heisenberg.closure.self_s"] = s["heisenberg.closure"]
    out["heisenberg.peel.self_s"] = s["heisenberg.peel"]
    out["heisenberg.alpha_form.self_s"] = s["heisenberg.alpha_form"]
    out["heisenberg.matmul.count"] = c["heisenberg.matmul.count"]
    out["f2quad.sweep.vectors"] = c["f2quad.sweep.vectors"]
    out["f2quad.sweep.self_s"] = s["f2quad.sweep"]
    out["f2quad.sweep.vectors_per_s"] = ratio(c["f2quad.sweep.vectors"], s["f2quad.sweep"])
    out["f2quad.decompose.self_s"] = s["f2quad.decompose"]
    out["obstruction.partition.calls"] = n["obstruction.partition"]
    out["obstruction.partition.self_s"] = s["obstruction.partition"]
    out["obstruction.isotropic_bound.self_s"] = s["obstruction.isotropic_bound"]
    out["liedata.self_s"] = s["liedata.lookup"]
    out["cli.parse.self_s"] = s["cli.parse"]
    out["cli.emit.self_s"] = s["cli.emit"]
    out["cli.run.self_s"] = s["cli.run"]
    layers = tracer.layer_self_s()
    for layer, val in layers.items():
        out[f"{layer}.self_s"] = val
    spans = sum(layers.values())
    out["bench.traced_wall_s"] = loop_s
    out["bench.glue_s"] = loop_s - spans
    out["bench.accounted_frac"] = ratio(spans, loop_s)

    # per-check figures of a verify run
    for name in oracles.VERIFY_CHECKS:
        out[f"verify.{name}.ms"] = 0.0
        out[f"verify.{name}.count"] = 0
    for q, rec in zip(queries, records):
        if q.kind == "verify.all":
            checks, ms = _verify_checks(rec)
            for chk, t in zip(checks, ms):
                out[f"verify.{chk['name']}.ms"] = t
                out[f"verify.{chk['name']}.count"] = chk["count"]

    types = tracer.enum_types
    out["share.enum_repeat_frac"] = ratio(len(types) - len(set(types)), len(types))
    out["query.depth_2elem.enum_isotropy_share"] = tracer.kind_share(
        "pgl.depth.2elem", ("finabel.enum", "qzforms.isotropy"))

    from splitbound import liedata
    t0 = perf_counter()
    liedata._load_tables()
    out["liedata.table_load_s"] = perf_counter() - t0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
