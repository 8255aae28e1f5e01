"""splitbound benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it measures the cold start (median of several spawns)
and then runs the workload's seeded query list in fresh worker processes,
one pass per process, as many passes as fit in about ``--seconds`` at the
nominal pass length.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer figures.  Every output is checked by
the oracles; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracles import VERIFY_CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Nominal seconds of one pass at the seed commit on a 2-core machine; the
# pass count depends only on --seconds, so both sides of a comparison do
# the same work.
NOMINAL_PASS_S = {"enumerating": 6.25, "direct": 2.5, "replay": 50.0}
MIN_PASSES = {"enumerating": 2, "direct": 2, "replay": 1}
SETUP_SPAWNS = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_NAMES = (
    "finabel.self_s", "finabel.enum.calls", "finabel.enum.bases", "finabel.enum.self_s",
    "finabel.enum.bases_per_s", "finabel.enum.refused", "finabel.basis_cache.hits",
    "finabel.basis_cache.misses", "finabel.hnf.calls", "finabel.hnf.self_s",
    "finabel.snf.calls", "finabel.snf.self_s", "finabel.cokernel.calls",
    "finabel.cokernel.self_s", "finabel.reduce.ops", "finabel.reduce.self_s",
    "finabel.elements_built",
    "qzforms.self_s", "qzforms.max_isotropic.self_s", "qzforms.isotropy.tests",
    "qzforms.isotropy.self_s", "qzforms.isotropy.hit_ratio", "qzforms.radical.calls",
    "qzforms.radical.self_s", "qzforms.workspace.builds", "qzforms.workspace.self_s",
    "qzforms.transfer.calls", "qzforms.transfer.self_s", "qzforms.transfer.memo_hit_ratio",
    "heisenberg.self_s", "heisenberg.phi_image.self_s", "heisenberg.closure.elements",
    "heisenberg.closure.self_s", "heisenberg.peel.self_s", "heisenberg.alpha_form.self_s",
    "heisenberg.matmul.count",
    "f2quad.self_s", "f2quad.sweep.vectors", "f2quad.sweep.self_s",
    "f2quad.sweep.vectors_per_s", "f2quad.decompose.self_s",
    "obstruction.self_s", "obstruction.partition.calls", "obstruction.partition.self_s",
    "obstruction.isotropic_bound.self_s",
    "liedata.self_s", "liedata.table_load_s",
    "cli.self_s", "cli.parse.self_s", "cli.emit.self_s", "cli.run.self_s",
    "verify.self_s",
) + tuple(f"verify.{n}.{s}" for n in VERIFY_CHECKS for s in ("ms", "count")) + (
    "bench.traced_wall_s", "bench.untraced_wall_s", "bench.trace_overhead", "bench.glue_s",
    "bench.accounted_frac",
    "share.query_repeat_frac", "share.enum_repeat_frac", "share.subquot_hits",
    "share.subquot_misses",
    "query.depth_2elem.enum_isotropy_share",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(("ratio", "frac", "share", "overhead")):
        return "ratio"
    return "count"


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it): the highest whole percentile
    whose nearest-rank value has at least `beyond` samples above its rank.
    With `beyond` samples or fewer there is none; the maximum is returned
    as percentile 100 with nothing beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100, xs[-1], 0
    pct = (100 * (n - beyond)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, xs[rank - 1], n - rank


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env.pop("SPLITBOUND_ENUM_LIMIT", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - perf_counter())


def cold_start(deadline: float) -> tuple[float | None, str]:
    """Seconds from spawn to the probe's result line, and that line."""
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py")]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready, _w, _x = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - t0
        rest, _err = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        line = rest = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line or rest:
        return None, line
    return elapsed, line


def run_worker(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh process; {"crash": reason} when it fails."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        return {"crash": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crash": f"worker exit {proc.returncode}: {tail[:300]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crash": "worker printed no result"}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _account(passes: list[dict]) -> tuple[list[dict], dict]:
    """(passes that finished, accounting): a crashed pass fails all of
    its queries; `correct` needs no failure and one output digest."""
    good = [p for p in passes if "crash" not in p]
    crashed = len(passes) - len(good)
    per_pass = good[0]["attempted"] if good else 1
    failures = [f for p in good for f in p["failures"]]
    digests = sorted({p["digest"] for p in good})
    acc = {
        "attempted": sum(p["attempted"] for p in good) + crashed * per_pass,
        "failed": len(failures) + crashed * per_pass,
        "failures": failures + [{"error": p["crash"]} for p in passes if "crash" in p],
        "digests": digests,
        "correct": bool(good) and not crashed and not failures and len(digests) == 1,
    }
    return good, acc


def _output(workload: str, seed: int, acc: dict, metrics: dict, extra: dict):
    detail = {"workload": workload, "seed": seed, "digests": acc["digests"],
              "failed_frac": acc["failed"] / max(1, acc["attempted"]),
              "failures": acc["failures"][:10], **extra}
    result = {"correct": acc["correct"], "attempted": max(1, acc["attempted"]),
              "failed": acc["failed"], "metrics": metrics}
    return result, detail


def summarize(workload: str, seed: int, passes: list[dict], setup: list) -> tuple[dict, dict]:
    """(result object, detail object) of an untraced run."""
    good, acc = _account(passes)
    setup_times = [t for t, ok in setup if ok]
    acc["attempted"] += len(setup)
    acc["failed"] += len(setup) - len(setup_times)
    # every pass sends the same queries: a query's latency is its median
    # over the passes, which keeps one slow moment of the machine out
    latencies = [statistics.median(xs) for xs in zip(*(p["latencies_ms"] for p in good))]
    acc["correct"] = (acc["correct"] and len(setup_times) == len(setup) > 0
                      and bool(latencies))
    metrics, extra = {}, {"passes": len(passes)}
    if latencies and setup_times:
        loops = [p["loop_s"] for p in good]
        pct, tail, beyond = tail_percentile(latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(loops),
            "throughput_qps": sum(p["attempted"] for p in good) / sum(loops),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in good) / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        extra.update(tail_percentile=pct, tail_samples=len(latencies), tail_beyond=beyond,
                     pass_wall_s=loops, pass_net_wall_s=[p["net_loop_s"] for p in good],
                     ref_median_s=[p["ref_median_s"] for p in good],
                     setup_samples_s=setup_times, sharing=good[0]["sharing"])
    return _output(workload, seed, acc, metrics, extra)


def summarize_traced(workload: str, seed: int, plain: dict, traced: dict) -> tuple[dict, dict]:
    """(result object, detail object) of a traced run: per-layer figures of
    the traced pass, overhead against the untraced one."""
    good, acc = _account([plain, traced])
    metrics = {}
    if len(good) == 2:
        layers = dict(traced["layers"])
        layers["bench.untraced_wall_s"] = plain["net_loop_s"]
        layers["bench.trace_overhead"] = traced["net_loop_s"] / plain["net_loop_s"]
        layers["share.query_repeat_frac"] = traced["sharing"]["query_repeat_frac"]
        layers["share.subquot_hits"] = traced["sharing"]["subquot_hits"]
        layers["share.subquot_misses"] = traced["sharing"]["subquot_misses"]
        metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                   for name in PER_LAYER_NAMES}
    acc["correct"] = acc["correct"] and len(good) == 2
    return _output(workload, seed, acc, metrics, {"traced": True})


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="splitbound benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "splitbound", "cli.py")):
        sys.stderr.write("run.py: no src/splitbound here; run it from a checkout root\n")
        return 2
    deadline = perf_counter() + TIME_LIMIT_S

    if args.trace:
        plain = run_worker(args.workload, args.seed, False, deadline)
        traced = run_worker(args.workload, args.seed, True, deadline)
        result, detail = summarize_traced(args.workload, args.seed, plain, traced)
    else:
        expected = json.dumps({"E7_splitting": 12, "E8_splitting": 60}, sort_keys=True)
        cold_start(deadline)  # warm-up: byte-compiles the package once
        setup = []
        for _ in range(SETUP_SPAWNS):
            t, line = cold_start(deadline)
            setup.append((t, t is not None and line.strip() == expected))
        passes, longest = [], 0.0
        for _ in range(pass_count(args.workload, args.seconds)):
            if passes and perf_counter() + 1.5 * longest > deadline:
                break  # a much slower program still answers within the time limit
            t0 = perf_counter()
            passes.append(run_worker(args.workload, args.seed, False, deadline))
            longest = max(longest, perf_counter() - t0)
        result, detail = summarize(args.workload, args.seed, passes, setup)
    sys.stdout.write(json.dumps({"detail": detail}, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
