"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 19, 20, 50, 99, 100, 144, 420, 1000, 3367])
def test_tail_rule_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    pct, value, beyond = run.tail_percentile(samples)
    assert beyond >= 10
    assert value == samples[n - 1 - beyond]
    # the next whole percentile would leave fewer than ten samples beyond
    rank_next = -(-(pct + 1) * n // 100)
    assert n - rank_next < 10


def test_tail_rule_small_and_known_cases():
    assert run.tail_percentile(range(20)) == (50, 9, 10)
    assert run.tail_percentile(range(144)) == (93, 133, 10)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)
    with pytest.raises(ValueError):
        run.tail_percentile([])


def test_tail_rule_ignores_sample_order():
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 11.0, 10.0]
    assert run.tail_percentile(xs) == run.tail_percentile(sorted(xs))


# -- speed probe ---------------------------------------------------------------

def _probe(samples) -> speed.SpeedProbe:
    probe = speed.SpeedProbe()
    probe.samples = list(samples)
    probe._starts = [a for a, _b in probe.samples]
    return probe


def test_reference_seconds_follow_the_machine_speed():
    nominal = speed.REF_NOMINAL_S
    at_nominal = _probe([(t, t + nominal) for t in (0.0, 1.0, 2.0)])
    half_speed = _probe([(t, t + 2 * nominal) for t in (0.0, 1.0, 2.0)])
    # same interval: a machine at half speed needed twice the wall time
    assert at_nominal.reference_seconds(0.5, 0.9) == pytest.approx(0.4)
    assert half_speed.reference_seconds(0.5, 0.9) == pytest.approx(0.2)


def test_probe_time_is_not_counted():
    probe = _probe([(1.0, 1.001), (1.05, 1.051), (2.0, 2.001)])
    assert probe.net(0.99, 1.06) == pytest.approx(0.07 - 0.002)
    assert probe.net(1.2, 1.3) == pytest.approx(0.1)


def test_probe_samples_while_started_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t_end = speed.perf_counter() + 0.3
        while speed.perf_counter() < t_end:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.reference_seconds(probe.samples[0][0], probe.samples[-1][1]) > 0


# -- seeded query lists --------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", ["enumerating", "direct"])
def test_other_seed_other_inputs_same_size(workload):
    a = workloads.build(workload, 1)
    b = workloads.build(workload, 2)
    assert a != b
    assert sorted(q.kind for q in a) == sorted(q.kind for q in b)


def test_enumerating_excludes_the_out_of_memory_group():
    heavy = "2,2,2,2,2,2,2,2,2,2,2,2"
    for seed in range(20):
        for q in workloads.build("enumerating", seed):
            assert heavy not in q.argv


# -- tracer ------------------------------------------------------------------

_SMALL = [
    Query("pgl.depth", ("pgl", "depth", "--group", "2,2"), key="2,2",
          params={"group": [2, 2]}),
    Query("f2.count", ("f2", "count", "--form", '{"dim":2,"rows":["0x2","0x0"]}'),
          key="f2", params={"dim": 2, "rows": [2, 0]}),
    Query("group.reduce", ("group", "reduce", "4", "--tuple", "(1);(3)"), key="4",
          params={"group": [4], "tuple": [[1], [3]]}),
]


def test_tracer_restores_every_binding(monkeypatch):
    import splitbound.cli  # noqa: F401
    from splitbound import finabel, qzforms

    before = tracing.snapshot_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qzforms.iter_subgroup_bases is not finabel.__dict__["_hnf"]
        assert hasattr(qzforms.iter_subgroup_bases, "__wrapped__")
        assert hasattr(finabel.Element.__init__, "__wrapped__")
        assert tracing.snapshot_bindings() != before
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert tracing.snapshot_bindings() == before


def test_traced_pass_counts_and_untraced_pass_is_clean(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda w, s: list(_SMALL))
    before = tracing.snapshot_bindings()
    traced = worker.run_pass("direct", 0, True)
    assert tracing.snapshot_bindings() == before
    layers = traced["layers"]
    assert layers["finabel.enum.bases"] > 0
    assert layers["f2quad.sweep.vectors"] == 4
    assert layers["finabel.reduce.ops"] > 0
    assert 0.9 < layers["bench.accounted_frac"] <= 1.0 + 1e-9
    plain = worker.run_pass("direct", 0, False)
    assert "layers" not in plain
    assert plain["digest"] == traced["digest"]
    assert not plain["failures"] and not traced["failures"]


def test_every_per_layer_name_is_produced(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda w, s: list(_SMALL))
    traced = worker.run_pass("direct", 0, True)
    plain = worker.run_pass("direct", 0, False)
    result, _detail = run.summarize_traced("direct", 0, plain, traced)
    assert set(result["metrics"]) == set(run.PER_LAYER_NAMES)


# -- failures ----------------------------------------------------------------

def test_wrong_answer_counts_in_failed_frac(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda w, s: list(_SMALL))
    real_run = worker.Pass.run

    def corrupt(self, query):
        rec = real_run(self, query)
        if query.kind == "pgl.depth":
            rec["stdout"] = json.dumps({"depth": 3}) + "\n"  # the right answer is 2
        return rec

    monkeypatch.setattr(worker.Pass, "run", corrupt)
    bad = worker.run_pass("direct", 0, False)
    assert len(bad["failures"]) == 1 and "depth" in bad["failures"][0]["error"]
    setup = [(0.1, True)]
    result, detail = run.summarize("direct", 0, [bad], setup)
    assert result["failed"] == 1 and result["correct"] is False
    assert detail["failed_frac"] == pytest.approx(1 / (len(_SMALL) + 1))


def test_crashed_pass_counts_its_queries(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda w, s: list(_SMALL))
    good = worker.run_pass("direct", 0, False)
    result, _detail = run.summarize("direct", 0, [good, {"crash": "worker exit 1"}],
                                    [(0.1, True)])
    assert result["correct"] is False
    assert result["failed"] == len(_SMALL)


# -- oracles -------------------------------------------------------------------

def test_verify_oracle_flags_failed_missing_or_changed_checks():
    checker = oracles.Oracles(None)
    query = workloads.build("replay", 0)[0]
    good = [{"name": n, "passed": True, "count": c} for n, c in oracles.VERIFY_CHECKS.items()]

    def payload(checks, passed=True):
        return json.dumps({"suite": "all", "passed": passed, "checks": checks})

    assert checker.check(query, payload(good)) is None
    changed = [dict(c) for c in good]
    changed[0]["count"] += 1
    assert "count" in checker.check(query, payload(changed))
    assert "missing" in checker.check(query, payload(good[1:]))
    failed = [dict(c) for c in good]
    failed[3]["passed"] = False
    assert "failed" in checker.check(query, payload(failed, passed=False))


@pytest.mark.parametrize("inv, count", [
    ([2, 4], 8), ([4, 4], 15), ([2, 2, 4], 27), ([2, 8], 11), ([3, 9], 10),
    ([2] * 7, 29212), ([2] * 8, 417199), ([6], 4), ([2, 6], 10),
])
def test_birkhoff_count_matches_known_counts(inv, count):
    assert oracles.subgroup_count(inv) == count


def test_embeds_by_partition():
    assert oracles.embeds_by_partition([4, 4], [2, 4, 8])
    assert not oracles.embeds_by_partition([8], [4, 4, 4])
    assert not oracles.embeds_by_partition([2, 2, 2], [4, 4])
    assert oracles.embeds_by_partition([3], [6])


# -- benchmark description -------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_NAMES)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert len(set(run.PER_LAYER_NAMES)) == len(run.PER_LAYER_NAMES) <= 128
