"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing the stated exactness and runtime budget."""

import io
import json
import time
from contextlib import redirect_stdout

from splitbound import verify
from splitbound.cli import run as cli_run
from splitbound.finabel import make_group
from splitbound.heisenberg import depth, phi_image
from splitbound.obstruction import (
    ObstructionQuery,
    comparison_bound,
    f_bound,
    min_splitting_exponent,
    partition_feasible,
    splitting_order_bound,
)
from splitbound.qzforms import standard_module


def _report(number: int, label: str, budget: float, elapsed: float, ok: bool):
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {word} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, label
    assert elapsed < budget, f"{label} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _run_checks(checks):
    return all(c.passed for c in checks), sum(c.count for c in checks)


def test_criterion_1_f2_census():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(["f2", "census", "--lemma", "quad"])
    ok = code == 0 and buf.getvalue() == '{"counts": [56, 64, 72]}\n'
    checks = [c for c in verify.suite_ec8(seed=0)
              if c.name in ("ec8.quad-census", "ec8.fold-vs-brute", "ec8.dim7-quantifier")]
    ok = ok and all(c.passed for c in checks)
    _report(1, "F2 census and count recursion", 5.0, time.perf_counter() - t0, ok)


def test_criterion_2_e8_ec8_constants():
    t0 = time.perf_counter()
    checks = [c for c in verify.suite_ec8(seed=0)
              if c.name in ("ec8.torus-census", "ec8.model-counts", "ec8.hyperplane-census")]
    from splitbound.f2quad import e8_torus_census, ec8_model
    model = ec8_model()
    ok = (
        all(c.passed for c in checks)
        and e8_torus_census() == (120, 135)
        and len(model.type_a) == 56
        and model.type_b_count == 199
    )
    _report(2, "E8 torus and EC8 model constants", 1.0, time.perf_counter() - t0, ok)


def test_criterion_3_isometry_oracle():
    t0 = time.perf_counter()
    ok, _count = _run_checks(verify.suite_isometry(seed=0))
    _report(3, "phi isometry and braiding", 10.0, time.perf_counter() - t0, ok)


def test_criterion_4_depth():
    t0 = time.perf_counter()
    cases = [([2], 1), ([4], 2), ([2, 2], 2), ([8], 3), ([2, 4], 3), ([9], 2), ([3, 3], 2)]
    ok = all(depth(phi_image(make_group(inv))) == want for inv, want in cases)
    _report(4, "depth of phi(A x A*)", 30.0, time.perf_counter() - t0, ok)


def test_criterion_5_lagrangian_self_duality():
    t0 = time.perf_counter()
    ok, _count = _run_checks(verify.suite_lagrangian())
    _report(5, "Lagrangian self-duality to order 256", 60.0, time.perf_counter() - t0, ok)


def test_criterion_6_obstruction_formulas():
    t0 = time.perf_counter()
    ok = splitting_order_bound(ObstructionQuery(2, 3, 0)) == 16
    el6 = standard_module(make_group([2, 2, 2]))
    cy8 = standard_module(make_group([8]))
    ok = ok and comparison_bound(el6, cy8, 0) == 2 ** 4
    for p in (2, 3):
        for r in range(1, 13):
            for e in range(0, 3):
                q = ObstructionQuery(p, r, e)
                total, wit = min_splitting_exponent(q)
                ok = ok and total >= f_bound(r, e) and partition_feasible(q, wit)
    total, wit = min_splitting_exponent(ObstructionQuery(2, 3, 0))
    ok = ok and total == 4 == f_bound(3) and wit.exponents == (2, 1, 1)
    _report(6, "obstruction bounds and partition search", 30.0, time.perf_counter() - t0, ok)


def test_criterion_7_subgroup_quotient_duality():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for inv in verify.iter_abelian_types(256):
        subs, quots = verify.subquot_profile(tuple(inv))
        if subs != quots:
            ok = False
            break
        count += 1
    ok = ok and count == 516
    _report(7, "subgroup/quotient multiset duality to 256", 60.0, time.perf_counter() - t0, ok)


def test_criterion_8_tuple_reduction():
    t0 = time.perf_counter()
    checks = verify.suite_tuple_reduction(seed=0)
    ok = all(c.passed for c in checks) and sum(c.count for c in checks) == 10000
    _report(8, "tuple reduction fuzz x 10000", 30.0, time.perf_counter() - t0, ok)


def test_criterion_9_tables():
    t0 = time.perf_counter()
    ok, _count = _run_checks(verify.suite_tables())
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(["tables", "tits", "--type", "E8"])
    ok = ok and code == 0 and json.loads(buf.getvalue())["n"] == 17280
    _report(9, "reference tables and divisors", 1.0, time.perf_counter() - t0, ok)
