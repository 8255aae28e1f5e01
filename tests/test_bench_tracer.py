"""The traced benchmark run (perfbench/tracing.py) patches names of the
program by string; this test fails when one of them is renamed or deleted,
or when the tracer leaves a wrapper behind."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import splitbound.verify  # noqa: F401  (loads every layer the tracer wraps)
from splitbound import qzforms
from splitbound.cli import run
from splitbound.finabel import full_subgroup, make_group, trivial_subgroup

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)

FORM = '{"group": [2, 2], "gram": [["0/1", "1/2"], ["1/2", "0/1"]]}'


def invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def test_tracer_installs_counts_and_restores_every_binding():
    w = qzforms.standard_module(make_group([2]))
    full, triv = full_subgroup(w.group), trivial_subgroup(w.group)
    before = tracing.snapshot_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (
            ["group", "subgroups", "2,2", "--list"],
            ["group", "embeds", "2", "--into", "2,4"],
            ["form", "max-isotropic", "--form", FORM],
        ):
            code, out = invoke(argv)
            assert code == 0, out
        # the transfer builds no workspace and keeps no memo
        for _ in range(2):
            qzforms.isotropic_transfer(w, full, triv, search_min=True)
    finally:
        tracer.uninstall()
    assert tracing.snapshot_bindings() == before
    assert tracer.counts["finabel.enum.calls"] > 0
    assert tracer.counts["finabel.basis_cache.hits"] == 0
    assert tracer.calls["qzforms.workspace"] == 0
    assert tracer.calls["qzforms.transfer"] == 2
    assert tracer.counts["qzforms.transfer.memo_hits"] == 0
    assert tracer.calls["finabel.embeds_into"] > 0


def test_tracer_installs_over_the_pgl_queries():
    # the Smith form the tracer wraps as "finabel.snf" returns (diag, Uinv),
    # and heisenberg keeps no index table: the PGL queries run traced
    before = tracing.snapshot_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out = invoke(["pgl", "depth", "--group", "2,4"])
        assert code == 0, out
        code, out = invoke(["pgl", "alpha", "--group", "2,4",
                            "--elements", "(1,0|0,1);(0,1|1,2)"])
        assert code == 0, out
        assert tracer.calls["finabel.snf"] > 0
        code, out = invoke(["pgl", "element", "--group", "2,4", "--a", "(1,1)", "--chi", "(0,1)"])
        assert code == 0, out
    finally:
        tracer.uninstall()
    assert tracing.snapshot_bindings() == before
