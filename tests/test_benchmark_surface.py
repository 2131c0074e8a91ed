"""The package names the benchmark under ``perfbench/`` relies on.

The benchmark wraps package functions by module attribute and reads
trace fields and return shapes directly, so a deleted or renamed name
turns its runs into failed ops.  This is the fast guard in the default
suite; ``perfbench/test_perfbench.py`` runs the full passes.
"""

import sys
from pathlib import Path

import pytest

import anderson_pi as ap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_traced_diagnostics_run_records_no_error(perfbench):
    tracing, workloads = perfbench
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.95)
    out = workloads.PassOutput([])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        workloads._diag_run(out, 0, mdp, 0.5)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS] == originals
    assert tracer.calls("solver.run") == 1
    assert out.errors == []
    assert [(r.error, r.converged) for r in out.runs] == [("", True)]
    assert out.trace_matrix_bytes == 0
