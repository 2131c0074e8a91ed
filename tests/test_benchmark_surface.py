"""The package names the benchmark under ``perfbench/`` relies on.

The benchmark wraps package functions by module attribute and reads
trace fields and return shapes directly, so a deleted or renamed name
turns its runs into failed ops.  This is the fast guard in the default
suite; ``perfbench/test_perfbench.py`` runs the full passes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi import anderson

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


def test_every_exported_name_resolves():
    # a deleted function must not leave a stale export behind
    assert [name for name in ap.__all__ if not hasattr(ap, name)] == []


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


def test_traced_ensemble_pass_records_no_error(perfbench, tmp_path):
    # an array reaching a tracer counter would raise inside the traced call
    tracing, workloads = perfbench
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    mdps = workloads._ensemble_generate(0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        out = workloads._ensemble_pass(0, mdps, tmp_path)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS] == originals
    assert tracer.calls("solver.run_ensemble") == 1
    assert out.errors == []
    assert len(out.runs) == len(workloads.ENSEMBLE_CONFIGS) * len(mdps)
    assert [(r.error, r.converged) for r in out.runs] == [("", True)] * len(out.runs)


@pytest.fixture(scope="module")
def traced_large_pass(perfbench, tmp_path_factory):
    """The tracer and output of one traced large-2000x8 pass, and the originals it wrapped."""
    tracing, workloads = perfbench
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    mdps = workloads._large_generate(0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        out = workloads._large_pass(0, mdps, tmp_path_factory.mktemp("large"))
    finally:
        tracer.uninstall()
    return tracer, out, originals


def test_traced_large_pass_records_no_error(perfbench, traced_large_pass):
    # each run of this pass sweeps a one-MDP stack of the 2000x8 instance
    tracing, workloads = perfbench
    tracer, out, originals = traced_large_pass
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS] == originals
    assert tracer.calls("solver.run") == len(workloads.LARGE_CONFIGS)
    assert tracer.calls("solver.oracle") == out.oracle_calls == 1
    assert out.errors == []
    assert [(r.error, r.converged) for r in out.runs] == [("", True)] * len(out.runs)


def test_traced_large_pass_times_every_push(traced_large_pass):
    # anderson.assemble spans AndersonHistory.push, once per iteration and
    # once more for the iterate the run stops at (iterations + 1 per run),
    # and the engine's one build_history_matrices of the widest window after
    # each push: these runs restart no window, so no narrower one is built
    tracer, out, _ = traced_large_pass
    pushes = sum(r.iterations + 1 for r in out.runs)
    assert pushes > 2 * len(out.runs)
    assert tracer.calls("anderson.assemble") == 2 * pushes


def test_traced_ladder_exhausted_solve_is_counted(perfbench):
    # E = 0 leaves the KKT system unaccepted after the whole jitter ladder;
    # the SPD solve reports that as a flag, with the last jitter tried
    tracing, _ = perfbench
    history = anderson.AndersonHistory(3)
    for _ in range(4):
        history.push(np.ones(3), np.ones(3))
    matrices = anderson.build_history_matrices(history)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        sol = anderson.solve_alpha_kkt(matrices)
    finally:
        tracer.uninstall()
    assert sol.fallback and sol.jitter > 0.0
    assert tracer.calls("linalg.spd_solve") == 1
    assert dict(tracer.counters) == {
        "coeff_solves": 1, "jitter_solves": 1, "fallbacks": 1
    }


@pytest.mark.parametrize(
    "name,args",
    [
        ("solve_alpha_kkt", ()),
        ("solve_tau_unconstrained", ()),
        ("solve_tau_regularized", (0.1,)),
        ("vanilla_solution", ()),
    ],
)
def test_traced_one_window_solve_opens_its_spans(perfbench, name, args):
    # a one-window solve is one coefficient span and, unless vanilla, one
    # SPD-solve span: the tracer wraps both names on the anderson module
    tracing, _ = perfbench
    rng = np.random.default_rng(5)
    history = anderson.AndersonHistory(3)
    for _ in range(4):
        history.push(rng.standard_normal(6), rng.standard_normal(6))
    matrices = anderson.build_history_matrices(history)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _ in range(2):
            getattr(anderson, name)(matrices, *args)
    finally:
        tracer.uninstall()
    assert tracer.calls("anderson.coeff_solve") == 2
    assert tracer.calls("linalg.spd_solve") == (0 if name == "vanilla_solution" else 2)
