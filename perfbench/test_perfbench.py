"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q

They take about two minutes: every workload runs four passes, two traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_workloads()
import tracing  # noqa: E402
from anderson_pi import solver  # noqa: E402

EXACT = [
    m["name"]
    for section in ("end_to_end", "per_layer")
    for m in run.load_spec()[section]
    if m["unit"] == "count.exact"
]


def traced_pass(name: str, seed: int, outdir: Path) -> dict:
    """Exact counts of one traced pass, from freshly generated instances.

    As in ``run.py``, an untraced pass goes first: it fills the package's
    process-wide caches (``solver._COND_A_CACHE``), which would otherwise
    add spectral-norm calls to the first pass of a process only.
    """
    workload = workloads.WORKLOADS[name]
    mdps = workload.generate(seed)
    run.timed_pass(workload, seed, mdps, outdir)
    tracer = tracing.Tracer()
    out, wall = run.timed_pass(workload, seed, mdps, outdir, tracer)
    assert workloads.gate(mdps, out, {}).failed == 0
    counts = run.layer_metrics(tracer, wall)
    counts.update(
        {
            "iterations": out.iterations,
            "diagnostics.asserted_violations": out.asserted_violations,
            "cli.report_bytes": out.report_bytes,
        }
    )
    return {name: counts[name] for name in EXACT}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_bit_for_bit(name, tmp_path):
    first = traced_pass(name, 0, tmp_path / "a")
    second = traced_pass(name, 0, tmp_path / "b")
    assert first == second
    assert first["iterations"] > 0 and first["operators.sweeps"] > 0
    if name == "diagnostics-full":
        # the eta = 1.0 runs violate the asserted spectral-norm bound
        assert first["diagnostics.asserted_violations"] > 0
    else:
        assert first["diagnostics.asserted_violations"] == 0


def test_gate_rejects_an_answer_outside_the_certified_bound():
    mdps = workloads.WORKLOADS["diagnostics-full"].generate(0)[:1]
    cfg = workloads.ENSEMBLE_CONFIGS[1]
    good = workloads._from_trace(0, cfg, solver.run(mdps[0], cfg))
    bad = workloads._from_trace(0, cfg, solver.run(mdps[0], cfg))
    bad.final_q[3, 1] += 1e-6
    result = workloads.gate(mdps, workloads.PassOutput([good, bad]), {})
    assert result.failed == 1
    assert "certified bound" in result.messages[0]


def test_segments_scale_by_the_reference_loop_around_them():
    from reference import QUIET_S

    out = workloads.PassOutput([], segments=[1.0, 3.0], references=[QUIET_S, QUIET_S, 2 * QUIET_S])
    ensemble, large = workloads.WORKLOADS["ensemble-30x4"], workloads.WORKLOADS["large-2000x8"]
    assert ensemble.seconds(out) == pytest.approx([1.0, 2.0])
    assert large.seconds(out) == [1.0, 3.0]


def test_a_pass_brackets_every_segment_with_the_reference_loop(tmp_path):
    workload = workloads.WORKLOADS["diagnostics-full"]
    out, wall = run.timed_pass(workload, 0, workload.generate(0), tmp_path)
    assert len(out.references) == len(out.segments) + 1
    assert wall == sum(out.segments)


def test_tracer_restores_every_wrapped_function():
    before = [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(o, a) is not f for (o, a, *_), f in zip(tracing.TARGETS, before))
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS] == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_FILE, tmp_path / run.SPEC_FILE.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ensemble-30x4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads(run.SPEC_FILE.read_text())["paths"] == [HERE.name]
