"""The benchmark's workloads: instance generation, one timed pass, the gate.

Every MDP seed is derived from the workload seed, so the same seed gives
the same instances; the package sees only the generated instances.  A pass
returns plain values (final iterates, counts), never whole traces, so the
memory a pass holds is the memory the package itself needs.

The gate checks every converged run against the value-iteration oracle
with the certified bound ``(tol + oracle_residual) / (1 - gamma)``: both
the run's final iterate and the oracle are within residual/(1 - gamma) of
the true fixed point, because the Bellman map is a gamma-contraction in
the sup norm for the hard max and for mellowmax.  The oracle residual is
recomputed here with an independent Bellman evaluation.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from anderson_pi import cli, diagnostics, solver
from anderson_pi.mdp import TabularMdp, generate_random_mdp
from anderson_pi.operators import OperatorKind, OperatorSpec
from anderson_pi.solver import Scheme, SolverConfig

from reference import reference_s, scaled

MELLOW5 = OperatorSpec(OperatorKind.MELLOW_MAX, 5.0)
HARD_MAX = OperatorSpec(OperatorKind.HARD_MAX)
TOL = 1e-10
DIAG_ETAS = (0.1, 0.5, 1.0)


@dataclass
class RunResult:
    """One solver run (one op): its outcome, never its trace."""

    mdp_index: int
    cfg: SolverConfig
    converged: bool = False
    iterations: int = 0
    final_q: np.ndarray | None = None
    error: str = ""


@dataclass
class PassOutput:
    runs: list[RunResult]
    oracles: dict[int, np.ndarray] = field(default_factory=dict)
    oracle_calls: int = 0
    errors: list[str] = field(default_factory=list)  # failed oracle or check ops
    check_ran: bool = False
    asserted_violations: int = 0
    trace_matrix_bytes: int = 0
    report_bytes: int = 0
    segments: list[float] = field(default_factory=list)  # seconds per package call
    # reference loop times around the segments: segment i lies between
    # references[i] and references[i + 1]
    references: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.runs) + self.oracle_calls + int(self.check_ran)

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.runs)

    def fingerprint(self) -> tuple:
        """Values that must repeat exactly from one pass to the next."""
        return (
            tuple((r.cfg, r.mdp_index, r.converged, r.iterations, r.error) for r in self.runs),
            tuple(self.errors),
            self.asserted_violations,
            self.trace_matrix_bytes,
            self.report_bytes,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    op: OperatorSpec
    generate: Callable[[int], list[TabularMdp]]
    run_pass: Callable[[int, list[TabularMdp], Path], PassOutput]
    # Whether the reference loop tracks this workload's speed: true where
    # small-array numpy calls dominate, false where two-thread BLAS sweeps
    # over a P larger than L3 do (there, scaling widened the spread).
    scaled: bool

    def seconds(self, out: PassOutput) -> list[float]:
        """The pass's segment times, at quiet speed if ``scaled``."""
        if not self.scaled:
            return list(out.segments)
        return [
            scaled(t, (before + after) / 2)
            for t, before, after in zip(out.segments, out.references, out.references[1:])
        ]


def _from_trace(j: int, cfg: SolverConfig, trace: solver.SolverTrace) -> RunResult:
    return RunResult(j, cfg, trace.converged, trace.iterations, trace.final_q.copy())


def _segment(out: PassOutput, fn, *args, **kwargs):
    """Call ``fn`` and record its duration as the pass's next segment.

    The reference loop runs before the first segment and after each one,
    outside the timed call.
    """
    if not out.references:
        out.references.append(reference_s())
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        out.segments.append(time.perf_counter() - t0)
        out.references.append(reference_s())


def _run(out: PassOutput, j: int, mdp: TabularMdp, cfg: SolverConfig) -> None:
    try:
        out.runs.append(_from_trace(j, cfg, solver.run(mdp, cfg)))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out.runs.append(RunResult(j, cfg, error=repr(exc)))


def _oracle(out: PassOutput, j: int, mdp: TabularMdp, op: OperatorSpec) -> None:
    out.oracle_calls += 1
    try:
        out.oracles[j] = solver.fixed_point_oracle(mdp, op)
    except Exception as exc:
        out.errors.append(f"oracle mdp{j}: {exc!r}")


# -- ensemble-30x4 -----------------------------------------------------------

# Three MDPs keep a pass under 2 s, so a run holds enough passes for a steady
# median; one run_ensemble call over all of them leaves room for batching.
ENSEMBLE_MDPS = 3
ENSEMBLE_CONFIGS = [
    SolverConfig(Scheme.VANILLA_VI, MELLOW5, tol=TOL),
    SolverConfig(Scheme.ANDERSON_KKT, MELLOW5, m=5, tol=TOL),
    SolverConfig(Scheme.ANDERSON_UNCONSTRAINED, MELLOW5, m=5, tol=TOL),
    SolverConfig(Scheme.STABLE_AA, MELLOW5, m=5, eta=0.1, tol=TOL),
]


def _ensemble_generate(seed: int) -> list[TabularMdp]:
    return [
        generate_random_mdp(seed * ENSEMBLE_MDPS + j, 30, 4, 3, 1.0, 0.99)
        for j in range(ENSEMBLE_MDPS)
    ]


def _ensemble_pass(seed: int, mdps: list[TabularMdp], outdir: Path) -> PassOutput:
    # run_ensemble computes one oracle per MDP internally
    out = PassOutput([], oracle_calls=len(mdps))
    try:
        report = _segment(out, solver.run_ensemble, ENSEMBLE_CONFIGS, mdps, jobs=1)
    except Exception as exc:  # an oracle failure aborts the whole ensemble
        out.runs = [
            RunResult(j, cfg, error=repr(exc))
            for cfg in ENSEMBLE_CONFIGS
            for j in range(len(mdps))
        ]
        out.errors = [f"oracle mdp{j}: {exc!r}" for j in range(len(mdps))]
        return out
    for (i, j), trace in sorted(report.traces.items()):
        summary = report.summary(i, j)
        cfg = ENSEMBLE_CONFIGS[i]
        if summary.failed:
            out.runs.append(RunResult(j, cfg, error=summary.message))
        else:
            out.runs.append(_from_trace(j, cfg, trace))
    return out


# -- large-2000x8 ------------------------------------------------------------

LARGE_CONFIGS = [
    SolverConfig(Scheme.ANDERSON_KKT, HARD_MAX, m=5, tol=TOL),
    SolverConfig(Scheme.STABLE_AA, HARD_MAX, m=5, eta=0.1, tol=TOL),
]


def _large_generate(seed: int) -> list[TabularMdp]:
    return [generate_random_mdp(seed, 2000, 8, 3, 1.0, 0.95)]


def _large_pass(seed: int, mdps: list[TabularMdp], outdir: Path) -> PassOutput:
    out = PassOutput([])
    for cfg in LARGE_CONFIGS:
        _segment(out, _run, out, 0, mdps[0], cfg)
    _segment(out, _oracle, out, 0, mdps[0], HARD_MAX)
    return out


# -- diagnostics-full --------------------------------------------------------

DIAG_MDPS = 2


def _diag_generate(seed: int) -> list[TabularMdp]:
    return [
        generate_random_mdp(seed * DIAG_MDPS + j, 30, 4, 3, 1.0, 0.95)
        for j in range(DIAG_MDPS)
    ]


def _diag_run(out: PassOutput, j: int, mdp: TabularMdp, eta: float) -> None:
    cfg = SolverConfig(
        Scheme.STABLE_AA, MELLOW5, m=5, beta=1.0, eta=eta, tol=TOL,
        diagnostics_level="full",
    )
    try:
        trace = solver.run(mdp, cfg)
        records, _ = diagnostics.check_update_norm_bound(trace, eta, cfg.beta)
        records += diagnostics.coefficient_bound_records(trace)
        records += diagnostics.theta_records(trace)
    except Exception as exc:
        out.runs.append(RunResult(j, cfg, error=repr(exc)))
        return
    # eta = 1.0 violates the asserted spectral-norm bound on purpose: a finding,
    # counted and reported, not a failed op
    out.asserted_violations += sum(1 for r in records if r.asserted and not r.satisfied)
    matrix_bytes = sum(
        g.nbytes for r in trace.records for g in (r.g_tilde, r.g_unreg) if g is not None
    )
    out.trace_matrix_bytes = max(out.trace_matrix_bytes, matrix_bytes)
    out.runs.append(_from_trace(j, cfg, trace))


def _check_command(out: PassOutput, seed: int, outdir: Path) -> None:
    """The ``check`` command in-process at its defaults, seeded from the workload."""
    out.check_ran = True
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--seed", str(seed), "-o", str(outdir)])
    except Exception as exc:
        code = repr(exc)
    if code != cli.EXIT_OK:
        out.errors.append(f"check exited with {code}")
    report = outdir / "check_report.jsonl"
    out.report_bytes = report.stat().st_size if report.exists() else 0


def _diag_pass(seed: int, mdps: list[TabularMdp], outdir: Path) -> PassOutput:
    out = PassOutput([])
    for j, mdp in enumerate(mdps):
        _segment(out, _oracle, out, j, mdp, MELLOW5)
        for eta in DIAG_ETAS:
            _segment(out, _diag_run, out, j, mdp, eta)
    _segment(out, _check_command, out, seed, outdir)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble-30x4",
            MELLOW5,
            _ensemble_generate,
            _ensemble_pass,
            scaled=True,
        ),
        Workload(
            "large-2000x8",
            HARD_MAX,
            _large_generate,
            _large_pass,
            scaled=False,
        ),
        Workload(
            "diagnostics-full",
            MELLOW5,
            _diag_generate,
            _diag_pass,
            scaled=True,
        ),
    )
}


# -- the gate ----------------------------------------------------------------


def bellman_residual(mdp: TabularMdp, q: np.ndarray, op: OperatorSpec) -> float:
    """``max |TQ - Q|`` computed here, independently of the package kernels."""
    if op.kind is OperatorKind.HARD_MAX:
        v = q.max(axis=1)
    elif op.kind is OperatorKind.MELLOW_MAX:
        shift = q.max(axis=1)
        v = shift + np.log(np.mean(np.exp(op.omega * (q - shift[:, None])), axis=1)) / op.omega
    else:
        raise ValueError(f"no certified bound for {op.label()}")
    tq = mdp.rewards + mdp.gamma * np.tensordot(mdp.transitions, v, axes=([2], [0]))
    return float(np.abs(tq - q).max())


@dataclass
class Reference:
    """Oracle and its independently computed residual for one MDP."""

    q: np.ndarray
    residual: float


@dataclass
class GateResult:
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    worst_error: float = 0.0
    worst_ratio: float = 0.0  # error / certified bound, for the worst run


def gate(
    mdps: list[TabularMdp], out: PassOutput, refs: dict[int, Reference]
) -> GateResult:
    """Count failed ops in one pass.

    ``refs`` caches the oracle per MDP across passes; a pass that computed
    its own oracle supplies it, and one that did not (``run_ensemble`` keeps
    its oracles private) gets one computed here, outside the timed pass.
    """
    result = GateResult(failed=len(out.errors), messages=list(out.errors))
    for run in out.runs:
        if run.error or not run.converged:
            result.failed += 1
            result.messages.append(
                f"{run.cfg.label()} mdp{run.mdp_index}: {run.error or 'did not converge'}"
            )
            continue
        j = run.mdp_index
        mdp = mdps[j]
        if j not in refs:
            q = out.oracles.get(j)
            if q is None:
                try:
                    q = solver.fixed_point_oracle(mdp, run.cfg.operator)
                except Exception as exc:
                    result.failed += 1
                    result.messages.append(f"reference oracle mdp{j}: {exc!r}")
                    continue
            refs[j] = Reference(q, bellman_residual(mdp, q, run.cfg.operator))
        ref = refs[j]
        if j in out.oracles and not np.array_equal(out.oracles[j], ref.q):
            result.failed += 1
            result.messages.append(f"oracle mdp{j} differs from the first pass")
        err = float(np.abs(run.final_q - ref.q).max())
        bound = (run.cfg.tol + ref.residual) / (1.0 - mdp.gamma)
        if err > bound:
            result.failed += 1
            result.messages.append(
                f"{run.cfg.label()} mdp{j}: error {err!r} above certified bound {bound!r}"
            )
        result.worst_error = max(result.worst_error, err)
        result.worst_ratio = max(result.worst_ratio, err / bound)
    return result
