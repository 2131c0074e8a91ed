"""Span tracing installed from outside the package.

A :class:`Tracer` replaces public functions of ``anderson_pi`` with timing
and counting wrappers, on the module attribute each caller looks the
function up by (``solver.apply_bellman`` is the name ``solver.run`` and
``fixed_point_oracle`` resolve, ``anderson._solve_spd_impl`` the name the
coefficient solvers resolve).  No file of the package changes, and
:meth:`Tracer.uninstall` puts every original back.

Spans nest through a stack.  A span's self time is its duration minus the
durations of its direct child spans, so the self times of all spans plus
the benchmark's own glue add up to the traced wall time.  A call whose
span name equals the innermost open span (``_solve_coefficients``
dispatching to ``solve_alpha_kkt``, ``run_check_suite`` calling
``theta_records``) joins that span instead of opening a new one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from anderson_pi import anderson, cli, diagnostics, linalg, solver

# Package layers, in the order reports list them.  ``operators`` covers
# ``_kernels`` too: the sweep span encloses the kernel call.
LAYERS = ("mdp", "operators", "anderson", "linalg", "solver", "diagnostics", "cli")


def _count_sweep(tracer, result):
    if tracer.stack and tracer.stack[-1][0] == "solver.oracle":
        tracer.counters["oracle_sweeps"] += 1


def _count_solution(tracer, result):
    if result.solver_kind != anderson.KIND_VANILLA:
        tracer.counters["coeff_solves"] += 1
    if result.fallback:
        tracer.counters["fallbacks"] += 1


def _count_spd(tracer, result):
    if result[1] > 0.0:
        tracer.counters["jitter_solves"] += 1


def _count_spd_failure(tracer, exc):
    if isinstance(exc, linalg.SingularSystemError):
        tracer.counters["jitter_solves"] += 1


def _count_run(tracer, result):
    tracer.counters["run_records"] += len(result.records)


def _count_records(tracer, result):
    records = result[0] if isinstance(result, tuple) else result
    tracer.counters["records"] += len(records)


_DIAGNOSTIC_CHECKS = (
    "check_update_norm_bound",
    "coefficient_bound_records",
    "theta_records",
    "run_check_suite",
    "check_contraction",
    "check_form_equivalence",
    "check_solver_equivalence",
)
_COEFFICIENT_SOLVERS = (
    "solve_alpha_kkt",
    "solve_tau_unconstrained",
    "solve_tau_regularized",
    "vanilla_solution",
)

# (owner, attribute, span name, result counter, failure counter)
TARGETS = (
    [
        (solver, "run", "solver.run", _count_run, None),
        (diagnostics, "run", "solver.run", _count_run, None),
        (solver, "run_ensemble", "solver.run_ensemble", None, None),
        (solver, "fixed_point_oracle", "solver.oracle", None, None),
        (solver, "apply_bellman", "operators.sweep", _count_sweep, None),
        (diagnostics, "apply_bellman", "operators.sweep", _count_sweep, None),
        (solver, "_solve_coefficients", "anderson.coeff_solve", _count_solution, None),
    ]
    + [
        (anderson, name, "anderson.coeff_solve", _count_solution, None)
        for name in _COEFFICIENT_SOLVERS
    ]
    + [
        (anderson, "build_history_matrices", "anderson.assemble", None, None),
        (anderson.AndersonHistory, "push", "anderson.assemble", None, None),
        (anderson, "mixed_update", "anderson.mix", None, None),
        (anderson, "materialize_update_matrix", "anderson.materialize", None, None),
        (anderson, "_solve_spd_impl", "linalg.spd_solve", _count_spd, _count_spd_failure),
        (linalg, "spectral_norm", "linalg.spectral_norm", None, None),
        (diagnostics, "generate_random_mdp", "mdp.generate", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    + [
        (diagnostics, name, "diagnostics.check", _count_records, None)
        for name in _DIAGNOSTIC_CHECKS
    ]
)


class Tracer:
    """Per-span-name totals in nanoseconds, call counts and counters."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child_ns, start_ns]
        self._originals: list[tuple] = []
        self._totals: dict[str, list[int]] = {}  # name -> [inclusive_ns, self_ns, calls]
        self.counters: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Zero every total in place; installed wrappers keep references to them."""
        for totals in self._totals.values():
            totals[:] = [0, 0, 0]
        self.counters.clear()

    def inclusive_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[0] / 1e9

    def self_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[1] / 1e9

    def calls(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[2]

    def _wrap(self, fn, name, on_result, on_error):
        # the wrapper runs on every traced call, so it binds what it touches
        tracer, stack, clock = self, self.stack, time.perf_counter_ns
        totals = self._totals.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                duration = clock() - frame[2]
                stack.pop()
                totals[0] += duration
                totals[1] += duration - frame[1]
                totals[2] += 1
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, on_result, on_error in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, on_result, on_error))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, totals in self._totals.items():
            out[name.split(".", 1)[0]] += totals[1] / 1e9
        return out
