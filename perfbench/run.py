"""anderson-pi benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload ensemble-30x4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One process runs one workload, single-threaded at the Python level
(``run_ensemble(..., jobs=1)``).  Set-up runs ``SETUP_ROUNDS`` times, each
in a fresh child process that imports the package and generates the
instances, and ``setup_s`` is the median.  Passes repeat while the next
one is expected to end within ``--seconds``, and at least ``MIN_PASSES``
run; ``wall_s`` sums, over the calls a pass makes into the package, each
call's median time.  On workloads marked ``scaled`` both are scaled to a
quiet machine with the reference loop of ``reference.py``.  Every pass is
gated for correctness and must repeat the first pass exactly.

With ``--trace 0`` no wrapper is installed.  With ``--trace 1`` untraced
and traced passes alternate; the per-layer metrics are medians over the
traced passes, and the tracing overhead is the traced median minus the
untraced one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable report
goes before it and into ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("ensemble-30x4", "large-2000x8", "diagnostics-full")
MIN_PASSES = 3
SETUP_ROUNDS = 7
CHILD_TIMEOUT_S = 170
MB = 1e6

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_workloads():
    """Import the package from this checkout's ``src/`` and the workload module."""
    if not (SRC / "anderson_pi" / "__init__.py").is_file():
        raise BenchError(f"no anderson_pi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import anderson_pi
    import workloads

    if not Path(anderson_pi.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"anderson_pi imported from {anderson_pi.__file__}, not {SRC}")
    return workloads


def _setup_child(args) -> None:
    t0 = time.perf_counter()
    workloads = import_workloads()
    t1 = time.perf_counter()
    workloads.WORKLOADS[args.workload].generate(args.seed)
    t2 = time.perf_counter()
    from reference import reference_s

    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1, "reference_s": reference_s()}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    rounds = []
    for _ in range(SETUP_ROUNDS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-child", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return rounds


def _l3_bytes():
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        return int(out) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads(np):
    """OpenBLAS's own thread count, from the library numpy already loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def segment_median_sum(passes: list[list[float]]) -> float:
    """Sum over a pass's segments of each segment's median across passes.

    A segment is one call the workload makes into the package.  The median
    per segment drops a burst of machine noise that hits one segment of one
    pass, where the median of whole passes keeps it whenever most passes
    contain such a burst somewhere.
    """
    return sum(statistics.median(column) for column in zip(*passes, strict=True))


def summarize(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer values of one traced pass, read from the tracer's totals."""
    inc, counters = tracer.inclusive_s, tracer.counters
    sweeps = tracer.calls("operators.sweep")
    solves = counters["coeff_solves"]
    layers = tracer.layer_self_s()
    m = {
        "operators.sweeps": sweeps,
        "operators.sweep_s": inc("operators.sweep"),
        "operators.sweep_us": 1e6 * inc("operators.sweep") / max(sweeps, 1),
        "anderson.assemble_s": inc("anderson.assemble"),
        "anderson.coeff_solve_s": inc("anderson.coeff_solve"),
        "anderson.mix_s": inc("anderson.mix"),
        "anderson.materialize_s": inc("anderson.materialize"),
        "anderson.coeff_solves": solves,
        "anderson.jitter_solves": counters["jitter_solves"],
        "anderson.fallbacks": counters["fallbacks"],
        "anderson.accepted_share": 1.0 - counters["fallbacks"] / solves if solves else 1.0,
        "linalg.spd_solves": tracer.calls("linalg.spd_solve"),
        "linalg.spd_solve_s": inc("linalg.spd_solve"),
        "linalg.spectral_norm_calls": tracer.calls("linalg.spectral_norm"),
        "linalg.spectral_norm_s": inc("linalg.spectral_norm"),
        "solver.run_self_s": tracer.self_s("solver.run"),
        "solver.us_per_iteration": 1e6 * inc("solver.run") / max(counters["run_records"], 1),
        "solver.oracle_s": inc("solver.oracle"),
        "solver.oracle_sweeps": counters["oracle_sweeps"],
        "diagnostics.check_s": inc("diagnostics.check"),
        "diagnostics.records": counters["records"],
        "cli.check_self_s": tracer.self_s("cli.main"),
        "bench.self_s": wall_s - sum(layers.values()),
        "trace.coverage_share": sum(layers.values()) / wall_s,
    }
    m.update({f"{layer}.self_s": s for layer, s in layers.items()})
    return m


def sweep_us_by_kind(mdp, ops) -> dict:
    """Median microseconds of one ``apply_bellman`` sweep per aggregator."""
    import numpy as np
    from anderson_pi.operators import apply_bellman

    q = np.random.default_rng(1).uniform(-5.0, 5.0, size=(mdp.n_states, mdp.n_actions))
    out = {}
    for op in ops:
        apply_bellman(mdp, q, op)
        times = []
        start = time.perf_counter()
        while len(times) < 15 or (time.perf_counter() - start < 0.25 and len(times) < 5000):
            t = time.perf_counter_ns()
            apply_bellman(mdp, q, op)
            times.append((time.perf_counter_ns() - t) / 1e3)
        out[f"operators.sweep_us.{op.kind.value}"] = statistics.median(times)
    return out


def sweep_model(mdp, op) -> dict:
    """Bytes and flops of one dense sweep, computed from the array sizes.

    Bytes: P, plus reading R and Q, writing TQ, and the state values.
    Flops: the P matvec, ``R + gamma * PV``, and the row aggregation
    (1 per entry for the hard max, 4 for mellowmax or softmax).
    """
    s, a = mdp.n_states, mdp.n_actions
    agg = 1 if op.kind.value == "max" else 4
    return {
        "operators.bytes_per_sweep": 8 * (s * a * s + 3 * s * a + s),
        "operators.flops_per_sweep": 2 * s * a * s + 2 * s * a + agg * s * a,
    }


def timed_pass(workload, seed, mdps, outdir, tracer=None):
    """One pass of ``workload``, traced when a tracer is given.

    Returns the output and the seconds spent in the package calls, without
    the reference loop between them.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        out = workload.run_pass(seed, mdps, outdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out, sum(out.segments)


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this script must report."""
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_FILE}: {exc}") from None


def run_workload(args) -> dict:
    spec = load_spec()
    setup_rounds = measure_setup(args.workload, args.seed)
    workloads = import_workloads()
    import tracing
    from anderson_pi.operators import OperatorKind, OperatorSpec
    from reference import scaled

    workload = workloads.WORKLOADS[args.workload]
    setup_scaled = []
    for r in setup_rounds:
        seconds = r["import_s"] + r["generate_s"]
        setup_scaled.append(scaled(seconds, r["reference_s"]) if workload.scaled else seconds)
    mdps = workload.generate(args.seed)
    outdir = OUT / f"{workload.name}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    walls, segments, traced, traced_walls = [], [], [], []
    refs, fingerprints = {}, set()
    attempted = failed = 0
    worst_error = worst_ratio = 0.0
    messages = []

    def one_pass(trace_on: bool):
        nonlocal attempted, failed, worst_error, worst_ratio
        out, wall = timed_pass(workload, args.seed, mdps, outdir, tracer if trace_on else None)
        if trace_on:
            traced.append((layer_metrics(tracer, wall), out))
            traced_walls.append(wall)
        else:
            walls.append(wall)
            segments.append(workload.seconds(out))
        result = workloads.gate(mdps, out, refs)
        attempted += out.ops
        failed += result.failed
        messages.extend(m for m in result.messages if m not in messages)
        worst_error = max(worst_error, result.worst_error)
        worst_ratio = max(worst_ratio, result.worst_ratio)
        fingerprints.add(out.fingerprint())
        return out

    start, rounds = time.perf_counter(), []  # a round is a pass, and a traced one if tracing
    while len(rounds) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(rounds) < args.seconds
    ):
        t0 = time.perf_counter()
        out = one_pass(False)
        if tracer is not None:
            one_pass(True)
        rounds.append(time.perf_counter() - t0)

    e2e = {
        "wall_s": segment_median_sum(segments),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "iterations": out.iterations,
    }
    deterministic = len(fingerprints) == 1
    layer = {}
    if tracer is not None:
        keys = traced[0][0].keys()
        layer = {k: statistics.median(m[k] for m, _ in traced) for k in keys}
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] == "count.exact"]
        for name in exact:
            if name in keys:
                deterministic &= len({m[name] for m, _ in traced}) == 1
        softmax = OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 5.0)
        layer.update(sweep_us_by_kind(mdps[0], (workloads.HARD_MAX, workloads.MELLOW5, softmax)))
        layer.update(sweep_model(mdps[0], workload.op))
        layer["mdp.generate_s"] = statistics.median(r["generate_s"] for r in setup_rounds)
        layer["mdp.transitions_mb"] = sum(m.transitions.nbytes for m in mdps) / MB
        layer["diagnostics.trace_matrix_mb"] = out.trace_matrix_bytes / MB
        layer["diagnostics.asserted_violations"] = out.asserted_violations
        layer["cli.report_bytes"] = out.report_bytes
        layer["trace.wall_s"] = segment_median_sum([workload.seconds(out) for _, out in traced])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
    if not deterministic:
        messages.append("passes did not repeat the first pass exactly")
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    reported = layer if args.trace else e2e
    if declared.keys() != reported.keys():
        raise BenchError(
            f"{section} metrics differ from {SPEC_FILE.name}: "
            f"{sorted(declared.keys() ^ reported.keys())}"
        )
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    return {
        "workload": workload.name,
        "why": why[workload.name],
        "units": declared,
        "seed": args.seed,
        "trace": args.trace,
        "scaled": workload.scaled,
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer,
        "pass_s": summarize(walls),
        "traced_pass_s": summarize(traced_walls) if traced else None,
        "setup_s": summarize(setup_scaled),
        "setup_raw_s": summarize([r["import_s"] + r["generate_s"] for r in setup_rounds]),
        "setup_rounds": setup_rounds,
        "worst_error_vs_oracle": worst_error,
        "worst_error_share_of_bound": worst_ratio,
        "messages": messages,
        "machine": machine_context(),
        "sizes": {"transitions_bytes": sum(m.transitions.nbytes for m in mdps)},
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_lines(r: dict) -> list[str]:
    mc = r["machine"]
    l3 = mc["l3_bytes"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}",
        f"  why: {r['why']}",
        f"  machine: nproc {mc['nproc']} (usable {mc['usable_cpus']}), "
        f"L3 {l3 / 2**20 if l3 else 'unknown'} MiB, {mc['blas']} with "
        f"{mc['blas_threads']} threads, python {mc['python']}, numpy {mc['numpy']}",
    ]
    if l3:
        ratio = r["sizes"]["transitions_bytes"] / l3
        lines.append(
            f"  P is {ratio:.2f}x L3; a bandwidth figure needs at least 4x, so only "
            "computed bytes per sweep are reported"
        )
    e2e, p, st = r["end_to_end"], r["pass_s"], r["setup_s"]
    speed = " at quiet speed" if r["scaled"] else ""
    lines += [
        f"  {'wall_s':<16} {_fmt(e2e['wall_s'])} s  (sum of per-segment medians{speed}; "
        f"measured passes: median {_fmt(p['median'])}, q1 {_fmt(p['q1'])}, q3 {_fmt(p['q3'])}, "
        f"n={p['n']})",
        f"  {'setup_s':<16} {_fmt(e2e['setup_s'])} s  (median{speed}; measured "
        f"median {_fmt(r['setup_raw_s']['median'])}; q1 {_fmt(st['q1'])}, "
        f"q3 {_fmt(st['q3'])}, n={st['n']})",
        f"  {'peak_rss_mb':<16} {_fmt(e2e['peak_rss_mb'])} MB",
        f"  {'iterations':<16} {e2e['iterations']} count (exact)",
        f"  {'ops_attempted':<16} {r['attempted']} count",
        f"  {'ops_failed':<16} {r['failed']} count",
        f"  worst error vs oracle {r['worst_error_vs_oracle']:.4g} "
        f"({r['worst_error_share_of_bound']:.4f} of its certified bound)",
    ]
    if r["per_layer"]:
        layer = r["per_layer"]
        lines.append(
            f"  traced wall_s {_fmt(layer['trace.wall_s'])} s; tracing overhead "
            f"{_fmt(layer['trace.overhead_s'])} s; layer self times cover "
            f"{layer['trace.coverage_share']:.4f} of a traced pass"
        )
        for name, unit in r["units"].items():
            lines.append(f"  {name:<34} {_fmt(layer[name])} {unit}")
    lines += [f"  FAILED: {m}" for m in r["messages"]]
    return lines


def final_line(r: dict) -> str:
    values = r["per_layer"] if r["trace"] else r["end_to_end"]
    return json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in r["units"].items()},
    })


def run_all(args) -> None:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_child:
            _setup_child(args)
        elif args.workload == "all":
            run_all(args)
        else:
            r = run_workload(args)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
            path.write_text(json.dumps(r, indent=1) + "\n")
            print("\n".join(report_lines(r)))
            print(final_line(r))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
