"""Command-line front end.

Subcommands: ``gen-mdp`` (write instance files), ``solve`` (one run,
trace CSV + summary JSON), ``compare`` (ensembles with win rates and
plot-ready curves), ``check`` (the property suite).

Exit codes are a stable scripting contract:
    0  success
    2  usage / input error
    3  solver stopped at max_iter without converging
    4  divergence
    5  an asserted bound failed in ``check``

Every command is deterministic given its flags: all randomness is
seeded through flags and output files carry no timestamps.  Trace files
write ``wall_nanos`` as 0 unless ``--timing`` is passed, keeping
repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .mdp import (
    MdpFormatError,
    generate_gridworld,
    generate_random_mdp,
    load_mdp,
    save_mdp,
)
from .operators import OperatorKind, OperatorSpec
from .solver import (
    COMPACT_JSON,
    BetaConvention,
    DivergenceError,
    Scheme,
    SolverConfig,
    fixed_point_oracle,
    run,
    run_ensemble,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MAX_ITER = 3
EXIT_DIVERGENCE = 4
EXIT_BOUND_FAILURE = 5

_OP_CHOICES = tuple(k.value for k in OperatorKind)
_SCHEME_CHOICES = tuple(s.value for s in Scheme)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=_SCHEME_CHOICES, default="vanilla")
    p.add_argument("-m", "--depth", dest="m", type=int, default=0,
                   help="history depth m (window holds m+1 iterates)")
    p.add_argument("--beta", type=float, default=1.0, help="damping in [0,1]")
    p.add_argument("--beta-convention", choices=("eq2", "eq13"), default="eq2",
                   help="eq2: beta weights operator images; eq13: the mirrored "
                        "convention (beta weights raw iterates)")
    p.add_argument("--eta", type=float, default=0.0,
                   help="stable regularization scale (stable-aa only)")
    p.add_argument("--op", choices=_OP_CHOICES, default="max")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--safeguard", action="store_true",
                   help="clear history and take a plain step when the residual "
                        "more than doubles")
    p.add_argument("--diagnostics", choices=("basic", "full"), default="basic")


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        scheme=Scheme(args.scheme),
        operator=OperatorSpec(OperatorKind(args.op), args.omega),
        m=args.m,
        beta=args.beta,
        beta_convention=BetaConvention(args.beta_convention),
        eta=args.eta,
        tol=args.tol,
        max_iter=args.max_iter,
        safeguard=args.safeguard,
        diagnostics_level=args.diagnostics,
    )


def _build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anderson-pi",
        description="Anderson-accelerated tabular policy/value iteration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # "required" flags default to None and are checked in the command
    # bodies so that a --config file can supply them
    g = sub.add_parser("gen-mdp", help="generate an MDP instance file")
    g.add_argument("--config", type=str, default=None)
    g.add_argument("--kind", choices=("random", "grid"), default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--states", type=int, default=None)
    g.add_argument("--actions", type=int, default=None)
    g.add_argument("--branching", type=int, default=None)
    g.add_argument("--reward-scale", type=float, default=1.0)
    g.add_argument("--width", type=int, default=None)
    g.add_argument("--height", type=int, default=None)
    g.add_argument("--slip", type=float, default=0.0)
    g.add_argument("--goal-reward", type=float, default=1.0)
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("-o", "--out", default=None)
    g.set_defaults(func=cmd_gen_mdp)

    s = sub.add_parser("solve", help="run one scheme on one MDP")
    s.add_argument("--config", type=str, default=None)
    s.add_argument("--mdp", default=None)
    _add_solver_flags(s)
    s.add_argument("--q0", type=str, default=None,
                   help="JSON file with the starting Q table (default zeros)")
    s.add_argument("--oracle", action="store_true",
                   help="also report the error against the reference fixed point")
    s.add_argument("--timing", action="store_true",
                   help="write real wall_nanos (breaks byte-determinism)")
    s.add_argument("-o", "--outdir", default=".")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="ensemble comparison across schemes")
    c.add_argument("--config", type=str, default=None)
    c.add_argument("--scheme", action="append", dest="schemes", default=None,
                   metavar="SPEC",
                   help="scheme spec, repeatable; e.g. vanilla, kkt:m=5, "
                        "stable-aa:m=5,eta=0.1")
    c.add_argument("--mdp", action="append", dest="mdps", default=None,
                   help="MDP file, repeatable")
    c.add_argument("--gen", choices=("random",), default=None,
                   help="generate instances instead of reading files")
    c.add_argument("--states", type=int, default=30)
    c.add_argument("--actions", type=int, default=4)
    c.add_argument("--branching", type=int, default=3)
    c.add_argument("--reward-scale", type=float, default=1.0)
    c.add_argument("--gamma", type=float, default=0.95)
    c.add_argument("--seeds", type=str, default="0:10",
                   help="seed range start:stop for --gen")
    c.add_argument("--op", choices=_OP_CHOICES, default="mellowmax")
    c.add_argument("--omega", type=float, default=5.0)
    c.add_argument("--beta", type=float, default=1.0)
    c.add_argument("--beta-convention", choices=("eq2", "eq13"), default="eq2")
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--max-iter", type=int, default=10000)
    c.add_argument("-o", "--outdir", default=".")
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("check", help="run the bound/property suite")
    k.add_argument("--config", type=str, default=None)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--pairs", type=int, default=1000)
    k.add_argument("--eta", type=float, default=0.1)
    k.add_argument("--beta", type=float, default=1.0)
    k.add_argument("--omega", type=float, default=5.0)
    k.add_argument("-o", "--outdir", default=".")
    k.set_defaults(func=cmd_check)

    if defaults:
        for sp in (g, s, c, k):
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k_: v for k_, v in defaults.items() if k_ in known})
    return parser


def _load_config_defaults(argv: list[str]) -> dict | None:
    if "--config" not in argv:
        return None
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return None  # the real parser will report the missing value
    path = argv[idx + 1]
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise MdpFormatError("config file must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def cmd_gen_mdp(args) -> int:
    if args.kind is None or args.gamma is None or args.out is None:
        missing = [
            flag
            for flag, v in (("--kind", args.kind), ("--gamma", args.gamma), ("-o", args.out))
            if v is None
        ]
        _err(f"gen-mdp requires {', '.join(missing)}")
        return EXIT_USAGE
    try:
        if args.kind == "random":
            missing = [
                name
                for name, v in (
                    ("--seed", args.seed),
                    ("--states", args.states),
                    ("--actions", args.actions),
                    ("--branching", args.branching),
                )
                if v is None
            ]
            if missing:
                _err(f"gen-mdp --kind random requires {', '.join(missing)}")
                return EXIT_USAGE
            mdp = generate_random_mdp(
                args.seed, args.states, args.actions, args.branching,
                args.reward_scale, args.gamma,
            )
        else:
            if args.width is None or args.height is None:
                _err("gen-mdp --kind grid requires --width and --height")
                return EXIT_USAGE
            mdp = generate_gridworld(
                args.width, args.height, args.slip, args.goal_reward, args.gamma
            )
    except (ValueError, OverflowError) as exc:  # a flag out of range
        _err(str(exc))
        return EXIT_USAGE
    save_mdp(mdp, args.out)
    print(
        f"wrote {args.out}: {mdp.n_states} states, {mdp.n_actions} actions, "
        f"gamma={mdp.gamma:g}; validation OK"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.mdp is None:
        _err("solve requires --mdp")
        return EXIT_USAGE
    try:
        mdp = load_mdp(args.mdp)
    except (OSError, MdpFormatError) as exc:
        _err(f"cannot load MDP {args.mdp}: {exc}")
        return EXIT_USAGE
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    q0 = None
    if args.q0:
        try:
            with open(args.q0, "r", encoding="utf-8") as fh:
                q0 = np.asarray(json.load(fh), dtype=np.float64)
        except (OSError, ValueError) as exc:
            _err(f"cannot load q0 {args.q0}: {exc}")
            return EXIT_USAGE
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    exit_code = EXIT_OK
    try:
        trace = run(mdp, cfg, q0=q0)
        if not trace.converged:
            exit_code = EXIT_MAX_ITER
    except DivergenceError as exc:
        trace = exc.trace
        exit_code = EXIT_DIVERGENCE
        _err(str(exc))
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    write_trace_csv(trace, outdir / "trace.csv", include_timing=args.timing)
    oracle_err = None
    if args.oracle and exit_code == EXIT_OK:
        try:
            oracle = fixed_point_oracle(mdp, cfg.operator)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_USAGE
        oracle_err = float(np.abs(trace.final_q - oracle).max())
    summary = {
        "command": "solve",
        "mdp": str(args.mdp),
        "scheme": cfg.scheme.value,
        "config_hash": cfg.config_hash(),
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_residual_inf": trace.records[-1].residual_inf
        if trace.records
        else None,
        "oracle_error_inf": oracle_err,
        "exit_code": exit_code,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(COMPACT_JSON.encode(summary) + "\n")
    print(
        f"{cfg.label()}: converged={trace.converged} iterations={trace.iterations} "
        f"final_residual={summary['final_residual_inf']!r}"
    )
    return exit_code


def _parse_scheme_spec(spec: str, args) -> SolverConfig:
    name, _, rest = spec.partition(":")
    if name not in _SCHEME_CHOICES:
        raise ValueError(f"unknown scheme {name!r} in spec {spec!r}")
    overrides = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("m", "beta", "eta", "omega"):
                raise ValueError(f"unknown key {key!r} in scheme spec {spec!r}")
            overrides[key] = value
    omega = float(overrides.get("omega", args.omega))
    return SolverConfig(
        scheme=Scheme(name),
        operator=OperatorSpec(OperatorKind(args.op), omega),
        m=int(overrides.get("m", 0)),
        beta=float(overrides.get("beta", args.beta)),
        beta_convention=BetaConvention(args.beta_convention),
        eta=float(overrides.get("eta", 0.0)),
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _parse_seed_range(text: str) -> range:
    start_s, _, stop_s = text.partition(":")
    if not stop_s:
        raise ValueError(f"--seeds must look like start:stop, got {text!r}")
    return range(int(start_s), int(stop_s))


def cmd_compare(args) -> int:
    if not args.schemes or len(args.schemes) < 2:
        _err("compare needs at least two --scheme specs")
        return EXIT_USAGE
    try:
        configs = [_parse_scheme_spec(s, args) for s in args.schemes]
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    mdps, seeds, labels = [], [], []
    if args.mdps:
        for path in args.mdps:
            try:
                mdps.append(load_mdp(path))
            except (OSError, MdpFormatError) as exc:
                _err(f"cannot load MDP {path}: {exc}")
                return EXIT_USAGE
            seeds.append(None)
            labels.append(str(path))
    if args.gen:
        try:
            seed_range = _parse_seed_range(args.seeds)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_USAGE
        for seed in seed_range:
            try:
                mdp = generate_random_mdp(
                    seed, args.states, args.actions, args.branching,
                    args.reward_scale, args.gamma,
                )
            except (ValueError, OverflowError) as exc:
                _err(str(exc))
                return EXIT_USAGE
            mdps.append(mdp)
            seeds.append(seed)
            labels.append(f"random(seed={seed})")
    if not mdps:
        _err("compare needs --mdp files or --gen with a seed range")
        return EXIT_USAGE
    report = run_ensemble(configs, mdps, mdp_seeds=seeds, mdp_labels=labels)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.jsonl", "w", encoding="utf-8") as fh:
        fh.write(report.to_jsonl())
    with open(outdir / "curves.csv", "w", encoding="utf-8") as fh:
        fh.write("scheme,mdp_seed,iter,residual_inf\n")
        for (i, j), trace in sorted(report.traces.items()):
            scheme = report.config_labels[i]
            seed_txt = "" if seeds[j] is None else str(seeds[j])
            for rec in trace.records:
                fh.write(f"{scheme},{seed_txt},{rec.k},{rec.residual_inf!r}\n")
    aggregate = {"win_rate": {}, "mean_iterations": {}}
    for i, label in enumerate(report.config_labels):
        its = [
            report.summary(i, j).iterations
            for j in range(len(mdps))
            if report.summary(i, j).converged
        ]
        aggregate["mean_iterations"][label] = (
            float(np.mean(its)) if its else None
        )
        for i2, label2 in enumerate(report.config_labels):
            if i2 != i:
                aggregate["win_rate"][f"{label} vs {label2}"] = report.win_rate(i, i2)
    with open(outdir / "aggregate.json", "w", encoding="utf-8") as fh:
        fh.write(COMPACT_JSON.encode(aggregate) + "\n")
    for key in sorted(aggregate["win_rate"]):
        print(f"win-rate {key}: {aggregate['win_rate'][key]:.3f}")
    n_failed = sum(1 for s in report.summaries if s.failed)
    if n_failed:
        print(f"{n_failed}/{len(report.summaries)} runs failed (recorded in report)")
    if n_failed == len(report.summaries):
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_check(args) -> int:
    try:  # the suite's stable-aa configs take --eta, --beta and --omega as they are
        if not (np.isfinite(args.eta) and args.eta > 0.0):
            raise ValueError(f"eta must be finite and positive, got {args.eta}")
        if args.pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {args.pairs}")
        SolverConfig(
            scheme=Scheme.STABLE_AA,
            operator=OperatorSpec(OperatorKind.MELLOW_MAX, args.omega),
            beta=args.beta,
            eta=args.eta,
        )
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    records = diagnostics.run_check_suite(
        seed=args.seed,
        n_pairs=args.pairs,
        eta=args.eta,
        beta=args.beta,
        omega=args.omega,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics.write_check_report(
        records,
        outdir / "check_report.jsonl",
        extra_header={
            "seed": args.seed,
            "pairs": args.pairs,
            "eta": args.eta,
            "beta": args.beta,
            "omega": args.omega,
        },
    )
    asserted = [r for r in records if r.asserted]
    failures = [r for r in asserted if not r.satisfied]
    report_only_bad = [r for r in records if not r.asserted and not r.satisfied]
    print(
        f"check: {len(asserted)} asserted records, {len(failures)} failures; "
        f"{len(report_only_bad)} report-only findings"
    )
    if failures:
        for rec in failures[:20]:
            print(f"FAILED {rec.to_json()}", file=sys.stderr)
        return EXIT_BOUND_FAILURE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        defaults = _load_config_defaults(argv)
    except (OSError, ValueError, MdpFormatError) as exc:
        _err(f"cannot load --config: {exc}")
        return EXIT_USAGE
    parser = _build_parser(defaults)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
