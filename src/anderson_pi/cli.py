"""Command-line front end.

Subcommands: ``gen-mdp`` (write instance files), ``solve`` (one run,
trace CSV + summary JSON), ``compare`` (ensembles with win rates and
plot-ready curves), ``check`` (the property suite).

Exit codes are a stable scripting contract:
    0  success
    2  usage / input error: a flag, config value or scheme spec refused
       (a repeated spec key too), an input file that cannot be read, or
       an ``-o`` that cannot be written; one ``error:`` line on stderr
    3  solver (or the reference oracle) stopped at max_iter without converging
    4  divergence
    5  an asserted bound failed in ``check``

Commands raise their usage and input errors; ``main`` alone turns them
into the exit code.  ``check`` and ``compare`` make ``-o`` before they
compute, so a bad path fails before the suite or the ensemble runs.

Every command is deterministic given its flags: all randomness is
seeded through flags and output files carry no timestamps.  Trace files
write ``wall_nanos`` as 0 unless ``--timing`` is passed, keeping
repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .mdp import generate_gridworld, generate_random_mdp, load_mdp, save_mdp
from .operators import OperatorKind, OperatorSpec
from .solver import (
    COMPACT_JSON,
    BetaConvention,
    DivergenceError,
    OraclePrecisionError,
    Scheme,
    SolverConfig,
    fixed_point_oracle,
    require_contractive,
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


def _add_run_flags(p: argparse.ArgumentParser, op: str, omega: float) -> None:
    p.add_argument("--beta", type=float, default=1.0, help="damping in [0,1]")
    p.add_argument("--beta-convention", choices=("eq2", "eq13"), default="eq2",
                   help="eq2: beta weights operator images; eq13: the mirrored "
                        "convention (beta weights raw iterates)")
    p.add_argument("--op", choices=_OP_CHOICES, default=op)
    p.add_argument("--omega", type=float, default=omega)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)


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


class _ReplaceAppend(argparse._AppendAction):
    """A repeatable flag whose command-line values replace a ``--config`` list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is self.default:  # the first on the line
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


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
    s.add_argument("--scheme", choices=_SCHEME_CHOICES, default="vanilla")
    s.add_argument("-m", "--depth", dest="m", type=int, default=0,
                   help="history depth m (window holds m+1 iterates)")
    s.add_argument("--eta", type=float, default=0.0,
                   help="stable regularization scale (stable-aa only)")
    _add_run_flags(s, op="max", omega=1.0)
    s.add_argument("--safeguard", action="store_true",
                   help="clear history and take a plain step when the residual "
                        "more than doubles")
    s.add_argument("--diagnostics", choices=("basic", "full"), default="basic",
                   help="full: stable-aa also records the Prop2_2 gap and ||G~||_2 "
                        "(trace columns, not in trace.csv); other schemes as basic")
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
    c.add_argument("--scheme", action=_ReplaceAppend, dest="schemes", default=None,
                   metavar="SPEC",
                   help="scheme spec, repeatable; e.g. vanilla, kkt:m=5, "
                        "stable-aa:m=5,eta=0.1,safeguard=1")
    c.add_argument("--mdp", action=_ReplaceAppend, dest="mdps", default=None,
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
    _add_run_flags(c, op="mellowmax", omega=5.0)
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
        # a key may belong to any command; each command takes the keys it knows
        known = set()
        for sp in (g, s, c, k):
            flags = {a.dest: a for a in sp._actions if a.dest != "help"}
            sp.set_defaults(**{
                key: _config_value(flags[key], key, value)
                for key, value in defaults.items() if key in flags
            })
            known |= flags.keys()
        unknown = sorted(set(defaults) - known)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config file's ``value`` for ``key``, checked and typed as its flag would be."""
    if action.nargs == 0:  # a switch such as --safeguard
        if isinstance(value, bool):
            return value
        raise ValueError(f"key {key!r} takes true or false, got {json.dumps(value)}")
    appended = isinstance(action, argparse._AppendAction)  # --scheme, --mdp: a list or one
    items = []
    for item in value if appended and isinstance(value, list) else [value]:
        # the flag's text: a string, or a number written as it would be typed
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"key {key!r} does not take {json.dumps(item)}")
        try:
            item = (action.type or str)(str(item))
        except ValueError:
            kind = action.type.__name__
            raise ValueError(f"key {key!r}: invalid {kind} value {json.dumps(item)}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"key {key!r}: {item!r} is not one of {', '.join(action.choices)}")
        items.append(item)
    return items if appended else items[0]


def _load_config_defaults(argv: list[str]) -> dict | None:
    # argparse finds the path, so --config=PATH and abbreviations work as on
    # the real parser; a missing value is left for the real parser to report
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


@contextlib.contextmanager
def _reading(what: str):
    """Name ``what`` (the file being read) in an input error raised inside.

    A TypeError there is content of the wrong JSON type, such as an object for q0.
    """
    try:
        yield
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _require(command: str, flags) -> None:
    missing = [flag for flag, value in flags if value is None]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")


def cmd_gen_mdp(args) -> int:
    _require("gen-mdp", (("--kind", args.kind), ("--gamma", args.gamma), ("-o", args.out)))
    if args.kind == "random":
        _require("gen-mdp --kind random", (
            ("--seed", args.seed),
            ("--states", args.states),
            ("--actions", args.actions),
            ("--branching", args.branching),
        ))
        mdp = generate_random_mdp(
            args.seed, args.states, args.actions, args.branching,
            args.reward_scale, args.gamma,
        )
    else:
        if args.width is None or args.height is None:
            raise ValueError("gen-mdp --kind grid requires --width and --height")
        mdp = generate_gridworld(
            args.width, args.height, args.slip, args.goal_reward, args.gamma
        )
    save_mdp(mdp, args.out)
    print(
        f"wrote {args.out}: {mdp.n_states} states, {mdp.n_actions} actions, "
        f"gamma={mdp.gamma:g}; validation OK"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    _require("solve", (("--mdp", args.mdp),))
    with _reading(f"cannot load MDP {args.mdp}"):
        mdp = load_mdp(args.mdp)
    cfg = _config_from_args(args)
    if args.oracle:  # refused before the run writes anything
        require_contractive(cfg.operator)
    q0 = None
    if args.q0:
        with _reading(f"cannot load q0 {args.q0}"), open(args.q0, "r", encoding="utf-8") as fh:
            q0 = np.asarray(json.load(fh), dtype=np.float64)
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
    write_trace_csv(trace, outdir / "trace.csv", include_timing=args.timing)
    oracle_err = None
    if args.oracle and exit_code == EXIT_OK:
        oracle = fixed_point_oracle(mdp, cfg.operator)
        oracle_err = float(np.abs(trace.final_q - oracle).max())
    summary = {
        "command": "solve",
        "mdp": str(args.mdp),
        "scheme": cfg.scheme.value,
        "config_hash": cfg.config_hash(),
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_residual_inf": float(trace.residual_inf[-1])
        if len(trace.residual_inf)
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
            if key not in ("m", "beta", "eta", "omega", "safeguard"):
                raise ValueError(f"unknown key {key!r} in scheme spec {spec!r}")
            if key in overrides:
                raise ValueError(f"repeated key {key!r} in scheme spec {spec!r}")
            overrides[key] = value
    safeguard = overrides.get("safeguard", "0").strip()
    if safeguard not in ("0", "1"):
        raise ValueError(
            f"safeguard must be 0 or 1, got {safeguard!r} in scheme spec {spec!r}"
        )

    def number(key, kind, default):
        """The spec's value of ``key`` as ``kind`` (int or float), else ``default``."""
        try:
            return kind(overrides[key]) if key in overrides else default
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(
                f"{key} must be {what}, got {overrides[key]!r} in scheme spec {spec!r}"
            ) from None

    return _config_from_args(argparse.Namespace(**vars(args) | {
        "scheme": name,
        "omega": number("omega", float, args.omega),
        "m": number("m", int, 0),
        "beta": number("beta", float, args.beta),
        "eta": number("eta", float, 0.0),
        "safeguard": safeguard == "1",
        "diagnostics": "basic",
    }))


def _parse_seed_range(text: str) -> range:
    start_s, _, stop_s = text.partition(":")
    try:
        start, stop = int(start_s), int(stop_s)
    except ValueError:
        raise ValueError(f"--seeds must look like start:stop, got {text!r}") from None
    if not 0 <= start < stop:
        raise ValueError(f"--seeds needs 0 <= start < stop, got {text!r}")
    return range(start, stop)


def cmd_compare(args) -> int:
    if not args.schemes or len(args.schemes) < 2:
        raise ValueError("compare needs at least two --scheme specs")
    configs = [_parse_scheme_spec(s, args) for s in args.schemes]
    mdps, seeds, labels = [], [], []
    for path in args.mdps or ():
        with _reading(f"cannot load MDP {path}"):
            mdps.append(load_mdp(path))
        seeds.append(None)
        labels.append(str(path))
    if args.gen:
        for seed in _parse_seed_range(args.seeds):
            mdps.append(generate_random_mdp(
                seed, args.states, args.actions, args.branching, args.reward_scale, args.gamma,
            ))
            seeds.append(seed)
            labels.append(f"random(seed={seed})")
    if not mdps:
        raise ValueError("compare needs --mdp files or --gen with a seed range")
    outdir = Path(args.outdir)
    made = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)  # a bad -o fails before the ensemble runs
    try:
        report = run_ensemble(configs, mdps, mdp_seeds=seeds, mdp_labels=labels)
    except OraclePrecisionError:  # compare then writes no file
        for p in made:
            p.rmdir()
        raise
    with open(outdir / "report.jsonl", "w", encoding="utf-8") as fh:
        fh.write(report.to_jsonl())
    with open(outdir / "curves.csv", "w", encoding="utf-8") as fh:
        fh.write("scheme,mdp_seed,iter,residual_inf\n")
        for (i, j), trace in sorted(report.traces.items()):
            scheme = report.config_labels[i]
            seed_txt = "" if seeds[j] is None else str(seeds[j])
            for k, res_inf in enumerate(trace.residual_inf.tolist()):
                fh.write(f"{scheme},{seed_txt},{k},{res_inf!r}\n")
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
    # the suite's stable-aa configs take --eta, --beta and --omega as they are
    if not (np.isfinite(args.eta) and args.eta > 0.0):
        raise ValueError(f"eta must be finite and positive, got {args.eta}")
    if args.pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {args.pairs}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    SolverConfig(
        scheme=Scheme.STABLE_AA,
        operator=OperatorSpec(OperatorKind.MELLOW_MAX, args.omega),
        beta=args.beta,
        eta=args.eta,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)  # a bad -o fails before the suite runs
    records = diagnostics.run_check_suite(
        seed=args.seed,
        n_pairs=args.pairs,
        eta=args.eta,
        beta=args.beta,
        omega=args.omega,
    )
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
    """Run one command; every usage or input error it raises is one line and exit 2."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        with _reading("cannot load --config"):
            parser = _build_parser(_load_config_defaults(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except OraclePrecisionError as exc:  # the reference oracle stopped at its cap
        _err(str(exc))
        return EXIT_MAX_ITER
    except (ValueError, OverflowError, OSError) as exc:  # MdpFormatError is a ValueError
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
