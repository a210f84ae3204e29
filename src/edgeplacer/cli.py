"""Command-line front door: run, sweep, verify, gen-trace.

A thin shell over the harness; every behavior here is reachable through the
library API. Exit codes: 0 success, 2 configuration or usage problem, 3 trace
format problem, 4 verification failure or a run that broke an engine
invariant.
"""

import argparse
import os
import sys
from functools import partial

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_VERIFY = 4


def _at_least(minimum: int, text: str) -> int:
    """argparse type of a whole number >= minimum (bound with partial)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be at least {minimum}, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeplacer",
        description="Online edge service placement simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("run", "execute one configured run"),
                       ("sweep", "execute one run per sweep axis value")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="summary CSV path (required)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, e.g. policy.v=900 (repeatable)")
        p.add_argument("--per-slot", action="store_true",
                       help="also dump per-slot CSV next to the output")
        p.add_argument("--seed", type=int, help="override scenario.seed")

    p = sub.add_parser("verify", help="run the brute-force oracle suites")
    p.add_argument("--seed", type=partial(_at_least, 0), default=1)
    p.add_argument("--instances", type=partial(_at_least, 1), default=200)

    # a run's synthetic trace has the same defaults
    defaults = harness.ExperimentConfig
    p = sub.add_parser("gen-trace", help="write a synthetic mobility trace CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=defaults.trace_seed)
    p.add_argument("--regions", type=int, default=defaults.node_count)
    p.add_argument("--length", type=int, default=defaults.horizon)
    p.add_argument("--stickiness", type=float,
                   default=defaults.trace_stickiness)

    return parser


def _check_output(path: str) -> None:
    """Reject an output path that is empty, is a directory or lies in a
    directory that does not exist, before any work is done, rather than
    fail when the result is written."""
    if not path:
        raise harness.ConfigError("output path is empty")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise harness.ConfigError(f"output directory {folder} does not exist")
    if os.path.isdir(path):
        raise harness.ConfigError(f"output {path} is a directory")


def _load(args) -> harness.ExperimentConfig:
    raw = harness.load_config_file(args.config)
    seed = [] if args.seed is None else [f"scenario.seed={args.seed}"]
    harness.apply_overrides(raw, args.set + seed)
    config = harness.config_from_dict(raw)
    if args.out is None:
        raise harness.ConfigError("no output path: set --out")
    _check_output(args.out)
    return config


def _cmd_run(args) -> int:
    """run and sweep: a summary row per run at --out and, with --per-slot,
    a per-slot CSV per run, <stem>_slots<ext> or a sweep's
    <stem>_slots_<i><ext>. Every output path is checked before the first
    run."""
    config = _load(args)
    one = args.command == "run"
    stem, ext = os.path.splitext(args.out)
    slot_paths = [stem + ("_slots" if one else f"_slots_{i}") + (ext or ".csv")
                  for i in range(1 if one else len(config.sweep_values))
                  if args.per_slot]
    for path in slot_paths:
        _check_output(path)
    results = [("", harness.run(config))] if one else harness.sweep(config)
    harness.write_summary_csv(
        args.out, [(v, config.policy, rec) for v, rec in results])
    for path, (_, rec) in zip(slot_paths, results):
        harness.write_per_slot_csv(path, rec)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ok = True
    matches, total, mismatches = harness.verify_frame_oracles(
        seed=args.seed, instances=args.instances)
    print(f"{matches}/{total} oracle matches")
    ok &= matches == total

    wu_total = max(args.instances // 2, 1)
    matches_wu, _, mismatches_wu = harness.verify_frame_oracles(
        seed=args.seed + 1, instances=wu_total, anchor_low=-20.0)
    print(f"{matches_wu}/{wu_total} oracle matches (weight anchor)")
    ok &= matches_wu == wu_total

    passes, checks, bound_failures = harness.verify_horizon_bound(seed=args.seed)
    print(f"{passes}/{checks} horizon bound holds")
    ok &= passes >= 0.9 * checks

    for line in mismatches + mismatches_wu + bound_failures:
        print(f"  {line}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_gen_trace(args) -> int:
    _check_output(args.out)
    try:
        trace = harness.synthetic_trace(args.seed, args.regions, args.length,
                                        args.stickiness)
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from None
    harness.write_trace_csv(args.out, trace)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_run, "verify": _cmd_verify,
               "gen-trace": _cmd_gen_trace}[args.command]
    try:
        return handler(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except harness.TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except harness.InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
