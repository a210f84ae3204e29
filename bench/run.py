"""Benchmark entry point: one workload, untraced or traced.

    python3 bench/run.py --workload paper --seed 0 --seconds 20 --trace 0

Builds edgeplacer from src/ in this checkout, runs the workload's pass
again and again for --seconds, checks every operation's output against
bench/pins.json, and prints one JSON object as the last line of stdout.
--trace 0 reports the end-to-end metrics, with times in reference seconds
(speed.py); --trace 1 alternates untraced and traced passes and reports the
per-layer metrics in host seconds. bench/README.md explains the workloads
and every metric.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
WORK = BENCH / "_work"

MODULES = ("harness", "cli", "policies", "predict", "model", "costqueue")
REQUIRED_MODULES = ("harness", "cli")
SETUP_REPS = 15
FRAME_POLICIES = ("psp", "pspwu")


class Pass:
    def __init__(self, tracer):
        self.tracer = tracer
        self.durations = []  # host seconds of each operation
        self.ref_s = []  # the same in reference seconds (speed.py)

    @property
    def traced(self):
        return self.tracer is not None

    @property
    def seconds(self):
        return math.fsum(self.durations)


# -- set-up ------------------------------------------------------------------

def fresh_import() -> dict:
    """Import edgeplacer's modules anew; a module that is gone is skipped."""
    for name in [m for m in sys.modules
                 if m == "edgeplacer" or m.startswith("edgeplacer.")]:
        del sys.modules[name]
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"edgeplacer.{name}")
        except ModuleNotFoundError:
            if name in REQUIRED_MODULES:
                raise
    return mods


def setup(workload, seed, workdir, smoke, clock):
    """Import plus building the inputs, SETUP_REPS times; the last is kept.

    Returns the median (host, reference) seconds, the modules and the ops.
    """
    def once():
        mods = fresh_import()
        return mods, workloads.build(workload, seed, mods, str(workdir), smoke)

    host, ref = [], []
    for _ in range(SETUP_REPS):
        (mods, ops), host_s, ref_s = clock.time(once)
        host.append(host_s)
        ref.append(ref_s)
    return (statistics.median(host), statistics.median(ref)), mods, ops


def load_pins(workload, seed, ops, smoke):
    """Pinned fingerprints for this seed, or None when the seed has none."""
    if smoke or not PINS.is_file():
        return None
    entry = json.loads(PINS.read_text())["workloads"].get(workload, {})
    pinned = entry.get("seeds", {}).get(str(seed))
    if pinned is None:
        return None
    names = [op.name for op in ops]
    if entry.get("ops") != names:
        raise SystemExit(f"bench/pins.json lists ops {entry.get('ops')} for "
                         f"{workload}, the workload has {names}: re-pin")
    return pinned


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()  # only once no other run is using it
    except OSError:
        pass


# -- measurement ---------------------------------------------------------------

def _attempt(call):
    try:
        return call(), None
    except Exception as exc:  # the op failed; keep measuring
        return None, exc


def measure(ops, mods, seconds, trace, pinned, clock):
    """Run passes until the time is up; alternate traced ones with --trace 1.

    Returns (passes, failures, fingerprints of the first pass), with one
    failure per failed operation. An operation fails if it raises, if its
    fingerprint says so, if its output differs from its own first pass
    (traced or not), or if it differs from the pinned one.
    """
    passes, failures = [], []
    first = [None] * len(ops)
    deadline = time.perf_counter() + seconds
    while True:
        tracer = None
        if trace and len(passes) % 2 == 1:
            keep_runs = not any(p.traced for p in passes)
            tracer = spans.Tracer(mods, keep_runs=keep_runs)
            tracer.install()
        this = Pass(tracer)
        try:
            for k, op in enumerate(ops):
                op.prepare()
                call = op.call
                if tracer is not None and op.cli:
                    call = tracer.span(spans.CLI_ROOT, call)
                (result, exc), host_s, ref_s = clock.time(
                    lambda: _attempt(call))
                this.durations.append(host_s)
                this.ref_s.append(ref_s)
                if exc is not None:
                    failures.append(f"{op.name}: raised {exc!r}")
                    continue
                try:
                    fp = op.fingerprint(result)
                except workloads.OpFailed as exc:
                    failures.append(f"{op.name}: {exc}")
                    continue
                problems = []
                if first[k] is None:
                    first[k] = fp
                elif fp != first[k]:
                    problems.append(f"output differs from the first pass "
                                    f"(traced={this.traced})")
                if pinned is not None and fp != pinned[k]:
                    problems.append("output differs from the pin")
                if problems:
                    failures.append(f"{op.name}: {'; '.join(problems)}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(this)
        done = not trace or (any(p.traced for p in passes)
                             and any(not p.traced for p in passes))
        if done and time.perf_counter() >= deadline:
            return passes, failures, first


# -- end-to-end metrics ------------------------------------------------------

def _times(runs, ops, setup_s, workload):
    """(metric, value) of every time metric; runs holds each pass's times."""
    # slots per second of a median pass: each op's median time, summed
    median_pass = math.fsum(statistics.median(times[k] for times in runs)
                            for k in range(len(ops)))
    samples = [d for times in runs for d in times]
    hi = float(np.percentile(samples, workloads.HI_PERCENTILE[workload]))
    return {
        "setup_s": setup_s,
        "slots_per_s": sum(op.slots for op in ops) / median_pass,
        "op_s_p50": statistics.median(samples),
        "op_s_hi": hi,  # interpolated between samples
    }, sum(d > hi for d in samples)


def end_to_end(passes, ops, setup_s, workload):
    """Metrics in reference seconds; the notes give them in host seconds."""
    ref, beyond = _times([p.ref_s for p in passes], ops, setup_s[1], workload)
    host, _ = _times([p.durations for p in passes], ops, setup_s[0], workload)
    notes = {name: f"{value!r} in host time" for name, value in host.items()}
    notes["op_s_hi"] += (f"; p{workloads.HI_PERCENTILE[workload]:g} of "
                         f"{len(ops) * len(passes)} operations, "
                         f"{beyond} beyond it")
    units = {"setup_s": "s", "slots_per_s": "1/s", "op_s_p50": "s",
             "op_s_hi": "s"}
    metrics = {name: (value, units[name]) for name, value in ref.items()}
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


# -- per-layer metrics ---------------------------------------------------------

def frame_deviation(per_slot, final_queue, frame_len):
    """Worst |q after a slot - q at its frame's start| over the run."""
    qs = [float(row[4]) for row in per_slot] + [float(final_queue)]
    worst = 0.0
    for start in range(0, len(per_slot), frame_len):
        end = min(start + frame_len, len(per_slot))
        worst = max(worst, max(abs(qs[t + 1] - qs[start])
                               for t in range(start, end)))
    return worst


def run_stats(runs, harness):
    """Statistics of the simulated system over every run of one pass."""
    latency, cost, slack = [], [], []
    migrations = negative_w = 0
    dev_frac = 0.0
    w_q_of = getattr(harness, "max_slot_migration_cost", None)
    for scn, observations, policy, rec in runs:
        costs = [float(row[3]) for row in rec.per_slot]
        migrations += sum(c > 0 for c in costs)  # moving always costs > 0
        negative_w += int(rec.negative_w_frames)
        latency.append(float(rec.avg_latency))
        cost.append(float(rec.avg_cost))
        slack.append(math.fsum([scn.horizon * scn.budget_avg,
                                float(rec.final_queue)] + [-c for c in costs]))
        if policy in FRAME_POLICIES and w_q_of is not None:
            w_q = max(scn.budget_avg, w_q_of(observations[:scn.horizon]))
            dev_frac = max(dev_frac, frame_deviation(
                rec.per_slot, rec.final_queue, scn.frame_len)
                / (scn.frame_len * w_q))
    count = max(len(runs), 1)
    return {
        "sim.migrations": (migrations, "count"),
        "sim.avg_latency_s": (math.fsum(latency) / count, "s"),
        "sim.avg_cost": (math.fsum(cost) / count, "cost"),
        "sim.budget_slack_min": (min(slack, default=0.0), "cost"),
        "sim.negative_w_frames": (negative_w, "count"),
        "sim.frame_dev_frac_max": (dev_frac, "frac"),
    }


def _self(tr, *names):
    return math.fsum(tr.self_s.get(n, 0.0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, value of one traced pass). Times are medians over traced
# passes; counts and ratios of counts repeat exactly from pass to pass.
PASS_TIMES = (
    ("harness.materialize_s", "s",
     lambda tr: _self(tr, "harness.synthetic_trace",
                      "harness.generate_scenario")),
    ("harness.simulate_self_s", "s", lambda tr: _self(tr, "harness.simulate")),
    ("harness.trace_read_s", "s", lambda tr: _self(tr, "harness.read_trace_csv")),
    ("harness.write_s", "s", lambda tr: _self(tr, "harness.write")),
    ("predict.s", "s", lambda tr: _self(tr, "predict.predict")),
    ("policies.decide_s", "s", lambda tr: _self(tr, "policies.decide")),
    ("policies.decide_us_per_call", "us",
     lambda tr: 1e6 * _ratio(_self(tr, "policies.decide"),
                             tr.calls.get("policies.decide", 0))),
    ("policies.oracle_s", "s", lambda tr: _self(tr, "policies.oracle")),
    ("model.slot_outcome_s", "s", lambda tr: _self(tr, "model.slot_outcome")),
    ("costqueue.advance_s", "s", lambda tr: _self(tr, "costqueue.advance")),
    ("cli.self_s", "s", lambda tr: _self(tr, spans.CLI_ROOT)),
)
PASS_COUNTS = (
    ("harness.materialize_calls", "count",
     lambda tr: tr.counts.get("harness.materialize_calls", 0)),
    ("harness.trace_read_calls", "count",
     lambda tr: tr.calls.get("harness.read_trace_csv", 0)),
    ("harness.write_rows", "count",
     lambda tr: tr.counts.get("harness.write_rows", 0)),
    ("harness.write_bytes", "B",
     lambda tr: tr.counts.get("harness.write_bytes", 0)),
    ("predict.calls", "count", lambda tr: tr.calls.get("predict.predict", 0)),
    ("predict.history_elems", "count",
     lambda tr: tr.counts.get("predict.history_elems", 0)),
    ("predict.acc_step1", "frac",
     lambda tr: _ratio(tr.counts.get("predict.hits_step1", 0),
                       tr.counts.get("predict.attempts_step1", 0))),
    ("predict.acc_step2", "frac",
     lambda tr: _ratio(tr.counts.get("predict.hits_step2", 0),
                       tr.counts.get("predict.attempts_step2", 0))),
    ("policies.decide_calls", "count",
     lambda tr: tr.calls.get("policies.decide", 0)),
    ("policies.oracle_calls", "count",
     lambda tr: tr.calls.get("policies.oracle", 0)),
    ("model.latency_calls", "count",
     lambda tr: tr.counts.get("model.latency_calls", 0)),
    ("costqueue.advance_calls", "count",
     lambda tr: tr.calls.get("costqueue.advance", 0)),
)


def per_layer(passes, mods):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0].tracer
    metrics = {}
    for name, unit, value in PASS_TIMES:
        metrics[name] = (statistics.median(value(p.tracer) for p in traced),
                         unit)
    for name, unit, value in PASS_COUNTS:
        metrics[name] = (value(first), unit)
    for layer in spans.LAYERS:
        metrics[f"layer.{layer}_frac"] = (statistics.median(
            p.tracer.layer_self_s()[layer] / p.seconds for p in traced), "frac")
    metrics["trace.overhead_frac"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced) - 1.0, "frac")
    metrics.update(run_stats(first.runs, mods["harness"]))
    notes = {"absent": first.absent,
             "unreadable": {k: v for k, v in first.counts.items()
                            if k.startswith("unreadable.")}}
    return metrics, notes


# -- environment ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(threads) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "EDGEPLACER_THREADS": ("unset" if threads is None else
                               f"unset (was {threads!r}, removed)"),
    }


# -- main ----------------------------------------------------------------------

def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative_int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure this long; 0 runs the fewest passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no pins: for bench/test_smoke.py")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgeplacer" / "__init__.py").is_file():
        print(f"no edgeplacer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the benchmark runs single-threaded: a threaded sweep would depend on the
    # caller's shell and interleave the tracer's spans
    threads = os.environ.pop("EDGEPLACER_THREADS", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with speed.Clock(scale=not args.trace) as clock:
            setup_s, mods, ops = setup(args.workload, args.seed, workdir,
                                       args.smoke, clock)
            pinned = load_pins(args.workload, args.seed, ops, args.smoke)
            passes, failures, _ = measure(ops, mods, args.seconds,
                                          bool(args.trace), pinned, clock)
    finally:
        remove_workdir(workdir)

    attempted = sum(len(p.durations) for p in passes)
    failed = len(failures)
    fail_frac = failed / attempted
    if args.trace:
        metrics, notes = per_layer(passes, mods)
        metrics["fail_frac"] = (fail_frac, "frac")
    else:
        metrics, notes = end_to_end(passes, ops, setup_s, args.workload)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(environment(threads)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} ({sum(p.traced for p in passes)} traced) "
          f"ops/pass {len(ops)} pinned {'yes' if pinned else 'no'}")
    if args.trace:
        print(f"absent names: {notes['absent'] or 'none'}; unreadable calls: "
              f"{notes['unreadable'] or 'none'}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    if not args.trace:
        print(f"fail_frac = {fail_frac!r} frac  ({failed} of {attempted} "
              f"operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
