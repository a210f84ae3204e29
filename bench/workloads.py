"""The benchmark's four workloads, built from the benchmark seed.

A workload is a fixed list of operations run in order as one pass. An
operation is one `harness.run(config)` call or one in-process
`cli.main(argv)` command. Its fingerprint (a SHA-256 of everything it
produced, or the text `verify` prints) is what bench/pins.json pins.

Why these four (bench/README.md has the full map from layers to metrics):

- paper: the configuration the paper and the acceptance suite run. Runs are
  short, so per-slot overhead (materialize, the simulate loop, the queue)
  dominates.
- long_horizon: five times the paper's horizon. predict's cost grows with
  the history it is handed, so it dominates here.
- wide: 50 nodes and 5-slot frames. The O(N^2 T) frame DP dominates and
  predict is small, so this is the control for predict changes.
- cli_sweep: the only workload that parses configs, reads a trace file,
  writes CSVs and runs the brute-force oracles, all through the CLI.

The program sees only the configs and argv built here; every scenario,
trace and predictor seed comes from the benchmark seed.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

WORKLOADS = ("paper", "long_horizon", "wide", "cli_sweep")

NODES = 6
HORIZON = 1400
FRAME_LEN = 3
BUDGET = 0.03
V = THETA = 50.0
PSPWU_BETA = 0.65  # with beta = 0 pspwu would replay psp exactly
ACCURACIES = (0.904, 0.839)  # lstm preset, look-ahead steps 1 and 2
POLICIES = ("osp", "psp", "pspwu", "am", "nm", "lm", "plm")
PAPER_SCENARIOS = 3

LONG_HORIZON = 5 * HORIZON
# (policy, predictor, scenario). osp runs on two scenarios so that two ops
# are faster and two slower than psp and pspwu, which puts the median
# operation between those two.
LONG_OPS = (("osp", "oracle_noisy", 0), ("osp", "oracle_noisy", 1),
            ("psp", "oracle_noisy", 0), ("pspwu", "moving_mode", 0),
            ("plm", "oracle_noisy", 0), ("psp", "markov1", 0))

WIDE_NODES = 50
WIDE_FRAME_LEN = 5
WIDE_ACCURACIES = (0.904, 0.839, 0.548, 0.548)  # lstm preset, step 3 repeated
# (policy, scenario). osp runs on one scenario and the frame policies on
# two, so the median operation lies inside the frame-policy cluster rather
# than at its fast edge, where the host's noise moves it most.
WIDE_OPS = (("osp", 0), ("psp", 0), ("pspwu", 0), ("psp", 1), ("pspwu", 1))

SWEEP_V = (10.0, 50.0, 200.0, 900.0)
# gen-trace and verify are faster than a run and a sweep is slower, so two
# of each around three runs put the median operation in the middle run.
CLI_SWEEPS = 2
CLI_RUNS = 3
VERIFY_INSTANCES = 20

# The percentile op_s_hi reports, fixed per workload so that it reads the
# same kind of operation however many passes fit in a run. Each is the
# middle of the slowest group of operations in the pass (the middle of the
# psp/pspwu group on wide), which holds it for any run of 2 passes or more.
# With a 25 s run it leaves at least 10 operations beyond it on paper, wide
# and cli_sweep. long_horizon fits only 3 or 4 passes of 6 operations, so
# no percentile above the median has 10 beyond it there; p75 is plm.
HI_PERCENTILE = {"paper": 93.0, "long_horizon": 75.0, "wide": 75.0,
                 "cli_sweep": 86.0}

# --smoke divides every horizon by this and runs a minimal verify.
SMOKE_DIVISOR = 20


class OpFailed(Exception):
    """An operation finished but its result is not a success."""


class Op:
    """One timed operation.

    call() does the work and is all that is timed. fingerprint(result)
    checks the result and reduces it to a string. outdir, when set, is
    emptied before every call so a file the op stops writing cannot hide.
    """

    def __init__(self, name, call, slots, fingerprint, outdir=None,
                 cli=False):
        self.name = name
        self.call = call
        self.slots = slots
        self.fingerprint = fingerprint
        self.outdir = outdir
        self.cli = cli

    def prepare(self):
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            os.makedirs(self.outdir)


def seeds_for(seed: int, workload: str, count: int) -> list[int]:
    """count independent 32-bit seeds for one workload."""
    seq = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return [int(s) for s in seq.generate_state(count)]


def record_fingerprint(rec) -> str:
    """SHA-256 of a RunRecord's summary row and its per-slot series."""
    h = hashlib.sha256()
    summary = (rec.avg_latency, rec.avg_cost, rec.avg_queue, rec.final_queue)
    h.update(",".join(repr(float(x)) for x in summary).encode())
    h.update(f",{int(rec.negative_w_frames)}".encode())
    for t, placement, lat, cost, q, w in rec.per_slot:
        h.update(f"\n{int(t)},{int(placement)},{float(lat)!r},{float(cost)!r},"
                 f"{float(q)!r},{float(w)!r}".encode())
    return h.hexdigest()


def files_fingerprint(outdir: str) -> str:
    """SHA-256 over every file an operation wrote, in name order."""
    h = hashlib.sha256()
    names = sorted(os.listdir(outdir))
    if not names:
        raise OpFailed("wrote no files")
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def build(workload: str, seed: int, mods: dict, workdir: str,
          smoke: bool = False) -> list[Op]:
    """The workload's operations for this seed, with any input files written."""
    div = SMOKE_DIVISOR if smoke else 1
    if workload == "cli_sweep":
        return _cli_sweep(seed, mods, workdir, HORIZON // div,
                          1 if smoke else VERIFY_INSTANCES)
    if workload == "paper":
        s = seeds_for(seed, workload, 3 * PAPER_SCENARIOS)
        return [_run_op(mods, f"{policy}.s{i}", policy, *s[3 * i:3 * i + 3],
                        horizon=HORIZON // div)
                for i in range(PAPER_SCENARIOS) for policy in POLICIES]
    if workload == "long_horizon":
        s = seeds_for(seed, workload, 6)
        return [_run_op(mods, f"{policy}+{kind}.s{i}", policy,
                        *s[3 * i:3 * i + 3], kind=kind,
                        horizon=LONG_HORIZON // div)
                for policy, kind, i in LONG_OPS]
    if workload == "wide":
        s = seeds_for(seed, workload, 6)
        return [_run_op(mods, f"{policy}.s{i}", policy, *s[3 * i:3 * i + 3],
                        horizon=HORIZON // div, nodes=WIDE_NODES,
                        frame_len=WIDE_FRAME_LEN, accuracies=WIDE_ACCURACIES)
                for policy, i in WIDE_OPS]
    raise ValueError(f"unknown workload {workload!r}")


def _run_op(mods, name, policy, scenario_seed, trace_seed, rng_seed,
            kind="oracle_noisy", horizon=HORIZON, nodes=NODES,
            frame_len=FRAME_LEN, accuracies=ACCURACIES):
    harness = mods["harness"]
    config = harness.ExperimentConfig(
        policy=policy, scenario_seed=scenario_seed, trace_seed=trace_seed,
        node_count=nodes, horizon=horizon, frame_len=frame_len,
        budget_avg=BUDGET,
        policy_cfg=mods["policies"].PolicyConfig(
            v=V, theta=THETA,
            beta=PSPWU_BETA if policy == "pspwu" else 0.0),
        predictor=mods["predict"].PredictorSpec(
            kind=kind, accuracies=accuracies, rng_seed=rng_seed))
    # harness.run is looked up per call so a traced pass sees its wrapper
    return Op(name, lambda: harness.run(config), horizon, record_fingerprint)


def _cli_sweep(seed, mods, workdir, horizon, verify_instances):
    trace_seed, rng_seed, verify_seed, *scenario_seeds = seeds_for(
        seed, "cli_sweep", 3 + CLI_SWEEPS + CLI_RUNS)
    cli = mods["cli"]
    trace_dir = os.path.join(workdir, "gen-trace")
    config_dir = os.path.join(workdir, "config")
    os.makedirs(config_dir, exist_ok=True)
    base = {
        "scenario": {"node_count": NODES, "horizon": horizon,
                     "frame_len": FRAME_LEN, "budget_avg": BUDGET},
        "predictor": {"kind": "oracle_noisy", "accuracies": list(ACCURACIES),
                      "rng_seed": rng_seed},
        "trace": {"kind": "file",
                  "path": os.path.join(trace_dir, "trace.csv")},
    }
    configs = {
        "sweep": dict(base, policy={"name": "psp", "v": V, "theta": THETA},
                      sweep={"axis": "v", "values": list(SWEEP_V)}),
        "run": dict(base, policy={"name": "plm", "v": V, "theta": THETA}),
    }
    for name, raw in configs.items():
        with open(os.path.join(config_dir, f"{name}.json"), "w") as fh:
            json.dump(raw, fh)

    def op(name, argv, slots, outdir):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects argv this way
                    code = exc.code
            return code, out.getvalue()

        def fingerprint(result):
            code, stdout = result
            if code != 0:
                raise OpFailed(f"exit code {code}")
            return stdout.strip() if outdir is None else files_fingerprint(outdir)

        return Op(name, call, slots, fingerprint, outdir, cli=True)

    def out_dir(name):
        return os.path.join(workdir, name)

    ops = [op("gen-trace",
              ["gen-trace", "--out", os.path.join(trace_dir, "trace.csv"),
               "--seed", str(trace_seed), "--regions", str(NODES),
               "--length", str(horizon)], 0, trace_dir)]
    for i, scenario_seed in enumerate(scenario_seeds):
        command = "sweep" if i < CLI_SWEEPS else "run"
        name = f"{command}{i if i < CLI_SWEEPS else i - CLI_SWEEPS}"
        points = len(SWEEP_V) if command == "sweep" else 1
        ops.append(op(name,
                      [command, "--config",
                       os.path.join(config_dir, f"{command}.json"),
                       "--out", os.path.join(out_dir(name), f"{command}.csv"),
                       "--per-slot", "--seed", str(scenario_seed)],
                      horizon * points, out_dir(name)))
    ops.append(op("verify",
                  ["verify", "--seed", str(verify_seed),
                   "--instances", str(verify_instances)], 0, None))
    return ops
