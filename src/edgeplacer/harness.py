"""Time-slotted simulation engine and experiment driver.

A run wires together a scenario (fixed parameters plus a per-slot table of
draws), a placement policy, the budget queue, and (for the predictive
policies) a mobility predictor. The queue-reading policies decide epoch by
epoch: osp one slot, psp and pspwu a whole frame at the frame's first slot
using predicted user locations, the queue stepped slot by slot in between.
The queue-blind benchmarks decide the whole run first; their backlog and
weight are then one fold of the run's cost column. Realized metrics and
queue updates always use the true trace. Everything is driven by explicit
seeds, so identical configurations replay bit-identically.
"""

import csv
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, replace

import numpy as np

# max_slot_migration_cost is not used here: bench/run.py's run_stats reads
# it as harness.max_slot_migration_cost for sim.frame_dev_frac_max
from .model import (MAX_MATRIX_ENTRIES, Scenario, SlotTable, _real, _seed,
                    _whole, latency_rows, max_slot_migration_cost)
from .policies import (PRUNE_MIN_NODES, FrameInput, PolicyConfig,
                       brute_force_frame, brute_force_horizon, frame_decide,
                       frame_objective, frame_solver, kept_columns,
                       lm_decide, plm_decide)
from .predict import PredictorSpec, predict_epochs

POLICIES = ("osp", "psp", "pspwu", "am", "nm", "lm", "plm")
SWEEP_AXES = ("v", "e_avg", "t", "beta")

# Per-slot budget presets (cost units, GB-converted scale); see README.
BUDGET_PRESETS = {"low": 0.167, "mid": 0.260, "high": 0.417}

# Simulation value ranges for the generated scenario (uniform draws): compute
# capacity per node in GHz, and per slot each SlotTable column in its units
# (MB, giga-cycles, Mbit/s, MB, cost per GB), drawn in this order.
CAPACITY_GHZ = (5.0, 10.0)
SLOT_RANGES = {"input_size": (5.0, 10.0), "workload": (2.0, 20.0),
               "access_rate": (5.0, 10.0), "container_size": (25.0, 50.0),
               "unit_migration_cost": (2.0, 10.0)}

SUMMARY_HEADER = ("axis", "policy", "avg_latency_s", "avg_cost", "avg_queue",
                  "final_queue", "negative_w_frames")
PER_SLOT_HEADER = ("t", "placement", "latency_s", "cost", "q", "w")


class ConfigError(ValueError):
    """Bad experiment configuration (file, schema, or override)."""


class TraceFormatError(ValueError):
    """Malformed or unusable mobility trace."""


class InvariantError(RuntimeError):
    """A run broke the budget inequality, the backlog deviation bound or
    w >= q, or placed the service outside the nodes."""


@dataclass(eq=False)
class RunRecord:
    """Per-slot columns plus time-averaged summaries of one run.

    Entry t of a column is slot t's node, realized latency, migration cost,
    and backlog q and weight w before the slot. prediction_accuracy[s - 1]
    is the share of the run's s-slot-ahead predictions that named the
    realized node, for each depth s the run predicted at (empty if none).
    """

    placement: np.ndarray  # int; the other four float64
    latency: np.ndarray
    cost: np.ndarray
    q: np.ndarray
    w: np.ndarray
    avg_latency: float
    avg_cost: float
    avg_queue: float
    final_queue: float
    negative_w_frames: int
    prediction_accuracy: tuple

    @property
    def per_slot(self) -> list:
        """Every slot's (t, placement, latency, cost, q, w), Python numbers."""
        columns = (self.placement, self.latency, self.cost, self.q, self.w)
        return list(zip(range(len(self.q)), *(c.tolist() for c in columns)))


def _flag(value, name: str, error=ValueError) -> bool:
    """A boolean setting: True or False only, so that a truthy "no" or a
    number is an error rather than a yes."""
    if not isinstance(value, bool):
        raise error(f"{name} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run or sweep needs, mirrored by the JSON config schema.

    Checks each field's type and stores whole and float settings as int and
    float; the scenario and the synthetic trace check the ranges at run time.
    Frozen: a changed config is a dataclasses.replace.
    """

    policy: str = "osp"
    policy_cfg: PolicyConfig = field(default_factory=PolicyConfig)
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    scenario_seed: int = 0
    node_count: int = 6
    horizon: int = 1400
    frame_len: int = 3
    budget_avg: float = BUDGET_PRESETS["low"]
    backhaul_mbps: float = 100.0  # every off-diagonal link, Mbit/s
    homogeneous_capacity: bool = False
    trace_path: str | None = None
    trace_seed: int = 1
    trace_stickiness: float = 0.7
    sweep_axis: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        for name in ("scenario_seed", "trace_seed"):
            object.__setattr__(self, name, _seed(getattr(self, name), name))
        for name in ("node_count", "horizon", "frame_len"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        for name in ("budget_avg", "backhaul_mbps", "trace_stickiness"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        _flag(self.homogeneous_capacity, "homogeneous_capacity", ConfigError)
        for name, kind in (("policy_cfg", PolicyConfig),
                           ("predictor", PredictorSpec)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got "
                                  f"{getattr(self, name)!r}")
        path = self.trace_path
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"trace_path must be a path, got {path!r}")
        if self.sweep_axis is not None and self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        values = self.sweep_values
        if (isinstance(values, str) or not isinstance(values, Sequence)
                or (self.sweep_axis is not None and not values)):
            raise ConfigError(f"sweep values must be a nonempty list, got {values!r}")
        object.__setattr__(self, "sweep_values", tuple(values))


def synthetic_trace(seed: int, n_regions: int, length: int,
                    stickiness: float = ExperimentConfig.trace_stickiness
                    ) -> list[int]:
    """First-order Markov mobility: stay with probability stickiness,
    otherwise jump uniformly to one of the other regions.

    The draws are those of _drawn_trace's per-slot loop on
    default_rng(SeedSequence((seed, 1))), replayed from one block of raw
    PCG64 outputs: random() is (raw >> 11) * 2**-53, and integers(k) is
    Lemire's high word of a 32-bit value times k, the value being the low
    half of a fresh output or the buffered high half of the last one so
    split (integers(n_regions) splits the first output; k == 1 draws
    nothing). A Lemire rejection, which draws again, or more than 2**32
    regions falls back to the per-slot loop for the whole trace.
    """
    n_regions = _whole(n_regions, "n_regions")
    length = _whole(length, "length")
    if not 0.0 <= _real(stickiness, "stickiness") <= 1.0:
        raise ValueError("stickiness must be in [0, 1]")
    if n_regions < 1 or length < 1:
        raise ValueError("need at least one region and one slot")
    if length > MAX_MATRIX_ENTRIES:  # checked before the draws' allocation
        raise ValueError(f"length {length} is past the {MAX_MATRIX_ENTRIES} "
                         "slots a run may have")
    seq = np.random.SeedSequence((_seed(seed, "seed"), 1))
    k = n_regions - 1
    if k == 0:
        return [0] * length
    if k >= 2 ** 32:
        return _drawn_trace(seq, n_regions, length, stickiness)
    raw = np.random.default_rng(seq).bit_generator.random_raw(2 * length + 2)
    stay = ((raw >> np.uint64(11)) * 2.0 ** -53 < stickiness).tolist()
    raw, reject = raw.tolist(), (2 ** 32 - k) % k  # Lemire's threshold
    m = (raw[0] & 0xFFFFFFFF) * n_regions
    if m & 0xFFFFFFFF < (2 ** 32 - n_regions) % n_regions:
        return _drawn_trace(seq, n_regions, length, stickiness)
    prev, half, at = m >> 32, raw[0] >> 32, 1  # at: next unread output
    regions = [prev]
    for _ in range(1, length):
        at += 1
        if not stay[at - 1]:
            if k == 1:
                r = 0
            else:
                if half is None:
                    m, half = (raw[at] & 0xFFFFFFFF) * k, raw[at] >> 32
                    at += 1
                else:
                    m, half = half * k, None
                if m & 0xFFFFFFFF < reject:
                    return _drawn_trace(seq, n_regions, length, stickiness)
                r = m >> 32
            prev = r if r < prev else r + 1
        regions.append(prev)
    return regions


def _drawn_trace(seq, n_regions, length, stickiness) -> list[int]:
    """synthetic_trace drawn slot by slot from default_rng(seq): the
    numpy stream its replay reads."""
    rng = np.random.default_rng(seq)
    regions = [int(rng.integers(n_regions))]
    for _ in range(1, length):
        prev = regions[-1]
        if rng.random() < stickiness:
            regions.append(prev)
        else:
            r = int(rng.integers(n_regions - 1))
            regions.append(r if r < prev else r + 1)
    return regions


def generate_scenario(
        seed: int, n_nodes: int = ExperimentConfig.node_count,
        horizon: int = ExperimentConfig.horizon, frame_len: int = 1,
        budget_avg: float = ExperimentConfig.budget_avg,
        backhaul_mbps: float = ExperimentConfig.backhaul_mbps, trace=None,
        homogeneous_capacity: bool = ExperimentConfig.homogeneous_capacity):
    """Draw a (Scenario, SlotTable) pair from the simulation ranges.

    Task profile, access rate (in Mbit/s), container size and migration
    price are drawn per slot; compute capacity per node (fixed over time).
    Every off-diagonal backhaul link runs at backhaul_mbps; a library
    caller who wants links of different rates builds the Scenario itself.
    The user's associated node comes from trace, or from a default
    synthetic trace with the same seed. The defaults are ExperimentConfig's,
    but for frame_len: one slot per frame. The sizes and the trace are
    checked before anything is allocated.
    """
    n_nodes, horizon = _whole(n_nodes, "n_nodes"), _whole(horizon, "horizon")
    _check_size(n_nodes, horizon, "n_nodes", "horizon", ValueError)
    if trace is not None and (isinstance(trace, str) or not isinstance(
            trace, (Sequence, np.ndarray))):
        raise ValueError(f"trace must be a sequence of regions, got {trace!r}")
    rng = np.random.default_rng(np.random.SeedSequence((_seed(seed, "seed"), 0)))
    backhaul = np.full((n_nodes, n_nodes), _real(backhaul_mbps, "backhaul_mbps"))
    if _flag(homogeneous_capacity, "homogeneous_capacity"):
        caps = np.full(n_nodes, rng.uniform(*CAPACITY_GHZ))
    else:
        caps = rng.uniform(*CAPACITY_GHZ, n_nodes)
    scn = Scenario(node_count=n_nodes, backhaul_rate=backhaul,
                   budget_avg=budget_avg, horizon=horizon,
                   compute_capacity=caps, frame_len=frame_len)
    if trace is None:
        trace = synthetic_trace(seed, n_nodes, horizon)
    if len(trace) < horizon:
        raise TraceFormatError(
            f"trace has {len(trace)} slots, horizon needs {horizon}")
    # Slot-major, the order of one scalar draw per slot and column.
    draws = rng.uniform(*zip(*SLOT_RANGES.values()),
                        size=(horizon, len(SLOT_RANGES)))
    return scn, SlotTable(n_nodes, trace[:horizon],
                          **dict(zip(SLOT_RANGES, draws.T)))


def _epochs(policy: str, frame_len: int, spec: PredictorSpec):
    """(epoch_len, lookahead) of a run: psp/pspwu decide a frame of
    frame_len slots and predict its later slots, plm decides one slot and
    predicts the next, the others decide one slot and predict nothing."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    if policy in ("psp", "pspwu"):
        epoch_len, lookahead = frame_len, frame_len - 1
    else:
        epoch_len, lookahead = 1, int(policy == "plm")
    if spec.kind == "oracle_noisy" and len(spec.accuracies) < lookahead:
        raise ConfigError("oracle_noisy needs one accuracy per look-ahead "
                          f"step: {policy} looks {lookahead} ahead, got "
                          f"{len(spec.accuracies)}")
    return epoch_len, lookahead


# The run inputs of the last run, kept for the next runs on its
# (Scenario, SlotTable) pair: (pair key, realized, price, prediction key,
# predictions), every array read-only and every kept set a tuple, or None
# once _materialize misses. The pair key is the table, which compares by
# identity and is held alive here, and the values of the scenario that
# latency_rows reads; the prediction key is the epoch shape and the
# PredictorSpec's values. A run that misses a key empties what depends on
# it before building its own, so that one of each is kept at a time. Like
# _last_materialized, it assumes one thread: a run reads the entry once,
# but runs in two threads would empty and replace each other's.
_last_inputs = None


def _run_inputs(scn: Scenario, table: SlotTable, policy: str,
                spec: PredictorSpec):
    """(epoch_len, realized, price, predictions) of a run of policy, the
    predictions being (accuracy, slots, guessed, kept).

    realized and price are the latency rows of the realized user nodes and
    the move prices of the run's slots. The epochs decide from the decision
    rows: realized with each wrongly predicted slot's row, slots[j],
    replaced by its predicted node's row, guessed[j], all times v. kept is
    policies.kept_columns of those rows before the factor v, which
    frame_solver reads at every v, or None where the frame DP reads every
    column (1-slot epochs or fewer than PRUNE_MIN_NODES nodes). accuracy is
    RunRecord.prediction_accuracy. A table whose node count is not the
    scenario's raises ValueError. realized and guessed are each checked
    once, when built: a row that is not finite raises ConfigError
    (_refuse_non_finite) and is not kept. No prediction and no realized row
    depends on a decision, so they are kept, read-only, for the next run on
    the pair: realized and price for any run, the predictions for a run of
    the same epoch shape and predictor.
    """
    global _last_inputs
    horizon = scn.horizon
    epoch_len, lookahead = _epochs(policy, scn.frame_len, spec)
    # A frame past the horizon decides as one of horizon slots; the cap
    # keeps arrays sized by the frame within the run's.
    epoch_len, lookahead = min(epoch_len, horizon), min(lookahead, horizon)
    if len(table.user_node) < horizon:
        raise TraceFormatError("slot table shorter than horizon")
    users = table.user_node[:horizon]
    key = (table, horizon, scn.backhaul_rate.tobytes(),
           scn.compute_capacity.tobytes())
    entry = _last_inputs  # read once, so that one run reads one entry
    if entry is None or entry[0] != key:
        # checked at a miss only: a hit's table is the one checked, and
        # its key's rates hold node_count**2 entries
        _last_inputs = entry = None
        if table.node_count != scn.node_count:
            raise ValueError(f"the slot table has {table.node_count} nodes "
                             f"and the scenario {scn.node_count}")
        # a row that overflows is refused here, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            realized, price = latency_rows(scn, table, slice(0, horizon),
                                           users)
        _refuse_non_finite(realized, range(horizon), table)
        realized.setflags(write=False)
        price.setflags(write=False)
        _last_inputs = entry = key, realized, price, None, None
    _, realized, price, last_shape, predicted = entry
    shape = epoch_len, lookahead, astuple(spec)
    if shape != last_shape:
        _last_inputs = key, realized, price, None, None
        # guesses[k, s - 1] is epoch k's prediction of slot
        # target[k, s - 1] = k * epoch_len + s, or -1 past the horizon; no
        # slot is the target of two epochs. A frame's first slot is no
        # epoch's target, so a frame with no miss sees its realized rows;
        # plm's slot is the previous epoch's target, so plm reads its own
        # row from realized.
        guesses = predict_epochs(spec, users, lookahead, scn.node_count,
                                 epoch_len)
        target = (np.arange(0, horizon, epoch_len)[:, None]
                  + np.arange(1, lookahead + 1))
        made = guesses >= 0
        hit = made & (guesses == users.take(target, mode="clip"))
        attempts = made.sum(axis=0)
        depths = np.count_nonzero(attempts)
        accuracy = tuple((hit.sum(axis=0)[:depths]
                          / attempts[:depths]).tolist())
        miss = made & ~hit
        slots = target[miss]
        with np.errstate(over="ignore", invalid="ignore"):
            guessed = latency_rows(scn, table, slots, guesses[miss])[0]
        _refuse_non_finite(guessed, slots, table)
        slots.setflags(write=False)
        guessed.setflags(write=False)
        unscaled = realized.copy()
        unscaled[slots] = guessed
        predicted = (accuracy, slots, guessed,
                     kept_columns(unscaled, epoch_len))
        _last_inputs = key, realized, price, shape, predicted
    return epoch_len, realized, price, predicted


def _refuse_non_finite(rows, slots, table: SlotTable):
    """Raise ConfigError, naming its slot, at the first of rows that holds a
    latency that is not finite; rows[j] is the row of slot slots[j]."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        t = int(slots[bad[0]])
        raise ConfigError(
            f"slot {t}: a latency is not finite, of input_size "
            f"{table.input_size[t]:g}, workload {table.workload[t]:g}, "
            f"access_rate {table.access_rate[t]:g} and the scenario's "
            "rates; raise scenario.backhaul_mbps")


def _python_rows(array):
    """The rows of a 2-D array as lists, made 256 at a time. Only one block
    of them is alive at a time, and freed before the next is made, so a
    run's rows neither hold its whole table twice nor wake the cyclic
    collector, which thousands of live lists do."""
    for start in range(0, len(array), 256):
        yield from array[start:start + 256].tolist()


def simulate(scn: Scenario, table: SlotTable, policy: str,
             policy_cfg: PolicyConfig | None = None,
             predictor: PredictorSpec | None = None) -> RunRecord:
    """Execute one policy over the slot table and collect metrics.

    The run is a sequence of decision epochs: a frame of frame_len slots for
    psp/pspwu, one slot otherwise. An epoch's placements are chosen at its
    first slot from predicted user locations for its later slots (and for
    the next slot under plm); realized latency/cost and queue updates use the
    true user nodes. osp, psp and pspwu anchor on the queue, so each of
    their epochs is decided, by one policies.frame_solver per run, once the
    slots before it are accounted: one loop steps, from q = w = w_prev = 0,
    the budget queue q(t+1) = max(q + e(t) - e_avg, 0) and the momentum
    weight w(t+1) = w + (q(t+1) - q) + beta * max(w - w_prev, 0). am, nm,
    lm and plm never read the queue, so all their slots are decided first
    and q and w are folded from the run's cost column (_fold_queue), bit
    for bit the loop's at every beta. Either way the run's columns are then
    checked once: the earliest slot past its epoch's backlog deviation
    bound, with q < 0 or with w < q (in that order at one slot), a
    placement outside the nodes or a broken budget inequality raises
    InvariantError. So every anchor the solver gets is >= 0. A slot table
    whose node count is not the scenario's raises ValueError. Before the
    first decision, a ConfigError is raised, in this order, by a realized
    or a predicted row that is not finite (_run_inputs, naming its slot),
    move prices whose backlog and weight terms could pass the float range,
    a frame policy's frame latencies times v that could sum past it, and
    the run's latencies summing past it; then a beta outside [0, 1] or a
    negative or NaN budget raises ValueError.

    The realized rows and the move prices come from _run_inputs, which
    checks them once and keeps them for the next runs on the same
    (Scenario, SlotTable) pair, and so do the predictions and their rows
    for the next runs of the same epoch shape and predictor: runs that
    differ only in the policy, v, beta or the budget build the rows once,
    and psp and pspwu predict once. With them comes each epoch's kept
    columns, pruned once from the decision rows before the factor v, which
    every psp and pspwu run on them reads at any v. Each frame-policy run
    scales its own decision rows by v; lm and plm read the realized rows as
    lists, made 256 at a time.
    """
    cfg = policy_cfg or PolicyConfig()
    spec = predictor or PredictorSpec()
    e_avg = scn.budget_avg
    horizon = scn.horizon
    epoch_len, realized, price, (accuracy, slots, guessed, kept) = \
        _run_inputs(scn, table, policy, spec)
    frame = policy in ("osp", "psp", "pspwu")  # osp: 1-slot frames
    # Three bounds rule out every overflow of a latency or cost sum; the
    # rows are finite (_run_inputs) and >= 0. The backlog is at most horizon * top and the
    # weight at most horizon**2 * top (each rise of w is at most the one
    # before plus top), so a move term, anchor * price, is at most
    # horizon**2 * top**2. A frame DP score adds at most epoch_len decision
    # entries and move terms; the run's latencies, and so every partial sum
    # of their fsum, add to at most horizon * max.
    top = float(price.max())
    moves = horizon * horizon * top * top  # top * top: ** raises on overflow
    if not math.isfinite(epoch_len * moves):
        t = int(price.argmax())
        raise ConfigError(
            f"slot {t}: move price {top:g}, of container_size "
            f"{table.container_size[t]:g} and unit_migration_cost "
            f"{table.unit_migration_cost[t]:g}, is too large for "
            f"{horizon} slots: the backlog or the weight times it could "
            "pass the float range")
    if frame:
        # The frame policies' decision rows, scaled by v once per run for
        # the frame solver; realized stays unscaled for the accounting
        with np.errstate(over="ignore"):
            decision = realized * cfg.v
            decision[slots] = guessed * cfg.v
        if not math.isfinite(epoch_len * (float(decision.max()) + moves)):
            raise ConfigError(
                "a frame's latencies times policy.v sum past the float "
                "range; lower policy.v or raise scenario.backhaul_mbps")
    if not math.isfinite(horizon * float(realized.max())):
        raise ConfigError("the run's latencies sum past the float range; "
                          "raise scenario.backhaul_mbps")

    beta = cfg.beta
    # PolicyConfig is frozen, but object.__setattr__ still gets round it
    if not (e_avg >= 0.0 and 0.0 <= beta <= 1.0):
        raise ValueError("queue inputs must be >= 0 and beta in [0, 1]")
    trace = table.trace
    prev = initial = trace[0]
    if frame:
        solve = frame_solver(decision, price, epoch_len, kept)
        q = w = w_prev = 0.0
        placements, qs, ws = [], [], []  # q and w before each slot
        unpriced = iter(price.tolist())  # zip takes one price per placement
        for k in range(len(range(0, horizon, epoch_len))):
            seq = solve(k, w if policy == "pspwu" else q, prev)
            placements += seq
            # The recursion, with compares in place of max(x, 0.0), a
            # builtin call
            for placement, p in zip(seq, unpriced):
                qs.append(q)
                ws.append(w)
                q_next = q + ((p if placement != prev else 0.0) - e_avg)
                if q_next < 0.0:
                    q_next = 0.0
                rise = w - w_prev
                w_prev, w = w, w + (q_next - q) + beta * (0.0 if rise < 0.0
                                                          else rise)
                q, prev = q_next, placement
        qs.append(q)  # and after the last
        ws.append(w)
    elif policy == "am":
        placements = trace[:horizon]
    elif policy == "nm":
        placements = [initial] * horizon
    elif policy == "lm":
        placements, at, lm_acc = [], initial, 0.0
        for row, p, user in zip(_python_rows(realized), price.tolist(),
                                trace):
            at, lm_acc = lm_decide(lm_acc, row, p, user, at)
            placements.append(at)
    else:  # plm, which reads the next slot's decision row unless it is last
        missed = dict(zip(slots.tolist(), guessed.tolist()))
        rows = _python_rows(realized)
        placements, at, row = [], initial, next(rows)
        for t, (nxt, p, user) in enumerate(
                zip(itertools.chain(rows, [None]), price.tolist(), trace), 1):
            at = plm_decide(row, missed.get(t, nxt), p, user, at)
            placements.append(at)
            row = nxt

    placement = np.array(placements)
    cost = np.where(np.diff(placement, prepend=initial) != 0, price, 0.0)
    if not frame:  # no placement read the queue: fold it from the costs
        qs, ws = _fold_queue((cost - e_avg).tolist(), beta)
    q = qs[-1]
    avg_queue = math.fsum(qs[:-1]) / horizon
    copy_w = ws is qs  # the fold's w at beta == 0: copied, not converted
    qs = np.array(qs)
    ws = qs.copy() if copy_w else np.array(ws)
    total_cost = _check_run(placement, cost, qs, ws, e_avg, epoch_len,
                            max(e_avg, top), scn.node_count)
    latency = realized[np.arange(horizon), placement]
    # _check_run has proven q >= 0 and w >= q, so no anchor is negative
    return RunRecord(
        placement=placement, latency=latency, cost=cost, q=qs[:-1],
        w=ws[:-1], avg_latency=math.fsum(latency.tolist()) / horizon,
        avg_cost=total_cost / horizon, avg_queue=avg_queue, final_queue=q,
        prediction_accuracy=accuracy, negative_w_frames=0)


def _fold_queue(drift: list, beta: float):
    """(q, w) lists of a run whose placements never read the queue: the
    budget queue, Lindley's recursion q(t+1) = max(q(t) + d(t), 0) from
    q(0) = 0 over the drift column d = cost - e_avg, and the momentum
    weight over it, before each slot and after the last. The engine loop's
    float operations in its order, so bit for bit its q and w; at
    beta == 0 its w is q, and the q list is returned as both."""
    q, qs = 0.0, [0.0]
    append = qs.append
    for d in drift:
        q += d
        if q < 0.0:
            q = 0.0
        append(q)
    if beta == 0.0:
        return qs, qs
    w = w_prev = 0.0
    ws = [w]
    for q, q_next in zip(qs, qs[1:]):
        rise = w - w_prev
        w_prev, w = w, w + (q_next - q) + beta * (0.0 if rise < 0.0 else rise)
        ws.append(w)
    return qs, ws


def _check_run(placement, cost, q, w, e_avg, epoch_len, w_q, node_count):
    """simulate's invariant checks over a run's columns; the total cost."""
    # Holding the epoch-start backlog fixed is off by at most epoch_len * w_q.
    dev_bound = epoch_len * w_q
    with np.errstate(invalid="ignore", over="ignore"):  # NaN fails a compare
        start = np.repeat(q[:-1:epoch_len], epoch_len)[:len(cost)]
        drift = ~(abs(q[1:] - start) <= dev_bound + 1e-9 * max(1.0, dev_bound))
        # w' - q' = (w - q) + beta * max(w - w_prev, 0) and w = q = 0 at
        # the start. In floats w' = fl(fl(w + d) + beta * m) with
        # d = fl(q' - q). Rounding is monotone, so w >= q gives
        # w' >= fl(q + d), and fl(q + d) == q' for every queue step: the
        # clamp (d = -q), a step of at most q either way (d is exact,
        # Fast2Sum) and a larger rise (d is off by at most half an ulp of
        # q', and q + d rounds back to q'). The check needs no tolerance.
        low = ~(w[1:] >= q[1:])
        # Lindley's clamp keeps q >= 0, and with w >= q so is w.
        negative = ~(q[1:] >= 0.0)
        # Telescoped budget guarantee: the clamp only ever raises the
        # backlog, so q dominates the unclamped overrun sum. Float-exact:
        # accumulate is the queue's per-slot addition in its order.
        overrun = float(np.add.accumulate(cost - e_avg)[-1])
    t = (drift | negative | low).argmax()  # 0 if every slot passes
    if drift[t]:
        raise InvariantError(
            f"slot {t}: backlog {float(q[t + 1])!r} drifted from the epoch "
            f"start {float(start[t])!r} beyond {epoch_len} * w_q = {dev_bound!r}")
    if negative[t]:
        raise InvariantError(
            f"slot {t}: backlog {float(q[t + 1])!r} is negative")
    if low[t]:
        raise InvariantError(f"slot {t}: weight {float(w[t + 1])!r} fell "
                             f"below the backlog {float(q[t + 1])!r}")
    # A negative node would wrap in the latency gather.
    bad = np.flatnonzero((placement < 0) | (placement >= node_count))
    if bad.size:
        raise InvariantError(f"slot {bad[0]}: placement {placement[bad[0]]} "
                             f"is not a node in [0, {node_count})")
    if not q[-1] >= overrun:
        raise InvariantError(f"final backlog {float(q[-1])!r} is below the "
                             f"unclamped overrun {overrun!r}")
    total_cost = math.fsum(cost[cost != 0.0].tolist())  # zeros add nothing
    rhs = len(cost) * e_avg + float(q[-1])
    if not total_cost <= rhs + 1e-9 * max(1.0, rhs):
        raise InvariantError(f"total cost {total_cost!r} exceeds "
                             f"H * e_avg + Q(H) = {rhs!r}")
    return total_cost


def _check_size(n, horizon, n_name, horizon_name, error):
    """Raise error, naming the settings, if the matrices of a run of
    horizon slots on n nodes would pass MAX_MATRIX_ENTRIES."""
    if n > 0 and n * n > MAX_MATRIX_ENTRIES:  # n < 1 is the scenario's
        raise error(
            f"{n_name} = {n} needs a {n} x {n} backhaul matrix, "
            f"more than the {MAX_MATRIX_ENTRIES} entries a run may have")
    if n > 0 and horizon * n > MAX_MATRIX_ENTRIES:
        raise error(
            f"{horizon_name} = {horizon} and {n_name} = {n} "
            f"need {horizon} x {n} latency rows, more than the "
            f"{MAX_MATRIX_ENTRIES} entries a run may have")


# Every ExperimentConfig field that _materialize reads from a config with
# no trace file: two such configs equal on all of them materialize the
# same pair.
_MATERIAL_FIELDS = ("scenario_seed", "node_count", "horizon", "frame_len",
                    "budget_avg", "backhaul_mbps", "homogeneous_capacity",
                    "trace_seed", "trace_stickiness")

# (key, (Scenario, SlotTable)) of the last synthetic-trace config that
# materialized, or None after any other call. Runs of several policies on
# one scenario share the pair; its arrays are read-only and its configs
# frozen, so no run can change what the next one reads.
_last_materialized = None


def _material_key(config: ExperimentConfig) -> tuple:
    # float.hex tells -0.0 from 0.0, which compare equal
    values = (getattr(config, name) for name in _MATERIAL_FIELDS)
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _materialize(config: ExperimentConfig):
    """Draw the configured scenario; a value the scenario or the synthetic
    trace rejects, or a node count or horizon whose matrices would pass
    MAX_MATRIX_ENTRIES, is reported as a ConfigError.

    A config with no trace file that reads as the last one that
    materialized gets the same pair without a new draw. Any other call
    empties the entry first and stores a synthetic-trace pair once it is
    drawn. A trace file is read again on every call, as it may have
    changed since.
    """
    global _last_materialized, _last_inputs
    _check_size(config.node_count, config.horizon, "scenario.node_count",
                "scenario.horizon", ConfigError)
    key = trace = None
    if config.trace_path is None:
        key = _material_key(config)
        if _last_materialized is not None and _last_materialized[0] == key:
            return _last_materialized[1]
    # a miss lets the last pair, and the run inputs built on it, go before
    # the next is drawn, so that at most one is held at a time
    _last_materialized = _last_inputs = None
    if config.trace_path is not None:
        trace = read_trace_csv(config.trace_path)
        # read_trace_csv holds slot t to line t + 2; a node_count below 1 is
        # left to the scenario check, which reports it as a config problem
        bad = np.flatnonzero(np.asarray(trace[:config.horizon])
                             >= config.node_count)
        if bad.size and config.node_count >= 1:
            t = int(bad[0])
            raise TraceFormatError(
                f"{config.trace_path}:{t + 2}: region {trace[t]} out of "
                f"range for {config.node_count} nodes")
    try:
        if trace is None:
            trace = synthetic_trace(config.trace_seed, config.node_count,
                                    config.horizon, config.trace_stickiness)
        pair = generate_scenario(
            config.scenario_seed, config.node_count, config.horizon,
            config.frame_len, config.budget_avg, config.backhaul_mbps,
            trace=trace, homogeneous_capacity=config.homogeneous_capacity)
    except TraceFormatError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if key is not None:
        _last_materialized = key, pair
    return pair


def run(config: ExperimentConfig) -> RunRecord:
    """Materialize the configured scenario and execute one run."""
    scn, table = _materialize(config)
    return simulate(scn, table, config.policy, config.policy_cfg,
                    config.predictor)


def _sweep_point(config: ExperimentConfig, scn: Scenario, value):
    """The policy config and scenario of one sweep point. The slot draws do
    not depend on the swept fields, so every point shares the materialized
    table; a value the config, the scenario or the run rejects is a
    ConfigError."""
    axis, cfg = config.sweep_axis, config.policy_cfg
    try:
        if axis in ("v", "beta"):
            cfg = replace(cfg, **{axis: value})
        elif axis == "e_avg":
            scn = replace(scn, budget_avg=value)
        else:  # axis "t"
            scn = replace(scn, frame_len=value)
            _epochs(config.policy, scn.frame_len, config.predictor)
    except ValueError as exc:
        raise ConfigError(f"sweep value {value!r}: {exc}") from None
    return cfg, scn


def sweep(config: ExperimentConfig) -> list:
    """One run per sweep value, seeds shared so only the axis varies. The
    scenario is materialized once, and every point is built, and so
    checked, before the first run.

    Returns [(axis_value, RunRecord), ...] in axis order.
    """
    if config.sweep_axis is None:
        raise ConfigError("sweep requires a sweep axis")
    scn, table = _materialize(config)
    points = [(v, *_sweep_point(config, scn, v)) for v in config.sweep_values]
    return [(v, simulate(point_scn, table, config.policy, cfg,
                         config.predictor))
            for v, cfg, point_scn in points]


# ---------------------------------------------------------------------------
# config schema

# Each config section's keys and the ExperimentConfig field, or the field of
# its part as in "policy_cfg.v", each sets; the owner of a field holds its
# default and checks. trace.kind only says whether trace.path is read.
_SCHEMA = {
    "policy": {"name": "policy", "v": "policy_cfg.v",
               "theta": "policy_cfg.theta", "beta": "policy_cfg.beta"},
    "scenario": {"seed": "scenario_seed", "node_count": "node_count",
                 "horizon": "horizon", "frame_len": "frame_len",
                 "budget_avg": "budget_avg", "backhaul_mbps": "backhaul_mbps",
                 "homogeneous_capacity": "homogeneous_capacity"},
    "predictor": {"kind": "predictor.kind",
                  "accuracies": "predictor.accuracies",
                  "rng_seed": "predictor.rng_seed"},
    "trace": {"kind": None, "seed": "trace_seed",
              "stickiness": "trace_stickiness", "path": "trace_path"},
    "sweep": {"axis": "sweep_axis", "values": "sweep_values"},
}


def load_config_file(path: str) -> dict:
    """Read and parse the JSON config; ConfigError names the path on failure."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply KEY=VALUE overrides (dotted keys) onto a parsed config dict. A
    value that is not JSON is kept as its text; config_from_dict checks the
    keys and the values."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        section, dot, name = key.partition(".")
        if not dot:
            raw[key] = parsed
        elif isinstance(raw.setdefault(section, {}), dict):
            raw[section][name] = parsed
        else:  # as config_from_dict says, not a TypeError from nesting
            raise ConfigError(f"section {section!r} must be an object")
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Check a parsed config dict's keys against the schema and build an
    ExperimentConfig from them; its parts check the values and hold the
    defaults of the keys left out."""
    given = {}  # field (as named in _SCHEMA) -> value
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        fields = _SCHEMA[section]
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = keys.keys() - fields.keys()
        if unknown:
            raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
        given.update((fields[key], value) for key, value in keys.items())

    if "policy" not in given:
        raise ConfigError("policy.name is required")
    trace_kind = given.pop(None, "synthetic")
    if trace_kind not in ("synthetic", "file"):
        raise ConfigError(f"unknown trace kind {trace_kind!r}")
    if trace_kind == "synthetic":
        given.pop("trace_path", None)
    elif given.get("trace_path") is None:
        raise ConfigError("trace.path is required for a file trace")
    try:
        for part, owner in (("policy_cfg", PolicyConfig),
                            ("predictor", PredictorSpec)):
            given[part] = owner(**{name[len(part) + 1:]: given.pop(name)
                                   for name in list(given)
                                   if name.startswith(part + ".")})
        return ExperimentConfig(**given)
    except ValueError as exc:
        # a ConfigError is a ValueError, and keeps its message
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# CSV input/output

def _write_csv(path: str, header, columns) -> None:
    # One string of the rows zipped from columns. A field is its str, a
    # float's is its repr: values read back exactly. No field holds a comma,
    # a quote or a newline, so none is quoted, as csv.writer quoted none.
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n"
                 + "".join(map(line.__mod__, zip(*columns))))


def write_summary_csv(path: str, rows) -> None:
    """rows: iterable of (axis_value, policy_name, RunRecord)."""
    _write_csv(path, SUMMARY_HEADER, zip(*(
        (axis_value, policy, rec.avg_latency, rec.avg_cost, rec.avg_queue,
         rec.final_queue, rec.negative_w_frames)
        for axis_value, policy, rec in rows)))


def write_per_slot_csv(path: str, rec: RunRecord) -> None:
    # q is formatted once; w reuses its strings when the two columns are
    # equal bit for bit, as they are whenever beta == 0
    q = list(map(repr, rec.q.tolist()))
    w = q if rec.w.tobytes() == rec.q.tobytes() else rec.w.tolist()
    _write_csv(path, PER_SLOT_HEADER, (
        range(len(q)), rec.placement.tolist(), rec.latency.tolist(),
        rec.cost.tolist(), q, w))


def write_trace_csv(path: str, regions) -> None:
    regions = list(map(int, regions))
    _write_csv(path, ("slot", "region"), (range(len(regions)), regions))


def _decimal(field: str) -> int:
    """A trace field as an int: ASCII digits with an optional leading "-",
    after strip(). int() alone would also read 1_0, +3 and non-ASCII
    digits such as Arabic-Indic ones; ValueError for anything else."""
    text = field.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(text)


def read_trace_csv(path: str) -> list[int]:
    """Parse a slot,region trace file of decimal integers (_decimal);
    TraceFormatError on any malformation and on a file that is missing or
    cannot be read or decoded."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(f"trace file {path} is empty") from None
    if [h.strip() for h in header] != ["slot", "region"]:
        raise TraceFormatError(f"trace file {path} must start with slot,region")
    regions = []
    for lineno, row in enumerate(reader):
        if len(row) != 2:
            raise TraceFormatError(f"{path}:{lineno + 2}: expected 2 fields")
        try:
            slot, region = _decimal(row[0]), _decimal(row[1])
        except ValueError:
            raise TraceFormatError(f"{path}:{lineno + 2}: non-integer entry") from None
        if slot != lineno:
            raise TraceFormatError(f"{path}:{lineno + 2}: slots must count up from 0")
        if region < 0:
            raise TraceFormatError(f"{path}:{lineno + 2}: negative region")
        regions.append(region)
    if not regions:
        raise TraceFormatError(f"trace file {path} has no rows")
    return regions


# ---------------------------------------------------------------------------
# oracle verification suites (backing the CLI verify command)

# The suites' fixed settings: the top of a frame instance's anchor range,
# and the V values, budget and relative slack of the horizon-bound check.
ANCHOR_HIGH = 50.0
HORIZON_V = (10.0, 100.0)
HORIZON_BUDGET = 0.1
HORIZON_SLACK = 0.10


def random_frame_instance(rng, grid=False, wide=False):
    """Random frame problem (cfg, frame) for DP-vs-enumeration checks: 2-5
    nodes and 1-4 slots or, with wide, PRUNE_MIN_NODES to 4 more nodes and
    2-3 slots, where frame_solver prunes.

    By default the latencies and prices are a generated scenario's and v
    and the anchor uniform floats, the anchor in [0, ANCHOR_HIGH). With
    grid, the latencies and prices are whole numbers 0-3 or quarters 0-10,
    v is one of 0, 1, 2.5 and 10, and the anchor is a quarter: every sum is
    exact, so the ties and near-ties that float draws almost never make are
    common.
    """
    n, length = ((int(rng.integers(PRUNE_MIN_NODES, PRUNE_MIN_NODES + 5)),
                  int(rng.integers(2, 4))) if wide else
                 (int(rng.integers(2, 6)), int(rng.integers(1, 5))))
    if grid:
        top, step = (3, 1.0) if rng.random() < 0.5 else (40, 0.25)
        values = rng.integers(0, top + 1, (length, n + 1)) * step
        cfg = PolicyConfig(v=float(rng.choice((0.0, 1.0, 2.5, 10.0))))
        anchor = int(rng.integers(0, math.floor(4 * ANCHOR_HIGH) + 1)) / 4
        return cfg, FrameInput(values[:, :n].tolist(), values[:, n].tolist(),
                               anchor, int(rng.integers(n)))
    scn, table = generate_scenario(seed=int(rng.integers(2 ** 31)), n_nodes=n,
                                   horizon=length, frame_len=length)
    cfg = PolicyConfig(v=float(rng.uniform(0.0, 100.0)))
    rows, prices = latency_rows(scn, table, slice(None), table.trace)
    return cfg, FrameInput(rows.tolist(), prices.tolist(),
                           float(rng.uniform(0.0, ANCHOR_HIGH)),
                           int(rng.integers(n)))


def verify_frame_oracles(seed: int = 1, instances: int = 200):
    """Compare the frame solver against exhaustive enumeration.

    Every other instance is drawn on the exact grid, every tenth wide on
    it. Returns (matches, instances, mismatch descriptions).
    """
    rng = np.random.default_rng(seed)
    matches, mismatches = 0, []
    for idx in range(instances):
        cfg, frame = random_frame_instance(rng, grid=idx % 2 == 1,
                                           wide=idx % 10 == 9)
        seq = frame_decide(cfg, frame)
        best_seq, best_obj = brute_force_frame(frame, cfg)
        if seq == best_seq:
            matches += 1
        else:
            mismatches.append(
                f"instance {idx}: dp={seq} "
                f"obj={frame_objective(cfg, frame, seq)!r}, "
                f"oracle={best_seq} obj={best_obj!r}")
    return matches, instances, mismatches


def bound_constant_B(e_avg: float, e_max: float) -> float:
    """Constant (e_avg^2 + e_max^2) / 2 appearing in the drift upper bound."""
    if e_avg < 0 or e_max < 0:
        raise ValueError("costs must be nonnegative")
    return 0.5 * (e_avg * e_avg + e_max * e_max)


def verify_horizon_bound(seed: int = 1, instances: int = 20):
    """Check the reactive policy against the offline horizon oracle.

    On tiny instances the realized average latency must stay within
    oracle + B/V + HORIZON_SLACK * oracle, where B is the drift bound
    constant.
    Returns (passes, checks, failure descriptions).
    """
    passes, failures = 0, []
    checks = 0
    for idx in range(instances):
        scn, table = generate_scenario(
            seed=seed + idx, n_nodes=3, horizon=6, budget_avg=HORIZON_BUDGET)
        latency, prices = latency_rows(scn, table, slice(None), table.trace)
        _, oracle_lat = brute_force_horizon(latency, prices, HORIZON_BUDGET,
                                            table.trace[0])
        for v in HORIZON_V:
            checks += 1
            rec = simulate(scn, table, "osp", PolicyConfig(v=v))
            # the bound constant uses the run's own worst realized cost
            e_max = float(rec.cost.max())
            b_const = bound_constant_B(HORIZON_BUDGET, e_max)
            limit = oracle_lat + b_const / v + HORIZON_SLACK * oracle_lat
            if rec.avg_latency <= limit:
                passes += 1
            else:
                failures.append(
                    f"instance {idx} v={v}: latency {rec.avg_latency!r} "
                    f"> limit {limit!r}")
    return passes, checks, failures
