"""Time-slotted simulation engine and experiment driver.

A run wires together a scenario (fixed parameters plus a per-slot table of
draws), a placement policy, the budget queue, and (for the predictive
policies) a mobility predictor. The queue-reading policies decide epoch by
epoch: osp one slot, psp and pspwu a whole frame at the frame's first slot
using predicted user locations. The queue-blind benchmarks decide the whole
run before the queue steps. Realized metrics and queue updates always use
the true trace. Everything is driven by explicit seeds, so identical
configurations replay bit-identically.
"""

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costqueue import advance, bound_constant_B
# max_slot_migration_cost is not used here; harness re-exports it
from .model import (Scenario, SlotTable, _real, _whole, latency_rows,
                    max_slot_migration_cost)
from .policies import (FrameInput, PolicyConfig, _frame_dp,
                       brute_force_frame, brute_force_horizon, frame_decide,
                       frame_objective, lm_decide, plm_decide)
from .predict import PredictorSpec, predict_epochs

POLICIES = ("osp", "psp", "pspwu", "am", "nm", "lm", "plm")
SWEEP_AXES = ("v", "e_avg", "t", "theta", "beta")

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


@dataclass
class ExperimentConfig:
    """Everything a run or sweep needs, mirrored by the JSON config schema."""

    policy: str = "osp"
    policy_cfg: PolicyConfig = field(default_factory=PolicyConfig)
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    scenario_seed: int = 0
    node_count: int = 6
    horizon: int = 1400
    frame_len: int = 3
    budget_avg: float = BUDGET_PRESETS["low"]
    backhaul_mbps: object = 100.0  # scalar, or full node_count x node_count matrix
    homogeneous_capacity: bool = False
    access_rate_scale: float = 1.0
    trace_path: str | None = None
    trace_seed: int = 1
    trace_stickiness: float = 0.7
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    output: str | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
            if not self.sweep_values:
                raise ConfigError("sweep values must be nonempty")


def synthetic_trace(seed: int, n_regions: int, length: int,
                    stickiness: float = 0.7) -> list[int]:
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
    seq = np.random.SeedSequence((_whole(seed, "seed"), 1))
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


def generate_scenario(seed: int, n_nodes: int = 6, horizon: int = 1400,
                      frame_len: int = 1, budget_avg: float = BUDGET_PRESETS["low"],
                      backhaul_mbps=100.0, trace=None,
                      homogeneous_capacity: bool = False,
                      access_rate_scale: float = 1.0):
    """Draw a (Scenario, SlotTable) pair from the simulation ranges.

    Task profile, access rate, container size and migration price are drawn
    per slot; compute capacity per node (fixed over time). access_rate_scale
    converts the drawn access bandwidth into a data rate (1.0 = one bit per
    second per hertz). The user's associated node comes from trace, or from a
    default synthetic trace with the same seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    backhaul = np.asarray(backhaul_mbps, dtype=float)
    if backhaul.ndim == 0:
        backhaul = np.full((n_nodes, n_nodes), float(backhaul))
    if homogeneous_capacity:
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
    columns = dict(zip(SLOT_RANGES, draws.T))
    columns["access_rate"] *= access_rate_scale
    return scn, SlotTable(n_nodes, trace[:horizon], **columns)


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


def simulate(scn: Scenario, table: SlotTable, policy: str,
             policy_cfg: PolicyConfig | None = None,
             predictor: PredictorSpec | None = None) -> RunRecord:
    """Execute one policy over the slot table and collect metrics.

    The run is a sequence of decision epochs: a frame of frame_len slots for
    psp/pspwu, one slot otherwise. An epoch's placements are chosen at its
    first slot from predicted user locations for its later slots (and for
    the next slot under plm); realized latency/cost and queue updates use the
    true user nodes. osp, psp and pspwu anchor on the queue, so each of
    their epochs is decided once the slots before it are accounted; am, nm,
    lm and plm never read it, so all their slots are decided first and the
    run is accounted in one pass. Both go through one accounting loop,
    which checks every slot against its epoch's start. A broken budget
    inequality, backlog deviation bound or w >= q, or a placement outside
    the nodes, raises InvariantError.
    """
    cfg = policy_cfg or PolicyConfig()
    spec = predictor or PredictorSpec()
    epoch_len, lookahead = _epochs(policy, scn.frame_len, spec)
    e_avg = scn.budget_avg
    horizon = scn.horizon
    if len(table.trace) < horizon:
        raise TraceFormatError("slot table shorter than horizon")
    trace = table.trace

    # No prediction and no realized row depends on a decision: the run's
    # are made once, before the loop. guesses[k, s - 1] is epoch k's
    # prediction of slot target[k, s - 1] = k * epoch_len + s, or -1 past
    # the horizon; no slot is the target of two epochs.
    users = table.user_node[:horizon]
    realized, price = latency_rows(scn, table, slice(0, horizon), users)
    guesses = predict_epochs(spec, users, lookahead, scn.node_count,
                             epoch_len)
    target = (np.arange(0, horizon, epoch_len)[:, None]
              + np.arange(1, lookahead + 1))
    made = guesses >= 0
    hit = made & (guesses == users.take(target, mode="clip"))
    attempts = made.sum(axis=0)
    depths = np.count_nonzero(attempts)
    accuracy = tuple((hit.sum(axis=0)[:depths] / attempts[:depths]).tolist())
    # Epochs decide from the realized rows with each wrongly predicted
    # slot's row overwritten by its predicted node's row; only those rows
    # are computed anew. A frame's first slot is no epoch's target, so a
    # frame with no miss sees its realized rows; plm's slot is the previous
    # epoch's target, so plm reads its own row from realized. The frame
    # policies' rows are scaled by v here, once per run, for the frame DP
    # kernel; realized stays unscaled for the accounting.
    miss = made & ~hit
    decision = realized.copy()
    decision[target[miss]] = latency_rows(scn, table, target[miss],
                                          guesses[miss])[0]
    if policy in ("osp", "psp", "pspwu"):
        decision *= cfg.v

    prices = price.tolist()
    prev = initial = trace[0]
    frame = policy in ("osp", "psp", "pspwu")  # osp: 1-slot frames
    if frame:
        # An epoch's anchor is the queue or the weight, so it is decided
        # only once the epochs before it are accounted.
        starts, placements = range(0, horizon, epoch_len), []
    else:
        # Queue-blind: no placement depends on the queue.
        starts = (0,)
        if policy == "am":
            placements = trace[:horizon]
        elif policy == "nm":
            placements = [initial] * horizon
        elif policy == "lm":
            placements, at, lm_acc = [], initial, 0.0
            for t in range(horizon):
                at, lm_acc = lm_decide(lm_acc, realized[t].tolist(), prices[t],
                                       trace[t], at, cfg)
                placements.append(at)
        else:  # plm, which reads the next slot's row unless it is the last
            placements, at = [], initial
            for t in range(horizon):
                nxt = decision[t + 1].tolist() if t + 1 < horizon else None
                at = plm_decide(realized[t].tolist(), nxt, prices[t], trace[t],
                                at, cfg)
                placements.append(at)

    q = w = w_prev = 0.0
    beta = cfg.beta
    costs, qs, ws = [], [], []  # every slot's cost, and q and w before it
    overrun = 0.0  # queue recursion without the clamp, same op order as the queue
    negative_w_frames = 0
    # Holding the epoch-start backlog fixed is off by at most epoch_len * w_q.
    w_q = max(e_avg, float(price.max()))
    dev_bound = epoch_len * w_q
    dev_limit = dev_bound + 1e-9 * max(1.0, dev_bound)

    for start in starts:
        if frame:
            anchor = w if policy == "pspwu" else q
            negative_w_frames += anchor < 0
            stop = start + epoch_len  # slicing ends it at the horizon
            seq = _frame_dp(decision[start:stop].tolist(), prices[start:stop],
                            anchor, prev)
            placements += seq
        else:
            seq = placements

        for t, placement in enumerate(seq, start):
            if t % epoch_len == 0:  # an epoch starts here
                q_start = q
            cost = prices[t] if placement != prev else 0.0
            costs.append(cost)
            qs.append(q)
            ws.append(w)
            q, w, w_prev = advance(q, w, w_prev, cost, e_avg, beta)
            overrun = overrun + (cost - e_avg)
            prev = placement
            if not abs(q - q_start) <= dev_limit:
                raise InvariantError(
                    f"slot {t}: backlog {q!r} drifted from the epoch "
                    f"start {q_start!r} beyond {epoch_len} * w_q = {dev_bound!r}")
            # w' - q' = (w - q) + beta * max(w - w_prev, 0) and w = q = 0 at
            # the start. In floats w' = fl(fl(w + d) + beta * m) with
            # d = fl(q' - q). Rounding is monotone, so w >= q gives
            # w' >= fl(q + d), and fl(q + d) == q' for every queue step: the
            # clamp (d = -q), a step of at most q either way (d is exact,
            # Fast2Sum) and a larger rise (d is off by at most half an ulp of
            # q', and q + d rounds back to q'). The check needs no tolerance.
            if not w >= q:
                raise InvariantError(f"slot {t}: weight {w!r} fell below the "
                                     f"backlog {q!r}")

    placement = np.array(placements)
    # A negative node would wrap in the latency gather below.
    bad = np.flatnonzero((placement < 0) | (placement >= scn.node_count))
    if bad.size:
        raise InvariantError(f"slot {bad[0]}: placement {placement[bad[0]]} "
                             f"is not a node in [0, {scn.node_count})")
    # Telescoped budget guarantee: the clamp only ever raises the backlog, so
    # q dominates the unclamped overrun sum. Float-exact because both sides
    # apply the identical per-slot addition (rounding is monotone).
    if not q >= overrun:
        raise InvariantError(f"final backlog {q!r} is below the "
                             f"unclamped overrun {overrun!r}")
    total_cost = math.fsum(costs)
    rhs = horizon * e_avg + q
    if not total_cost <= rhs + 1e-9 * max(1.0, rhs):
        raise InvariantError(f"total cost {total_cost!r} exceeds "
                             f"H * e_avg + Q(H) = {rhs!r}")

    latency = realized[np.arange(horizon), placement]
    return RunRecord(
        placement=placement, latency=latency, cost=np.array(costs),
        q=np.array(qs), w=np.array(ws),
        avg_latency=math.fsum(latency) / horizon,
        avg_cost=total_cost / horizon,
        avg_queue=math.fsum(qs) / horizon,
        final_queue=q,
        negative_w_frames=negative_w_frames,
        prediction_accuracy=accuracy,
    )


def _materialize(config: ExperimentConfig):
    """Draw the configured scenario; a value the scenario or the synthetic
    trace rejects is reported as a ConfigError."""
    trace = None
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
        return generate_scenario(
            config.scenario_seed, config.node_count, config.horizon,
            config.frame_len, config.budget_avg, config.backhaul_mbps,
            trace=trace, homogeneous_capacity=config.homogeneous_capacity,
            access_rate_scale=config.access_rate_scale)
    except TraceFormatError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
        if axis in ("v", "theta", "beta"):
            cfg = replace(cfg, **{axis: _real(value, axis)})
        elif axis == "e_avg":
            scn = replace(scn, budget_avg=_real(value, axis))
        else:  # axis "t"
            scn = replace(scn, frame_len=_whole(value, "t"))
            _epochs(config.policy, scn.frame_len, config.predictor)
    except (TypeError, ValueError) as exc:
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

_SCHEMA = {
    "policy": {"name", "v", "theta", "beta", "lm_gamma", "plm_weight"},
    "scenario": {"seed", "node_count", "horizon", "frame_len", "budget_avg",
                 "backhaul_mbps", "homogeneous_capacity", "access_rate_scale"},
    "predictor": {"kind", "accuracies", "window", "rng_seed"},
    "trace": {"kind", "seed", "stickiness", "path"},
    "sweep": {"axis", "values"},
    "output": None,
}


def load_config_file(path: str) -> dict:
    """Read and parse the JSON config; ConfigError names the path on failure."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply KEY=VALUE overrides (dotted keys) onto a parsed config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        parts = key.split(".")
        if parts[0] not in _SCHEMA:
            raise ConfigError(f"unknown config section {parts[0]!r}")
        allowed = _SCHEMA[parts[0]]
        if allowed is None:
            if len(parts) != 1:
                raise ConfigError(f"{parts[0]!r} takes no sub-key")
        else:
            if len(parts) != 2 or parts[1] not in allowed:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        if allowed is None:
            raw[parts[0]] = parsed
        else:
            raw.setdefault(parts[0], {})[parts[1]] = parsed
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed config dict and build an ExperimentConfig."""
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if _SCHEMA[section] is not None:
            if not isinstance(keys, dict):
                raise ConfigError(f"section {section!r} must be an object")
            unknown = set(keys) - _SCHEMA[section]
            if unknown:
                raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")

    policy, scenario, predictor, trace, sw = (
        raw.get(section, {})
        for section in ("policy", "scenario", "predictor", "trace", "sweep"))

    if "name" not in policy:
        raise ConfigError("policy.name is required")
    homogeneous = scenario.get("homogeneous_capacity", False)
    if not isinstance(homogeneous, bool):
        raise ConfigError("scenario.homogeneous_capacity must be true or "
                          f"false, got {homogeneous!r}")
    try:
        # a number or a matrix of them; the scenario checks the shape
        backhaul = scenario.get("backhaul_mbps", 100.0)
        for row in backhaul if isinstance(backhaul, list) else [backhaul]:
            for rate in row if isinstance(row, list) else [row]:
                _real(rate, "scenario.backhaul_mbps")
        policy_cfg = PolicyConfig(**{
            key: _real(policy.get(key, default), f"policy.{key}")
            for key, default in (("v", 10.0), ("theta", 0.0), ("beta", 0.0),
                                 ("lm_gamma", 1.0), ("plm_weight", 1.0))})
        spec_kwargs = {}
        if "accuracies" in predictor:
            accuracies = predictor["accuracies"]
            if not isinstance(accuracies, list):
                raise ConfigError("predictor.accuracies must be a list, got "
                                  f"{accuracies!r}")
            spec_kwargs["accuracies"] = tuple(
                _real(a, "predictor.accuracies") for a in accuracies)
        pred_spec = PredictorSpec(
            kind=predictor.get("kind", "oracle_noisy"),
            window=_whole(predictor.get("window", 3), "predictor.window"),
            rng_seed=_whole(predictor.get("rng_seed", 0), "predictor.rng_seed"),
            **spec_kwargs)
        trace_kind = trace.get("kind", "synthetic")
        if trace_kind not in ("synthetic", "file"):
            raise ConfigError(f"unknown trace kind {trace_kind!r}")
        if trace_kind == "file" and "path" not in trace:
            raise ConfigError("trace.path is required for a file trace")
        return ExperimentConfig(
            policy=policy["name"],
            policy_cfg=policy_cfg,
            predictor=pred_spec,
            scenario_seed=_whole(scenario.get("seed", 0), "scenario.seed"),
            node_count=_whole(scenario.get("node_count", 6), "scenario.node_count"),
            horizon=_whole(scenario.get("horizon", 1400), "scenario.horizon"),
            frame_len=_whole(scenario.get("frame_len", 3), "scenario.frame_len"),
            budget_avg=_real(scenario.get("budget_avg", BUDGET_PRESETS["low"]),
                             "scenario.budget_avg"),
            backhaul_mbps=backhaul,
            homogeneous_capacity=homogeneous,
            access_rate_scale=_real(scenario.get("access_rate_scale", 1.0),
                                    "scenario.access_rate_scale"),
            trace_path=trace.get("path") if trace_kind == "file" else None,
            trace_seed=_whole(trace.get("seed", 1), "trace.seed"),
            trace_stickiness=_real(trace.get("stickiness", 0.7),
                                   "trace.stickiness"),
            sweep_axis=sw.get("axis"),
            sweep_values=tuple(sw.get("values", ())),
            output=raw.get("output"),
        )
    except (TypeError, ValueError) as exc:
        # a ConfigError is a ValueError, and keeps its message
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# CSV input/output

def _write_csv(path: str, header, rows) -> None:
    # csv writes str(x), and a float's str is its repr: values read back exactly
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(path: str, rows) -> None:
    """rows: iterable of (axis_value, policy_name, RunRecord)."""
    _write_csv(path, SUMMARY_HEADER, (
        [axis_value, policy, rec.avg_latency, rec.avg_cost, rec.avg_queue,
         rec.final_queue, rec.negative_w_frames]
        for axis_value, policy, rec in rows))


def write_per_slot_csv(path: str, rec: RunRecord) -> None:
    _write_csv(path, PER_SLOT_HEADER, rec.per_slot)


def write_trace_csv(path: str, regions) -> None:
    _write_csv(path, ("slot", "region"),
               ((t, int(r)) for t, r in enumerate(regions)))


def read_trace_csv(path: str) -> list[int]:
    """Parse a slot,region trace file; TraceFormatError on any malformation."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise TraceFormatError(f"trace file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
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
                slot, region = int(row[0]), int(row[1])
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


def random_frame_instance(rng, anchor_low=0.0, grid=False):
    """Small random frame problem for DP-vs-enumeration checks.

    By default the latencies and prices are a generated scenario's and the
    tunables and anchor uniform floats. With grid, the latencies and prices
    are whole numbers 0-3 or quarters 0-10, v is one of 0, 1, 2.5 and 10,
    and the anchor, theta and e_avg are quarters: every sum is exact, so
    the ties and near-ties that float draws almost never make are common.
    """
    n = int(rng.integers(2, 6))
    length = int(rng.integers(2, 5))
    if grid:
        top, step = (3, 1.0) if rng.random() < 0.5 else (40, 0.25)
        values = rng.integers(0, top + 1, (length, n + 1)) * step
        cfg = PolicyConfig(v=float(rng.choice((0.0, 1.0, 2.5, 10.0))),
                           theta=int(rng.integers(41)) / 4)
        anchor = int(rng.integers(math.ceil(4 * anchor_low),
                                  math.floor(4 * ANCHOR_HIGH) + 1)) / 4
        frame = FrameInput(values[:, :n].tolist(), values[:, n].tolist(),
                           anchor, int(rng.integers(n)))
        return cfg, frame, int(rng.integers(41)) / 4
    scn, table = generate_scenario(
        seed=int(rng.integers(2 ** 31)), n_nodes=n, horizon=length,
        frame_len=length, budget_avg=float(rng.uniform(0.0, 0.5)))
    cfg = PolicyConfig(v=float(rng.uniform(0.0, 100.0)),
                       theta=float(rng.uniform(0.0, 100.0)))
    rows, prices = latency_rows(scn, table, slice(None), table.trace)
    frame = FrameInput(rows.tolist(), prices.tolist(),
                       float(rng.uniform(anchor_low, ANCHOR_HIGH)),
                       int(rng.integers(n)))
    return cfg, frame, scn.budget_avg


def verify_frame_oracles(seed: int = 1, instances: int = 200,
                         anchor_low: float = 0.0):
    """Compare the frame solver against exhaustive enumeration.

    Every other instance is drawn on the exact grid. Negative anchor_low
    exercises the weight-anchored variant. Returns (matches, instances,
    mismatch descriptions).
    """
    rng = np.random.default_rng(seed)
    matches, mismatches = 0, []
    for idx in range(instances):
        cfg, frame, e_avg = random_frame_instance(rng, anchor_low,
                                                  grid=idx % 2 == 1)
        seq = frame_decide(cfg, frame)
        obj = frame_objective(cfg, frame, e_avg, seq)
        best_seq, best_obj = brute_force_frame(frame, e_avg, cfg)
        tol = 1e-9 * max(1.0, abs(best_obj))
        if seq == best_seq and abs(obj - best_obj) <= tol:
            matches += 1
        else:
            mismatches.append(
                f"instance {idx}: dp={seq} obj={obj!r}, "
                f"oracle={best_seq} obj={best_obj!r}")
    return matches, instances, mismatches


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
        _, oracle_lat = brute_force_horizon(latency.tolist(), prices.tolist(),
                                            HORIZON_BUDGET, table.trace[0])
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
