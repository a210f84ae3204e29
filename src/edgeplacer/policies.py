"""Placement decision procedures.

Reactive: osp_decide weighs latency against the budget queue one slot at a
time. Predictive: psp_frame_decide / pspwu_frame_decide commit a whole frame
of decisions at once by solving a layered shortest-path problem over the
(possibly predicted) frame observations; the weight-update variant swaps the
queue anchor for the momentum-weighted surrogate. Benchmarks: always-migrate,
never-migrate, lazy-migrate, predictive-lazy-migrate. Brute-force enumerators
serve as optimality oracles on small instances.
"""

import itertools
import math
from dataclasses import astuple, dataclass

from .model import (Placement, Scenario, SlotObservation, migration_cost,
                    service_latency, slot_outcome)

# Cap on brute-force enumeration size (sequences per instance).
ENUM_GUARD = 1_000_000


@dataclass
class PolicyConfig:
    """Tunables shared by the decision procedures.

    v trades latency against queue backlog; theta weights earlier in-frame
    slots (better predicted) more heavily; beta is the weight-update memory;
    lm_gamma scales the lazy-migration threshold; plm_weight scales the
    predictive-lazy savings comparison.
    """

    v: float = 10.0
    theta: float = 0.0
    beta: float = 0.0
    lm_gamma: float = 1.0
    plm_weight: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in astuple(self)):
            raise ValueError("policy tunables must be finite")
        if self.v < 0:
            raise ValueError("v must be >= 0")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.lm_gamma <= 0:
            raise ValueError("lm_gamma must be > 0")
        if self.plm_weight <= 0:
            raise ValueError("plm_weight must be > 0")


@dataclass
class FrameInput:
    """One frame's decision problem, assembled at the frame's first slot.

    slots[0] is the realized current observation; later entries carry
    predicted user_node values. q_anchor is the backlog (or weight) frozen
    for the whole frame. prev_placement is where the service sat before the
    frame began.
    """

    slots: list
    q_anchor: float = 0.0
    prev_placement: Placement = 0

    def __post_init__(self):
        if not self.slots:
            raise ValueError("frame must contain at least one slot")


def _frame_tables(cfg: PolicyConfig, frame: FrameInput, scn: Scenario):
    """Per-position latency table, migration price, and frame-position weights."""
    length = len(frame.slots)
    lat = [[service_latency(scn, obs, i) for i in range(scn.node_count)]
           for obs in frame.slots]
    # Under this cost model every off-diagonal move at a slot costs the same.
    move = [migration_cost(obs, 0, 1) if scn.node_count > 1 else 0.0
            for obs in frame.slots]
    theta_w = [cfg.theta * (length - p) for p in range(length)]
    return lat, move, theta_w


def _edge_cost(anchor, e_avg, v, lat_p, move_p, theta_p, j, i):
    """Cost of entering node i from node j at one frame position."""
    moved = move_p if j != i else 0.0
    return anchor * (moved - e_avg + theta_p) + v * lat_p[i]


def _path_cost(anchor, e_avg, v, lat, move, theta_w, prev, seq):
    # Forward slot-order accumulation; shared by the DP report and the oracle
    # so equal sequences yield bit-identical objectives.
    total = 0.0
    j = prev
    for p, i in enumerate(seq):
        total += _edge_cost(anchor, e_avg, v, lat[p], move[p], theta_w[p], j, i)
        j = i
    return total


def _solve_frame(anchor: float, cfg: PolicyConfig, frame: FrameInput,
                 scn: Scenario, e_avg: float) -> list[Placement]:
    """Minimize the frame objective over all node sequences.

    Layered shortest path: one layer of N states per slot, edges weighted by
    _edge_cost, O(N^2 T). A backward suffix pass followed by a forward
    lowest-index reconstruction returns the lexicographically smallest
    minimizer, matching the brute-force oracle's tie-break.
    """
    n = scn.node_count
    length = len(frame.slots)
    lat, move, theta_w = _frame_tables(cfg, frame, scn)

    # suffix[p][i]: cheapest completion of positions p+1..end given state i at p
    suffix = [[0.0] * n for _ in range(length)]
    for p in range(length - 2, -1, -1):
        for i in range(n):
            best = math.inf
            for nxt in range(n):
                c = _edge_cost(anchor, e_avg, cfg.v, lat[p + 1], move[p + 1],
                               theta_w[p + 1], i, nxt) + suffix[p + 1][nxt]
                if c < best:
                    best = c
            suffix[p][i] = best

    seq = []
    at = frame.prev_placement
    for p in range(length):
        best, best_i = math.inf, 0
        for i in range(n):
            c = _edge_cost(anchor, e_avg, cfg.v, lat[p], move[p], theta_w[p],
                           at, i) + suffix[p][i]
            if c < best:
                best, best_i = c, i
        seq.append(best_i)
        at = best_i
    return seq


def psp_frame_decide(cfg: PolicyConfig, frame: FrameInput, scn: Scenario,
                     e_avg: float) -> list[Placement]:
    """Whole-frame placements minimizing the queue-anchored frame objective."""
    if frame.q_anchor < 0:
        raise ValueError("queue anchor must be >= 0")
    return _solve_frame(frame.q_anchor, cfg, frame, scn, e_avg)


def pspwu_frame_decide(cfg: PolicyConfig, frame: FrameInput, scn: Scenario,
                       e_avg: float) -> list[Placement]:
    """Same frame problem anchored on the weight, which may be negative."""
    return _solve_frame(frame.q_anchor, cfg, frame, scn, e_avg)


def frame_objective(cfg: PolicyConfig, frame: FrameInput, scn: Scenario,
                    e_avg: float, seq) -> float:
    """Evaluate the frame objective of an arbitrary placement sequence."""
    if len(seq) != len(frame.slots):
        raise ValueError("sequence length must match frame length")
    lat, move, theta_w = _frame_tables(cfg, frame, scn)
    return _path_cost(frame.q_anchor, e_avg, cfg.v, lat, move, theta_w,
                      frame.prev_placement, seq)


def brute_force_frame(frame: FrameInput, scn: Scenario, e_avg: float,
                      cfg: PolicyConfig) -> tuple[list[Placement], float]:
    """Exhaustive frame oracle: the exact minimizer, lexicographically first."""
    n = scn.node_count
    length = len(frame.slots)
    if n ** length > ENUM_GUARD:
        raise ValueError("instance exceeds enumeration guard")
    lat, move, theta_w = _frame_tables(cfg, frame, scn)
    best_seq, best = None, math.inf
    for seq in itertools.product(range(n), repeat=length):
        c = _path_cost(frame.q_anchor, e_avg, cfg.v, lat, move, theta_w,
                       frame.prev_placement, seq)
        if c < best:
            best, best_seq = c, list(seq)
    return best_seq, best


def osp_decide(cfg: PolicyConfig, q: float, obs: SlotObservation,
               prev: Placement, scn: Scenario) -> Placement:
    """Reactive one-slot rule: argmin_i of v*latency_i + q*migration(prev->i)."""
    if q < 0:
        raise ValueError("queue backlog must be >= 0")
    best, best_i = math.inf, 0
    for i in range(scn.node_count):
        score = cfg.v * service_latency(scn, obs, i) + q * migration_cost(obs, prev, i)
        if score < best:
            best, best_i = score, i
    return best_i


def am_decide(obs: SlotObservation) -> Placement:
    """Always-migrate: follow the user to its associated node."""
    return obs.user_node


def nm_decide(initial: Placement) -> Placement:
    """Never-migrate: hold the initial assignment forever."""
    return initial


def lm_decide(acc: float, obs: SlotObservation, prev: Placement, scn: Scenario,
              cfg: PolicyConfig) -> tuple[Placement, float]:
    """Lazy-migrate: move only once the accumulated latency penalty of staying
    put reaches lm_gamma times the migration price.

    acc is the caller-threaded accumulator; returns (placement, new acc).
    """
    if acc < 0:
        raise ValueError("accumulator must be >= 0")
    near = obs.user_node
    acc = acc + max(0.0, service_latency(scn, obs, prev)
                    - service_latency(scn, obs, near))
    if acc >= cfg.lm_gamma * migration_cost(obs, prev, near):
        return near, 0.0
    return prev, acc


def plm_decide(obs: SlotObservation, predicted_next, prev: Placement,
               scn: Scenario, cfg: PolicyConfig) -> Placement:
    """Predictive-lazy-migrate: one-step look-ahead savings test.

    Compares the migration price against the two-slot latency saved by moving
    to the current nearest node now, where the next slot uses predicted_next
    (the service assumed to remain wherever this slot leaves it). On the last
    slot predicted_next is None and only the current slot's gap counts.
    """
    near = obs.user_node
    if prev == near:
        return prev
    stay_now = service_latency(scn, obs, prev)
    move_now = service_latency(scn, obs, near)
    if predicted_next is None:
        savings = stay_now - move_now
    else:
        stay_next = service_latency(scn, predicted_next, prev)
        move_next = service_latency(scn, predicted_next, near)
        savings = (stay_now + stay_next) - (move_now + move_next)
    if migration_cost(obs, prev, near) < cfg.plm_weight * savings:
        return near
    return prev


def brute_force_horizon(scn: Scenario, observations, e_avg: float,
                        initial: Placement | None = None):
    """Offline oracle: latency-minimal placement sequence meeting the budget.

    Enumerates every sequence over the whole horizon, keeps those whose
    time-averaged migration cost stays within e_avg, and returns
    (sequence, average latency) for the feasible latency minimizer,
    lexicographically first. Returns (None, inf) when nothing is feasible.
    The latency weight plays no role here: the budget enters as a hard
    constraint, not a penalty.
    """
    horizon = len(observations)
    n = scn.node_count
    if horizon < 1:
        raise ValueError("need at least one observation")
    if n ** horizon > ENUM_GUARD:
        raise ValueError("instance exceeds enumeration guard")
    start = observations[0].user_node if initial is None else initial
    budget = e_avg * horizon
    # tiny slack so float re-association cannot reject a boundary sequence
    budget_eps = 1e-12 * max(1.0, budget)
    best_seq, best_lat = None, math.inf
    for seq in itertools.product(range(n), repeat=horizon):
        prev = start
        cost = 0.0
        lat = 0.0
        for t, i in enumerate(seq):
            l, e = slot_outcome(scn, observations[t], prev, i)
            cost += e
            lat += l
            prev = i
        if cost <= budget + budget_eps and lat < best_lat:
            best_lat, best_seq = lat, list(seq)
    if best_seq is None:
        return None, math.inf
    return best_seq, best_lat / horizon
