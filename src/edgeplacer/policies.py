"""Placement decision procedures.

Every procedure decides from latency rows (row[i]: seconds to serve a slot
from node i) and per-slot move prices, never from the slot data behind them.

The frame DP is the drift-plus-penalty rule for all three budget-aware
policies: it commits a frame of placements at once by minimizing
v * latency + anchor * move price over the (possibly predicted) frame rows.
The engine scales its decision rows by v once per run and calls the kernel,
_frame_dp, directly; frame_decide is its checked public wrapper.
The reactive osp is a 1-slot frame anchored on the queue backlog, psp a
longer frame anchored on the same backlog, and pspwu anchors on the
momentum-weighted surrogate instead. Benchmarks: always-migrate and
never-migrate need no rule of their own (the engine follows the user or
holds the initial node); lazy-migrate and predictive-lazy-migrate are step
functions. Brute-force enumerators serve as optimality oracles on small
instances.
"""

import itertools
import math
from dataclasses import dataclass, fields

from .model import Placement, _real, _whole

# Cap on brute-force enumeration size (sequences per instance).
ENUM_GUARD = 1_000_000


@dataclass
class PolicyConfig:
    """Tunables shared by the decision procedures.

    v trades latency against queue backlog; beta is the weight-update
    memory; lm_gamma scales the lazy-migration threshold; plm_weight scales
    the predictive-lazy savings comparison. theta was meant to weight the
    earlier, better-predicted in-frame slots more heavily, but as written it
    adds anchor * theta * (T - p) to every edge of frame position p. Every
    sequence crosses one edge per position, so theta shifts all frame
    objectives by the same constant. frame_decide reads neither theta nor
    e_avg, so theta moves no placement; it changes only the value
    frame_objective reports.
    """

    v: float = 10.0
    theta: float = 0.0
    beta: float = 0.0
    lm_gamma: float = 1.0
    plm_weight: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(_real(getattr(self, f.name), f.name))
                   for f in fields(self)):
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

    latency[p][i] is the time to serve frame position p from node i (row 0
    for the realized user node, later rows for predicted ones); move_price[p]
    prices any move at p. q_anchor is the backlog (or weight) frozen for the
    frame; prev_placement is where the service sat before the frame began.
    """

    latency: list
    move_price: list
    q_anchor: float = 0.0
    prev_placement: Placement = 0

    def __post_init__(self):
        if not self.latency:
            raise ValueError("frame must contain at least one slot")
        n = len(self.latency[0])
        if n < 1 or any(len(row) != n for row in self.latency):
            raise ValueError("latency rows must all have one length >= 1")
        if len(self.move_price) != len(self.latency):
            raise ValueError("move_price must have one price per latency row")
        if not all(map(math.isfinite, itertools.chain(self.move_price,
                                                      *self.latency))):
            raise ValueError("latencies and move prices must be finite")
        if not 0 <= _whole(self.prev_placement, "prev_placement") < n:
            raise ValueError(f"prev_placement must be a node in [0, {n})")
        if not math.isfinite(_real(self.q_anchor, "q_anchor")):
            raise ValueError("q_anchor must be finite")


def frame_decide(cfg: PolicyConfig, frame: FrameInput) -> list[Placement]:
    """Whole-frame placements minimizing the frame objective anchored on
    q_anchor: the queue under osp (a 1-slot frame) and psp, the weight, which
    may be negative, under pspwu.

    Node i scores v * latency[p][i] at position p, plus anchor * move_price[p]
    if the service moves there; the anchor * (theta_p - e_avg) terms of
    frame_objective add the same amount to every sequence and are left out.
    The result is the lexicographically smallest minimizer, as the
    brute-force oracle's tie-break. This is the checked public wrapper of
    _frame_dp, the kernel the engine calls on rows it scaled by v once per run.
    """
    v = cfg.v
    return _frame_dp([[v * x for x in row] for row in frame.latency],
                     frame.move_price, frame.q_anchor, frame.prev_placement)


def _frame_dp(rows, prices, anchor, prev) -> list[Placement]:
    """frame_decide's DP on rows already multiplied by v; checks nothing.
    Every move at p costs the same, so the cheapest way into a node is to
    stay on it or to come from the cheapest other node: the backward pass
    keeps each layer's smallest and second-smallest moved-in cost, O(N T)."""
    # Backward pass. after[-1][i] is the cheapest completion of the frame
    # with the service on node i at the next position the forward pass
    # decides; a 1-slot frame has no completion and builds nothing.
    after, tail = [], itertools.repeat(0.0)
    for p in range(len(rows) - 1, 0, -1):
        row, m = rows[p], anchor * prices[p]
        stay = [x + t for x, t in zip(row, tail)]
        moved = [x + m + t for x, t in zip(row, tail)]
        best = min(moved)
        k = moved.index(best)
        moved[k] = math.inf
        second = min(moved)
        tail = [s if s <= best else best for s in stay]
        tail[k] = stay[k] if stay[k] <= second else second
        after.append(tail)

    seq, at = [], prev
    for p, row in enumerate(rows):
        m = anchor * prices[p]
        if after:
            t = after.pop()
            scores = [x + m + u for x, u in zip(row, t)]
            scores[at] = row[at] + t[at]
        else:
            scores = [x + m for x in row]
            scores[at] = row[at]
        at = scores.index(min(scores))
        seq.append(at)
    return seq


def frame_objective(cfg: PolicyConfig, frame: FrameInput, e_avg: float,
                    seq) -> float:
    """Evaluate the frame objective of an arbitrary placement sequence: at
    position p, anchor * (move price if moved - e_avg + theta * (T - p)) plus
    v * latency.

    Forward slot-order accumulation, also the oracle's, so equal sequences
    yield bit-identical objectives.
    """
    length = len(frame.latency)
    if len(seq) != length:
        raise ValueError("sequence length must match frame length")
    total = 0.0
    j = frame.prev_placement
    for p, i in enumerate(seq):
        moved = frame.move_price[p] if j != i else 0.0
        theta_p = cfg.theta * (length - p)
        total += (frame.q_anchor * (moved - e_avg + theta_p)
                  + cfg.v * frame.latency[p][i])
        j = i
    return total


def brute_force_frame(frame: FrameInput, e_avg: float,
                      cfg: PolicyConfig) -> tuple[list[Placement], float]:
    """Exhaustive frame oracle: the exact minimizer, lexicographically first."""
    n = len(frame.latency[0])
    length = len(frame.latency)
    if n ** length > ENUM_GUARD:
        raise ValueError("instance exceeds enumeration guard")
    best_seq, best = None, math.inf
    for seq in itertools.product(range(n), repeat=length):
        c = frame_objective(cfg, frame, e_avg, seq)
        if c < best:
            best, best_seq = c, list(seq)
    return best_seq, best


def lm_decide(acc: float, row, price: float, user: Placement, prev: Placement,
              cfg: PolicyConfig) -> tuple[Placement, float]:
    """Lazy-migrate: move only once the accumulated latency penalty of staying
    put reaches lm_gamma times the migration price.

    row is the slot's latency row, user the user's node and acc the
    caller-threaded accumulator; returns (placement, new acc).
    """
    if acc < 0:
        raise ValueError("accumulator must be >= 0")
    gap = row[prev] - row[user]
    acc = acc + (gap if gap > 0.0 else 0.0)  # max(0.0, gap), no builtin call
    if acc >= cfg.lm_gamma * (price if user != prev else 0.0):
        return user, 0.0
    return prev, acc


def plm_decide(row, next_row, price: float, user: Placement, prev: Placement,
               cfg: PolicyConfig) -> Placement:
    """Predictive-lazy-migrate: one-step look-ahead savings test.

    Compares the migration price against the two-slot latency saved by moving
    to the user's current node now. row is this slot's latency row; next_row
    is the next slot's row for the predicted user node (the service assumed
    to remain wherever this slot leaves it). On the last slot next_row is
    None and only the current slot's gap counts.
    """
    if prev == user:
        return prev
    if next_row is None:
        savings = row[prev] - row[user]
    else:
        savings = (row[prev] + next_row[prev]) - (row[user] + next_row[user])
    if price < cfg.plm_weight * savings:
        return user
    return prev


def brute_force_horizon(latency, move_price, e_avg: float, initial: Placement):
    """Offline oracle: latency-minimal placement sequence meeting the budget.

    latency[t] is slot t's latency row for the realized user node and
    move_price[t] its move price; the service starts at initial. Enumerates
    every sequence over the whole horizon, keeps those whose time-averaged
    migration cost stays within e_avg, and returns (sequence, average
    latency) for the feasible latency minimizer, lexicographically first.
    Returns (None, inf) when nothing is feasible. The latency weight plays
    no role here: the budget enters as a hard constraint, not a penalty.
    """
    horizon = len(latency)
    if horizon < 1:
        raise ValueError("need at least one slot")
    n = len(latency[0])
    if n ** horizon > ENUM_GUARD:
        raise ValueError("instance exceeds enumeration guard")
    budget = e_avg * horizon
    # tiny slack so float re-association cannot reject a boundary sequence
    budget_eps = 1e-12 * max(1.0, budget)
    best_seq, best_lat = None, math.inf
    for seq in itertools.product(range(n), repeat=horizon):
        prev = initial
        cost = 0.0
        lat = 0.0
        for t, i in enumerate(seq):
            cost += move_price[t] if i != prev else 0.0
            lat += latency[t][i]
            prev = i
        if cost <= budget + budget_eps and lat < best_lat:
            best_lat, best_seq = lat, list(seq)
    if best_seq is None:
        return None, math.inf
    return best_seq, best_lat / horizon
