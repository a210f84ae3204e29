"""Placement decision procedures.

Every procedure decides from latency rows (row[i]: seconds to serve a slot
from node i) and per-slot move prices, never from the slot data behind them.

Reactive: osp_decide weighs latency against the budget queue one slot at a
time. Predictive: psp_frame_decide / pspwu_frame_decide commit a whole frame
of decisions at once by solving a layered shortest-path problem over the
(possibly predicted) frame rows; the weight-update variant swaps the queue
anchor for the momentum-weighted surrogate. Benchmarks: always-migrate,
never-migrate, lazy-migrate, predictive-lazy-migrate. Brute-force enumerators
serve as optimality oracles on small instances.
"""

import itertools
import math
from dataclasses import astuple, dataclass

from .model import Placement

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
    objectives by the same constant and moves no placement (up to float
    rounding of near-ties); it changes only the reported objective.
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


def _theta_weights(cfg: PolicyConfig, length: int) -> list[float]:
    return [cfg.theta * (length - p) for p in range(length)]


def _edge_cost(anchor, e_avg, v, lat_p, move_p, theta_p, j, i):
    """Cost of entering node i from node j at one frame position."""
    moved = move_p if j != i else 0.0
    return anchor * (moved - e_avg + theta_p) + v * lat_p[i]


def pspwu_frame_decide(cfg: PolicyConfig, frame: FrameInput,
                       e_avg: float) -> list[Placement]:
    """Whole-frame placements minimizing the frame objective anchored on
    q_anchor, the weight under pspwu, which may be negative.

    Layered shortest path: one layer of N states per slot, edges weighted by
    _edge_cost, O(N^2 T). A backward suffix pass followed by a forward
    lowest-index reconstruction returns the lexicographically smallest
    minimizer, matching the brute-force oracle's tie-break.
    """
    anchor, lat, move = frame.q_anchor, frame.latency, frame.move_price
    n = len(lat[0])
    length = len(lat)
    theta_w = _theta_weights(cfg, length)

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


def psp_frame_decide(cfg: PolicyConfig, frame: FrameInput,
                     e_avg: float) -> list[Placement]:
    """Whole-frame placements minimizing the queue-anchored frame objective."""
    if frame.q_anchor < 0:
        raise ValueError("queue anchor must be >= 0")
    return pspwu_frame_decide(cfg, frame, e_avg)


def frame_objective(cfg: PolicyConfig, frame: FrameInput, e_avg: float,
                    seq) -> float:
    """Evaluate the frame objective of an arbitrary placement sequence.

    Forward slot-order accumulation, also the oracle's, so equal sequences
    yield bit-identical objectives.
    """
    length = len(frame.latency)
    if len(seq) != length:
        raise ValueError("sequence length must match frame length")
    theta_w = _theta_weights(cfg, length)
    total = 0.0
    j = frame.prev_placement
    for p, i in enumerate(seq):
        total += _edge_cost(frame.q_anchor, e_avg, cfg.v, frame.latency[p],
                            frame.move_price[p], theta_w[p], j, i)
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


def osp_decide(cfg: PolicyConfig, q: float, row, price: float,
               prev: Placement) -> Placement:
    """Reactive one-slot rule: argmin_i of v*row[i] + q*(price if i moves)."""
    if q < 0:
        raise ValueError("queue backlog must be >= 0")
    best, best_i = math.inf, 0
    for i, lat in enumerate(row):
        score = cfg.v * lat + q * (price if i != prev else 0.0)
        if score < best:
            best, best_i = score, i
    return best_i


def am_decide(user: Placement) -> Placement:
    """Always-migrate: follow the user to its associated node."""
    return user


def nm_decide(initial: Placement) -> Placement:
    """Never-migrate: hold the initial assignment forever."""
    return initial


def lm_decide(acc: float, row, price: float, user: Placement, prev: Placement,
              cfg: PolicyConfig) -> tuple[Placement, float]:
    """Lazy-migrate: move only once the accumulated latency penalty of staying
    put reaches lm_gamma times the migration price.

    row is the slot's latency row, user the user's node and acc the
    caller-threaded accumulator; returns (placement, new acc).
    """
    if acc < 0:
        raise ValueError("accumulator must be >= 0")
    acc = acc + max(0.0, row[prev] - row[user])
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
