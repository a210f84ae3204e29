"""Placement decision procedures.

Every procedure decides from latency rows (row[i]: seconds to serve a slot
from node i) and per-slot move prices, never from the slot data behind them.

The frame DP is the drift-plus-penalty rule for all three budget-aware
policies: it commits a frame of placements at once by minimizing
v * latency + anchor * move price over the (possibly predicted) frame rows.
The engine scales its decision rows by v once per run and calls the kernel,
_frame_dp, directly; frame_decide is its checked public wrapper. On a
multi-slot frame over harness.PRUNE_MIN_NODES nodes or more, the engine
passes only the epoch's undominated columns plus prev's, with prev as a
column index, and maps the result back to nodes. That returns the full
DP's sequence only when anchor >= 0 (the proof is at PRUNE_MIN_NODES), so
frame_decide, which accepts any anchor, always passes every column. Before
either, the engine skips the kernel on an epoch whose anchor > 0 times its
smallest move price, plus the sum of its rows' minima, exceeds prev's own
row sum by a rounding margin: there every move costs more than staying,
and the DP would return prev at every position (the proof is at
harness.STAY_SLACK).
The reactive osp is a 1-slot frame anchored on the queue backlog, psp a
longer frame anchored on the same backlog, and pspwu anchors on the
momentum-weighted surrogate instead. The engine's anchors are never
negative (w >= q >= 0 at every slot); a negative anchor, which can make
moving cheaper than staying, reaches the solver only from library callers
and from verify's weight-anchor suite. Benchmarks: always-migrate and
never-migrate need no rule of their own (the engine follows the user or
holds the initial node); lazy-migrate and predictive-lazy-migrate are step
functions. Brute-force enumerators serve as optimality oracles on small
instances; the horizon oracle enumerates in numpy.
"""

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import Placement, _real, _whole

# Cap on brute-force enumeration size (sequences per instance).
ENUM_GUARD = 1_000_000


@dataclass
class PolicyConfig:
    """Tunables of the budget-aware policies; the benchmarks have none.

    v trades latency against queue backlog; beta is the weight-update
    memory. theta was meant to weight the earlier, better-predicted
    in-frame slots more heavily, but as written it adds
    anchor * theta * (T - p) to every edge of frame position p. Every
    sequence crosses one edge per position, so theta shifts all frame
    objectives by the same constant. frame_decide reads neither theta nor
    e_avg, so theta moves no placement; it changes only the value
    frame_objective reports.
    """

    v: float = 10.0
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            setattr(self, f.name, value)
        if self.v < 0:
            raise ValueError("v must be >= 0")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


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
    q_anchor: the queue under osp (a 1-slot frame) and psp, the weight under
    pspwu. Any finite anchor is solved exactly, a negative one too, although
    the engine's are never negative.

    Node i scores v * latency[p][i] at position p, plus anchor * move_price[p]
    if the service moves there; the anchor * (theta_p - e_avg) terms of
    frame_objective add the same amount to every sequence and are left out.
    The result is the lexicographically smallest minimizer, as the
    brute-force oracle's tie-break. This is the checked public wrapper of
    _frame_dp, the kernel the engine calls on rows it scaled by v once per run.
    ValueError if v times the frame's latencies can sum past the float range.
    """
    _check_scaled_sum(cfg, frame)
    v = cfg.v
    return _frame_dp([[v * x for x in row] for row in frame.latency],
                     frame.move_price, frame.q_anchor, frame.prev_placement)


def _check_scaled_sum(cfg: PolicyConfig, frame: FrameInput) -> None:
    """ValueError unless the frame's latencies times v sum below inf."""
    top = max(abs(x) for row in frame.latency for x in row)
    if not math.isfinite(len(frame.latency) * (cfg.v * top)):
        raise ValueError("v times the frame's latencies sums past the float "
                         "range; lower v")


def _frame_dp(rows, prices, anchor, prev) -> list[Placement]:
    """frame_decide's DP on rows already multiplied by v; checks nothing.
    Every move at p costs the same, so the cheapest way into a node is to
    stay on it or to come from the cheapest other node: the backward pass
    keeps each layer's smallest moved-in cost best and its first node k,
    O(N T). It computes the second-smallest only when moving into k costs
    less than staying there, which takes a negative anchor (or price): with
    m = anchor * price >= 0, rounding is monotone, so
    fl(fl(x + m) + t) >= fl(x + t).

    The forward pass scores position 0 in full. A later position's scores
    are its layer's moved-in costs with the entry of the current node at
    replaced by at's stay cost s, so the pass reads its decision off best
    and k: from at != k it moves to k iff s > best, or s == best and
    k < at; on k it stays iff s <= best. Only k == at with s > best, a
    layer that needed the second-smallest, rescans, and there the backward
    pass has already written s at k."""
    # Backward pass. layers[-1] holds, for the next position the forward
    # pass decides, each node's cheapest completion after it, the layer's
    # moved-in costs, best and k; tail ends as position 0's completions. A
    # 1-slot frame has no completion and builds nothing.
    layers = []
    tail = [0.0] * len(rows[0]) if len(rows) > 1 else None
    for p in range(len(rows) - 1, 0, -1):
        row, m = rows[p], anchor * prices[p]
        moved = [x + m + t for x, t in zip(row, tail)]
        best = min(moved)
        k = moved.index(best)
        stay_k = row[k] + tail[k]
        layers.append((tail, moved, best, k))
        tail = [s if (s := x + t) <= best else best for x, t in zip(row, tail)]
        if stay_k > best:
            moved[k] = math.inf
            second = min(moved)
            tail[k] = stay_k if stay_k <= second else second
            moved[k] = stay_k

    row, m = rows[0], anchor * prices[0]
    if tail is None:
        scores = [x + m for x in row]
        scores[prev] = row[prev]
    else:
        scores = [x + m + t for x, t in zip(row, tail)]
        scores[prev] = row[prev] + tail[prev]
    at = scores.index(min(scores))
    seq = [at]
    for row in itertools.islice(rows, 1, None):
        tail, moved, best, k = layers.pop()
        s = row[at] + tail[at]
        if k != at:
            if s > best or (s == best and k < at):
                at = k
        elif s > best:
            at = moved.index(min(moved))
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
    """Exhaustive frame oracle: the exact minimizer, lexicographically first.
    ValueError as frame_decide's if v times the latencies can overflow."""
    _check_scaled_sum(cfg, frame)
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


def lm_decide(acc: float, row, price: float, user: Placement,
              prev: Placement) -> tuple[Placement, float]:
    """Lazy-migrate: move only once the accumulated latency penalty of staying
    put reaches the migration price (0 when already with the user).

    row is the slot's latency row, user the user's node and acc the
    caller-threaded accumulator; returns (placement, new acc).
    """
    if acc < 0:
        raise ValueError("accumulator must be >= 0")
    gap = row[prev] - row[user]
    acc = acc + (gap if gap > 0.0 else 0.0)  # max(0.0, gap), no builtin call
    if acc >= (price if user != prev else 0.0):
        return user, 0.0
    return prev, acc


def plm_decide(row, next_row, price: float, user: Placement,
               prev: Placement) -> Placement:
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
    if price < savings:
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

    The sequences are enumerated in numpy, in itertools.product order: slot
    by slot, each sequence's cost and latency sums grow by every node's
    move term and row entry, the same float additions in the same order as
    a loop over each sequence. At ENUM_GUARD sequences that is a few arrays
    of 8 MB.
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
    nodes = np.arange(n)
    cost = lat = np.zeros(1)
    at = np.array([initial])  # each sequence's last node
    for t in range(horizon):
        cost = (cost[:, None]
                + np.where(at[:, None] != nodes, move_price[t], 0.0)).ravel()
        lat = (lat[:, None] + np.asarray(latency[t], dtype=float)).ravel()
        at = np.tile(nodes, len(at))
    # a NaN or inf latency is never the minimizer, as a loop's < skips it
    lat[~((cost <= budget + budget_eps) & (lat < math.inf))] = math.inf
    index = int(lat.argmin())
    best = float(lat[index])
    if best == math.inf:
        return None, math.inf
    seq = []
    for _ in range(horizon):  # index's base-n digits, the last slot's last
        index, i = divmod(index, n)
        seq.append(i)
    return seq[::-1], best / horizon
