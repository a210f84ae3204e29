"""Placement decision procedures.

Every procedure decides from latency rows (row[i]: seconds to serve a slot
from node i) and per-slot move prices, never from the slot data behind them.

The frame DP is the drift-plus-penalty rule for all three budget-aware
policies: it commits a frame of placements at once by minimizing
v * latency + anchor * move price over the (possibly predicted) frame rows.
frame_solver is its one path, shortcuts included, and alone scales rows by
v: the engine builds it once per run, frame_decide once per frame, and the
engine prunes its columns (kept_columns) once for every run on the rows. The
reactive osp is a 1-slot frame anchored on the queue backlog, which
frame_solver decides from the row's two smallest entries unless rounding
ties them; psp is a longer frame anchored on the same backlog, and pspwu
anchors on the momentum-weighted surrogate instead. No anchor is negative: the engine's are q >= 0 and
w >= q, which simulate checks at every slot, and FrameInput refuses one.
Benchmarks: always-migrate and never-migrate need no rule of their own (the
engine follows the user or holds the initial node); lazy-migrate and
predictive-lazy-migrate are step functions. Brute-force enumerators serve
as optimality oracles on small instances; both enumerate in numpy, through
one helper.
"""

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .model import Placement, _real, _whole

# Cap on brute-force enumeration size (sequences per instance).
ENUM_GUARD = 1_000_000


@dataclass(frozen=True)
class PolicyConfig:
    """Tunables of the budget-aware policies; the benchmarks have none.

    v trades latency against queue backlog; beta is the weight-update
    memory. theta, meant to weight the better-predicted early slots, adds
    anchor * theta * (T - p) at frame position p, the same for every
    sequence, so it moves no placement: it is validated and read by nothing.
    """

    v: float = 10.0
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, value)
        if self.v < 0:
            raise ValueError("v must be >= 0")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


@dataclass(frozen=True)
class FrameInput:
    """One frame's decision problem, assembled at the frame's first slot.

    latency[p][i] is the time to serve frame position p from node i (row 0
    for the realized user node, later rows for predicted ones), a sequence
    of rows or a 2-D numpy array; move_price[p] prices any move at p.
    q_anchor, finite and >= 0, is the backlog (or weight) frozen for the
    frame; prev_placement is where the service sat before the frame began.
    The rows are kept as tuples of the validated floats, the frame's own.
    """

    latency: tuple
    move_price: tuple
    q_anchor: float = 0.0
    prev_placement: Placement = 0

    def __post_init__(self):
        # len() and not truth: a numpy table has none
        if not (_sequence(self.latency) and all(map(_sequence, self.latency))
                and _sequence(self.move_price)):
            raise ValueError("latency must be a sequence of rows and "
                             "move_price a sequence")
        if len(self.latency) == 0:
            raise ValueError("frame must contain at least one slot")
        n = len(self.latency[0])
        if n < 1 or any(len(row) != n for row in self.latency):
            raise ValueError("latency rows must all have one length >= 1")
        if len(self.move_price) != len(self.latency):
            raise ValueError("move_price must have one price per latency row")
        entries = [_real(x, "a latency or price") for x in
                   itertools.chain(self.move_price, *self.latency)]
        if not all(math.isfinite(x) and x >= 0 for x in entries):  # -0.0 ok
            raise ValueError("latencies and prices must be finite and >= 0")
        length = len(self.move_price)
        object.__setattr__(self, "move_price", tuple(entries[:length]))
        object.__setattr__(self, "latency", tuple(
            tuple(entries[a:a + n]) for a in range(length, len(entries), n)))
        object.__setattr__(self, "prev_placement",
                           _whole(self.prev_placement, "prev_placement"))
        if not 0 <= self.prev_placement < n:
            raise ValueError(f"prev_placement must be a node in [0, {n})")
        anchor = _real(self.q_anchor, "q_anchor")
        if not (math.isfinite(anchor) and anchor >= 0):  # -0.0 ok
            raise ValueError("q_anchor must be finite and >= 0")
        object.__setattr__(self, "q_anchor", anchor)


def _sequence(value) -> bool:
    """Whether value is a sequence other than a string, or a numpy array
    of at least one dimension."""
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def frame_decide(cfg: PolicyConfig, frame: FrameInput) -> list[Placement]:
    """Whole-frame placements minimizing the frame objective anchored on
    q_anchor: the queue under osp (a 1-slot frame) and psp, the weight
    under pspwu, or any finite anchor >= 0. frame_solver decides them
    from the frame's rows, its kept columns and v, as it decides the
    engine's epochs. Node i scores v * latency[p][i] at position p,
    plus anchor * move_price[p] if the service moves there, as
    frame_objective scores it. The result is the lexicographically smallest
    minimizer, as the brute-force oracle's tie-break. ValueError if v times
    the latencies can sum past the float range.
    """
    _check_scaled_sum(cfg, frame)
    latency, length = np.array(frame.latency, dtype=float), len(frame.latency)
    solve = frame_solver(latency, cfg.v,
                         np.array(frame.move_price, dtype=float), length,
                         kept_columns(latency, length))
    return solve(0, frame.q_anchor, frame.prev_placement)


def _check_scaled_sum(cfg: PolicyConfig, frame: FrameInput) -> None:
    """ValueError unless the frame's latencies times v sum below inf."""
    top = max(x for row in frame.latency for x in row)
    if not math.isfinite(len(frame.latency) * (cfg.v * top)):
        raise ValueError("v times the frame's latencies sums past the float "
                         "range; lower v")


def _frame_dp(rows, prices, anchor, prev) -> list[Placement]:
    """frame_solver's DP on rows already multiplied by v; checks nothing,
    and takes anchor >= 0 and prev a node. Every move at p costs the same,
    so the cheapest way into a node is to stay on it or to come from the
    cheapest other node: the backward pass keeps each layer's smallest
    moved-in cost best and its first node k, O(N T). Staying on k costs no
    more than moving into it: with m = anchor * price >= 0, rounding is
    monotone, so fl(fl(x + m) + t) >= fl(x + t), and each completion is
    min(stay, best).

    The forward pass starts on prev, a node. Each position's scores are
    its layer's moved-in costs with the entry of the current node at
    replaced by at's stay cost s, so the pass reads its decision off best
    and k: from at != k it moves to k iff s > best, or s == best and
    k < at; on k it stays, as s <= best."""
    # Backward pass. layers[-1] holds, for the next position the forward
    # pass decides, each node's cheapest completion after it, the layer's
    # best and k. Nothing follows the last position: its completions are
    # 0.0 and its costs add none, which changes at most the sign of a zero,
    # and no compare tells the two zeros apart.
    row, m = rows[-1], anchor * prices[-1]
    moved = [x + m for x in row]
    best = min(moved)
    layers = [([0.0] * len(row), best, moved.index(best))]
    tail = [x if x <= best else best for x in row]
    for p in range(len(rows) - 2, -1, -1):
        row, m = rows[p], anchor * prices[p]
        moved = [x + m + t for x, t in zip(row, tail)]
        best = min(moved)
        layers.append((tail, best, moved.index(best)))
        if p:  # position 0's completions are never read
            tail = [s if (s := x + t) <= best else best
                    for x, t in zip(row, tail)]

    at, seq = prev, []
    for row in rows:
        tail, best, k = layers.pop()
        s = row[at] + tail[at]
        if k != at and (s > best or (s == best and k < at)):
            at = k
        seq.append(at)
    return seq


# A multi-slot frame over at least this many nodes is decided by the frame DP
# on a set S of its epoch's columns plus prev, and the result is bit for bit
# the DP's on all nodes whenever S holds every undominated node of the
# decision rows (_undominated); kept_columns builds S. Take m = anchor *
# price >= 0 (the engine's anchors are q or w >= q >= 0) and j != prev
# dominated by i < j.
# - Backward pass: every tail is min(stay, best) (see _frame_dp).
#   Rounding is monotone, so by induction from the last layer the stay,
#   moved and tail of i are no larger than j's at every layer; best is
#   attained on an undominated node (domination is transitive, so every
#   node is dominated by an undominated one or is one), which S holds, and
#   the tails of S's nodes are the full DP's.
# - Forward pass: the current node is prev, then a node chosen from the
#   columns, so it is always a column. Every position, position 0 among
#   them, decides from the layer's best, its first argmin k and the
#   current node's stay cost alone. k is never dominated (its dominator
#   would be a lower-index minimizer), so S holds it; no column before k
#   ties it, as that node would be a lower-index minimizer too. So all
#   three are the full DP's and k keeps its order against the current node.
# kept_columns prunes the rows frame_solver gets before it scales them by
# v, once per set of decision rows (_run_inputs) for every psp and pspwu
# run on them at any v. That set is a superset of the scaled copy's own:
# rounding is monotone, so for v >= 0, a <= b gives fl(v * a) <= fl(v * b),
# and a node dominated in the unscaled rows is dominated, by the same node,
# in every scaled copy. Node 0 is never dominated, which covers v = 0,
# where every scaled entry is 0 and node 0 is the only undominated node.
# Below the constant the pre-pass and the sub-row gathers cost more than the
# columns they save the DP (CHANGES.md has the measurement); 1-slot epochs
# (osp) are decided without the DP, from each row's two smallest entries.
PRUNE_MIN_NODES = 16

# An epoch of T slots with anchor a > 0 stays on prev, and frame_solver
# calls no kernel, when its stay certificate holds:
#   L = fl(M + B') > R = fl(A' * (1 + delta)),  delta = T * STAY_SLACK,
# with M = fl(a * the epoch's smallest price), and B' and A' float sums of
# the epoch's row minima and of prev's entries in its decision rows D
# (v-scaled latencies, >= 0, as the prices are): the backlog's charge for
# the cheapest move outweighs all the latency a move could save, and the
# DP returns [prev] * T. Take u = 2**-53 and TINY = 2**-1022. A float sum
# of k terms >= 0, in any order, is within (1 -+ u)**(k - 1) of its exact
# sum, as an addition errs by at most u relative, subnormals included; it
# is exact while below TINY, where every float is a multiple of 2**-1074,
# and, as rounding is monotone, it is at least min(TINY, its exact sum).
# - The kernel, at position p with the service on prev: every tail is the
#   float sum, nested to the right, of one completion's terms, and no more
#   than the sum for staying. So prev scores at most the float sum of
#   D[p:, prev], of exact sum A_p; a node i != prev scores the float sum of
#   at most 2(T - p) terms of a sequence that moves at p, of exact sum at
#   least M + B_p, B_p the sum of min_i D[q, i] over q >= p. Every move
#   term fl(a * price) is >= M, the same rounded product.
# - A, B are the exact sums of the epoch. As D[q, prev] >= min_i D[q, i],
#   M + B > c * A gives M + B_p > c * A_p at every p for any c >= 1.
# - A' >= TINY: R >= (1 - u) (1 + delta) A' >= (1 - u)**T (1 + delta) A
#   and L <= (1 + u)**T (M + B), so M + B > c * A with
#   c = (1 + delta) ((1 - u) / (1 + u))**T. Then i scores at least
#   (1 - u)**(2T - 1) (M + B_p) > (1 + u)**(T - 1) A_p, prev's bound, as
#   1 + delta >= ((1 + u) / (1 - u))**(3T - 1) (c >= 1 too) for any T
#   below 2**40; T is at most the horizon or a frame's length.
# - A' < TINY: prev's sums are exact and R >= A' = A. If M + B >= TINY,
#   M + B_p >= TINY - (B - B_p) > A - (A - A_p); otherwise L = M + B
#   exactly, and L > A. Either way M + B_p > A_p, and i scores at least
#   min(TINY, M + B_p) > A_p.
# So prev scores below every other node at every position. The inequality
# must be strict: with A = M + B = 0 (a zero price) both sides are 0, and
# a lower-index tie can win, as on one slot with D = [0, 0] and prev 1.
# With a == 0 nothing is certified; moving can then be free.
STAY_SLACK = 2.0 ** -50


def _undominated(decision, epoch_len: int) -> list:
    """Each epoch's undominated nodes, as lists in index order.

    Node j is dominated in an epoch when some node i < j has a decision entry
    no larger than j's at every slot of the epoch. Domination is transitive,
    so the epoch's first node not yet dominated is undominated; it and every
    node it dominates (itself included) leave the candidates, one such node
    per epoch and pass. A partial last epoch is padded with rows equal across
    nodes, which change no domination.
    """
    n = decision.shape[1]
    pad = -len(decision) % epoch_len
    if pad:
        decision = np.concatenate((decision, np.zeros((pad, n))))
    rows = decision.reshape(-1, epoch_len, n)
    epochs = np.arange(len(rows))
    alive = np.ones((len(rows), n), dtype=bool)
    kept = np.zeros_like(alive)
    while True:
        first = alive.argmax(axis=1)  # 0 in an epoch with none left
        found = alive[epochs, first]
        if not found.any():
            break
        kept[epochs, first] |= found
        alive &= ~(rows[epochs, :, first][:, :, None] <= rows).all(axis=1)
    ends = np.count_nonzero(kept, axis=1).cumsum().tolist()
    nodes = kept.nonzero()[1].tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def kept_columns(rows, epoch_len: int):
    """The columns frame_solver's DP reads in each epoch of epoch_len slots
    of rows (H, N), >= 0: a tuple per epoch of its undominated nodes in
    index order (_undominated), or None where the DP reads every column,
    in epochs of one slot or below PRUNE_MIN_NODES nodes. The rows are
    frame_solver's before it scales them, and the sets serve every v (see
    PRUNE_MIN_NODES).
    """
    if epoch_len < 2 or rows.shape[1] < PRUNE_MIN_NODES:
        return None
    return tuple(map(tuple, _undominated(rows, epoch_len)))


def _stay_bounds(decision, price, epoch_len: int):
    """The stay certificate's inputs for every epoch k, as arrays: the sum
    of its rows' minima, its smallest price and, in row k of an (epochs, N)
    array, its column sums. frame_solver needs them for epochs of two or
    more slots only: its rule for 1-slot epochs covers the certificate.
    """
    # decision.min(axis=1) walks a row of 6 entries per call of its inner
    # loop, about 8x slower at N=6; a Fortran-order copy costs its size
    mins = decision[:, 0].copy()
    for column in decision.T[1:]:
        np.minimum(mins, column, out=mins)
    # every epoch's slot p at once, one numpy call per slot of an epoch
    lows, cheapest, sums = (mins[::epoch_len].copy(),
                            price[::epoch_len].copy(),
                            decision[::epoch_len].copy())
    for p in range(1, epoch_len):
        k = len(price[p::epoch_len])  # a partial last epoch lacks slot p
        lows[:k] += mins[p::epoch_len]
        np.minimum(cheapest[:k], price[p::epoch_len], out=cheapest[:k])
        sums[:k] += decision[p::epoch_len]
    return lows, cheapest, sums


def frame_solver(rows, v: float, prices, epoch_len: int, kept=None):
    """The one path of the frame DP: solve(k, anchor, prev) places epoch k,
    slots k * epoch_len to the next epoch's or the end, from node prev.
    It alone multiplies rows (H, N) by v into the decision rows; its
    callers check that epoch_len * v * rows.max() is finite. rows, v, the
    move prices (H,) and every anchor are >= 0; prev is a node. kept is
    kept_columns(rows, epoch_len), built once for every run on the rows;
    None reads every column. An epoch takes the first way that applies,
    each bit for bit the DP's sequence on all its columns:
    - one slot: the node read off the row's two smallest entries, with no
      DP, unless the move term's rounding ties entries that the row orders
      (see the comment below);
    - two or more slots, anchor > 0 and the stay certificate holds
      (anchor times the smallest price, plus the sum of the rows' minima,
      exceeds prev's row sum by a rounding margin; see STAY_SLACK):
      [prev] * T, no DP;
    - two or more slots and a kept set: the DP on the epoch's kept columns
      plus prev's, prev as a column index, mapped back to nodes (see
      PRUNE_MIN_NODES);
    - otherwise the DP on every column.
    """
    horizon, rows = len(rows), rows * v
    if epoch_len == 1:
        # A 1-slot epoch k is decided from its row D = rows[k]: its minimum
        # lo, its first argmin f and lo2, the smallest entry at an index
        # other than f (inf on one node), found for every row at once. The
        # kernel starts on prev and moves to the first node of smallest
        # moved-in cost fl(D[i] + m), m = anchor * price as it computes it,
        # iff prev's stay cost D[prev] is larger, or equal and that node
        # comes first: it takes the first smallest of the scores D[prev]
        # for prev and fl(D[i] + m) for every other node i. Rounding is monotone, so
        # D[i] >= x gives fl(D[i] + m) >= fl(x + m), and m >= 0 gives
        # fl(x + m) >= x:
        # - prev == f: a node before f scores at least its entry, above lo,
        #   and a node after f at least lo, so prev wins;
        # - prev != f: f scores s = fl(lo + m) and no node but prev less, so
        #   prev wins if D[prev] < s. If fl(lo2 + m) > s, every node but f
        #   and prev scores more than s: f wins if D[prev] > s and the lower
        #   of prev and f on a tie.
        # The other case goes to the kernel: a tie that fl(x + m) makes of
        # entries that x orders (fl(lo2 + m) == s). A 1-slot epoch the stay
        # certificate holds for is one the rule keeps on prev
        # (L > R >= D[prev] with L = s), so these epochs need no
        # certificate.
        lo, lo2 = rows[:, 0].copy(), np.full(horizon, math.inf)
        for column in rows.T[1:]:
            np.minimum(lo2, np.maximum(lo, column), out=lo2)
            np.minimum(lo, column, out=lo)
        first = (rows == lo[:, None]).argmax(axis=1).tolist()
        lo, lo2, prices = lo.tolist(), lo2.tolist(), prices.tolist()

        def solve_slot(k: int, anchor: float,
                       prev: Placement) -> list[Placement]:
            f = first[k]
            if prev == f:
                return [prev]
            m = anchor * prices[k]
            s, x = lo[k] + m, rows.item(k, prev)
            if x < s:
                return [prev]
            if lo2[k] + m > s:
                return [f if x > s else min(prev, f)]
            return _frame_dp(rows[k:k + 1].tolist(), prices[k:k + 1], anchor,
                             prev)

        return solve_slot
    lows, cheapest, sums = _stay_bounds(rows, prices, epoch_len)
    prices, slack = prices.tolist(), 1.0 + epoch_len * STAY_SLACK

    def solve(k: int, anchor: float, prev: Placement) -> list[Placement]:
        start, stop = k * epoch_len, (k + 1) * epoch_len  # stop may pass H
        if (anchor > 0 and anchor * cheapest.item(k) + lows.item(k)
                > sums.item(k, prev) * slack):
            return [prev] * (min(stop, horizon) - start)
        if kept is None:
            return _frame_dp(rows[start:stop].tolist(), prices[start:stop],
                             anchor, prev)
        nodes = kept[k]
        if prev not in nodes:
            nodes = sorted(nodes + (prev,))
        cols = _frame_dp(rows[start:stop].take(nodes, 1).tolist(),
                         prices[start:stop], anchor, nodes.index(prev))
        # a column the kernel was not given maps to -1, which is no node
        return [nodes[i] if 0 <= i < len(nodes) else -1 for i in cols]

    return solve


def frame_objective(cfg: PolicyConfig, frame: FrameInput, seq) -> float:
    """The frame DP's objective of a placement sequence, each entry a node
    (a whole number in [0, n), or ValueError): at position p, v * latency,
    plus anchor * move price if the service moves there. The paper's
    anchor * (theta * (T - p) - e_avg) terms add the same to every sequence
    and are left out. Summed forward in slot order, as the oracle sums, so
    equal sequences yield bit-identical objectives. ValueError as
    frame_decide's if v times the latencies can overflow.
    """
    _check_scaled_sum(cfg, frame)
    if len(seq) != len(frame.latency):
        raise ValueError("sequence length must match frame length")
    total, j, n = 0.0, frame.prev_placement, len(frame.latency[0])
    for row, price, i in zip(frame.latency, frame.move_price, seq):
        i = _whole(i, "a placement")
        if not 0 <= i < n:
            raise ValueError(f"a placement must be a node in [0, {n})")
        stay = cfg.v * row[i]
        total += stay if i == j else frame.q_anchor * price + stay
        j = i
    return total


def brute_force_frame(frame: FrameInput,
                      cfg: PolicyConfig) -> tuple[list[Placement], float]:
    """Exhaustive frame oracle: frame_objective's minimizer, the
    lexicographically first, and its objective, bit for bit. ValueError as
    frame_decide's if v times the latencies can overflow."""
    _check_scaled_sum(cfg, frame)
    stay = np.array(frame.latency) * cfg.v
    sums = _sequence_sums(stay, [frame.q_anchor * p for p in frame.move_price],
                          frame.prev_placement)
    return _first_minimum(sums, stay.shape[1], len(stay))


def _sequence_sums(stay, charge, initial: Placement):
    """Every placement sequence's sum from node initial, in lexicographic
    order. At slot t a sequence on node i adds stay[t][i] if it was on i,
    else fl(charge[t] + stay[t][i]): the float additions of a loop over
    each sequence, in its order. ENUM_GUARD sequences take arrays of 8 MB.
    """
    n = stay.shape[1]
    if n ** len(stay) > ENUM_GUARD:
        raise ValueError("instance exceeds enumeration guard")
    nodes, total = np.arange(n), np.zeros(1)
    last = np.array([initial])  # sum j of each block ends on last[j]
    with np.errstate(over="ignore"):  # a float loop overflows to inf, too
        for row, m in zip(stay, charge):
            terms = np.where(last[:, None] != nodes, m + row, row)
            total = (total.reshape(-1, len(last), 1) + terms).ravel()
            last = nodes
    return total


def _first_minimum(sums, n: int, length: int):
    """(sequence, value) of sums' lowest-index minimum, the sequence its
    index's base-n digits, the first slot's the most significant."""
    i = int(sums.argmin())
    return [i // n ** p % n for p in reversed(range(length))], float(sums[i])


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

    Each sequence's cost and latency sums are enumerated in numpy, with the
    float additions of a loop over it (_sequence_sums).
    """
    horizon = len(latency)
    if horizon < 1:
        raise ValueError("need at least one slot")
    rows = np.asarray(latency, dtype=float)
    cost = _sequence_sums(np.zeros_like(rows), move_price, initial)
    lat = _sequence_sums(rows, np.zeros(horizon), initial)
    budget = e_avg * horizon
    # tiny slack so float re-association cannot reject a boundary sequence
    budget_eps = 1e-12 * max(1.0, budget)
    # a NaN or inf latency is never the minimizer, as a loop's < skips it
    lat[~((cost <= budget + budget_eps) & (lat < math.inf))] = math.inf
    seq, best = _first_minimum(lat, rows.shape[1], horizon)
    return (seq, best / horizon) if best < math.inf else (None, math.inf)
