"""Shared helpers that hand-construct scenarios, slot tables and rows, the
per-call predictor formulas that batch predictions are checked against, the
frame DP that scaled v * latency element by element and the kernel that
scored position 0 in full, which the kernel is checked against, the queue
step and lazy-migrate rule written with max() that their compares and the
queue-blind runs' backlog fold are checked against, the per-slot record
loop that the engine's columns are checked against, the csv.writer that
the CSV writers are checked against, a library scenario with one link too
slow for a float latency, and a fixture that empties
harness's shared materialization and the run inputs shared on it before
every test, so that no test reads what another left there."""

import csv
import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from edgeplacer import harness
from edgeplacer.harness import _epochs
from edgeplacer.model import Scenario, SlotTable, latency_rows
from edgeplacer.policies import FrameInput, plm_decide
from edgeplacer.predict import MODE_WINDOW, predict_epochs


@pytest.fixture(autouse=True)
def no_shared_materialization(monkeypatch):
    monkeypatch.setattr(harness, "_last_materialized", None)
    monkeypatch.setattr(harness, "_last_inputs", None)


def make_scenario(n=3, backhaul=64.0, budget=0.1, horizon=10, frame_len=1,
                  caps=None):
    rate = np.full((n, n), float(backhaul))
    return Scenario(node_count=n, backhaul_rate=rate, budget_avg=budget,
                    horizon=horizon, frame_len=frame_len,
                    compute_capacity=(8.0,) * n if caps is None else caps)


def make_table(users=(0,), n=3, input_size=8.0, workload=4.0,
               access_rate=8.0, container=50.0, unit_cost=2.0):
    """A table of identical slots, the user at users[t] in slot t."""
    slots = len(users)
    return SlotTable(n, list(users), [input_size] * slots, [workload] * slots,
                     [access_rate] * slots, [container] * slots,
                     [unit_cost] * slots)


def slow_link_pair(rate=1e-320, trace=tuple(2 + t % 2 for t in range(30)),
                   frame_len=3, seed=0):
    """A library (Scenario, SlotTable) pair of 4 nodes and len(trace) slots,
    the user on node trace[t] in slot t, whose link 0-1 runs at rate
    Mbit/s. At 1e-320 a row of a user on node 0 or 1 holds an infinite
    backhaul time, so the default trace's realized rows are finite and a
    prediction that misses into node 0 or 1 has a row that is not."""
    scn, table = harness.generate_scenario(seed, 4, len(trace), frame_len,
                                           trace=list(trace))
    backhaul = np.array(scn.backhaul_rate)
    backhaul[0, 1] = backhaul[1, 0] = rate
    return dataclasses.replace(scn, backhaul_rate=backhaul), table


def make_rows(users=(0,), n=3, backhaul=64.0, caps=None, **draws):
    """Latency rows and move prices of make_table's slots, as Python lists."""
    table = make_table(users, n, **draws)
    rows, prices = latency_rows(make_scenario(n, backhaul, caps=caps), table,
                                slice(None), table.trace)
    return rows.tolist(), prices.tolist()


def reference_predict(spec, history, true_future, w, n_regions, salt):
    """The w regions predicted after history by the per-call formulas from
    before the batch entry point: one call per epoch, each recounting its
    whole history. The noisy oracle reads true_future and seeds its draws
    with (rng_seed, salt)."""
    history = np.asarray(history).astype(np.intp)
    if spec.kind == "oracle_noisy":
        rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed,
                                                            salt)))
        out = []
        for s in range(w):
            truth = int(true_future[s])
            if n_regions == 1 or rng.random() < spec.accuracies[s]:
                out.append(truth)
            else:
                r = int(rng.integers(n_regions - 1))
                out.append(r if r < truth else r + 1)
        return out
    if spec.kind == "moving_mode":
        counts = np.bincount(history[-MODE_WINDOW:], minlength=n_regions)
        return [int(counts.argmax())] * w
    pairs = history[:-1] * n_regions + history[1:]
    counts = 1.0 + np.bincount(pairs, minlength=n_regions ** 2).reshape(
        n_regions, n_regions)
    probs = counts / counts.sum(axis=1, keepdims=True)
    suffix = np.ones((w, n_regions))
    for s in range(w - 2, -1, -1):
        suffix[s] = (probs * suffix[s + 1]).max(axis=1)
    path = []
    at = int(history[-1])
    for s in range(w):
        at = int((probs[at] * suffix[s]).argmax())
        path.append(at)
    return path


def reference_synthetic_trace(seed, n_regions, length, stickiness=0.7):
    """synthetic_trace as it was before its draws were replayed from one raw
    block: one generator call per slot, and one more per jump."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    regions = [int(rng.integers(n_regions))]
    for _ in range(1, length):
        prev = regions[-1]
        if n_regions == 1 or rng.random() < stickiness:
            regions.append(prev)
        else:
            r = int(rng.integers(n_regions - 1))
            regions.append(r if r < prev else r + 1)
    return regions


def reference_frame_decide(cfg, frame):
    """frame_decide as it was before the engine scaled its rows by v once per
    run: every score multiplies v * latency itself, the backward pass calls
    min() per element and slices moved to find the second-smallest, and the
    forward pass scores every node at every position."""
    v, anchor, lat = cfg.v, frame.q_anchor, frame.latency
    after = []
    for p in range(len(lat) - 1, 0, -1):
        tail = after[-1] if after else itertools.repeat(0.0)
        m = anchor * frame.move_price[p]
        stay = [v * x + t for x, t in zip(lat[p], tail)]
        moved = [v * x + m + t for x, t in zip(lat[p], tail)]
        best = min(moved)
        k = moved.index(best)
        second = min(moved[:k] + moved[k + 1:], default=math.inf)
        after.append([min(s, second if i == k else best)
                      for i, s in enumerate(stay)])

    seq, at = [], frame.prev_placement
    for p, row in enumerate(lat):
        m = anchor * frame.move_price[p]
        scores = [v * x + (m if i != at else 0.0) for i, x in enumerate(row)]
        if after:
            scores = [s + t for s, t in zip(scores, after.pop())]
        at = scores.index(min(scores))
        seq.append(at)
    return seq


def reference_frame_dp(rows, prices, anchor, prev):
    """policies._frame_dp as it was before its forward pass started at
    prev, verbatim: its backward pass stops at position 1 and it scores
    position 0 in full.

    frame_solver's DP on rows already multiplied by v; checks nothing,
    and takes anchor >= 0. Every move at p costs the same, so the cheapest
    way into a node is to stay on it or to come from the cheapest other
    node: the backward pass keeps each layer's smallest moved-in cost best
    and its first node k, O(N T). Staying on k costs no more than moving
    into it: with m = anchor * price >= 0, rounding is monotone, so
    fl(fl(x + m) + t) >= fl(x + t), and each completion is
    min(stay, best).

    The forward pass scores position 0 in full. A later position's scores
    are its layer's moved-in costs with the entry of the current node at
    replaced by at's stay cost s, so the pass reads its decision off best
    and k: from at != k it moves to k iff s > best, or s == best and
    k < at; on k it stays, as s <= best."""
    # Backward pass. layers[-1] holds, for the next position the forward
    # pass decides, each node's cheapest completion after it, the layer's
    # best and k; tail ends as position 0's completions. A 1-slot frame has
    # no completion and builds nothing.
    layers = []
    tail = [0.0] * len(rows[0]) if len(rows) > 1 else None
    for p in range(len(rows) - 1, 0, -1):
        row, m = rows[p], anchor * prices[p]
        moved = [x + m + t for x, t in zip(row, tail)]
        best = min(moved)
        layers.append((tail, best, moved.index(best)))
        tail = [s if (s := x + t) <= best else best for x, t in zip(row, tail)]

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
        tail, best, k = layers.pop()
        s = row[at] + tail[at]
        if k != at and (s > best or (s == best and k < at)):
            at = k
        seq.append(at)
    return seq


def reference_advance(q, w, w_prev, e, e_avg, beta):
    """One slot's step of the budget queue and the momentum weight, which
    simulate inlines with compares, written with two calls of the builtin
    max(): the slot's cost e turns (q, w, w_prev) into the next triple."""
    if not (q >= 0.0 and e >= 0.0 and e_avg >= 0.0 and 0.0 <= beta <= 1.0):
        raise ValueError("queue inputs must be >= 0 and beta in [0, 1]")
    q_next = max(q + (e - e_avg), 0.0)
    return q_next, w + (q_next - q) + beta * max(w - w_prev, 0.0), w


def reference_lm_decide(acc, row, price, user, prev):
    """lm_decide as it was before its accumulator step clamped with a
    compare: max(0.0, gap)."""
    if acc < 0:
        raise ValueError("accumulator must be >= 0")
    acc = acc + max(0.0, row[prev] - row[user])
    if acc >= (price if user != prev else 0.0):
        return user, 0.0
    return prev, acc


def reference_simulate(scn, table, policy, cfg, spec):
    """The engine loop from before the run was kept in columns: epochs
    decide from their realized rows unless a prediction missed, one epoch
    at a time for every policy, and every slot's (t, placement, latency,
    cost, q, w) is recorded as the loop goes, the queue stepped with max().
    Returns the rows and the run's summaries in a dict; checks nothing."""
    epoch_len, lookahead = _epochs(policy, scn.frame_len, spec)
    horizon, e_avg, trace = scn.horizon, scn.budget_avg, table.trace
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
    miss = made & ~hit
    missed = miss.any(axis=1).tolist()
    decision = realized.copy()
    decision[target[miss]] = latency_rows(scn, table, target[miss],
                                          guesses[miss])[0]
    q = w = w_prev = lm_acc = 0.0
    prev = initial = trace[0]
    records = []
    for k, start in enumerate(range(0, horizon, epoch_len)):
        ahead = min(lookahead, horizon - start - 1)
        span = slice(start, start + 1 + ahead)
        rows, prices = realized[span].tolist(), price[span].tolist()
        seen = decision[span].tolist() if missed[k] else rows
        if policy in ("osp", "psp", "pspwu"):
            anchor = w if policy == "pspwu" else q
            seq = reference_frame_decide(cfg, FrameInput(seen, prices, anchor,
                                                         prev))
        elif policy == "am":
            seq = [trace[start]]
        elif policy == "nm":
            seq = [initial]
        elif policy == "lm":
            placement, lm_acc = reference_lm_decide(
                lm_acc, rows[0], prices[0], trace[start], prev)
            seq = [placement]
        else:
            seq = [plm_decide(rows[0], seen[1] if ahead else None, prices[0],
                              trace[start], prev)]
        for t, placement in enumerate(seq, start):
            lat = rows[t - start][placement]
            cost = prices[t - start] if placement != prev else 0.0
            records.append((t, placement, lat, cost, q, w))
            q, w, w_prev = reference_advance(q, w, w_prev, cost, e_avg,
                                             cfg.beta)
            prev = placement
    return {
        "per_slot": records,
        "avg_latency": math.fsum(r[2] for r in records) / horizon,
        "avg_cost": math.fsum(r[3] for r in records) / horizon,
        "avg_queue": math.fsum(r[4] for r in records) / horizon,
        "final_queue": q,
        "prediction_accuracy": accuracy,
    }


def reference_csv(header, rows) -> bytes:
    """The bytes of the CSV writers before they formatted rows themselves:
    csv.writer, one row per slot, header first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()
