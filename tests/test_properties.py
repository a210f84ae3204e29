"""Property tests over random inputs (hypothesis).

(a) Every policy meets the telescoped budget inequality, keeps the
    momentum weight at or above the backlog and the backlog at or above 0
    at every slot, records the queue state that conftest.py's reference
    step replays from the slot costs, and replays identically on random
    small configs. Its columns and summaries equal those of the per-slot
    record loop the engine had before, kept in conftest.py as the
    reference. Some configs have enough nodes that the engine decides
    multi-slot frames on their undominated nodes.
(b) The frame solver returns the brute-force oracle's sequence and
    objective on random latency tables of up to 6 nodes. Values lie on a
    grid of quarters small enough that every sum and product is exact, so
    ties are real ties, which integer latencies and v = 0 make common;
    weight anchors go negative, where moving can beat staying and the
    solver needs each layer's second-smallest moved-in cost. On such frames
    of up to 6 slots and 9 nodes, frame_decide and the kernel fed rows
    scaled by v in numpy, as the engine feeds it, return the sequence of
    the DP that scaled every element itself and scored every position in
    full, kept in conftest.py as the reference.
(c) A slot table with any bad entry is rejected when it is built.
(d) Every predictor returns each epoch's regions in range, the same for a
    list trace as for a numpy view of it, and markov1's transition counts
    equal a per-pair loop. The batch of a run's predictions equals the
    per-call formulas the predictors had before the batch, kept in
    conftest.py as the reference, for every kind and block size, and the
    oracle's replayed draws equal its per-epoch generators for any seed.
(e) The synthetic trace replayed from one raw block equals the per-slot
    generator loop it had before, kept in conftest.py as the reference,
    for any seed, region count, stickiness and length.
(f) The lazy-migrate accumulator, which clamps with a compare, returns
    what its max() form, kept in conftest.py as the reference, returns,
    bit for bit: signed zeros, steps that land on 0 or below it and NaN
    gaps included.
(g) The summary, per-slot and trace CSV writers write the bytes csv.writer,
    kept in conftest.py as the reference, writes for the same rows: signed
    zeros, 1e-05 and 1e16 (where repr switches notation), the smallest
    subnormal, infinities and NaN, w equal to q bit for bit or not, and an
    empty summary included.
(h) A config that PolicyConfig and ExperimentConfig accept, with v up to
    the float maximum and backhaul_mbps down to the smallest
    subnormal, either runs with every decision on finite rows and finite
    summaries, or is rejected with ConfigError.
(k) Every library entry point, fed a value of any kind in one scalar
    setting or in one entry of one numeric column or row, returns or
    raises ValueError, never another exception. Once a value type has
    accepted its arguments, a write of any value into one of its fields or
    entries, or into an argument the caller still holds, raises or
    changes no run and no frame decision.
(i) The engine's pre-pass keeps exactly each epoch's nodes that no earlier
    node dominates, and the frame DP on those columns plus prev, mapped
    back to nodes, returns the sequence of the DP on all columns, for any
    prev and any anchor >= 0, on grid values where ties are real.
(j) On the same grid frames, for any anchor >= 0 and any prev, a frame
    whose stay certificate holds is one where the frame DP stays on prev;
    at equality, which the strict inequality leaves to the DP, it can move.
"""

import copy
import dataclasses
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from conftest import (reference_advance, reference_csv,
                      reference_frame_decide, reference_lm_decide,
                      reference_predict, reference_simulate,
                      reference_synthetic_trace)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplacer import harness, policies, predict
from edgeplacer.harness import (PER_SLOT_HEADER, POLICIES, SUMMARY_HEADER,
                                ConfigError, ExperimentConfig, RunRecord,
                                _materialize, generate_scenario, run,
                                simulate, sweep, synthetic_trace,
                                write_per_slot_csv, write_summary_csv,
                                write_trace_csv)
from edgeplacer.model import Scenario, SlotTable
from edgeplacer.policies import (PRUNE_MIN_NODES, STAY_SLACK, FrameInput,
                                 PolicyConfig, _frame_dp, _stay_bounds,
                                 _undominated, brute_force_frame,
                                 frame_decide, frame_objective, frame_solver,
                                 lm_decide, plm_decide)
from edgeplacer.predict import (PREDICTOR_KINDS, PredictorSpec,
                                _transition_counts, predict_epochs)

quarters = st.integers(0, 40).map(lambda k: k / 4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       nodes=st.one_of(st.integers(1, 5),
                       st.integers(PRUNE_MIN_NODES, PRUNE_MIN_NODES + 8)),
       horizon=st.integers(1, 40), frame_len=st.integers(1, 4),
       budget=st.floats(0.0, 0.3), v=st.floats(0.0, 500.0),
       theta=st.floats(0.0, 50.0),
       beta=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       kind=st.sampled_from(PREDICTOR_KINDS))
def test_every_policy_meets_the_budget_and_replays(seed, nodes, horizon,
                                                   frame_len, budget, v,
                                                   theta, beta, kind):
    for policy in POLICIES:
        config = ExperimentConfig(
            policy=policy, scenario_seed=seed, trace_seed=seed + 1,
            node_count=nodes, horizon=horizon, frame_len=frame_len,
            budget_avg=budget,
            policy_cfg=PolicyConfig(v=v, theta=theta, beta=beta),
            predictor=PredictorSpec(kind=kind, accuracies=(0.9, 0.8, 0.5),
                                    rng_seed=seed))
        rec = run(config)
        total = math.fsum(rec.cost.tolist())
        rhs = horizon * budget + rec.final_queue
        assert total <= rhs + 1e-9 * max(1.0, rhs), policy
        # the momentum weight starts at the queue's 0 and only adds a
        # nonnegative term, so no frame anchor is ever negative
        assert ((rec.w >= rec.q) & (rec.q >= 0.0)).all(), policy
        assert rec.negative_w_frames == 0
        # the columns hold the queue state before each slot: the reference
        # step, replayed from zero over the slot costs, gives every (q, w)
        q = w = w_prev = 0.0
        for t, cost in enumerate(rec.cost.tolist()):
            assert (rec.q[t], rec.w[t]) == (q, w), (policy, t)
            q, w, w_prev = reference_advance(q, w, w_prev, cost, budget,
                                             beta)
        assert rec.final_queue == q, policy
        again = run(config)
        assert again.per_slot == rec.per_slot
        assert again.final_queue == rec.final_queue
        # bit for bit the per-slot record loop's run
        ref = reference_simulate(*_materialize(config), policy,
                                 config.policy_cfg, config.predictor)
        for i, name in enumerate(("placement", "latency", "cost", "q", "w"),
                                 1):
            assert getattr(rec, name).tolist() == [
                row[i] for row in ref["per_slot"]], (policy, name)
        assert rec.placement.dtype.kind == "i"
        for name in ("avg_latency", "avg_cost", "avg_queue", "final_queue",
                     "prediction_accuracy"):
            assert getattr(rec, name) == ref[name], (policy, name)


@st.composite
def frames(draw, max_nodes=6, max_len=None, min_nodes=1, min_len=1):
    """A frame on the grid; by default one small enough to enumerate: up to
    4 slots on up to 4 nodes, else 3."""
    n = draw(st.integers(min_nodes, max_nodes))
    length = draw(st.integers(min_len, max_len or (4 if n <= 4 else 3)))
    integer = draw(st.booleans())
    value = st.integers(0, 3).map(float) if integer else quarters
    latency = [draw(st.lists(value, min_size=n, max_size=n))
               for _ in range(length)]
    prices = draw(st.lists(value, min_size=length, max_size=length))
    anchor = draw(st.integers(-200, 200)) / 4  # half of them negative
    prev = draw(st.integers(0, n - 1))
    cfg = PolicyConfig(v=draw(st.sampled_from((0.0, 1.0, 2.5, 10.0))))
    return cfg, FrameInput(latency, prices, anchor, prev)


@settings(max_examples=200, deadline=None)
@given(frames())
def test_frame_dp_equals_brute_force(case):
    cfg, frame = case
    seq = frame_decide(cfg, frame)
    best_seq, best_obj = brute_force_frame(frame, cfg)
    assert seq == best_seq
    assert frame_objective(cfg, frame, seq) == best_obj


@settings(max_examples=300, deadline=None)
@given(frames(max_nodes=9, max_len=6))
# the forward pass at position 1: staying on node 1 ties with moving to
# the layer's first argmin k = 0, below it, so it moves ([1, 0]) ...
@example((PolicyConfig(v=1.0),
          FrameInput([[2.0, 0.0], [0.0, 1.0]], [0.0, 1.0], 1.0, 1)))
# ... and staying on node 0 ties with k = 1, above it, so it stays
@example((PolicyConfig(v=1.0),
          FrameInput([[0.0, 2.0], [1.0, 0.0]], [0.0, 1.0], 1.0, 0)))
# on k, where a negative anchor makes moving into k cheaper than staying:
# the layer is rescanned and the service moves to node 1
@example((PolicyConfig(v=1.0),
          FrameInput([[0.0, 5.0, 5.0], [0.0, 0.5, 1.0]], [0.0, 1.0], -1.0,
                     0)))
# the backward pass: moving into k = 0 beats staying there, so node 0's
# completion is the second-smallest moved-in cost, and [1, 0] wins
@example((PolicyConfig(v=1.0),
          FrameInput([[0.0, 0.0], [0.0, 1.0]], [0.0, 1.0], -1.0, 1)))
def test_frame_dp_kernel_equals_the_reference(case):
    cfg, frame = case
    expected = reference_frame_decide(cfg, frame)
    assert frame_decide(cfg, frame) == expected
    # the engine's call: rows scaled by v once in numpy, no FrameInput
    rows = (np.array(frame.latency) * cfg.v).tolist()
    assert _frame_dp(rows, frame.move_price, frame.q_anchor,
                     frame.prev_placement) == expected


@settings(max_examples=150, deadline=None)
@given(frames(min_nodes=PRUNE_MIN_NODES, max_nodes=PRUNE_MIN_NODES + 4,
              min_len=2, max_len=4))
def test_frame_decide_prunes_as_the_reference(case):
    # past PRUNE_MIN_NODES a frame with an anchor >= 0 is solved on its
    # undominated columns, and a negative anchor on every column
    cfg, frame = case
    assert frame_decide(cfg, frame) == reference_frame_decide(cfg, frame)


@st.composite
def epoch_rows(draw):
    """Decision rows of up to 12 nodes cut into epochs of up to 4 slots, the
    last one possibly partial, with prices and an anchor >= 0 on the grid."""
    n = draw(st.integers(1, 12))
    epoch_len = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 3 * epoch_len))
    value = st.integers(0, 3).map(float) if draw(st.booleans()) else quarters
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=horizon, max_size=horizon))
    prices = draw(st.lists(value, min_size=horizon, max_size=horizon))
    return np.array(rows), epoch_len, prices, draw(quarters)


@settings(max_examples=300, deadline=None)
@given(epoch_rows())
def test_the_undominated_columns_decide_as_all_columns(case):
    rows, epoch_len, prices, anchor = case
    n = rows.shape[1]
    kept = _undominated(rows, epoch_len)
    assert len(kept) == len(range(0, len(rows), epoch_len))
    for nodes, start in zip(kept, range(0, len(rows), epoch_len)):
        frame = rows[start:start + epoch_len]
        price = prices[start:start + epoch_len]
        # no earlier node is no larger at every slot of the epoch
        assert nodes == [j for j in range(n) if not any(
            (frame[:, i] <= frame[:, j]).all() for i in range(j))]
        for prev in range(n):
            cols = sorted(set(nodes) | {prev})
            seq = _frame_dp(frame[:, cols].tolist(), price, anchor,
                            cols.index(prev))
            assert [cols[i] for i in seq] == _frame_dp(frame.tolist(), price,
                                                       anchor, prev)


def stay_certified(lows, cheapest, sums, epoch_len, k, anchor, prev):
    """The engine's stay certificate for epoch k (see STAY_SLACK)."""
    return (anchor > 0 and anchor * cheapest.item(k) + lows.item(k)
            > sums.item(k, prev) * (1.0 + epoch_len * STAY_SLACK))


@settings(max_examples=100, deadline=None)
@given(epoch_rows())
@example((np.zeros((1, 2)), 1, [0.0], 1.0))  # a tie at equality, below
def test_a_stay_certificate_leaves_the_frame_dp_on_prev(case):
    rows, epoch_len, prices, anchor = case
    bounds = _stay_bounds(rows, np.array(prices), epoch_len)
    starts = range(0, len(rows), epoch_len)
    # the pre-pass sums as the definition does
    # (grid sums are exact in any order)
    assert [b.tolist() for b in bounds] == [
        [rows[s:s + epoch_len].min(axis=1).sum() for s in starts],
        [min(prices[s:s + epoch_len]) for s in starts],
        [rows[s:s + epoch_len].sum(axis=0).tolist() for s in starts]]
    for k, start in enumerate(starts):
        frame = rows[start:start + epoch_len].tolist()
        price = prices[start:start + epoch_len]
        for prev in range(rows.shape[1]):
            if stay_certified(*bounds, epoch_len, k, anchor, prev):
                assert _frame_dp(frame, price, anchor, prev) == \
                    [prev] * len(frame)


def test_at_equality_the_certificate_leaves_the_frame_to_the_dp(monkeypatch):
    # One slot: prev = 1, both nodes at 0 and a zero price, so both sides of
    # the certificate are 0 for any anchor, and the DP moves to node 0.
    lows, cheapest, sums = _stay_bounds(np.zeros((1, 2)), np.zeros(1), 1)
    assert 1.0 * cheapest.item(0) + lows.item(0) == \
        sums.item(0, 1) * (1 + STAY_SLACK)
    assert _frame_dp([[0.0, 0.0]], [0.0], 1.0, 1) == [0]
    # The same tie in a run, whose slot prices are never 0: osp moves to
    # the free node 1 in slot 0 (anchor 0) for a backlog of 1, then back
    # to node 0 in slot 1, where staying costs 0 as well.
    scn, table = generate_scenario(seed=0, n_nodes=2, horizon=2,
                                   budget_avg=0.0, trace=[0, 0])
    rows, price = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0])
    monkeypatch.setattr(harness, "latency_rows", lambda scn, table, slots,
                        users: (rows[slots], price[slots]))
    rec = simulate(scn, table, "osp", PolicyConfig(v=1.0))
    assert rec.placement.tolist() == [1, 0] and rec.q.tolist() == [0.0, 1.0]


@st.composite
def grid_rows(draw):
    """Up to 4 slots of decision rows on up to 6 nodes, and their prices,
    on the grid."""
    n, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    value = st.integers(0, 3).map(float) if draw(st.booleans()) else quarters
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=horizon, max_size=horizon))
    return rows, draw(st.lists(value, min_size=horizon, max_size=horizon))


@settings(max_examples=200, deadline=None)
@given(grid_rows())
@example(([[1.5]], [0.25]))  # one node: no second-smallest entry
@example(([[2.0, 1.0, 3.0], [0.0, 0.0, 0.0]], [0.0, 1.0]))  # and all tied
def test_a_one_slot_epoch_decides_as_the_kernel(case):
    # frame_solver decides 1-slot epochs without the kernel, from each row's
    # two smallest entries. Grid rows tie often; the anchor 5e-324 makes
    # move terms of 0 or a few subnormals, which part only entries of 0, and
    # 1e17 rounds the moved entries together.
    rows, prices = case
    solve = frame_solver(np.array(rows), np.array(prices), 1)
    for k, anchor, prev in itertools.product(
            range(len(rows)), (0.0, 5e-324, 0.25, 1.0, 2.5, 1e17),
            range(len(rows[0]))):
        assert solve(k, anchor, prev) == _frame_dp(
            rows[k:k + 1], prices[k:k + 1], anchor, prev)


@settings(max_examples=200, deadline=None)
@given(frames(max_nodes=8, max_len=1))
def test_a_one_slot_frame_decide_equals_brute_force(case):
    cfg, frame = case
    assert frame_decide(cfg, frame) == brute_force_frame(frame, cfg)[0]


COLUMNS = ("input_size", "workload", "access_rate", "container_size",
           "unit_migration_cost")


@st.composite
def bad_tables(draw):
    """Arguments of a slot table with exactly one defect."""
    n = draw(st.integers(1, 5))
    slots = draw(st.integers(1, 8))
    users = draw(st.lists(st.integers(0, n - 1), min_size=slots,
                          max_size=slots))
    columns = {name: draw(st.lists(st.floats(0.01, 100.0), min_size=slots,
                                   max_size=slots)) for name in COLUMNS}
    at = draw(st.integers(0, slots - 1))
    defect = draw(st.sampled_from(("value", "user", "length")))
    if defect == "value":
        name = draw(st.sampled_from(COLUMNS))
        columns[name][at] = draw(st.sampled_from(
            (0.0, -1.0, -0.0, math.nan, math.inf, -math.inf)))
    elif defect == "user":
        users[at] = draw(st.sampled_from((-1, n, n + 7)))
    else:
        name = draw(st.sampled_from(COLUMNS))
        columns[name] = columns[name][:-1] if draw(st.booleans()) \
            else columns[name] + [1.0]
    return n, users, columns


@settings(max_examples=80, deadline=None)
@given(bad_tables())
def test_invalid_slot_tables_are_rejected(case):
    n, users, columns = case
    with pytest.raises(ValueError):
        SlotTable(n, users, **columns)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=80),
    st.integers(1, 80))))
def test_markov_counts_equal_a_per_pair_loop(case):
    # at every prefix of the history, whatever the block size
    n, history, block_elems = case
    anchors = np.arange(len(history))
    with mock.patch.object(predict, "_BLOCK_ELEMS", block_elems):
        blocks = list(_transition_counts(np.array(history), anchors, n))
    assert np.array_equal(np.concatenate([ends for ends, _ in blocks]),
                          anchors)
    got = np.concatenate([counts for _, counts in blocks])
    for anchor in anchors:
        expected = np.ones((n, n))
        for a, b in zip(history[:anchor], history[1:anchor + 1]):
            expected[a, b] += 1.0
        assert got.dtype == expected.dtype
        assert np.array_equal(got[anchor], expected)


@st.composite
def batches(draw):
    """A run's predictor: spec, trace, look-ahead, regions, epoch length."""
    n = draw(st.integers(1, 6))
    trace = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=90))
    w = draw(st.integers(1, 4))
    spec = PredictorSpec(
        kind=draw(st.sampled_from(PREDICTOR_KINDS)),
        accuracies=draw(st.lists(st.floats(0.0, 1.0), min_size=w,
                                 max_size=w)),
        rng_seed=draw(st.integers(0, 99)))
    epoch_len = draw(st.sampled_from((1, 1, 2, 3, w + 1, 5)))
    return spec, trace, w, n, epoch_len


@settings(max_examples=300, deadline=None)
@given(batches(), st.sampled_from((np.int64, np.int32, np.uint8)),
       st.integers(1, 200))
def test_batch_predictions_equal_the_per_call_formulas(case, dtype,
                                                       block_elems):
    # small blocks make markov1 runs span several; the last epochs of a
    # trace see fewer than w slots ahead, and a 1-slot trace none
    spec, trace, w, n, epoch_len = case
    column = np.array(trace + [0] * 3, dtype=dtype)
    column.flags.writeable = False
    view = column[:len(trace)]
    with mock.patch.object(predict, "_BLOCK_ELEMS", block_elems):
        got = predict_epochs(spec, view, w, n, epoch_len)
    starts = range(0, len(trace), epoch_len)
    assert got.shape == (len(starts), w)
    for k, start in enumerate(starts):
        ahead = min(w, len(trace) - start - 1)
        row = got[k].tolist()
        assert row[ahead:] == [-1] * (w - ahead)
        if ahead:
            assert row[:ahead] == reference_predict(
                spec, trace[:start + 1], trace[start + 1:start + 1 + ahead],
                ahead, n, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 5),
       st.one_of(st.integers(0, 99), st.integers(0, 2 ** 130)),
       st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_oracle_draws_equal_per_epoch_generators(n, w, rng_seed, accuracies,
                                                 length, trace_seed):
    # any number of seed words, regions and look-ahead depths
    spec = PredictorSpec(accuracies=accuracies[:w], rng_seed=rng_seed)
    trace = np.random.default_rng(trace_seed).integers(n, size=length)
    got = predict_epochs(spec, trace, w, n, 1).tolist()
    for k in range(length):
        ahead = min(w, length - 1 - k)
        assert got[k] == reference_predict(
            spec, trace[:k + 1], trace[k + 1:k + 1 + ahead], ahead, n,
            k) + [-1] * (w - ahead)


@settings(max_examples=200, deadline=None)
@given(batches(), st.sampled_from((np.int64, np.int32, np.uint8)))
def test_predictions_are_in_range_and_agree_for_list_and_view(case, dtype):
    spec, trace, w, n, epoch_len = case
    got = predict_epochs(spec, trace, w, n, epoch_len)
    assert got.dtype == np.intp
    ahead = np.minimum(w, len(trace) - 1 - np.arange(0, len(trace), epoch_len))
    made = np.arange(w) < ahead[:, None]
    assert ((got >= 0) == made).all()
    assert (got < n).all()
    # a read-only view of a longer column, as the engine passes it
    column = np.array(trace + [0] * 5, dtype=dtype)
    column.flags.writeable = False
    assert np.array_equal(predict_epochs(spec, column[:len(trace)], w, n,
                                         epoch_len), got)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 99), st.integers(0, 2 ** 130)),
       st.one_of(st.integers(1, 60), st.sampled_from((2 ** 31 + 2,
                                                      2 ** 32, 2 ** 32 + 1))),
       st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       st.integers(1, 300))
def test_synthetic_trace_equals_the_per_slot_loop(seed, n, stickiness, length):
    # up to 2**32 regions the replay reads the raw block (2**31 + 2 rejects
    # about half its draws and falls back); past that it falls back at once
    assert synthetic_trace(seed, n, length, stickiness) == (
        reference_synthetic_trace(seed, n, length, stickiness))


# Signed zeros, quarters (exact sums, so steps land on 0 and entries tie)
# and any float; the latencies may also be infinite or NaN.
zeros = st.sampled_from((0.0, -0.0))
amounts = st.one_of(zeros, quarters, st.floats(0.0, 1e300))
latencies = st.one_of(zeros, st.integers(-40, 40).map(lambda k: k / 4),
                      st.floats())


@settings(max_examples=500, deadline=None)
@given(acc=amounts, here=latencies, there=latencies, price=amounts,
       user=st.integers(0, 1), prev=st.integers(0, 1))
@example(acc=-0.0, here=0.0, there=-0.0, price=1.0, user=0, prev=1)
@example(acc=0.25, here=math.nan, there=1.0, price=1.0, user=0, prev=1)
def test_lm_decide_equals_its_max_form(acc, here, there, price, user, prev):
    # row[prev] - row[user] is the gap: -0.0, 0.0, negative, NaN or inf
    row = [here, there]
    assert repr(lm_decide(acc, row, price, user, prev)) == repr(
        reference_lm_decide(acc, row, price, user, prev))


# Floats whose text the CSV writers and csv.writer must agree on: signed
# zeros, the two ends of repr's plain notation, the smallest subnormal,
# infinities, NaN and any float.
csv_floats = st.one_of(st.sampled_from((0.0, -0.0, 1e-05, 1e16, 5e-324,
                                        math.inf, -math.inf, math.nan)),
                       st.floats())


def record(placement, latency, cost, q, w, summaries=(0.0, 0.0, 0.0, 0.0),
           negative_w_frames=0):
    return RunRecord(np.array(placement, dtype=int), *map(np.array, (
        latency, cost, q, w)), *summaries, negative_w_frames, ())


@st.composite
def records(draw):
    n = draw(st.integers(0, 8))
    floats = st.lists(csv_floats, min_size=n, max_size=n)
    q = draw(floats)
    return record(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)),
                  draw(floats), draw(floats), q,
                  list(q) if draw(st.booleans()) else draw(floats),
                  draw(st.tuples(*[csv_floats] * 4)), draw(st.integers(0, 9)))


@settings(max_examples=100, deadline=None)
@given(rec=records(),
       rows=st.lists(st.tuples(st.one_of(st.just(""), st.integers(0, 99),
                                         csv_floats),
                               st.sampled_from(POLICIES), records()),
                     max_size=4),
       regions=st.lists(st.integers(0, 2 ** 40), max_size=20))
@example(rec=record([0, 1], [1e16, 1e-05], [5e-324, -0.0], [0.0, 0.5],
                    [-0.0, 0.5]),  # equal to q but for the sign of a zero
         rows=[], regions=[0])
def test_csv_writers_write_the_bytes_of_csv_writer(tmp_path_factory, rec,
                                                   rows, regions):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_per_slot_csv(path, rec)
    assert path.read_bytes() == reference_csv(PER_SLOT_HEADER, rec.per_slot)
    write_summary_csv(path, rows)
    assert path.read_bytes() == reference_csv(SUMMARY_HEADER, [
        (v, p, r.avg_latency, r.avg_cost, r.avg_queue, r.final_queue,
         r.negative_w_frames) for v, p, r in rows])
    write_trace_csv(path, regions)
    assert path.read_bytes() == reference_csv(("slot", "region"),
                                              enumerate(regions))


@settings(max_examples=100, deadline=None)
@given(policy=st.sampled_from(POLICIES), seed=st.integers(0, 99),
       horizon=st.integers(1, 30),
       v=st.one_of(st.sampled_from((0.0, 1e307, 1e308, sys.float_info.max)),
                   st.floats(0.0, sys.float_info.max)),
       backhaul=st.one_of(st.sampled_from((5e-324, 1e-310, 1e-305, 1.0)),
                          st.floats(0.0, 1e6, exclude_min=True)))
def test_an_accepted_config_decides_on_finite_rows(policy, seed, horizon, v,
                                                   backhaul):
    config = ExperimentConfig(policy=policy, scenario_seed=seed,
                              trace_seed=seed, horizon=horizon,
                              backhaul_mbps=backhaul,
                              policy_cfg=PolicyConfig(v=v))
    # the frame policies' solver gets every decision row its epochs read,
    # also those of the 1-slot epochs it decides without the kernel
    with mock.patch.object(harness, "frame_solver",
                           wraps=policies.frame_solver) as solver, \
            mock.patch.object(harness, "lm_decide", wraps=lm_decide) as lm, \
            mock.patch.object(harness, "plm_decide", wraps=plm_decide) as plm:
        try:
            rec = run(config)
        except ConfigError:
            return
    rows = [row for call in solver.call_args_list
            for row in call.args[0].tolist()]
    rows += [call.args[1] for call in lm.call_args_list]
    rows += [row for call in plm.call_args_list for row in call.args[:2]
             if row is not None]
    assert np.isfinite(np.array(rows, dtype=float)).all()
    assert np.isfinite([rec.avg_latency, rec.avg_cost, rec.avg_queue,
                        rec.final_queue]).all()
    assert np.isfinite(rec.latency).all()


# Values of every kind, bad and good: 10**400 is past the float range and
# 2**70 past int64
BOUNDARY_VALUES = [
    True, False, np.bool_(True), "1", "0.5", "", None, math.nan, math.inf,
    -math.inf, 10 ** 400, 2 ** 70, 1e308, -0.0, -1, 0, 1, 2, 3, 0.5, 2.0, [],
    [1], [[1.0]], {}, {"a": 1}, np.float64(2.0), np.int64(3), np.uint8(1),
    np.float32(0.5)]
# Each entry point with valid small arguments; every scalar argument and
# one entry of every list argument takes each value in turn
BOUNDARY_CALLS = [
    (ExperimentConfig, dict(
        policy="psp", scenario_seed=0, node_count=3, horizon=6, frame_len=3,
        budget_avg=0.1, backhaul_mbps=100.0, homogeneous_capacity=False,
        trace_path=None, trace_seed=1, trace_stickiness=0.7, sweep_axis="v",
        sweep_values=[1.0, 2.0])),
    (PolicyConfig, dict(v=10.0, theta=0.0, beta=0.5)),
    (PredictorSpec, dict(kind="oracle_noisy", accuracies=[0.9, 0.8],
                         rng_seed=0)),
    (Scenario, dict(node_count=2, backhaul_rate=[[1.0, 2.0], [2.0, 1.0]],
                    budget_avg=0.1, horizon=5, compute_capacity=[8.0, 8.0],
                    frame_len=2)),
    (SlotTable, dict(node_count=3, user_node=[0, 2], input_size=[1.0, 2.0],
                     workload=[1.0, 2.0], access_rate=[1.0, 2.0],
                     container_size=[1.0, 2.0],
                     unit_migration_cost=[1.0, 2.0])),
    (FrameInput, dict(latency=[[1.0, 2.0], [3.0, 4.0]], move_price=[1.0, 1.0],
                      q_anchor=0.5, prev_placement=0)),
    (synthetic_trace, dict(seed=0, n_regions=3, length=6, stickiness=0.7))
] + [(generate_scenario, dict(seed=0, n_nodes=2, horizon=4, frame_len=2,
                              budget_avg=0.1, backhaul_mbps=100.0,
                              trace=trace, homogeneous_capacity=False))
     for trace in (None, [0, 1, 1, 0])  # no trace is a scalar setting
] + [(predict_epochs, dict(spec=PredictorSpec(kind=kind), trace=[0, 1, 2, 1],
                           w=2, n_regions=3, epoch_len=2))
     for kind in PREDICTOR_KINDS
] + [(FrameInput, dict(latency=table, move_price=[1.0], q_anchor=0.5,
                       prev_placement=0))
     # a numpy table takes each value in place of the whole table
     for table in (np.array([[0.0]]), np.array([[1.0, 2.0]]),
                   np.empty((0, 2)))]


def boundary_slots(kwargs):
    """The argument paths a value goes to: each scalar argument, and the
    last entry of the first row of each list argument."""
    for key, arg in kwargs.items():
        if isinstance(arg, list):
            yield (key, 0, -1) if isinstance(arg[0], list) else (key, -1)
        elif not isinstance(arg, PredictorSpec):
            yield (key,)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=st.sampled_from(BOUNDARY_VALUES))
def test_any_library_input_ends_in_a_result_or_a_value_error(value):
    # about 100 calls per value; every value of the pool is drawn
    for build, kwargs in BOUNDARY_CALLS:
        for path in boundary_slots(kwargs):
            args = copy.deepcopy(kwargs)
            *parents, last = path
            holder = args
            for key in parents:
                holder = holder[key]
            holder[last] = value
            try:
                build(**args)
            except ValueError:
                pass
            except Exception as exc:
                pytest.fail(f"{build.__name__} with {path} = {value!r} "
                            f"raised {exc!r}")


# Each value type with arguments a caller builds it from and keeps, and
# what a run or a frame decision makes of it
WRITE_SCENARIO = dict(
    node_count=3, backhaul_rate=[[1.0, 2.0, 4.0], [2.0, 1.0, 3.0],
                                 [4.0, 3.0, 1.0]],
    budget_avg=0.05, horizon=6, compute_capacity=[8.0, 4.0, 6.0], frame_len=3)
WRITE_TABLE = dict(
    node_count=3, user_node=[0, 2, 1, 1, 0, 2],
    input_size=[5.0, 9.0, 6.0, 7.0, 8.0, 5.5],
    workload=[2.0, 20.0, 9.0, 4.0, 12.0, 7.0],
    access_rate=[5.0, 10.0, 7.0, 6.0, 9.0, 8.0],
    container_size=[25.0, 50.0, 30.0, 45.0, 35.0, 40.0],
    unit_migration_cost=[2.0, 10.0, 5.0, 3.0, 8.0, 6.0])
WRITE_CASES = [
    (Scenario, WRITE_SCENARIO, lambda scn: simulate(
        scn, SlotTable(**WRITE_TABLE), "pspwu", PolicyConfig(beta=0.5))),
    (SlotTable, WRITE_TABLE, lambda table: simulate(
        Scenario(**WRITE_SCENARIO), table, "pspwu", PolicyConfig(beta=0.5))),
    (PolicyConfig, dict(v=10.0, theta=0.0, beta=0.5), lambda cfg: run(
        ExperimentConfig(policy="pspwu", node_count=3, horizon=12,
                         policy_cfg=cfg))),
    (PredictorSpec, dict(kind="oracle_noisy", accuracies=[0.9, 0.5],
                         rng_seed=3), lambda spec: run(
        ExperimentConfig(policy="psp", node_count=3, horizon=12,
                         predictor=spec))),
    (FrameInput, dict(latency=[[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]],
                      move_price=[1.0, 0.5], q_anchor=0.5, prev_placement=0),
     lambda frame: (frame_decide(PolicyConfig(v=1.0), frame),
                    brute_force_frame(frame, PolicyConfig(v=1.0)))),
    (ExperimentConfig, dict(policy="pspwu", policy_cfg=PolicyConfig(beta=0.5),
                            node_count=3, horizon=12, sweep_axis="v",
                            sweep_values=[1.0, 20.0]), sweep),
]


def outcome(result):
    """A run's, a sweep's or a frame decision's result as comparable text."""
    if isinstance(result, RunRecord):
        return repr((result.per_slot, result.avg_latency, result.avg_cost,
                     result.avg_queue, result.final_queue,
                     result.prediction_accuracy))
    if isinstance(result, list) and isinstance(result[0], tuple):
        return [(v, outcome(rec)) for v, rec in result]
    return repr(result)


def writes(target):
    """Setters of every field of a dataclass and every entry of an array,
    list or tuple reachable from target, a dict's values included."""
    if isinstance(target, dict):
        for entry in target.values():
            yield from writes(entry)
    elif dataclasses.is_dataclass(target):
        for f in dataclasses.fields(target):
            yield lambda value, name=f.name: setattr(target, name, value)
            yield from writes(getattr(target, f.name))
    elif isinstance(target, np.ndarray):
        for index in np.ndindex(target.shape):
            yield lambda value, i=index: target.__setitem__(i, value)
    elif isinstance(target, (list, tuple)):
        for i, entry in enumerate(target):
            yield lambda value, i=i: target.__setitem__(i, value)
            yield from writes(entry)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=st.sampled_from(BOUNDARY_VALUES), arrays=st.booleans())
def test_an_accepted_value_ignores_every_later_write(value, arrays):
    # Once a value type has accepted its arguments, each write into one of
    # its fields or arrays, or into an argument list or array the caller
    # still holds, raises or leaves the run or frame decision as it was.
    # ExperimentConfig's sweep_values take lists only.
    for build, kwargs, use in WRITE_CASES:
        as_array = arrays and build in (Scenario, SlotTable, PredictorSpec,
                                        FrameInput)
        held = {key: np.array(arg) if as_array and isinstance(arg, list)
                else copy.deepcopy(arg) for key, arg in kwargs.items()}
        made = build(**held)
        before = outcome(use(made))
        for write in itertools.chain(writes(made), writes(held)):
            try:
                write(value)
            except Exception:
                continue
            assert outcome(use(made)) == before, (build.__name__, value)
