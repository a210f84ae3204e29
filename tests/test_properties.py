"""Property tests over random inputs (hypothesis).

(a) Every policy meets the telescoped budget inequality, keeps the
    momentum weight at or above the backlog and the backlog at or above 0
    at every slot, records the queue state that advance replays from the
    slot costs, and replays identically on random small configs. Its
    columns and summaries equal those of the per-slot record loop the
    engine had before, kept in conftest.py as the reference.
(b) The frame solver returns the brute-force oracle's sequence and
    objective on random latency tables of up to 6 nodes. Values lie on a
    grid of quarters small enough that every sum and product is exact, so
    ties are real ties, which integer latencies and v = 0 make common;
    weight anchors go negative, where moving can beat staying and the
    solver needs each layer's second-smallest moved-in cost. On the same
    frames, frame_decide and the kernel fed rows scaled by v in numpy, as
    the engine feeds it, return the sequence of the DP that scaled every
    element itself, kept in conftest.py as the reference.
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
(f) The queue step and the lazy-migrate accumulator, which clamp with
    compares, return what their max() forms, kept in
    conftest.py as the reference, return, bit for bit: signed zeros, steps
    that land on 0 or below it, flat weights, NaN weights and beta at 0
    and 1 included.
"""

import math
from unittest import mock

import numpy as np
import pytest
from conftest import (reference_advance, reference_frame_decide,
                      reference_lm_decide, reference_predict,
                      reference_simulate, reference_synthetic_trace)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplacer import predict
from edgeplacer.costqueue import advance
from edgeplacer.harness import (POLICIES, ExperimentConfig, _materialize, run,
                                synthetic_trace)
from edgeplacer.model import SlotTable
from edgeplacer.policies import (FrameInput, PolicyConfig, _frame_dp,
                                 brute_force_frame, frame_decide,
                                 frame_objective, lm_decide)
from edgeplacer.predict import (PREDICTOR_KINDS, PredictorSpec,
                                _transition_counts, predict_epochs)

quarters = st.integers(0, 40).map(lambda k: k / 4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), nodes=st.integers(1, 5),
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
        # the columns hold the queue state before each slot: advance,
        # replayed from zero over the slot costs, gives every (q, w)
        q = w = w_prev = 0.0
        for t, cost in enumerate(rec.cost.tolist()):
            assert (rec.q[t], rec.w[t]) == (q, w), (policy, t)
            q, w, w_prev = advance(q, w, w_prev, cost, budget, beta)
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
def frames(draw):
    n = draw(st.integers(1, 6))
    length = draw(st.integers(1, 4 if n <= 4 else 3))
    integer = draw(st.booleans())
    value = st.integers(0, 3).map(float) if integer else quarters
    latency = [draw(st.lists(value, min_size=n, max_size=n))
               for _ in range(length)]
    prices = draw(st.lists(value, min_size=length, max_size=length))
    anchor = draw(st.integers(-200, 200)) / 4  # half of them negative
    prev = draw(st.integers(0, n - 1))
    cfg = PolicyConfig(v=draw(st.sampled_from((0.0, 1.0, 2.5, 10.0))),
                       theta=draw(quarters))
    return cfg, FrameInput(latency, prices, anchor, prev), draw(quarters)


@settings(max_examples=200, deadline=None)
@given(frames())
def test_frame_dp_equals_brute_force(case):
    cfg, frame, e_avg = case
    seq = frame_decide(cfg, frame)
    best_seq, best_obj = brute_force_frame(frame, e_avg, cfg)
    assert seq == best_seq
    assert frame_objective(cfg, frame, e_avg, seq) == best_obj


@settings(max_examples=300, deadline=None)
@given(frames())
def test_frame_dp_kernel_equals_the_reference(case):
    cfg, frame, _ = case
    expected = reference_frame_decide(cfg, frame)
    assert frame_decide(cfg, frame) == expected
    # the engine's call: rows scaled by v once in numpy, no FrameInput
    rows = (np.array(frame.latency) * cfg.v).tolist()
    assert _frame_dp(rows, frame.move_price, frame.q_anchor,
                     frame.prev_placement) == expected


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
        window=draw(st.integers(1, 8)), rng_seed=draw(st.integers(0, 99)))
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


# Signed zeros, quarters (exact sums, so steps land on 0 and weights tie)
# and any float; the weights may also be infinite or NaN.
zeros = st.sampled_from((0.0, -0.0))
amounts = st.one_of(zeros, quarters, st.floats(0.0, 1e300))
weights = st.one_of(zeros, st.integers(-40, 40).map(lambda k: k / 4),
                    st.floats())


@settings(max_examples=500, deadline=None)
@given(q=amounts, w=weights, w_prev=weights, flat=st.booleans(), e=amounts,
       e_avg=amounts, beta=st.one_of(st.sampled_from((0.0, 1.0)),
                                     st.floats(0.0, 1.0)))
@example(q=1.0, w=1.0, w_prev=0.0, flat=False, e=0.0, e_avg=1.0, beta=1.0)
@example(q=1.0, w=2.0, w_prev=0.5, flat=False, e=0.25, e_avg=2.0, beta=0.0)
@example(q=-0.0, w=-0.0, w_prev=0.0, flat=False, e=-0.0, e_avg=0.0,
         beta=1.0)
@example(q=0.0, w=math.nan, w_prev=1.0, flat=True, e=0.5, e_avg=0.25,
         beta=1.0)
@example(q=0.0, w=1.0, w_prev=math.nan, flat=False, e=0.0, e_avg=0.0,
         beta=0.5)
def test_advance_equals_its_max_form(q, w, w_prev, flat, e, e_avg, beta):
    w_prev = w if flat else w_prev
    assert repr(advance(q, w, w_prev, e, e_avg, beta)) == repr(
        reference_advance(q, w, w_prev, e, e_avg, beta))


@settings(max_examples=500, deadline=None)
@given(acc=amounts, here=weights, there=weights, price=amounts,
       user=st.integers(0, 1), prev=st.integers(0, 1),
       gamma=st.sampled_from((0.5, 1.0, 1e300)))
@example(acc=-0.0, here=0.0, there=-0.0, price=1.0, user=0, prev=1,
         gamma=1.0)
@example(acc=0.25, here=math.nan, there=1.0, price=1.0, user=0, prev=1,
         gamma=1.0)
def test_lm_decide_equals_its_max_form(acc, here, there, price, user, prev,
                                       gamma):
    # row[prev] - row[user] is the gap: -0.0, 0.0, negative, NaN or inf
    row, cfg = [here, there], PolicyConfig(lm_gamma=gamma)
    assert repr(lm_decide(acc, row, price, user, prev, cfg)) == repr(
        reference_lm_decide(acc, row, price, user, prev, cfg))
