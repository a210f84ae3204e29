import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplacer import harness, policies
from edgeplacer.harness import (ExperimentConfig, generate_scenario,
                                random_frame_instance, run, simulate,
                                verify_frame_oracles)
from edgeplacer.model import latency_rows
from edgeplacer.policies import (PRUNE_MIN_NODES, FrameInput, PolicyConfig,
                                 brute_force_frame, brute_force_horizon,
                                 frame_decide, frame_objective, frame_solver,
                                 lm_decide, plm_decide)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["v", "theta", "beta"])
def test_policy_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        PolicyConfig(**{name: value})


@pytest.mark.parametrize("value", [True, "1"])
@pytest.mark.parametrize("name", ["v", "theta", "beta"])
def test_policy_config_rejects_booleans_and_strings(name, value):
    # rejected, not converted, as the config path does
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        PolicyConfig(**{name: value})


def osp_instance():
    # latencies per node work out to [5, 3, 4]; any move costs exactly 1
    rows, prices = make_rows(backhaul=8.0, input_size=1.0, workload=8.0,
                             access_rate=8.0, caps=(2.0, 8.0, 4.0),
                             container=500.0, unit_cost=2.0)
    return rows[0], prices[0]


def osp(cfg, q, row, price, prev):
    """The reactive rule: frame_decide on a 1-slot frame anchored on q."""
    [placement] = frame_decide(cfg, FrameInput([row], [price], q, prev))
    return placement


def osp_scores(cfg, q, row, price, prev):
    return [cfg.v * lat + q * (price if i != prev else 0.0)
            for i, lat in enumerate(row)]


def test_osp_enumerates_and_breaks_ties_low():
    row, price = osp_instance()
    assert (row, price) == ([5.0, 3.0, 4.0], 1.0)
    # v=1, q=2: scores [5, 5, 6]; nodes 0 and 1 tie, lowest index wins
    assert osp(PolicyConfig(v=1.0), 2.0, row, price, 0) == 0


def test_osp_zero_queue_is_latency_greedy():
    row, price = osp_instance()
    assert osp(PolicyConfig(v=1.0), 0.0, row, price, 0) == 1


def test_osp_zero_v_stays_put():
    row, price = osp_instance()
    for prev in range(3):
        assert osp(PolicyConfig(v=0.0), 5.0, row, price, prev) == prev


def test_osp_matches_explicit_score_minimum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        cfg, frame = random_frame_instance(rng)
        row, price = frame.latency[0], frame.move_price[0]
        q = frame.q_anchor
        prev = frame.prev_placement
        got = osp(cfg, q, row, price, prev)
        scores = osp_scores(cfg, q, row, price, prev)
        assert scores[got] == min(scores)
        assert got == scores.index(min(scores))


# --- frame policies ---------------------------------------------------------

def drawn(**kw):
    """A generated scenario, its trace, and the realized latency rows and
    move prices of its slots as Python lists."""
    scn, table = generate_scenario(**kw)
    rows, prices = latency_rows(scn, table, slice(None), table.trace)
    return scn, table.trace, rows.tolist(), prices.tolist()


def drawn_frame(q_anchor, prev_placement, **kw):
    scn, _, rows, prices = drawn(**kw)
    return scn, FrameInput(rows, prices, q_anchor, prev_placement)


def test_frame_dp_matches_oracle_fixed_instance():
    # 4 nodes, 3 slots: exhaustive minimum over 64 sequences
    scn, frame = drawn_frame(7.0, 2, seed=42, n_nodes=4, horizon=3,
                             frame_len=3, budget_avg=0.1)
    cfg = PolicyConfig(v=10.0, theta=50.0)
    seq = frame_decide(cfg, frame)
    best_seq, best_obj = brute_force_frame(frame, cfg)
    assert seq == best_seq
    assert frame_objective(cfg, frame, seq) == best_obj


def test_frame_dp_matches_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        cfg, frame = random_frame_instance(rng)
        seq = frame_decide(cfg, frame)
        best_seq, best_obj = brute_force_frame(frame, cfg)
        assert seq == best_seq
        assert frame_objective(cfg, frame, seq) == best_obj


def test_weight_anchored_dp_matches_oracle():
    # 3 nodes, 2 slots, anchor 5: exhaustive minimum over 9 sequences
    scn, frame = drawn_frame(5.0, 0, seed=7, n_nodes=3, horizon=2,
                             frame_len=2, budget_avg=0.1)
    cfg = PolicyConfig(v=10.0, theta=20.0)
    seq = frame_decide(cfg, frame)
    best_seq, _ = brute_force_frame(frame, cfg)
    assert seq == best_seq


def test_frame_rejects_a_negative_anchor():
    # the backlog is clamped at 0 and the weight is no lower, so every
    # anchor is >= 0, which the frame solver relies on
    for anchor in (-1e-300, -1, -20.0):
        with pytest.raises(ValueError, match=re.escape(
                "q_anchor must be finite and >= 0")):
            FrameInput([[5.0, 3.0], [1.0, 2.0]], [1.0, 1.0], anchor, 0)
    # -0.0 == 0.0: moves are free under either, on every solver path
    rng = np.random.default_rng(321)
    for idx in range(40):
        cfg, frame = random_frame_instance(rng, grid=True, wide=idx % 4 == 3)
        zero = replace(frame, q_anchor=0.0)
        assert frame_decide(cfg, replace(frame, q_anchor=-0.0)) == \
            frame_decide(cfg, zero) == brute_force_frame(zero, cfg)[0]


def test_single_slot_frame_equals_reactive_rule():
    rng = np.random.default_rng(9)
    for _ in range(50):
        scn, _, rows, prices = drawn(
            seed=int(rng.integers(2 ** 31)), n_nodes=int(rng.integers(2, 6)),
            horizon=1, frame_len=1)
        cfg = PolicyConfig(v=float(rng.uniform(0, 50)),
                           theta=float(rng.uniform(0, 50)))
        q = float(rng.uniform(0, 30))
        prev = int(rng.integers(scn.node_count))
        scores = osp_scores(cfg, q, rows[0], prices[0], prev)
        seq = frame_decide(cfg, FrameInput(rows, prices, q, prev))
        assert seq == [scores.index(min(scores))]


def test_a_rounding_tie_sends_a_one_slot_epoch_to_the_kernel(monkeypatch):
    # Node 1 holds the row's smallest entry, but with m = 2**54 both 1 + m
    # and 2 + m round to 2**54: node 0 ties node 1 and wins as the lower
    # index, which a precomputed argmin would miss. The rule sees
    # lo2 + m == lo + m and leaves the slot to the kernel.
    calls, kernel = [], policies._frame_dp
    monkeypatch.setattr(policies, "_frame_dp",
                        lambda *args: calls.append(args) or kernel(*args))
    row, m = [2.0, 1.0, 2.0 ** 56], 2.0 ** 54
    assert 1.0 + m == 2.0 + m == m
    solve = frame_solver(np.array([row]), 1.0, np.array([1.0]), 1)
    assert solve(0, m, 2) == [0] and len(calls) == 1
    # without the tie (a smaller anchor) the rule moves to node 1 alone
    assert solve(0, 2.0 ** 50, 2) == [1] and len(calls) == 1
    frame = FrameInput([row], [1.0], m, 2)
    assert frame_decide(PolicyConfig(v=1.0), frame) == [0] == \
        brute_force_frame(frame, PolicyConfig(v=1.0))[0]


def test_zero_anchor_frame_is_per_slot_latency_greedy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg, frame = random_frame_instance(rng)
        frame = replace(frame, q_anchor=0.0)
        seq = frame_decide(cfg, frame)
        for p, row in enumerate(frame.latency):
            assert row[seq[p]] == min(row)


def test_migration_strictly_dominated_stays_put():
    # v = 0 with a positive anchor: latency is irrelevant, every move costs
    cfg = PolicyConfig(v=0.0)
    for prev in (0, 1):
        scn, frame = drawn_frame(4.0, prev, seed=3, n_nodes=2, horizon=2,
                                 frame_len=2, budget_avg=0.05)
        seq = frame_decide(cfg, frame)
        assert seq == [prev, prev]
        best_seq, _ = brute_force_frame(frame, cfg)
        assert best_seq == seq


def test_scale_invariance_of_decisions():
    # scaling v, anchor, latencies and costs together (powers of two, so
    # float scaling is exact) must not move any argmin
    rng = np.random.default_rng(77)
    for c in (2.0, 4.0, 0.5):
        for _ in range(20):
            cfg, frame = random_frame_instance(rng)
            seq = frame_decide(cfg, frame)
            scaled_cfg = replace(cfg, v=cfg.v * c)
            scaled_frame = FrameInput(
                [[lat * c for lat in row] for row in frame.latency],
                [price * c for price in frame.move_price],
                frame.q_anchor * c, frame.prev_placement)
            assert frame_decide(scaled_cfg, scaled_frame) == seq

            a = osp(cfg, frame.q_anchor, frame.latency[0],
                    frame.move_price[0], frame.prev_placement)
            b = osp(scaled_cfg, frame.q_anchor * c, scaled_frame.latency[0],
                    scaled_frame.move_price[0], frame.prev_placement)
            assert a == b


def test_theta_moves_no_placement():
    # theta adds anchor * theta * (T - p) to every edge of position p, the
    # same amount for every sequence, so placements do not depend on it
    def placements(theta):
        rec = run(ExperimentConfig(
            policy="psp", scenario_seed=4, trace_seed=5, horizon=300,
            budget_avg=0.03, policy_cfg=PolicyConfig(v=50.0, theta=theta)))
        return rec.placement.tolist()

    assert placements(0.0) == placements(500.0)


def test_all_tie_frame_breaks_to_lowest_indices():
    # v = 0 and a zero anchor price every sequence identically; both solver
    # and oracle must land on the lexicographically smallest one
    scn, frame = drawn_frame(0.0, 2, seed=8, n_nodes=3, horizon=3, frame_len=3)
    cfg = PolicyConfig(v=0.0, theta=30.0)
    seq = frame_decide(cfg, frame)
    best_seq, _ = brute_force_frame(frame, cfg)
    assert seq == best_seq == [0, 0, 0]


@pytest.mark.parametrize("prev", [-1, 3, 7, 1.5])
def test_frame_rejects_a_start_outside_the_nodes(prev):
    # -1 would make the last node the free stay in the kernel
    with pytest.raises(ValueError, match="prev_placement"):
        FrameInput([[5.0, 3.0, 1.0]], [1.0], 0.5, prev)


def test_frame_takes_a_whole_float_start_as_its_node():
    # prev_placement 1.0 is node 1; the kernel used to index its scores
    # with the float and raise TypeError
    frame = FrameInput([[1.0, 2.0]], [1.0], 0.5, 1.0)
    assert frame.prev_placement == 1 and type(frame.prev_placement) is int
    assert frame_decide(PolicyConfig(v=1.0), frame) == [0]


@pytest.mark.parametrize("latency", [[[5.0, 3.0, 1.0], [1.0, 2.0]],
                                     [[], []]])
def test_frame_rejects_ragged_or_empty_rows(latency):
    # ragged rows used to decide [0, 0] through zip truncation
    with pytest.raises(ValueError, match="one length"):
        FrameInput(latency, [1.0, 1.0], 0.5, 0)


@pytest.mark.parametrize("latency, prices", [
    ([[0.0]], [0.0]), ([[1.0, 2.0]], [1.0]),
    ([[3.0, 1.0, 2.0], [1.0, 2.0, 0.5]], [0.5, 2.0]),
])
def test_an_array_table_equals_its_list_twin(latency, prices):
    # a numpy table used to fail its truth test: ambiguous for a 1 x 2
    # table, empty for the 1 x 1 zero table
    listed = FrameInput(latency, prices, 0.5, 0)
    arrayed = FrameInput(np.array(latency), np.array(prices), 0.5, 0)
    assert arrayed == listed
    assert {type(x) for x in (*arrayed.latency[0], *arrayed.move_price)} == \
        {float}
    cfg = PolicyConfig(v=2.0)
    assert frame_decide(cfg, arrayed) == frame_decide(cfg, listed)
    with pytest.raises(ValueError, match="at least one slot"):
        FrameInput(np.empty((0, len(latency[0]))), [], 0.5, 0)


def test_frame_rejects_a_price_per_row_mismatch():
    # a short move_price used to end in a bare IndexError
    with pytest.raises(ValueError, match="one price per latency row"):
        FrameInput([[5.0, 3.0], [1.0, 2.0]], [1.0], 0.5, 0)


@pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf])
def test_frame_rejects_a_non_finite_anchor(anchor):
    # a NaN anchor used to decide [0, 0]
    with pytest.raises(ValueError, match="q_anchor must be finite"):
        FrameInput([[5.0, 3.0], [1.0, 2.0]], [1.0, 1.0], anchor, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["latency", "price"])
def test_frame_rejects_a_non_finite_latency_or_price(bad, where):
    # a NaN latency used to decide [0]: no score beats a NaN under min
    latency, prices = [[5.0, 3.0, 1.0], [1.0, 2.0, 4.0]], [1.0, 2.0]
    if where == "latency":
        latency[1][0] = bad
    else:
        prices[1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        FrameInput(latency, prices, 0.5, 0)


@pytest.mark.parametrize("bad", [10 ** 400, True, "1", None, [1.0], {}])
@pytest.mark.parametrize("where", ["latency", "price"])
def test_frame_rejects_a_latency_or_price_that_is_no_float(bad, where):
    # 10**400 used to raise OverflowError, a string or a list TypeError, and
    # True passed as 1
    latency, prices = [[5.0, 3.0, 1.0], [1.0, 2.0, 4.0]], [1.0, 2.0]
    if where == "latency":
        latency[1][0] = bad
    else:
        prices[1] = bad
    with pytest.raises(ValueError, match="^a latency or price "):
        FrameInput(latency, prices, 0.5, 0)


@pytest.mark.parametrize("latency, prices", [
    # equal rows at prices [-1, -1] from node 0 used to decide [1, 0]:
    # two moves were cheaper than staying
    ([[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0]),
    ([[5.0, 3.0, 1.0], [-1.0, 2.0, 4.0]], [1.0, 2.0]),
    ([[5.0, 3.0, 1.0], [1.0, 2.0, -5e-324]], [1.0, 2.0]),
    ([[5.0, 3.0, 1.0], [1.0, 2.0, 4.0]], [1.0, -5e-324]),
])
def test_frame_rejects_a_negative_latency_or_price(latency, prices):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        FrameInput(latency, prices, 1.0, 0)


def test_frame_accepts_negative_zeros():
    # -0.0 == 0.0: a zero price makes the move free, and the service goes
    # to node 0 and back
    frame = FrameInput([[-0.0, 1.0], [1.0, -0.0]], [-0.0, -0.0], 1.0, 1)
    cfg = PolicyConfig(v=1.0)
    assert frame_decide(cfg, frame) == brute_force_frame(frame, cfg)[0] \
        == [0, 1]


def test_frame_rejects_a_v_whose_scaled_latencies_sum_past_the_float_range():
    # each row times v is finite, but a 3-slot sum of them is not; and a
    # 2-slot sum at v = 1e308, which frame_objective used to score inf
    for v, latency, below in ((1e307, [[8.5, 9.0]] * 3, [0, 0, 0]),
                              (1e308, [[10.0, 1.0]] * 2, [1, 1])):
        frame = FrameInput(latency, [1.0] * len(latency), 0.0, 0)
        cfg = PolicyConfig(v=v)
        for call in (frame_decide, lambda c, f: brute_force_frame(f, c),
                     lambda c, f: frame_objective(c, f, below)):
            with pytest.raises(ValueError, match=re.escape(
                    "v times the frame's latencies sums past the float "
                    "range; lower v")):
                call(cfg, frame)
        assert frame_decide(replace(cfg, v=1e300), frame) == below
        assert math.isfinite(frame_objective(replace(cfg, v=1e300), frame,
                                             below))


def test_brute_force_frame_guard():
    _, frame = drawn_frame(1.0, 0, seed=1, n_nodes=10, horizon=7, frame_len=7)
    with pytest.raises(ValueError):
        brute_force_frame(frame, PolicyConfig())


def test_a_frame_owns_its_rows():
    # a write into the caller's lists after construction used to reach the
    # frame: frame_decide then moved to the negative entries ([1, 1])
    latency, prices = [[1.0, 2.0], [1.0, 2.0]], [1.0, 1.0]
    frame, cfg = FrameInput(latency, prices, 0.5, 0), PolicyConfig(v=1.0)
    decided = frame_decide(cfg, frame), brute_force_frame(frame, cfg)
    assert decided == ([0, 0], ([0, 0], 2.0))
    latency[0][1] = latency[1][1] = prices[0] = -5.0
    assert (frame_decide(cfg, frame), brute_force_frame(frame, cfg)) == decided
    # the rows are tuples of the validated floats
    frame = FrameInput([[1, 2]], [np.float64(3.0)], 1, 0)
    assert frame.latency == ((1.0, 2.0),) and frame.move_price == (3.0,)
    assert {type(x) for x in (*frame.latency[0], *frame.move_price)} == {float}


@pytest.mark.parametrize("node", [-1, 2, True, 1.5])
def test_frame_objective_rejects_a_placement_that_is_no_node(node):
    # -1 used to wrap to the last node and True to count as node 1
    frame = FrameInput([[1.0, 4.0]], [1.0], 1.0, 0)
    with pytest.raises(ValueError, match="^a placement "):
        frame_objective(PolicyConfig(v=1.0), frame, [node])


def test_frame_objective_takes_a_whole_float_as_its_node():
    # [1.0] used to raise TypeError
    frame, cfg = FrameInput([[1.0, 4.0]], [1.0], 1.0, 0), PolicyConfig(v=1.0)
    assert frame_objective(cfg, frame, [1.0]) == 5.0
    assert frame_objective(cfg, frame, [0]) == 1.0



def test_frame_objective_rejects_a_sequence_of_another_length():
    frame, cfg = FrameInput([[1.0, 4.0]] * 2, [1.0] * 2), PolicyConfig()
    for seq in ([0], [0, 0, 0]):
        with pytest.raises(ValueError,
                           match="^sequence length must match frame length$"):
            frame_objective(cfg, frame, seq)


def test_lazy_migrate_rejects_a_negative_accumulator():
    with pytest.raises(ValueError, match="^accumulator must be >= 0$"):
        lm_decide(-0.5, [1.0, 2.0], 1.0, 0, 1)


def test_the_horizon_oracle_needs_a_slot():
    with pytest.raises(ValueError, match="^need at least one slot$"):
        brute_force_horizon([], [], 0.1, 0)

def reference_brute_force_frame(frame, cfg):
    """brute_force_frame as the loop over every sequence that it was
    before it enumerated them in numpy."""
    best_seq, best = None, math.inf
    for seq in itertools.product(range(len(frame.latency[0])),
                                 repeat=len(frame.latency)):
        c = frame_objective(cfg, frame, seq)
        if c < best:
            best, best_seq = c, list(seq)
    return best_seq, best


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frame_oracle_enumerates_as_the_loop_did(monkeypatch, seed):
    # every instance of verify's two frame suites, the wide ones included
    real, drawn = harness.random_frame_instance, []

    def spy(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(harness, "random_frame_instance", spy)
    verify_frame_oracles(seed, 200)
    verify_frame_oracles(seed + 1, 100)
    assert len(drawn) == 300
    assert sum(len(f.latency[0]) >= PRUNE_MIN_NODES for _, f in drawn) == 30
    for cfg, frame in drawn:
        assert repr(brute_force_frame(frame, cfg)) == repr(
            reference_brute_force_frame(frame, cfg))


# --- benchmarks -------------------------------------------------------------

def test_always_migrate_follows_user():
    scn, table = generate_scenario(seed=12, n_nodes=4, horizon=40)
    rec = simulate(scn, table, "am")
    assert rec.placement.tolist() == table.trace
    rows, _ = make_rows(users=(2,))
    # co-location: no backhaul term in the latency (8 MB at 8 Mbit/s, 4 Gc at 8 GHz)
    assert rows[0][2] == 8.0 * 8 / 8.0 + 4.0 / 8.0


def test_never_migrate():
    scn, table = generate_scenario(seed=12, n_nodes=4, horizon=40)
    assert len(set(table.trace)) > 1
    rec = simulate(scn, table, "nm")
    assert (rec.placement == table.trace[0]).all()


def lm_instance():
    # staying one slot behind the user costs exactly 2 s; a move costs 5
    rows, prices = make_rows(users=(1,), n=2, backhaul=4.0, input_size=1.0,
                             workload=4.0, access_rate=8.0, caps=(4.0, 4.0),
                             container=1000.0, unit_cost=5.0)
    return rows[0], prices[0]


def test_lazy_migrate_hand_trace():
    row, price = lm_instance()
    acc = 0.0
    placements = []
    prev = 0
    for _ in range(3):
        placement, acc = lm_decide(acc, row, price, 1, prev)
        placements.append(placement)
        prev = placement
    # builds 2, 4, then 6 >= 5 triggers the move on the third slot
    assert placements == [0, 0, 1]
    assert acc == 0.0


def test_lazy_migrate_colocated_never_moves():
    row, price = lm_instance()
    acc, prev = 0.0, 1  # already with the user
    for _ in range(10):
        placement, acc = lm_decide(acc, row, price, 1, prev)
        assert placement == 1
        assert acc == 0.0
        prev = placement


def test_lazy_migrate_huge_threshold_never_moves():
    row, price = lm_instance()
    price *= 1e12  # 50 slots behind the user add up to 100 s
    acc, prev = 0.0, 0
    for _ in range(50):
        placement, acc = lm_decide(acc, row, price, 1, prev)
        assert placement == 0
        prev = placement


def plm_instance(next_user=1):
    # remote gap is exactly 1.5 s per slot; a move costs 2.5. The user sits
    # at node 1 now and is predicted at next_user in the next slot.
    rows, prices = make_rows(users=(1, next_user), n=2, backhaul=8.0,
                             input_size=1.5, workload=4.0, access_rate=8.0,
                             caps=(4.0, 4.0), container=500.0, unit_cost=5.0)
    return rows[0], rows[1], prices[0]


def test_predictive_lazy_hand_trace():
    row, nxt, price = plm_instance()
    # two-slot savings 3.0 beats cost 2.5
    assert plm_decide(row, nxt, price, 1, 0) == 1


def test_predictive_lazy_stays_when_user_returns():
    row, nxt, price = plm_instance(next_user=0)  # back at the service
    assert plm_decide(row, nxt, price, 1, 0) == 0


def test_predictive_lazy_huge_weight_acts_like_always_migrate():
    row, nxt, _ = plm_instance()
    price = 1e-12  # far below the two-slot savings of 3.0
    assert plm_decide(row, nxt, price, 1, 0) == 1
    # already co-located: nothing to do
    assert plm_decide(row, nxt, price, 1, 1) == 1


def test_predictive_lazy_last_slot_uses_current_gap():
    row, _, price = plm_instance()
    # one-slot gap 1.5 < cost 2.5: stay
    assert plm_decide(row, None, price, 1, 0) == 0
    # a move cheaper than the one-slot gap is worth it
    assert plm_decide(row, None, 1.0, 1, 0) == 1


# --- horizon oracle ---------------------------------------------------------

def test_horizon_oracle_loose_budget_tracks_user():
    _, trace, rows, prices = drawn(seed=5, n_nodes=3, horizon=5,
                                   homogeneous_capacity=True)
    seq, avg_lat = brute_force_horizon(rows, prices, 10.0, trace[0])
    assert seq == trace
    per_slot_min = [min(row) for row in rows]
    assert avg_lat == pytest.approx(sum(per_slot_min) / len(per_slot_min))


def test_horizon_oracle_zero_budget_freezes_initial():
    _, trace, rows, prices = drawn(seed=6, n_nodes=3, horizon=5)
    seq, avg_lat = brute_force_horizon(rows, prices, 0.0, trace[0])
    assert seq == [trace[0]] * 5
    assert math.isfinite(avg_lat)


def test_horizon_oracle_beats_or_matches_any_feasible_sequence():
    scn, trace, rows, prices = drawn(seed=11, n_nodes=3, horizon=6,
                                     budget_avg=0.1)
    seq, avg_lat = brute_force_horizon(rows, prices, scn.budget_avg, trace[0])
    assert seq is not None
    # spot-check feasibility and optimality against a few fixed sequences
    for cand in ([0] * 6, [1] * 6, trace):
        prev = trace[0]
        cost = lat = 0.0
        for t, i in enumerate(cand):
            lat += rows[t][i]
            cost += prices[t] if i != prev else 0.0
            prev = i
        if cost / 6 <= scn.budget_avg:
            assert avg_lat <= lat / 6 + 1e-12


def reference_brute_force_horizon(latency, move_price, e_avg, initial):
    """brute_force_horizon as the loop over every sequence that it was
    before it enumerated them in numpy."""
    horizon = len(latency)
    budget = e_avg * horizon
    budget_eps = 1e-12 * max(1.0, budget)
    best_seq, best_lat = None, math.inf
    for seq in itertools.product(range(len(latency[0])), repeat=horizon):
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


@st.composite
def horizon_instances(draw):
    """Latency rows and prices on a grid of whole numbers 0-3 or quarters,
    where ties are real, with a budget from -1 (nothing is feasible)."""
    n = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 5 if n < 4 else 4))
    value = (st.integers(0, 3) if draw(st.booleans())
             else st.integers(0, 40)).map(float)
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=horizon, max_size=horizon))
    prices = draw(st.lists(value, min_size=horizon, max_size=horizon))
    e_avg = draw(st.sampled_from((-1.0, 0.0, 0.25, 0.5, 1.0, 2.5)))
    return rows, prices, e_avg, draw(st.integers(0, n - 1))


@settings(max_examples=100, deadline=None)
@given(horizon_instances())
@example(([[1.0, 1.0], [2.0, 2.0]], [0.0, 1.0], 0.0, 1))  # ties, budget 0
@example(([[1.0, 2.0]], [0.5], -0.25, 0))  # nothing feasible: (None, inf)
@example(([[math.inf, 1.0]], [0.5], 0.0, 0))  # no finite feasible latency
def test_horizon_oracle_enumerates_as_the_loop_did(case):
    got = brute_force_horizon(*case)
    assert got == reference_brute_force_horizon(*case)
    assert type(got[1]) is float and all(type(i) is int for i in got[0] or ())


def test_horizon_oracle_guard():
    _, trace, rows, prices = drawn(seed=1, n_nodes=10, horizon=7)
    with pytest.raises(ValueError):
        brute_force_horizon(rows, prices, 0.1, trace[0])
