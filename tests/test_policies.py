import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_rows

from edgeplacer.harness import (ExperimentConfig, generate_scenario,
                                random_frame_instance, run, simulate)
from edgeplacer.model import latency_rows
from edgeplacer.policies import (FrameInput, PolicyConfig, brute_force_frame,
                                 brute_force_horizon, frame_decide,
                                 frame_objective, lm_decide, plm_decide)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["v", "theta", "beta", "lm_gamma",
                                  "plm_weight"])
def test_policy_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
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
        cfg, frame, _ = random_frame_instance(rng)
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
    best_seq, best_obj = brute_force_frame(frame, scn.budget_avg, cfg)
    assert seq == best_seq
    assert frame_objective(cfg, frame, scn.budget_avg, seq) == best_obj


def test_frame_dp_matches_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        cfg, frame, e_avg = random_frame_instance(rng)
        seq = frame_decide(cfg, frame)
        best_seq, best_obj = brute_force_frame(frame, e_avg, cfg)
        assert seq == best_seq
        obj = frame_objective(cfg, frame, e_avg, seq)
        assert abs(obj - best_obj) <= 1e-9 * max(1.0, abs(best_obj))


def test_weight_anchored_dp_matches_oracle():
    # 3 nodes, 2 slots, anchor 5: exhaustive minimum over 9 sequences
    scn, frame = drawn_frame(5.0, 0, seed=7, n_nodes=3, horizon=2,
                             frame_len=2, budget_avg=0.1)
    cfg = PolicyConfig(v=10.0, theta=20.0)
    seq = frame_decide(cfg, frame)
    best_seq, _ = brute_force_frame(frame, scn.budget_avg, cfg)
    assert seq == best_seq


def test_weight_anchored_dp_accepts_negative_anchor():
    rng = np.random.default_rng(321)
    for _ in range(40):
        cfg, frame, e_avg = random_frame_instance(rng, anchor_low=-20.0,
                                                anchor_high=50.0)
        seq = frame_decide(cfg, frame)
        best_seq, _ = brute_force_frame(frame, e_avg, cfg)
        assert seq == best_seq


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


def test_zero_anchor_frame_is_per_slot_latency_greedy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg, frame, e_avg = random_frame_instance(rng, anchor_low=0.0,
                                                anchor_high=0.0)
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
        best_seq, _ = brute_force_frame(frame, scn.budget_avg, cfg)
        assert best_seq == seq


def test_scale_invariance_of_decisions():
    # scaling v, anchor, latencies, costs, budget and theta together (powers
    # of two, so float scaling is exact) must not move any argmin
    rng = np.random.default_rng(77)
    for c in (2.0, 4.0, 0.5):
        for _ in range(20):
            cfg, frame, e_avg = random_frame_instance(rng)
            seq = frame_decide(cfg, frame)
            scaled_cfg = replace(cfg, v=cfg.v * c, theta=cfg.theta * c)
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
        return [r.placement for r in rec.per_slot]

    assert placements(0.0) == placements(500.0)


def test_all_tie_frame_breaks_to_lowest_indices():
    # v = 0 and a zero anchor price every sequence identically; both solver
    # and oracle must land on the lexicographically smallest one
    scn, frame = drawn_frame(0.0, 2, seed=8, n_nodes=3, horizon=3, frame_len=3)
    cfg = PolicyConfig(v=0.0, theta=30.0)
    seq = frame_decide(cfg, frame)
    best_seq, _ = brute_force_frame(frame, scn.budget_avg, cfg)
    assert seq == best_seq == [0, 0, 0]


def test_brute_force_frame_guard():
    _, frame = drawn_frame(1.0, 0, seed=1, n_nodes=10, horizon=7, frame_len=7)
    with pytest.raises(ValueError):
        brute_force_frame(frame, 0.1, PolicyConfig())


# --- benchmarks -------------------------------------------------------------

def test_always_migrate_follows_user():
    scn, table = generate_scenario(seed=12, n_nodes=4, horizon=40)
    rec = simulate(scn, table, "am")
    assert [r.placement for r in rec.per_slot] == table.trace
    rows, _ = make_rows(users=(2,))
    # co-location: no backhaul term in the latency (8 MB at 8 Mbit/s, 4 Gc at 8 GHz)
    assert rows[0][2] == 8.0 * 8 / 8.0 + 4.0 / 8.0


def test_never_migrate():
    scn, table = generate_scenario(seed=12, n_nodes=4, horizon=40)
    assert len(set(table.trace)) > 1
    rec = simulate(scn, table, "nm")
    assert all(r.placement == table.trace[0] for r in rec.per_slot)


def lm_instance():
    # staying one slot behind the user costs exactly 2 s; a move costs 5
    rows, prices = make_rows(users=(1,), n=2, backhaul=4.0, input_size=1.0,
                             workload=4.0, access_rate=8.0, caps=(4.0, 4.0),
                             container=1000.0, unit_cost=5.0)
    return rows[0], prices[0]


def test_lazy_migrate_hand_trace():
    row, price = lm_instance()
    cfg = PolicyConfig(lm_gamma=1.0)
    acc = 0.0
    placements = []
    prev = 0
    for _ in range(3):
        placement, acc = lm_decide(acc, row, price, 1, prev, cfg)
        placements.append(placement)
        prev = placement
    # builds 2, 4, then 6 >= 5 triggers the move on the third slot
    assert placements == [0, 0, 1]
    assert acc == 0.0


def test_lazy_migrate_colocated_never_moves():
    row, price = lm_instance()
    cfg = PolicyConfig()
    acc, prev = 0.0, 1  # already with the user
    for _ in range(10):
        placement, acc = lm_decide(acc, row, price, 1, prev, cfg)
        assert placement == 1
        assert acc == 0.0
        prev = placement


def test_lazy_migrate_huge_threshold_never_moves():
    row, price = lm_instance()
    cfg = PolicyConfig(lm_gamma=1e12)
    acc, prev = 0.0, 0
    for _ in range(50):
        placement, acc = lm_decide(acc, row, price, 1, prev, cfg)
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
    assert plm_decide(row, nxt, price, 1, 0, PolicyConfig(plm_weight=1.0)) == 1


def test_predictive_lazy_stays_when_user_returns():
    row, nxt, price = plm_instance(next_user=0)  # back at the service
    assert plm_decide(row, nxt, price, 1, 0, PolicyConfig(plm_weight=1.0)) == 0


def test_predictive_lazy_huge_weight_acts_like_always_migrate():
    row, nxt, price = plm_instance()
    cfg = PolicyConfig(plm_weight=1e12)
    assert plm_decide(row, nxt, price, 1, 0, cfg) == 1
    # already co-located: nothing to do
    assert plm_decide(row, nxt, price, 1, 1, cfg) == 1


def test_predictive_lazy_last_slot_uses_current_gap():
    row, _, price = plm_instance()
    # one-slot gap 1.5 < cost 2.5: stay
    assert plm_decide(row, None, price, 1, 0, PolicyConfig(plm_weight=1.0)) == 0
    # with a generous weight the single-slot gap suffices
    assert plm_decide(row, None, price, 1, 0, PolicyConfig(plm_weight=2.0)) == 1


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


def test_horizon_oracle_guard():
    _, trace, rows, prices = drawn(seed=1, n_nodes=10, horizon=7)
    with pytest.raises(ValueError):
        brute_force_horizon(rows, prices, 0.1, trace[0])
