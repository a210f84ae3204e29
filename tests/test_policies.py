import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_obs, make_scenario

from edgeplacer.harness import generate_scenario, random_frame_instance
from edgeplacer.model import migration_cost, service_latency
from edgeplacer.policies import (FrameInput, PolicyConfig, am_decide,
                                 brute_force_frame, brute_force_horizon,
                                 frame_objective, lm_decide, nm_decide,
                                 osp_decide, plm_decide, psp_frame_decide,
                                 pspwu_frame_decide)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["v", "theta", "beta", "lm_gamma",
                                  "plm_weight"])
def test_policy_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        PolicyConfig(**{name: value})


def osp_instance():
    # latencies per node work out to [5, 3, 4]; any move costs exactly 1
    scn = make_scenario(n=3, backhaul=8.0)
    obs = make_obs(input_size=1.0, workload=8.0, access_rate=8.0,
                   caps=(2.0, 8.0, 4.0), container=500.0, unit_cost=2.0)
    return scn, obs


def test_osp_enumerates_and_breaks_ties_low():
    scn, obs = osp_instance()
    assert [service_latency(scn, obs, i) for i in range(3)] == [5.0, 3.0, 4.0]
    # v=1, q=2: scores [5, 5, 6]; nodes 0 and 1 tie, lowest index wins
    assert osp_decide(PolicyConfig(v=1.0), 2.0, obs, 0, scn) == 0


def test_osp_zero_queue_is_latency_greedy():
    scn, obs = osp_instance()
    assert osp_decide(PolicyConfig(v=1.0), 0.0, obs, 0, scn) == 1


def test_osp_zero_v_stays_put():
    scn, obs = osp_instance()
    for prev in range(3):
        assert osp_decide(PolicyConfig(v=0.0), 5.0, obs, prev, scn) == prev


def test_osp_matches_explicit_score_minimum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        cfg, frame, scn = random_frame_instance(rng)
        obs = frame.slots[0]
        q = frame.q_anchor
        prev = frame.prev_placement
        got = osp_decide(cfg, q, obs, prev, scn)
        scores = [cfg.v * service_latency(scn, obs, i)
                  + q * migration_cost(obs, prev, i)
                  for i in range(scn.node_count)]
        assert scores[got] == min(scores)
        assert got == scores.index(min(scores))


def test_osp_rejects_negative_queue():
    scn, obs = osp_instance()
    with pytest.raises(ValueError):
        osp_decide(PolicyConfig(), -1.0, obs, 0, scn)


# --- frame policies ---------------------------------------------------------

def test_frame_dp_matches_oracle_fixed_instance():
    # 4 nodes, 3 slots: exhaustive minimum over 64 sequences
    scn, observations = generate_scenario(seed=42, n_nodes=4, horizon=3,
                                          frame_len=3, budget_avg=0.1)
    cfg = PolicyConfig(v=10.0, theta=50.0)
    frame = FrameInput(slots=observations, q_anchor=7.0,
                       prev_placement=2)
    seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
    best_seq, best_obj = brute_force_frame(frame, scn, scn.budget_avg, cfg)
    assert seq == best_seq
    assert frame_objective(cfg, frame, scn, scn.budget_avg, seq) == best_obj


def test_frame_dp_matches_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        cfg, frame, scn = random_frame_instance(rng)
        seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
        best_seq, best_obj = brute_force_frame(frame, scn, scn.budget_avg, cfg)
        assert seq == best_seq
        obj = frame_objective(cfg, frame, scn, scn.budget_avg, seq)
        assert abs(obj - best_obj) <= 1e-9 * max(1.0, abs(best_obj))


def test_weight_anchored_dp_matches_oracle():
    # 3 nodes, 2 slots, anchor 5: exhaustive minimum over 9 sequences
    scn, observations = generate_scenario(seed=7, n_nodes=3, horizon=2,
                                          frame_len=2, budget_avg=0.1)
    cfg = PolicyConfig(v=10.0, theta=20.0)
    frame = FrameInput(slots=observations, q_anchor=5.0,
                       prev_placement=0)
    seq = pspwu_frame_decide(cfg, frame, scn, scn.budget_avg)
    best_seq, _ = brute_force_frame(frame, scn, scn.budget_avg, cfg)
    assert seq == best_seq


def test_weight_anchored_dp_accepts_negative_anchor():
    rng = np.random.default_rng(321)
    for _ in range(40):
        cfg, frame, scn = random_frame_instance(rng, anchor_low=-20.0,
                                                anchor_high=50.0)
        seq = pspwu_frame_decide(cfg, frame, scn, scn.budget_avg)
        best_seq, _ = brute_force_frame(frame, scn, scn.budget_avg, cfg)
        assert seq == best_seq
    scn, observations = generate_scenario(seed=1, n_nodes=2, horizon=2,
                                          frame_len=2)
    frame = FrameInput(observations, q_anchor=-3.0, prev_placement=0)
    with pytest.raises(ValueError):
        psp_frame_decide(PolicyConfig(), frame, scn, 0.1)


def test_single_slot_frame_equals_reactive_rule():
    rng = np.random.default_rng(9)
    for _ in range(50):
        scn, observations = generate_scenario(
            seed=int(rng.integers(2 ** 31)), n_nodes=int(rng.integers(2, 6)),
            horizon=1, frame_len=1)
        cfg = PolicyConfig(v=float(rng.uniform(0, 50)),
                           theta=float(rng.uniform(0, 50)))
        q = float(rng.uniform(0, 30))
        prev = int(rng.integers(scn.node_count))
        frame = FrameInput(observations, q, prev)
        seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
        assert seq == [osp_decide(cfg, q, observations[0], prev, scn)]


def test_zero_anchor_frame_is_per_slot_latency_greedy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg, frame, scn = random_frame_instance(rng, anchor_low=0.0,
                                                anchor_high=0.0)
        seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
        for p, obs in enumerate(frame.slots):
            lats = [service_latency(scn, obs, i) for i in range(scn.node_count)]
            assert lats[seq[p]] == min(lats)


def test_migration_strictly_dominated_stays_put():
    # v = 0 with a positive anchor: latency is irrelevant, every move costs
    scn, observations = generate_scenario(seed=3, n_nodes=2, horizon=2,
                                          frame_len=2, budget_avg=0.05)
    cfg = PolicyConfig(v=0.0)
    for prev in (0, 1):
        frame = FrameInput(observations, q_anchor=4.0, prev_placement=prev)
        seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
        assert seq == [prev, prev]
        best_seq, _ = brute_force_frame(frame, scn, scn.budget_avg, cfg)
        assert best_seq == seq


def test_scale_invariance_of_decisions():
    # scaling v, anchor, latencies, costs, budget and theta together (powers
    # of two, so float scaling is exact) must not move any argmin
    rng = np.random.default_rng(77)
    for c in (2.0, 4.0, 0.5):
        for _ in range(20):
            cfg, frame, scn = random_frame_instance(rng)
            seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
            scaled_cfg = replace(cfg, v=cfg.v * c, theta=cfg.theta * c)
            scaled_slots = [replace(o, input_size=o.input_size * c,
                                    workload=o.workload * c,
                                    unit_migration_cost=o.unit_migration_cost * c)
                            for o in frame.slots]
            scaled_frame = FrameInput(scaled_slots,
                                      frame.q_anchor * c, frame.prev_placement)
            scaled = psp_frame_decide(scaled_cfg, scaled_frame, scn,
                                      scn.budget_avg * c)
            assert scaled == seq

            obs = frame.slots[0]
            a = osp_decide(cfg, frame.q_anchor, obs, frame.prev_placement, scn)
            b = osp_decide(scaled_cfg, frame.q_anchor * c, scaled_slots[0],
                           frame.prev_placement, scn)
            assert a == b


def test_all_tie_frame_breaks_to_lowest_indices():
    # v = 0 and a zero anchor price every sequence identically; both solver
    # and oracle must land on the lexicographically smallest one
    scn, observations = generate_scenario(seed=8, n_nodes=3, horizon=3,
                                          frame_len=3)
    cfg = PolicyConfig(v=0.0, theta=30.0)
    frame = FrameInput(observations, q_anchor=0.0, prev_placement=2)
    seq = psp_frame_decide(cfg, frame, scn, scn.budget_avg)
    best_seq, _ = brute_force_frame(frame, scn, scn.budget_avg, cfg)
    assert seq == best_seq == [0, 0, 0]


def test_brute_force_frame_guard():
    scn, observations = generate_scenario(seed=1, n_nodes=10, horizon=7,
                                          frame_len=7)
    frame = FrameInput(observations, 1.0, 0)
    with pytest.raises(ValueError):
        brute_force_frame(frame, scn, 0.1, PolicyConfig())


# --- benchmarks -------------------------------------------------------------

def test_always_migrate_follows_user():
    assert am_decide(make_obs(user_node=2)) == 2
    assert am_decide(make_obs(user_node=0)) == 0
    scn = make_scenario()
    obs = make_obs(user_node=2)
    # co-location: no backhaul term in the latency
    assert service_latency(scn, obs, am_decide(obs)) == \
        obs.input_size * 8 / obs.access_rate + obs.workload / obs.compute_capacity[2]


def test_never_migrate():
    assert nm_decide(1) == 1
    assert all(nm_decide(1) == 1 for _ in range(5))


def lm_instance():
    # staying one slot behind the user costs exactly 2 s; a move costs 5
    scn = make_scenario(n=2, backhaul=4.0)
    obs = make_obs(user_node=1, input_size=1.0, workload=4.0, access_rate=8.0,
                   caps=(4.0, 4.0), container=1000.0, unit_cost=5.0)
    return scn, obs


def test_lazy_migrate_hand_trace():
    scn, obs = lm_instance()
    cfg = PolicyConfig(lm_gamma=1.0)
    acc = 0.0
    placements = []
    prev = 0
    for _ in range(3):
        placement, acc = lm_decide(acc, obs, prev, scn, cfg)
        placements.append(placement)
        prev = placement
    # builds 2, 4, then 6 >= 5 triggers the move on the third slot
    assert placements == [0, 0, 1]
    assert acc == 0.0


def test_lazy_migrate_colocated_never_moves():
    scn, obs = lm_instance()
    cfg = PolicyConfig()
    acc, prev = 0.0, 1  # already with the user
    for _ in range(10):
        placement, acc = lm_decide(acc, obs, prev, scn, cfg)
        assert placement == 1
        assert acc == 0.0
        prev = placement


def test_lazy_migrate_huge_threshold_never_moves():
    scn, obs = lm_instance()
    cfg = PolicyConfig(lm_gamma=1e12)
    acc, prev = 0.0, 0
    for _ in range(50):
        placement, acc = lm_decide(acc, obs, prev, scn, cfg)
        assert placement == 0
        prev = placement


def plm_instance():
    # remote gap is exactly 1.5 s per slot; a move costs 2.5
    scn = make_scenario(n=2, backhaul=8.0)
    obs = make_obs(user_node=1, input_size=1.5, workload=4.0, access_rate=8.0,
                   caps=(4.0, 4.0), container=500.0, unit_cost=5.0)
    return scn, obs


def test_predictive_lazy_hand_trace():
    scn, obs = plm_instance()
    nxt = replace(obs, slot=1)  # user predicted to stay at node 1
    # two-slot savings 3.0 beats cost 2.5
    assert plm_decide(obs, nxt, 0, scn, PolicyConfig(plm_weight=1.0)) == 1


def test_predictive_lazy_stays_when_user_returns():
    scn, obs = plm_instance()
    nxt = replace(obs, slot=1, user_node=0)  # predicted back at the service
    assert plm_decide(obs, nxt, 0, scn, PolicyConfig(plm_weight=1.0)) == 0


def test_predictive_lazy_huge_weight_acts_like_always_migrate():
    scn, obs = plm_instance()
    nxt = replace(obs, slot=1)
    assert plm_decide(obs, nxt, 0, scn, PolicyConfig(plm_weight=1e12)) == 1
    # already co-located: nothing to do
    assert plm_decide(obs, nxt, 1, scn, PolicyConfig(plm_weight=1e12)) == 1


def test_predictive_lazy_last_slot_uses_current_gap():
    scn, obs = plm_instance()
    # one-slot gap 1.5 < cost 2.5: stay
    assert plm_decide(obs, None, 0, scn, PolicyConfig(plm_weight=1.0)) == 0
    # with a generous weight the single-slot gap suffices
    assert plm_decide(obs, None, 0, scn, PolicyConfig(plm_weight=2.0)) == 1


# --- horizon oracle ---------------------------------------------------------

def test_horizon_oracle_loose_budget_tracks_user():
    scn, observations = generate_scenario(seed=5, n_nodes=3, horizon=5,
                                          homogeneous_capacity=True)
    seq, avg_lat = brute_force_horizon(scn, observations, e_avg=10.0)
    assert seq == [o.user_node for o in observations]
    per_slot_min = [min(service_latency(scn, o, i) for i in range(3))
                    for o in observations]
    assert avg_lat == pytest.approx(sum(per_slot_min) / len(per_slot_min))


def test_horizon_oracle_zero_budget_freezes_initial():
    scn, observations = generate_scenario(seed=6, n_nodes=3, horizon=5)
    seq, avg_lat = brute_force_horizon(scn, observations, e_avg=0.0)
    start = observations[0].user_node
    assert seq == [start] * 5
    assert math.isfinite(avg_lat)


def test_horizon_oracle_beats_or_matches_any_feasible_sequence():
    scn, observations = generate_scenario(seed=11, n_nodes=3, horizon=6,
                                          budget_avg=0.1)
    seq, avg_lat = brute_force_horizon(scn, observations, scn.budget_avg)
    assert seq is not None
    # spot-check feasibility and optimality against a few fixed sequences
    for cand in ([0] * 6, [1] * 6, [o.user_node for o in observations]):
        prev = observations[0].user_node
        cost = lat = 0.0
        for t, i in enumerate(cand):
            lat += service_latency(scn, observations[t], i)
            cost += migration_cost(observations[t], prev, i)
            prev = i
        if cost / 6 <= scn.budget_avg:
            assert avg_lat <= lat / 6 + 1e-12


def test_horizon_oracle_guard():
    scn, observations = generate_scenario(seed=1, n_nodes=10, horizon=7)
    with pytest.raises(ValueError):
        brute_force_horizon(scn, observations, 0.1)
