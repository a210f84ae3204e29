import math

import numpy as np
import pytest
from conftest import make_obs, make_scenario

from edgeplacer.model import (Scenario, migration_cost, service_latency,
                              slot_outcome)


def test_latency_colocated():
    # 8 MB over 8 Mbit/s access = 8 s, no backhaul, 4 Gc / 8 GHz = 0.5 s
    scn = make_scenario()
    obs = make_obs()
    assert service_latency(scn, obs, 0) == 8.5


def test_latency_remote_adds_backhaul():
    # 8 MB over a 64 Mbit/s backhaul adds exactly 1 s
    scn = make_scenario(backhaul=64.0)
    obs = make_obs()
    assert service_latency(scn, obs, 1) == 9.5


def test_latency_vanishes_with_workload_and_input():
    scn = make_scenario()
    obs = make_obs(input_size=1e-9, workload=1e-12)
    assert service_latency(scn, obs, 0) < 1e-8
    assert service_latency(scn, obs, 1) < 1e-8


def test_latency_rejects_bad_placement():
    scn = make_scenario()
    obs = make_obs()
    with pytest.raises(ValueError):
        service_latency(scn, obs, 3)
    with pytest.raises(ValueError):
        service_latency(scn, obs, -1)


def test_latency_lower_bound_random():
    # compute time alone bounds the total from below
    rng = np.random.default_rng(0)
    scn = make_scenario(backhaul=100.0)
    for _ in range(200):
        obs = make_obs(user_node=int(rng.integers(3)),
                       input_size=float(rng.uniform(5, 10)),
                       workload=float(rng.uniform(2, 20)),
                       access_rate=float(rng.uniform(5, 10)),
                       caps=tuple(rng.uniform(5, 10, 3)))
        for i in range(3):
            lat = service_latency(scn, obs, i)
            assert lat >= obs.workload / max(obs.compute_capacity)
            assert lat > 0 and np.isfinite(lat)


def test_migration_cost_zero_iff_same_node():
    obs = make_obs(container=50.0, unit_cost=2.0)
    for i in range(3):
        assert migration_cost(obs, i, i) == 0.0
        for j in range(3):
            if i != j:
                assert migration_cost(obs, i, j) > 0.0


def test_migration_cost_values():
    # 50 MB = 0.050 GB at 2 per GB
    assert migration_cost(make_obs(container=50.0, unit_cost=2.0), 0, 1) == 0.1
    # 25 MB = 0.025 GB at 10 per GB
    assert migration_cost(make_obs(container=25.0, unit_cost=10.0), 0, 2) == 0.25


def test_migration_cost_symmetric():
    obs = make_obs(container=33.0, unit_cost=7.0)
    assert migration_cost(obs, 0, 2) == migration_cost(obs, 2, 0)


def test_migration_cost_rejects_bad_indices():
    obs = make_obs()
    with pytest.raises(ValueError):
        migration_cost(obs, 0, 5)


def test_slot_outcome():
    scn = make_scenario(backhaul=64.0)
    obs = make_obs()
    lat, cost = slot_outcome(scn, obs, 1, 1)
    assert cost == 0.0  # no move, no cost
    assert lat == 9.5
    lat, cost = slot_outcome(scn, obs, 1, 0)
    assert lat == 8.5 and cost == 0.1
    # pure function: identical inputs, bit-identical outputs
    assert slot_outcome(scn, obs, 1, 0) == (lat, cost)


def test_slot_outcome_nonnegative_random():
    rng = np.random.default_rng(3)
    scn = make_scenario()
    for _ in range(100):
        obs = make_obs(user_node=int(rng.integers(3)))
        prev, cur = int(rng.integers(3)), int(rng.integers(3))
        lat, cost = slot_outcome(scn, obs, prev, cur)
        assert lat >= 0 and cost >= 0


@pytest.mark.parametrize("budget, backhaul", [
    (math.nan, 64.0), (math.inf, 64.0), (0.1, math.inf), (0.1, math.nan),
])
def test_scenario_rejects_non_finite(budget, backhaul):
    with pytest.raises(ValueError):
        make_scenario(budget=budget, backhaul=backhaul)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(budget=-1.0)
    with pytest.raises(ValueError):
        Scenario(node_count=2, backhaul_rate=np.zeros((2, 2)), budget_avg=0.1,
                 horizon=5)
    with pytest.raises(ValueError):
        Scenario(node_count=2, backhaul_rate=np.ones((3, 3)), budget_avg=0.1,
                 horizon=5)
    with pytest.raises(ValueError):
        make_scenario(horizon=0)


def test_observation_validation():
    with pytest.raises(ValueError):
        make_obs(user_node=7)
    with pytest.raises(ValueError):
        make_obs(input_size=0.0)
    with pytest.raises(ValueError):
        make_obs(caps=(8.0, -1.0, 8.0))
