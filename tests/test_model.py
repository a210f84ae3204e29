import math

import numpy as np
import pytest
from conftest import make_rows, make_scenario, make_table

from edgeplacer.model import Scenario, SlotTable, latency_rows, slot_outcome


def test_latency_colocated():
    # 8 MB over 8 Mbit/s access = 8 s, no backhaul, 4 Gc / 8 GHz = 0.5 s
    rows, _ = make_rows()
    assert rows[0][0] == 8.5


def test_latency_remote_adds_backhaul():
    # 8 MB over a 64 Mbit/s backhaul adds exactly 1 s
    rows, _ = make_rows(backhaul=64.0)
    assert rows[0][1] == 9.5


def test_latency_vanishes_with_workload_and_input():
    rows, _ = make_rows(input_size=1e-9, workload=1e-12)
    assert rows[0][0] < 1e-8
    assert rows[0][1] < 1e-8


def test_latency_rejects_bad_placement():
    rows, prices = make_rows()
    with pytest.raises(ValueError):
        slot_outcome(rows[0], prices[0], 0, 3)
    with pytest.raises(ValueError):
        slot_outcome(rows[0], prices[0], 0, -1)


def test_latency_lower_bound_random():
    # compute time alone bounds the total from below
    rng = np.random.default_rng(0)
    for _ in range(200):
        caps = tuple(rng.uniform(5, 10, 3))
        workload = float(rng.uniform(2, 20))
        rows, _ = make_rows(users=(int(rng.integers(3)),), backhaul=100.0,
                            caps=caps, input_size=float(rng.uniform(5, 10)),
                            workload=workload,
                            access_rate=float(rng.uniform(5, 10)))
        for lat in rows[0]:
            assert lat >= workload / max(caps)
            assert lat > 0 and np.isfinite(lat)


def test_latency_rows_match_scalar_formula():
    # reference: access + backhaul (none on the user's own node) + compute,
    # slot by slot, for realized and substituted (predicted) user nodes
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        horizon = int(rng.integers(1, 6))
        rate = rng.uniform(1.0, 200.0, (n, n))
        scn = Scenario(node_count=n, backhaul_rate=rate, budget_avg=0.1,
                       horizon=horizon, compute_capacity=rng.uniform(5, 10, n))
        table = SlotTable(n, rng.integers(n, size=horizon),
                          *rng.uniform(1.0, 50.0, (5, horizon)))
        start = int(rng.integers(horizon))
        users = [int(u) for u in rng.integers(n, size=horizon - start)]
        rows, prices = latency_rows(scn, table, slice(start, horizon), users)
        assert rows.dtype == prices.dtype == np.float64
        assert rows.shape == (len(users), n) and prices.shape == (len(users),)
        for k, user in enumerate(users):
            t = start + k
            data = float(table.input_size[t]) * 8.0
            access = data / float(table.access_rate[t])
            for i in range(n):
                backhaul = 0.0 if i == user else data / float(rate[user, i])
                compute = float(table.workload[t]) / float(scn.compute_capacity[i])
                assert rows[k, i] == access + backhaul + compute
            assert prices[k] == (float(table.container_size[t]) / 1000.0
                                 * float(table.unit_migration_cost[t]))
        with pytest.raises(ValueError):  # one user more than slots left
            latency_rows(scn, table, slice(start, horizon), users + [0])


def test_latency_rows_reject_nodes_and_slots_outside_the_table():
    scn, table = make_scenario(n=3, horizon=4), make_table(users=(0, 1, 2, 0))
    rows, _ = latency_rows(scn, table, [3, 1], [2, 0])
    assert rows.tolist() == latency_rows(scn, table, slice(None),
                                         [1, 0, 1, 2])[0][[3, 1]].tolist()
    for slots, users in ((slice(0, 1), [-1]), (slice(0, 1), [3]),
                         ([0, 1], [0, -1]), ([2], [3]),
                         ([-1], [0]), ([4], [0]), ([0, 4], [0, 0]),
                         (slice(3, 5), [0, 0]), (slice(-1, None), [0]),
                         (slice(0, 4, 2), [0, 0]), ([0.0], [0]),
                         ([0], [0.0]), ([0], [True]), (0, [0])):
        with pytest.raises(ValueError):
            latency_rows(scn, table, slots, users)


def test_migration_cost_zero_iff_same_node():
    rows, prices = make_rows(container=50.0, unit_cost=2.0)
    for i in range(3):
        assert slot_outcome(rows[0], prices[0], i, i)[1] == 0.0
        for j in range(3):
            if i != j:
                assert slot_outcome(rows[0], prices[0], i, j)[1] > 0.0


def test_migration_cost_values():
    # 50 MB = 0.050 GB at 2 per GB
    assert make_rows(container=50.0, unit_cost=2.0)[1] == [0.1]
    # 25 MB = 0.025 GB at 10 per GB
    assert make_rows(container=25.0, unit_cost=10.0)[1] == [0.25]


def test_migration_cost_symmetric():
    rows, prices = make_rows(container=33.0, unit_cost=7.0)
    assert slot_outcome(rows[0], prices[0], 0, 2)[1] == \
        slot_outcome(rows[0], prices[0], 2, 0)[1]


def test_migration_cost_rejects_bad_indices():
    rows, prices = make_rows()
    with pytest.raises(ValueError):
        slot_outcome(rows[0], prices[0], 5, 0)


def test_slot_outcome():
    rows, prices = make_rows(backhaul=64.0)
    lat, cost = slot_outcome(rows[0], prices[0], 1, 1)
    assert cost == 0.0  # no move, no cost
    assert lat == 9.5
    lat, cost = slot_outcome(rows[0], prices[0], 1, 0)
    assert lat == 8.5 and cost == 0.1
    # pure function: identical inputs, bit-identical outputs
    assert slot_outcome(rows[0], prices[0], 1, 0) == (lat, cost)


def test_slot_outcome_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows, prices = make_rows(users=(int(rng.integers(3)),))
        prev, cur = int(rng.integers(3)), int(rng.integers(3))
        lat, cost = slot_outcome(rows[0], prices[0], prev, cur)
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
                 horizon=5, compute_capacity=(8.0, 8.0))
    with pytest.raises(ValueError):
        Scenario(node_count=2, backhaul_rate=np.ones((3, 3)), budget_avg=0.1,
                 horizon=5, compute_capacity=(8.0, 8.0))
    with pytest.raises(ValueError):
        make_scenario(horizon=0)
    for caps in ((8.0, -1.0, 8.0), (8.0, 0.0, 8.0), (8.0, math.nan, 8.0),
                 (8.0, math.inf, 8.0), (8.0, 8.0)):
        with pytest.raises(ValueError, match="compute_capacity"):
            make_scenario(caps=caps)


def test_observation_validation():
    # every per-slot check happens once, when the table is built
    with pytest.raises(ValueError, match="user_node"):
        make_table(users=(7,))
    with pytest.raises(ValueError, match="user_node"):
        make_table(users=(0, -1))
    with pytest.raises(ValueError, match="input_size"):
        make_table(input_size=0.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="access_rate"):
            make_table(access_rate=bad)
        with pytest.raises(ValueError, match="unit_migration_cost"):
            make_table(unit_cost=bad)
    with pytest.raises(ValueError, match="input_size must have shape"):
        SlotTable(3, [0, 1], [8.0], [4.0, 4.0], [8.0, 8.0], [50.0, 50.0],
                  [2.0, 2.0])
    with pytest.raises(ValueError, match="user_node"):
        SlotTable(3, [[0]], [[8.0]], [[4.0]], [[8.0]], [[50.0]], [[2.0]])
    table = make_table(users=(0, 1, 2))
    assert table.trace == [0, 1, 2] and table[1:].trace == [1, 2]
