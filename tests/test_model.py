import math

import numpy as np
import pytest
from conftest import make_rows, make_scenario, make_table

from edgeplacer.harness import POLICIES, simulate, synthetic_trace
from edgeplacer.model import Scenario, SlotTable, latency_rows
from edgeplacer.policies import PolicyConfig
from edgeplacer.predict import PredictorSpec

TOO_LARGE = 2 ** 1024  # past the largest float


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


def _run(users, policy, **draws):
    """A run of am (follow the user) or nm (stay put) over make_table's
    slots; both start on the user's first node."""
    return simulate(make_scenario(horizon=len(users)),
                    make_table(users, **draws), policy)


def test_migration_cost_zero_iff_same_node():
    for i in range(3):
        for j in range(3):
            rec = _run((i, j), "am")
            assert rec.cost[0] == 0.0
            assert (rec.cost[1] == 0.0) == (i == j)
            assert (rec.cost[1] > 0.0) == (i != j)
            assert not _run((i, j), "nm").cost.any()


def test_migration_cost_values():
    # 50 MB = 0.050 GB at 2 per GB
    assert make_rows(container=50.0, unit_cost=2.0)[1] == [0.1]
    # 25 MB = 0.025 GB at 10 per GB
    assert make_rows(container=25.0, unit_cost=10.0)[1] == [0.25]


def test_migration_cost_symmetric():
    there = _run((0, 2), "am", container=33.0, unit_cost=7.0)
    back = _run((2, 0), "am", container=33.0, unit_cost=7.0)
    assert there.cost[1] == back.cost[1] > 0.0


def test_slot_outcome():
    # the user moves from node 1 to node 0 after slot 0
    stay = _run((1, 0, 0), "nm")
    assert stay.placement.tolist() == [1, 1, 1]
    assert stay.cost.tolist() == [0.0, 0.0, 0.0]  # no move, no cost
    assert stay.latency.tolist() == [8.5, 9.5, 9.5]
    move = _run((1, 0, 0), "am")
    assert move.placement.tolist() == [1, 0, 0]
    assert move.cost.tolist() == [0.0, 0.1, 0.0]
    assert move.latency.tolist() == [8.5, 8.5, 8.5]
    # identical inputs, bit-identical outputs
    assert _run((1, 0, 0), "am").per_slot == move.per_slot


def test_slot_outcome_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        users = tuple(int(u) for u in rng.integers(3, size=4))
        rec = _run(users, ("am", "nm")[int(rng.integers(2))])
        assert (rec.latency >= 0).all() and (rec.cost >= 0).all()


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
    for budget in ("0.1", True):  # rejected, not converted
        with pytest.raises(ValueError, match="budget_avg must be a number"):
            make_scenario(budget=budget)
    # the integer fields: a boolean, a string or a fraction is rejected, a
    # whole float is kept as an int
    fields = dict(node_count=2, backhaul_rate=np.ones((2, 2)), budget_avg=0.1,
                  horizon=5, compute_capacity=(8.0, 8.0))
    for name, bad, kind in (
            ("frame_len", 2.5, "a whole number"), ("horizon", "30", "a number"),
            ("node_count", True, "a number"), ("node_count", None, "a number"),
            ("horizon", math.inf, "a whole number"),
            ("frame_len", math.nan, "a whole number")):
        with pytest.raises(ValueError, match=f"{name} must be {kind}, got"):
            Scenario(**{**fields, name: bad})
    whole = make_scenario(horizon=10.0, frame_len=np.int64(2))
    assert (whole.horizon, whole.frame_len) == (10, 2)
    assert type(whole.horizon) is type(whole.frame_len) is int
    for caps in ((8.0, -1.0, 8.0), (8.0, 0.0, 8.0), (8.0, math.nan, 8.0),
                 (8.0, math.inf, 8.0), (8.0, 8.0), (8.0, 10 ** 400, 8.0),
                 (8.0, True, 8.0), (8.0, "8", 8.0), (8.0, None, 8.0)):
        with pytest.raises(ValueError, match="compute_capacity"):
            make_scenario(caps=caps)
    # a backhaul entry that is no number is named, not an OverflowError or
    # TypeError from numpy, and is rejected on the diagonal too
    for at in ((0, 1), (1, 1)):
        for bad in (10 ** 400, True, "1", {"a": 1}):
            rate = [[1.0, 1.0], [1.0, 1.0]]
            rate[at[0]][at[1]] = bad
            with pytest.raises(ValueError, match="^backhaul_rate "):
                Scenario(**{**fields, "backhaul_rate": rate})


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
    # an entry that is no number is named, not an OverflowError or a
    # TypeError, and a string or a boolean is not converted
    for bad in (10 ** 400, {"a": 1}, "1", True, None, [1.0]):
        with pytest.raises(ValueError, match="^input_size "):
            SlotTable(3, [0], [bad], [1.0], [1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="^unit_migration_cost "):
            SlotTable(3, [0], [1.0], [1.0], [1.0], [1.0], np.array([bad]))
    # 2**70 is a float, and a numpy column of any real dtype converts
    table = SlotTable(3, [0, 1], [2 ** 70, 1], np.float32([1.0, 2.0]),
                      np.uint8([4, 4]), (8, 8.0), np.array([2, 3]))
    assert table.input_size.tolist() == [2.0 ** 70, 1.0]
    assert all(getattr(table, name).dtype == float for name in (
        "input_size", "workload", "access_rate", "container_size",
        "unit_migration_cost"))
    table = make_table(users=(0, 1, 2))
    assert table.trace == [0, 1, 2] and table[1:].trace == [1, 2]


def test_a_validated_object_keeps_no_array_its_caller_holds():
    # writing -1.0 into the caller's arrays after construction leaves the
    # table and the scenario as they were validated; their own arrays are
    # read-only, and trace is a new list on each read
    users = np.array([0, 1, 2])
    columns = [np.full(3, value) for value in (8.0, 4.0, 8.0, 50.0, 2.0)]
    table = SlotTable(3, users, *columns)
    rate, caps = np.full((3, 3), 64.0), np.array([8.0, 9.0, 10.0])
    scn = Scenario(node_count=3, backhaul_rate=rate, budget_avg=0.1,
                   horizon=3, compute_capacity=caps)
    for array in (*columns, rate, caps):
        array[:] = -1.0
    users[:] = 0
    assert table.workload.tolist() == [4.0] * 3
    assert [getattr(table, name)[0] for name in (
        "input_size", "access_rate", "container_size",
        "unit_migration_cost")] == [8.0, 8.0, 50.0, 2.0]
    assert table.user_node.tolist() == [0, 1, 2]
    assert scn.compute_capacity.tolist() == [8.0, 9.0, 10.0]
    assert scn.backhaul_rate[0, 1] == 64.0
    for array in (table.user_node, table.workload, table[1:].workload,
                  scn.compute_capacity, scn.backhaul_rate):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    trace = table.trace
    trace[0] = 2
    assert table.trace == [0, 1, 2] and table.trace is not table.trace


@pytest.mark.parametrize("users", [
    [0.5, 1.7, 2.9], ["1", "0", "2"], [True, False, True]])
def test_slot_table_rejects_user_nodes_that_are_no_integers(users):
    # rejected, not truncated or converted, as latency_rows and the
    # predictors reject them
    with pytest.raises(ValueError, match="user_node"):
        make_table(users=users)


def test_a_latency_that_is_not_finite_names_its_slot_not_v():
    scn = make_scenario(horizon=3, frame_len=3)
    table = SlotTable(3, [0, 1, 2], [8.0, 1e308, 8.0], [4.0] * 3, [8.0] * 3,
                      [50.0] * 3, [2.0] * 3)
    with pytest.raises(ValueError, match="^slot 1: .*input_size 1e[+]308"
                       ) as err:
        simulate(scn, table, "psp")
    assert "policy.v" not in str(err.value)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_move_price_past_the_float_range_names_its_slot_not_v(policy):
    # prices near 1e306 over 400 slots: am's backlog and the frame
    # policies' latency fsum used to overflow, while nm, lm and plm ran on
    unit_cost = [10.0] * 400
    unit_cost[7] = 20.0
    table = SlotTable(3, [t % 3 for t in range(400)], [8.0] * 400,
                      [4.0] * 400, [8.0] * 400, [1e308] * 400, unit_cost)
    with pytest.raises(ValueError, match="^slot 7: move price 2e[+]306, of "
                       "container_size 1e[+]308 and unit_migration_cost 20,"
                       ) as err:
        simulate(make_scenario(horizon=400, frame_len=3), table, policy)
    assert "policy.v" not in str(err.value)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: PolicyConfig(v=TOO_LARGE), "v", id="PolicyConfig"),
    pytest.param(lambda: make_scenario(budget=TOO_LARGE), "budget_avg",
                 id="Scenario"),
    pytest.param(lambda: PredictorSpec(accuracies=(0.9, TOO_LARGE)),
                 "accuracy", id="PredictorSpec"),
    pytest.param(lambda: synthetic_trace(0, 6, 10, TOO_LARGE), "stickiness",
                 id="synthetic_trace"),
])
def test_a_setting_too_large_for_a_float_is_a_value_error(build, name):
    # not an OverflowError, which is no ValueError
    with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
        build()
