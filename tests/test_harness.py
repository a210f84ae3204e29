import copy
import dataclasses
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (make_scenario, reference_advance, reference_predict,
                      reference_simulate, reference_synthetic_trace,
                      slow_link_pair)

from edgeplacer import cli, harness, policies
from edgeplacer.harness import (POLICIES, ConfigError, ExperimentConfig,
                                InvariantError, RunRecord, TraceFormatError,
                                apply_overrides, bound_constant_B,
                                config_from_dict, generate_scenario,
                                max_slot_migration_cost, read_trace_csv, run,
                                simulate, sweep, synthetic_trace,
                                verify_frame_oracles, verify_horizon_bound,
                                write_trace_csv)
from edgeplacer.model import latency_rows
from edgeplacer.policies import (PRUNE_MIN_NODES, FrameInput, PolicyConfig,
                                 frame_decide, plm_decide)
from edgeplacer.predict import PREDICTOR_KINDS, PredictorSpec, predict_epochs


COLUMNS = ("user_node", "input_size", "workload", "access_rate",
           "container_size", "unit_migration_cost")


def test_generate_scenario_ranges_and_determinism():
    scn, table = generate_scenario(seed=4, n_nodes=6, horizon=300)
    assert scn.node_count == 6 and len(table.trace) == 300
    for name, low, high in (("input_size", 5.0, 10.0), ("workload", 2.0, 20.0),
                            ("access_rate", 5.0, 10.0),
                            ("container_size", 25.0, 50.0),
                            ("unit_migration_cost", 2.0, 10.0),
                            ("user_node", 0, 5)):
        column = getattr(table, name)
        assert column.shape == (300,)
        assert low <= column.min() and column.max() <= high
    assert ((5.0 <= scn.compute_capacity) & (scn.compute_capacity <= 10.0)).all()
    _, same = generate_scenario(seed=4, n_nodes=6, horizon=300)
    _, other = generate_scenario(seed=5, n_nodes=6, horizon=300)
    for name in COLUMNS:
        assert np.array_equal(getattr(table, name), getattr(same, name))
    assert not np.array_equal(table.workload, other.workload)


def test_generate_scenario_draws_match_scalar_draws():
    # one vectorized draw equals the per-slot scalar draws, in slot order
    for seed in range(20):
        _, table = generate_scenario(seed=seed, n_nodes=3, horizon=40)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        rng.uniform(5.0, 10.0, 3)  # capacities come first
        for t in range(40):
            assert table.input_size[t] == rng.uniform(5.0, 10.0)
            assert table.workload[t] == rng.uniform(2.0, 20.0)
            assert table.access_rate[t] == rng.uniform(5.0, 10.0)
            assert table.container_size[t] == rng.uniform(25.0, 50.0)
            assert table.unit_migration_cost[t] == rng.uniform(2.0, 10.0)


def test_generate_scenario_capacity_modes():
    scn, _ = generate_scenario(seed=1, n_nodes=4, horizon=5,
                               homogeneous_capacity=True)
    assert len(set(scn.compute_capacity)) == 1
    scn, _ = generate_scenario(seed=1, n_nodes=4, horizon=5)
    assert len(set(scn.compute_capacity)) > 1
    assert scn.compute_capacity.shape == (4,)


def test_generate_scenario_takes_a_boolean_capacity_mode_only():
    # ExperimentConfig's rule: "no" is truthy and used to draw one capacity
    # for every node
    for value in ("no", 1, None, np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(
                f"homogeneous_capacity must be true or false, got {value!r}")):
            generate_scenario(0, 3, 5, homogeneous_capacity=value)


def test_generate_scenario_takes_one_backhaul_rate():
    scn, _ = generate_scenario(seed=1, n_nodes=3, horizon=5, backhaul_mbps=64)
    assert (scn.backhaul_rate[~np.eye(3, dtype=bool)] == 64.0).all()
    # a matrix would broadcast into the links unchecked
    with pytest.raises(ValueError, match="backhaul_mbps must be a number"):
        generate_scenario(seed=1, n_nodes=2, horizon=5,
                          backhaul_mbps=[[1, 1], [1, 1]])


def test_synthetic_trace_endpoints():
    assert len(set(synthetic_trace(3, 5, 200, stickiness=1.0))) == 1
    moved = synthetic_trace(3, 2, 200, stickiness=0.0)
    assert all(a != b for a, b in zip(moved[:-1], moved[1:]))
    with pytest.raises(ValueError):
        synthetic_trace(3, 2, 10, stickiness=1.5)
    # an integral float is the whole number it stands for, as in Scenario
    assert synthetic_trace(3.0, 6.0, 10.0) == synthetic_trace(3, 6, 10)


@pytest.mark.parametrize("draw, seed", ((synthetic_trace, -1),
                                        (generate_scenario, -3)))
def test_a_negative_seed_is_rejected_by_name(draw, seed):
    # numpy's own error names no setting
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be >= 0, got {seed}")):
        draw(seed, 6, 10)


def test_generate_scenario_checks_its_integer_arguments():
    # a whole float is the whole number it stands for, as in Scenario; it
    # used to raise TypeError from np.full
    scn, table = generate_scenario(0, 2.0, np.float64(5.0))
    want_scn, want = generate_scenario(0, 2, 5)
    assert (scn.node_count, scn.horizon) == (2, 5)
    assert np.array_equal(scn.compute_capacity, want_scn.compute_capacity)
    assert np.array_equal(table.workload, want.workload)
    # a fraction, a boolean, a trace that is no sequence and a backhaul
    # matrix past MAX_MATRIX_ENTRIES are rejected before anything is drawn
    for args in ((0, 2.5, 5), (0, 3, True), (0, 3, 5, 1, 0.1, 100.0, 5),
                 (0, 3, 5, 1, 0.1, 100.0, "012"), (0, 10 ** 5, 5),
                 (0, 2 ** 70, 5)):
        with pytest.raises(ValueError):
            generate_scenario(*args)


def test_synthetic_trace_stay_rate():
    trace = synthetic_trace(11, 6, 10_000, stickiness=0.7)
    stays = sum(a == b for a, b in zip(trace[:-1], trace[1:]))
    assert abs(stays / (len(trace) - 1) - 0.7) < 0.02


@pytest.mark.parametrize("n", [1, 2, 3, 6, 50])
def test_synthetic_trace_replays_the_per_slot_loop(n):
    # n == 2 jumps without a draw and n == 1 draws nothing at all
    for seed in [*range(20), 2 ** 64 + 3, 2 ** 1024 + 5]:
        for stickiness in (0.0, 0.7, 1.0):
            for length in (1, 2, 3000):
                assert synthetic_trace(seed, n, length, stickiness) == (
                    reference_synthetic_trace(seed, n, length, stickiness))


def spy_on_fallback(monkeypatch):
    calls = []
    real = harness._drawn_trace

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_drawn_trace", counted)
    return calls


def test_synthetic_trace_falls_back_past_32_bit_draws(monkeypatch):
    # integers(k) for k > 2**32 is Lemire's method on a whole 64-bit output;
    # with 2**31 + 1 replacement regions a 32-bit draw is rejected about
    # half the time
    calls = spy_on_fallback(monkeypatch)
    for n in (2 ** 32 + 2, 2 ** 31 + 2):
        assert synthetic_trace(4, n, 50, 0.3) == reference_synthetic_trace(
            4, n, 50, 0.3)
    assert [args[1] for args in calls] == [2 ** 32 + 2, 2 ** 31 + 2]


@pytest.mark.parametrize("first", [0, 1])
def test_synthetic_trace_falls_back_on_a_lemire_rejection(monkeypatch, first):
    # a zero low half is rejected by integers(6) and integers(5), whose
    # thresholds (2**32 - k) % k are 4 and 1; zeroing every low half from
    # output first on rejects the first draw, or the first jump that takes
    # a fresh output. The fallback's own generator calls are not stubbed.
    want = reference_synthetic_trace(7, 6, 300)
    real = np.random.default_rng

    class LowHalvesZeroed:
        def __init__(self, seed):
            self.rng = real(seed)
            self.random, self.integers = self.rng.random, self.rng.integers
            self.bit_generator = self

        def random_raw(self, size):
            raw = self.rng.bit_generator.random_raw(size)
            raw[first:] &= np.uint64(0xFFFFFFFF) << np.uint64(32)
            return raw

    calls = spy_on_fallback(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", LowHalvesZeroed)
    assert synthetic_trace(7, 6, 300) == want
    assert len(calls) == 1


def test_synthetic_trace_makes_no_per_slot_generator_call(monkeypatch):
    # the paper's setting: 6 regions, 1400 slots
    want = [reference_synthetic_trace(seed, 6, 1400) for seed in range(5)]
    real = np.random.default_rng

    class RawOnly:
        def __init__(self, seed):
            self.bit_generator = real(seed).bit_generator

        def random(self, *args, **kwargs):
            raise AssertionError("a per-slot generator call")

        integers = random

    monkeypatch.setattr(np.random, "default_rng", RawOnly)
    assert [synthetic_trace(seed, 6, 1400) for seed in range(5)] == want


@pytest.mark.parametrize("args", [
    (0, True, 10), (0, 6, 10, True), (0, 6, 10.5), (0, 6.5, 10),
    (0.5, 6, 10), ("0", 6, 10), (0, "6", 10), (0, 6, 10, "0.7"),
    (0, 6, 10, math.nan), (-1, 6, 10), (-1, 1, 10)])
def test_synthetic_trace_rejects_bad_arguments(args):
    # the replay does integer arithmetic on n_regions: a boolean, a string
    # or a non-integral number is rejected, not converted
    with pytest.raises(ValueError):
        synthetic_trace(*args)


def base_config(**kw):
    defaults = dict(policy="nm", scenario_seed=2, node_count=4, horizon=120,
                    frame_len=3, budget_avg=0.05, trace_seed=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_never_migrate_run_has_no_cost():
    rec = run(base_config(policy="nm"))
    assert rec.avg_cost == 0.0
    assert rec.final_queue == 0.0
    assert not rec.q.any() and not rec.cost.any()


def test_always_migrate_attains_per_slot_minimum():
    config = base_config(policy="am", homogeneous_capacity=True)
    scn, table = generate_scenario(config.scenario_seed, 4, 120,
                                   trace=synthetic_trace(3, 4, 120),
                                   homogeneous_capacity=True,
                                   budget_avg=0.05)
    rec = simulate(scn, table, "am")
    rows, _ = latency_rows(scn, table, slice(None), table.trace)
    assert rec.avg_latency == pytest.approx(math.fsum(map(min, rows)) / 120)
    assert rec.placement.tolist() == table.trace


def test_budget_inequality_holds_for_every_policy():
    for policy in ("osp", "psp", "pspwu", "am", "nm", "lm", "plm"):
        cfg = PolicyConfig(v=20.0, theta=10.0,
                           beta=0.65 if policy == "pspwu" else 0.0)
        config = base_config(policy=policy, policy_cfg=cfg)
        rec = run(config)
        total = math.fsum(rec.cost.tolist())
        rhs = 120 * 0.05 + rec.final_queue
        assert total <= rhs + 1e-9 * max(1.0, rhs)
        # a slot costs its move price exactly when the service moves, from
        # the user's first node at slot 0, and takes the latency of the
        # node it sits on in the realized row
        scn, table = harness._materialize(config)
        realized, prices = latency_rows(scn, table, slice(0, 120),
                                        table.user_node[:120])
        before = np.concatenate(([table.trace[0]], rec.placement[:-1]))
        assert np.array_equal(rec.cost, np.where(rec.placement != before,
                                                 prices, 0.0))
        assert np.array_equal(rec.latency,
                              realized[np.arange(120), rec.placement])
        assert all((c >= 0).all() for c in (rec.placement, rec.latency,
                                            rec.cost, rec.q, rec.w))
        # numpy scalars would print as np.float64(...) in the CSVs
        assert all(type(x) is float for r in rec.per_slot for x in r[2:])
        assert all(type(x) is float for x in (rec.avg_latency, rec.avg_cost,
                                              rec.avg_queue, rec.final_queue))


def test_replay_determinism():
    config = base_config(policy="pspwu",
                         policy_cfg=PolicyConfig(v=15.0, theta=5.0, beta=0.65))
    a, b = run(config), run(config)
    assert a.per_slot == b.per_slot
    assert (a.avg_latency, a.avg_cost, a.avg_queue, a.final_queue) == \
        (b.avg_latency, b.avg_cost, b.avg_queue, b.final_queue)


def test_single_slot_frames_with_perfect_prediction_reduce_to_reactive():
    perfect = PredictorSpec(kind="oracle_noisy", accuracies=(1.0, 1.0, 1.0))
    cfg = PolicyConfig(v=25.0, theta=0.0)
    psp = run(base_config(policy="psp", frame_len=1, policy_cfg=cfg,
                          predictor=perfect))
    osp = run(base_config(policy="osp", frame_len=1, policy_cfg=cfg,
                          predictor=perfect))
    assert psp.placement.tolist() == osp.placement.tolist()
    assert psp.avg_latency == osp.avg_latency


def test_beta_zero_weight_update_matches_plain_frames():
    cfg = PolicyConfig(v=15.0, theta=20.0, beta=0.0)
    wu = run(base_config(policy="pspwu", policy_cfg=cfg))
    plain = run(base_config(policy="psp", policy_cfg=cfg))
    assert wu.placement.tolist() == plain.placement.tolist()
    assert wu.negative_w_frames == 0


def test_partial_final_frame():
    # horizon not divisible by frame_len still covers every slot
    rec = run(base_config(policy="psp", horizon=100, frame_len=3))
    assert len(rec.placement) == len(rec.w) == 100
    assert [row[0] for row in rec.per_slot] == list(range(100))


def test_sweep_matches_individual_runs_and_is_ordered():
    config = base_config(policy="osp", sweep_axis="v",
                         sweep_values=(5.0, 50.0, 500.0))
    results = sweep(config)
    assert [v for v, _ in results] == [5.0, 50.0, 500.0]
    for v, rec in results:
        solo = run(replace(config, policy_cfg=replace(config.policy_cfg, v=v)))
        assert solo.per_slot == rec.per_slot


@pytest.mark.parametrize("policy, axis, field, values", [
    ("pspwu", "e_avg", "budget_avg", (0.02, 0.2)),
    ("psp", "t", "frame_len", (1, 2, 3)),
    ("pspwu", "beta", None, (0.0, 0.65)),
])
def test_sweep_points_match_individual_runs(policy, axis, field, values):
    # the points share the scenario and the run inputs; each equals a run
    # that shares nothing
    config = base_config(policy=policy, sweep_axis=axis, sweep_values=values)
    for v, rec in sweep(config):
        solo = (replace(config, **{field: v}) if field else
                replace(config, policy_cfg=replace(config.policy_cfg,
                                                   **{axis: v})))
        assert_same_record(rec, cold_run(solo))


@pytest.mark.parametrize("policy", ("psp", "pspwu"))
def test_a_v_sweep_on_pruned_frames_equals_cold_runs(policy):
    # PRUNE_MIN_NODES nodes: the points share the kept columns pruned once
    # from the unscaled rows, which a cold run builds for itself
    config = base_config(policy=policy, node_count=PRUNE_MIN_NODES,
                         policy_cfg=PolicyConfig(beta=0.5), sweep_axis="v",
                         sweep_values=(0.0, 5.0, 500.0))
    for v, rec in sweep(config):
        assert_same_record(rec, cold_run(replace(
            config, policy_cfg=replace(config.policy_cfg, v=v))))


def test_file_trace_sweep_reads_the_trace_once(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, synthetic_trace(8, 4, 120))
    reads = []
    real = harness.read_trace_csv
    monkeypatch.setattr(harness, "read_trace_csv",
                        lambda p: reads.append(p) or real(p))
    config = base_config(policy="osp", trace_path=str(path), sweep_axis="t",
                         sweep_values=(1, 2, 3))
    assert len(sweep(config)) == 3
    assert reads == [str(path)]


# Runs on one scenario share its materialization and the run inputs built
# on it; conftest empties both shared entries before every test.

def assert_same_record(got, want):
    # every column bit for bit, every summary by its repr
    for f in dataclasses.fields(RunRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def cold_run(config):
    """run(config) with both shared entries emptied first."""
    harness._last_materialized = harness._last_inputs = None
    return run(config)


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_a_run_on_the_shared_materialization_equals_a_fresh_one(kind):
    predictor = PredictorSpec(kind=kind, accuracies=(0.9, 0.8), rng_seed=5)
    configs = [base_config(policy=policy, horizon=60, predictor=predictor,
                           policy_cfg=PolicyConfig(v=30.0, beta=0.5))
               for policy in POLICIES]
    fresh = [cold_run(config) for config in configs]
    # in the bench's order and in reverse, so that each policy both builds
    # the inputs and reads them built by another
    for order in (range(len(POLICIES)), reversed(range(len(POLICIES)))):
        order = list(order)
        cold_run(configs[order[0]])
        pair, realized = harness._last_materialized, harness._last_inputs[1]
        shared = {i: run(configs[i]) for i in order[1:]}
        # six runs drew nothing and read the same realized rows
        assert harness._last_materialized is pair
        assert harness._last_inputs[1] is realized
        for i, got in shared.items():
            assert_same_record(got, fresh[i])
    # a sweep right after a run on the same scenario
    config = replace(configs[1], sweep_axis="v", sweep_values=(1.0, 50.0))
    harness._last_materialized = None
    want = sweep(config)
    harness._last_materialized = None
    run(configs[0])
    entry = harness._last_materialized
    got = sweep(config)
    assert harness._last_materialized is entry
    assert [v for v, _ in got] == [v for v, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert_same_record(a, b)


@pytest.fixture
def draws(monkeypatch):
    """The calls of harness.synthetic_trace and harness.generate_scenario,
    by name."""
    calls = []
    for name in ("synthetic_trace", "generate_scenario"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real, name=name,
                            **kw: calls.append(name) or real(*a, **kw))
    return calls


def test_consecutive_runs_on_one_scenario_draw_it_once(draws):
    for policy in POLICIES:
        run(base_config(policy=policy, policy_cfg=PolicyConfig(v=7.0)))
    assert draws == ["synthetic_trace", "generate_scenario"]


def test_runs_that_alternate_between_scenarios_draw_each_time(draws):
    for seed in (2, 5, 2, 5, 2):
        run(base_config(scenario_seed=seed))
    assert draws == ["synthetic_trace", "generate_scenario"] * 5


@pytest.mark.parametrize("name, value", [
    ("scenario_seed", 5), ("node_count", 5), ("horizon", 90),
    ("frame_len", 2), ("budget_avg", 0.06), ("backhaul_mbps", 120.0),
    ("homogeneous_capacity", True), ("trace_seed", 4),
    ("trace_stickiness", 0.5),
])
def test_a_change_in_any_scenario_field_draws_again(draws, name, value):
    config = base_config()
    scn, table = harness._materialize(config)
    changed = replace(config, **{name: value})
    other = harness._materialize(changed)
    assert draws == ["synthetic_trace", "generate_scenario"] * 2
    assert other[0] is not scn and other[1] is not table
    assert harness._materialize(changed) is other
    assert len(draws) == 4


def test_a_budget_of_minus_zero_is_not_the_budget_of_zero(draws):
    # the two compare equal, but the scenario keeps the sign it was given
    scn, _ = harness._materialize(base_config(budget_avg=0.0))
    other, _ = harness._materialize(base_config(budget_avg=-0.0))
    assert len(draws) == 4
    assert math.copysign(1.0, other.budget_avg) == -1.0 != \
        math.copysign(1.0, scn.budget_avg)


def test_a_trace_file_is_read_on_every_run(tmp_path, monkeypatch, draws):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [0, 1, 2, 3] * 30)
    reads = []
    real = harness.read_trace_csv
    monkeypatch.setattr(harness, "read_trace_csv",
                        lambda p: reads.append(p) or real(p))
    config = base_config(policy="am", trace_path=str(path))
    assert run(config).placement.tolist() == [0, 1, 2, 3] * 30
    write_trace_csv(path, [3, 2] * 60)
    assert run(config).placement.tolist() == [3, 2] * 60
    assert reads == [str(path)] * 2
    assert draws == ["generate_scenario"] * 2
    assert harness._last_materialized is None


def test_an_error_is_not_shared(draws):
    # a config that fails stores nothing, and the next call draws again
    config = base_config()
    harness._materialize(config)
    with pytest.raises(ConfigError):
        harness._materialize(replace(config, trace_stickiness=2.0))
    assert harness._last_materialized is None
    harness._materialize(config)
    assert draws == ["synthetic_trace", "generate_scenario",
                     "synthetic_trace",
                     "synthetic_trace", "generate_scenario"]


def test_a_miss_lets_the_last_pair_go_before_the_next_draw(tmp_path,
                                                           monkeypatch):
    # so that at most one shared pair, and its run inputs, is alive at a
    # time
    held = []
    for name in ("synthetic_trace", "read_trace_csv"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real: held.append(
            (harness._last_materialized, harness._last_inputs)) or real(*a))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [0, 1, 2, 3] * 30)
    for config in (base_config(scenario_seed=2), base_config(scenario_seed=5),
                   base_config(trace_path=str(path))):
        run(config)
    assert held == [(None, None)] * 3
    assert harness._last_materialized is None
    assert harness._last_inputs is not None  # the file run's own


def test_shared_run_inputs_are_read_only():
    rec = run(base_config(policy="osp"))
    # osp, which predicts nothing, keeps the realized rows; psp and plm each
    # kept their missed slots and rows while they ran
    arrays = list(harness._last_inputs[1:3])
    for policy in ("psp", "plm"):
        run(base_config(policy=policy, predictor=PredictorSpec(
            accuracies=(0.6, 0.6), rng_seed=3)))
        arrays += harness._last_inputs[4][1:3]
    assert arrays[0] is harness._last_inputs[1]
    assert all(array.size for array in arrays)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    # the run's own columns are its own
    for array in (rec.latency, rec.cost, rec.placement):
        array[0] = array[0]
    # below PRUNE_MIN_NODES psp keeps no columns; at it, a tuple of tuples
    assert harness._last_inputs[4][3] is None  # plm's
    run(base_config(policy="psp", node_count=PRUNE_MIN_NODES))
    kept = harness._last_inputs[4][3]
    assert type(kept) is tuple and kept
    assert all(type(nodes) is tuple and nodes for nodes in kept)
    with pytest.raises(TypeError):
        kept[0] = ()
    with pytest.raises(TypeError):
        kept[0][0] = 1


def test_a_seven_policy_pass_builds_its_inputs_once(monkeypatch):
    # the realized rows once for all seven runs, the predictions once for
    # psp and pspwu, which share their epoch shape and predictor
    calls = {"latency_rows": [], "predict_epochs": []}

    def spy(fn):
        def call(*args):
            calls[fn.__name__].append(args[2])  # the slots, or w
            return fn(*args)
        return call

    monkeypatch.setattr(harness, "latency_rows", spy(latency_rows))
    monkeypatch.setattr(harness, "predict_epochs", spy(predict_epochs))
    for policy in POLICIES:
        run(base_config(policy=policy, policy_cfg=PolicyConfig(
            v=50.0, beta=0.65 if policy == "pspwu" else 0.0)))
    assert [slots for slots in calls["latency_rows"]
            if isinstance(slots, slice)] == [slice(0, 120)]
    # osp predicts 0 steps ahead, psp and pspwu 2, am, nm and lm 0 and plm
    # 1: one set of predictions is kept at a time
    assert calls["predict_epochs"] == [0, 2, 0, 1]



def test_the_kept_columns_are_pruned_once_per_prediction_set(monkeypatch):
    # from the decision rows before the factor v, so that psp, pspwu and
    # every point of a v sweep on them share one set; 1-slot epochs and
    # fewer than PRUNE_MIN_NODES nodes prune nothing
    calls, real = [], policies._undominated
    monkeypatch.setattr(policies, "_undominated", lambda rows, epoch_len: (
        calls.append(rows.copy()) or real(rows, epoch_len)))
    spec = PredictorSpec(accuracies=(0.6, 0.6), rng_seed=3)
    wide = dict(node_count=PRUNE_MIN_NODES, predictor=spec)
    run(base_config(policy="psp", **wide))
    run(base_config(policy="pspwu", policy_cfg=PolicyConfig(beta=0.65),
                    **wide))
    assert len(calls) == 1
    _, realized, _, _, (_, slots, rows, kept) = harness._last_inputs
    unscaled = realized.copy()
    unscaled[slots] = rows[slots]
    assert slots.size and np.array_equal(calls[0], unscaled)
    assert np.array_equal(rows, unscaled)
    assert kept == tuple(map(tuple, real(unscaled, 3)))
    calls.clear()
    harness._last_materialized = harness._last_inputs = None
    sweep(base_config(policy="psp", sweep_axis="v",
                      sweep_values=(0.0, 5.0, 500.0), **wide))
    assert len(calls) == 1
    calls.clear()
    run(base_config(policy="osp", **wide))
    for policy in POLICIES:
        run(base_config(policy=policy, node_count=6, predictor=spec))
    assert not calls


def test_a_prediction_set_keeps_one_decision_matrix(monkeypatch):
    # A set with no missed slot decides from realized itself: every set
    # that predicts nothing, and psp with a perfect oracle
    for policy, spec in [(policy, PredictorSpec()) for policy in
                         ("osp", "am", "nm", "lm")] + [
            ("psp", PredictorSpec(accuracies=(1.0, 1.0)))]:
        run(base_config(policy=policy, predictor=spec))
        _, realized, _, _, (_, slots, rows, _) = harness._last_inputs
        assert slots.size == 0 and rows is realized, policy
    # Otherwise its rows are, bit for bit, the latency rows of the decided
    # users: the realized node, or a missed slot's predicted node
    solved = []
    monkeypatch.setattr(harness, "frame_solver", lambda rows, *args: (
        solved.append(rows) or policies.frame_solver(rows, *args)))
    spec = PredictorSpec(accuracies=(0.6, 0.6), rng_seed=3)
    for policy, epoch_len, lookahead in (("plm", 1, 1), ("psp", 3, 2)):
        config = base_config(policy=policy, predictor=spec)
        run(config)
        _, realized, _, _, predicted = harness._last_inputs
        _, slots, rows, _ = predicted
        scn, table = harness._materialize(config)
        users = table.user_node[:scn.horizon]
        guesses = predict_epochs(spec, users, lookahead, scn.node_count,
                                 epoch_len)
        target = (np.arange(0, scn.horizon, epoch_len)[:, None]
                  + np.arange(1, lookahead + 1))
        decided = users.copy()
        decided[target[guesses >= 0]] = guesses[guesses >= 0]
        want = latency_rows(scn, table, slice(0, scn.horizon), decided)[0]
        assert slots.size and rows is not realized
        assert rows.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
    # psp, pspwu and every point of a v sweep hand that one matrix to the
    # frame solver, which scales it by their v
    run(replace(config, policy="pspwu", policy_cfg=PolicyConfig(beta=0.65)))
    sweep(replace(config, sweep_axis="v", sweep_values=(0.0, 5.0, 500.0)))
    assert harness._last_inputs[4] is predicted
    assert len(solved) == 5 and all(rows is got for got in solved)


@pytest.mark.parametrize("count", (0, 1, 255, 256, 257, 600))
def test_python_rows_are_the_arrays_rows(count):
    array = np.arange(count * 3, dtype=float).reshape(count, 3)
    rows = list(harness._python_rows(array))
    assert rows == array.tolist()
    assert all(type(x) is float for row in rows for x in row)


@pytest.mark.parametrize("policy", ("lm", "plm"))
def test_lm_and_plm_read_their_rows_across_blocks(policy):
    # 600 slots are made as rows in three blocks of at most 256; plm's
    # look-ahead reads the next block's first row at the end of a block,
    # here replaced by a missed prediction that turns slot 255's decision
    config = base_config(policy=policy, scenario_seed=9, horizon=600,
                         predictor=PredictorSpec(accuracies=(0.5,),
                                                 rng_seed=2))
    rec = run(config)
    if policy == "plm":
        assert 256 in harness._last_inputs[4][1].tolist()
    ref = reference_simulate(*harness._materialize(config), policy,
                             config.policy_cfg, config.predictor)
    assert rec.per_slot == [tuple(row) for row in ref["per_slot"]]
    assert rec.avg_latency == ref["avg_latency"]


def test_a_run_on_another_pair_builds_its_own_inputs(monkeypatch):
    # the entry is kept for the table and the scenario values the rows
    # read; any other pair empties it before building its own
    scn, table = generate_scenario(seed=3, n_nodes=4, horizon=50,
                                   frame_len=2)
    held = []
    monkeypatch.setattr(harness, "latency_rows", lambda *a: held.append(
        harness._last_inputs) or latency_rows(*a))
    want = simulate(scn, table, "psp")
    # the realized rows are built, and no missed rows: at 2-slot frames
    # every prediction named the realized node
    assert held == [None]
    assert harness._last_inputs[4][1].size == 0
    # a budget, a frame length or v reads the same realized rows
    entry = harness._last_inputs
    simulate(replace(scn, budget_avg=0.2), table, "psp")
    simulate(scn, table, "psp", PolicyConfig(v=3.0))
    assert harness._last_inputs is entry and len(held) == 1
    simulate(replace(scn, frame_len=3), table, "psp")
    # the new frame length's missed rows, built on the kept realized rows
    assert len(held) == 2 and held[1][4] is None
    assert harness._last_inputs[4][1].size
    assert harness._last_inputs[1] is entry[1]
    assert_same_record(simulate(scn, table, "psp"), want)
    faster = replace(scn, compute_capacity=scn.compute_capacity * 2)
    other_table = generate_scenario(seed=4, n_nodes=4, horizon=50)[1]
    for changed in ((faster, table), (scn, other_table), (scn, table[:]),
                    (replace(scn, horizon=40), table)):
        held.clear()
        got = simulate(*changed, "psp")
        assert held[0] is None
        harness._last_inputs = None
        assert_same_record(got, simulate(*changed, "psp"))



def test_simulate_refuses_an_unknown_policy():
    scn, table = generate_scenario(seed=3, n_nodes=4, horizon=20)
    with pytest.raises(ConfigError, match="^unknown policy 'bogus'$"):
        simulate(scn, table, "bogus")


def test_simulate_refuses_a_slot_table_shorter_than_the_horizon():
    scn, table = generate_scenario(seed=3, n_nodes=4, horizon=20)
    with pytest.raises(TraceFormatError,
                       match="^slot table shorter than horizon$"):
        simulate(scn, table[:19], "osp")
    assert harness._last_inputs is None


@pytest.mark.parametrize("policy", POLICIES)
def test_a_slot_table_of_another_node_count_is_refused(policy):
    # a 6-node scenario with a 3-node table used to run, and the reverse was
    # refused only by chance, as a user node outside [0, 3)
    scn6, table6 = generate_scenario(seed=3, n_nodes=6, horizon=30,
                                     frame_len=2)
    scn3, table3 = generate_scenario(seed=3, n_nodes=3, horizon=30,
                                     frame_len=2)
    for scn, table, want in ((scn6, table3, "3 nodes and the scenario 6"),
                             (scn3, table6, "6 nodes and the scenario 3")):
        simulate(scn, generate_scenario(seed=4, n_nodes=scn.node_count,
                                        horizon=30)[1], policy)
        with pytest.raises(ValueError,
                           match=f"^the slot table has {want}$"):
            simulate(scn, table, policy)
        assert harness._last_inputs is None

SLOT_ERROR = r"^slot \d+: a latency is not finite"


def test_a_refused_row_is_never_kept():
    # psp and plm predict in different shapes; each refusal keeps the
    # pair's realized rows, which are finite, and no prediction
    scn, table = slow_link_pair()
    spec = PredictorSpec(accuracies=(0.0, 0.0, 0.0))
    simulate(scn, table, "osp", predictor=spec)
    realized = harness._last_inputs[1]
    for policy in ("psp", "psp", "plm", "plm"):
        with pytest.raises(ConfigError, match=SLOT_ERROR):
            simulate(scn, table, policy, predictor=spec)
        assert harness._last_inputs[3] is None
        assert harness._last_inputs[1] is realized
    # a pair whose realized rows are refused keeps no inputs at all, and
    # the next run of its config draws nothing and is refused again
    config = base_config(policy="osp", horizon=30, backhaul_mbps=1e-310)
    pairs = []
    for _ in range(2):
        with pytest.raises(ConfigError, match=SLOT_ERROR):
            run(config)
        assert harness._last_inputs is None
        pairs.append(harness._last_materialized[1])
    assert pairs[0] is pairs[1]


def test_a_shared_materialization_is_read_only():
    scn, table = harness._materialize(base_config())
    for array in [getattr(table, name) for name in COLUMNS] + [
            scn.backhaul_rate, scn.compute_capacity]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.budget_avg = 1.0


@pytest.mark.parametrize("obj, name", [
    (PolicyConfig(), "v"), (ExperimentConfig(), "horizon"),
    (FrameInput([[1.0, 2.0]], [1.0], 0.5, 1), "prev_placement"),
])
def test_configs_are_frozen(obj, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


def test_summary_csv_writes_numpy_sweep_values_as_numbers(tmp_path):
    # a library caller's numpy scalars print as numbers, not np.float64(...)
    config = base_config(policy="osp", sweep_axis="v",
                         sweep_values=tuple(np.array([5.0, 50.0])))
    path = tmp_path / "sweep.csv"
    harness.write_summary_csv(path, [(v, "osp", rec)
                                     for v, rec in sweep(config)])
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["5.0", "50.0"]


def test_sweep_single_value_equals_run():
    config = base_config(policy="osp", sweep_axis="e_avg", sweep_values=(0.2,))
    [(value, rec)] = sweep(config)
    solo = run(replace(config, budget_avg=0.2))
    assert value == 0.2 and rec.per_slot == solo.per_slot


def test_sweep_requires_axis():
    with pytest.raises(ConfigError):
        sweep(base_config())
    with pytest.raises(ConfigError):
        base_config(sweep_axis="nonsense", sweep_values=(1,))
    with pytest.raises(ConfigError):
        base_config(sweep_axis="v")


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = synthetic_trace(8, 5, 64)
    write_trace_csv(path, trace)
    assert read_trace_csv(path) == trace


def test_trace_csv_rejects_malformed(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "slot,node\n0,1\n",
        "fields.csv": "slot,region\n0,1,2\n",
        "types.csv": "slot,region\n0,abc\n",
        "order.csv": "slot,region\n1,0\n",
        "negative.csv": "slot,region\n0,-2\n",
        "norows.csv": "slot,region\n",
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(TraceFormatError):
            read_trace_csv(p)
    with pytest.raises(TraceFormatError):
        read_trace_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("field", ["1_0", "٣", "+3", "²", "-",
                                   "--1", "1.0", "0x1", ""])
def test_a_trace_entry_is_plain_decimal_digits(tmp_path, field):
    # int() reads 1_0 as 10 and Arabic-Indic three or +3 as 3
    path = tmp_path / "trace.csv"
    path.write_bytes(f"slot,region\n0,1\n1,{field}\n".encode())
    with pytest.raises(TraceFormatError, match=re.escape(
            f"{path}:3: non-integer entry")):
        read_trace_csv(path)
    path.write_bytes(f"slot,region\n0,1\n{field},1\n".encode())
    with pytest.raises(TraceFormatError, match=re.escape(
            f"{path}:3: non-integer entry")):
        read_trace_csv(path)
    # blanks around the digits are stripped, as in the header
    path.write_text("slot,region\n 0 ,\t1 \n1,-1\n")
    with pytest.raises(TraceFormatError, match=re.escape(
            f"{path}:3: negative region")):
        read_trace_csv(path)


def test_file_trace_feeds_run(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, synthetic_trace(8, 4, 200))
    rec = run(base_config(policy="am", trace_path=str(path), horizon=200))
    assert len(rec.placement) == 200
    # too short for the horizon
    with pytest.raises(TraceFormatError):
        run(base_config(policy="am", trace_path=str(path), horizon=500))
    # region index outside the node set, reported at the line of the first
    # bad slot: slot 2 (line 4), then slot 77 (line 79)
    write_trace_csv(path, [0, 1, 9] * 40)
    with pytest.raises(TraceFormatError,
                       match=re.escape(f"{path}:4: region 9 out of range")):
        run(base_config(policy="am", trace_path=str(path), horizon=120))
    write_trace_csv(path, [0, 1, 2] * 25 + [3, 2, 7, 4, 5])
    with pytest.raises(TraceFormatError, match=re.escape(
            f"{path}:79: region 7 out of range for 4 nodes")):
        run(base_config(policy="am", trace_path=str(path), horizon=80))
    # a bad region past the horizon is never read
    rec = run(base_config(policy="am", trace_path=str(path), horizon=77))
    assert len(rec.placement) == 77


def test_queue_blind_placements_ignore_the_budget_and_beta():
    # What lets simulate decide am, nm, lm and plm before the queue steps:
    # their placements are the same for any budget and weight memory.
    # The queue-reading policies are the contrast.
    def placements(policy):
        return {tuple(run(base_config(
            policy=policy, budget_avg=budget,
            policy_cfg=PolicyConfig(beta=beta))).placement.tolist())
            for budget in (0.0, 0.03, 10.0) for beta in (0.0, 1.0)}

    for policy in ("am", "nm", "lm", "plm"):
        assert len(placements(policy)) == 1, policy
    for policy in ("osp", "psp", "pspwu"):
        assert len(placements(policy)) > 1, policy


@pytest.mark.parametrize("kind", ("oracle_noisy", "markov1"))
@pytest.mark.parametrize("budget", (0.0, 0.03, 0.167, 0.417))
@pytest.mark.parametrize("beta", (0.0, 0.65, 1.0))
def test_every_queue_blind_run_equals_the_record_loop(beta, budget, kind):
    # The backlog and the weight are folded from the cost column at every
    # beta, w a copy of q at beta == 0. Every column and summary is the
    # per-slot record loop's, bit for bit, at budgets that clamp the
    # backlog every few slots or never, and q and w are columns of their
    # own.
    for policy in ("am", "nm", "lm", "plm"):
        config = ExperimentConfig(
            policy=policy, scenario_seed=5, budget_avg=budget,
            policy_cfg=PolicyConfig(beta=beta),
            predictor=PredictorSpec(kind=kind, accuracies=(0.7,)))
        rec = run(config)
        ref = reference_simulate(*harness._materialize(config), policy,
                                 config.policy_cfg, config.predictor)
        assert rec.per_slot == [tuple(row) for row in ref["per_slot"]]
        for i, name in ((4, "q"), (5, "w")):
            assert [x.hex() for x in getattr(rec, name).tolist()] == [
                row[i].hex() for row in ref["per_slot"]], (policy, name)
        for name in ("avg_latency", "avg_cost", "avg_queue", "final_queue",
                     "prediction_accuracy"):
            assert getattr(rec, name) == ref[name], (policy, name)
        assert rec.negative_w_frames == 0
        q = rec.q.tolist()
        rec.w[:] = -1.0
        assert rec.q.tolist() == q, policy


@pytest.mark.parametrize("policy", ("am", "lm", "plm"))
def test_a_queue_blind_run_folds_its_queue_at_beta_above_zero(monkeypatch,
                                                              policy):
    # No beta sends a queue-blind run through the engine loop: its q and w
    # come from one fold of its costs, and no frame solver is built.
    calls = []
    fold = harness._fold_queue

    def counted(*args):
        calls.append(args)
        return fold(*args)

    def no_solver(*args):
        raise AssertionError("a queue-blind run built a frame solver")

    monkeypatch.setattr(harness, "_fold_queue", counted)
    monkeypatch.setattr(harness, "frame_solver", no_solver)
    rec = run(base_config(policy=policy, policy_cfg=PolicyConfig(beta=0.65)))
    assert len(calls) == 1 and calls[0][1] == 0.65
    assert (rec.w > rec.q).any()  # the momentum term was stepped


@pytest.mark.parametrize("policy", POLICIES)
def test_deviation_bound_is_checked_for_every_policy(monkeypatch, policy):
    # The fault enters the run's columns where simulate checks them: each
    # slot's backlog inflated by 1e6 more than the one before it.
    real = harness._check_run

    def inflated(placement, cost, q, *rest):
        return real(placement, cost, q + 1e6 * np.arange(len(q)), *rest)

    monkeypatch.setattr(harness, "_check_run", inflated)
    with pytest.raises(InvariantError, match="w_q"):
        run(base_config(policy=policy))


@pytest.mark.parametrize("policy", POLICIES)
def test_weight_below_backlog_is_checked_for_every_policy(monkeypatch, policy):
    real = harness._check_run
    monkeypatch.setattr(harness, "_check_run",
                        lambda placement, cost, q, w, *rest: real(
                            placement, cost, q, np.full_like(w, -1.0), *rest))
    with pytest.raises(InvariantError, match="weight -1.0 fell below"):
        run(base_config(policy=policy))


@pytest.mark.parametrize("policy", ("osp", "psp"))
@pytest.mark.parametrize("weight_slot, drift_slot, message", [
    (3, 5, r"slot 3: weight -1\.0 fell below"),
    (3, 3, r"slot 3: backlog .* drifted"),  # one slot: the drift first
])
def test_the_earliest_broken_slot_is_named(monkeypatch, policy, weight_slot,
                                           drift_slot, message):
    # The columns hold each slot's q and w before it and after the last, so
    # slot t's outcome is entry t + 1.
    real = harness._check_run

    def faulty(placement, cost, q, w, *rest):
        q, w = q.copy(), w.copy()
        w[weight_slot + 1] = -1.0
        q[drift_slot + 1] += 1e6
        return real(placement, cost, q, w, *rest)

    monkeypatch.setattr(harness, "_check_run", faulty)
    with pytest.raises(InvariantError, match=message):
        run(base_config(policy=policy))


@pytest.mark.parametrize("bad", (math.inf, math.nan))
def test_a_non_finite_backlog_is_an_invariant_error(monkeypatch, bad):
    # inf - inf in the drift check must not end in a RuntimeWarning, which
    # the tier-1 settings turn into an error
    real = harness._check_run

    def faulty(placement, cost, q, w, *rest):
        q, w = q.copy(), w.copy()
        q[5:] = w[5:] = bad
        return real(placement, cost, q, w, *rest)

    monkeypatch.setattr(harness, "_check_run", faulty)
    with pytest.raises(InvariantError, match="slot 4: backlog"):
        run(base_config(policy="psp"))


def unclamped_columns(cost, e_avg, beta, lift=2.0 ** 20):
    """q and w before each slot and after the last, stepped by
    reference_advance with the clamp left out: the state is lifted by lift,
    so q + e - e_avg never reaches 0. On quarters every step is exact."""
    q = w = w_prev = lift
    qs, ws = [q], [w]
    for e in cost:
        q, w, w_prev = reference_advance(q, w, w_prev, e, e_avg, beta)
        qs.append(q)
        ws.append(w)
    return np.array(qs) - lift, np.array(ws) - lift


# One move from node 0 at slot 0, priced 1, then none, against a budget of
# 0.5 a slot: without the clamp the backlog reads 0.5, 0, -0.5, ... after
# slots 0, 1, 2. Every other check passes these columns: no backlog drifts
# past 2 * w_q = 2 within a 2-slot epoch, w = q at beta 0, and the budget
# inequality is tight, as the final backlog is the unclamped overrun.
UNCLAMPED = dict(placement=np.ones(8, dtype=np.int64),
                 cost=np.array([1.0] + [0.0] * 7), e_avg=0.5, epoch_len=2,
                 w_q=1.0, node_count=2)


def check_unclamped(q, w):
    """_check_run on UNCLAMPED's run with the columns q and w."""
    c = UNCLAMPED
    return harness._check_run(c["placement"], c["cost"], q, w, c["e_avg"],
                              c["epoch_len"], c["w_q"], c["node_count"])


def test_a_negative_backlog_is_an_invariant_error():
    q, w = unclamped_columns(UNCLAMPED["cost"], UNCLAMPED["e_avg"], 0.0)
    assert q.tolist() == [0.0, 0.5, 0.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0]
    with pytest.raises(InvariantError, match=re.escape(
            "slot 2: backlog -0.5 is negative")):
        check_unclamped(q, w)
    # the same slot also past the drift bound: the drift is named first
    q[3] -= 1e6
    with pytest.raises(InvariantError, match=re.escape(
            "slot 2: backlog -1000000.5 drifted")):
        check_unclamped(q, w)
    # the weight stays above the backlog, and its run still raises
    q, w = unclamped_columns(UNCLAMPED["cost"], UNCLAMPED["e_avg"], 1.0)
    assert (w >= q).all() and q[3] < 0
    with pytest.raises(InvariantError, match="slot 2: backlog -0.5 "):
        check_unclamped(q, w)
    # the clamped columns pass
    q = np.maximum(q, 0.0)
    assert check_unclamped(q, q) == 1.0


@pytest.mark.parametrize("policy", POLICIES)
def test_a_beta_set_after_construction_is_refused(policy):
    # PolicyConfig is frozen; object.__setattr__ still gets round that, so
    # simulate checks the queue's inputs once per run.
    config = base_config(policy=policy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.policy_cfg.beta = 2.0
    object.__setattr__(config.policy_cfg, "beta", 2.0)
    with pytest.raises(ValueError, match=re.escape(
            "queue inputs must be >= 0 and beta in [0, 1]")):
        run(config)


def test_a_run_checks_its_columns_once(monkeypatch):
    # The engine steps the queue inline and checks the run's columns in one
    # call per paper-config run of any policy.
    real_check, checks = harness._check_run, []

    def counted_check(*args):
        checks.append(len(args[0]))
        return real_check(*args)

    monkeypatch.setattr(harness, "_check_run", counted_check)
    for policy in POLICIES:
        assert len(run(ExperimentConfig(policy=policy)).q) == 1400
    assert checks == [1400] * len(POLICIES)


@pytest.mark.parametrize("node", (-1, 4))
@pytest.mark.parametrize("policy", ("osp", "psp"))
def test_placement_outside_the_nodes_is_checked(monkeypatch, policy, node):
    # node -1 would read the last node's latency if it went unchecked. The
    # fault enters where the engine gets its placements, which every epoch
    # passes: osp's 1-slot epochs mostly never reach the kernel.
    def faulty(rows, v, prices, epoch_len, kept):
        return lambda k, anchor, prev: [node] * len(
            rows[k * epoch_len:(k + 1) * epoch_len])

    monkeypatch.setattr(harness, "frame_solver", faulty)
    with pytest.raises(InvariantError, match=re.escape(
            f"slot 0: placement {node} is not a node in [0, 4)")):
        run(base_config(policy=policy))


@pytest.mark.parametrize("past", (False, True))
def test_a_column_outside_a_pruned_frame_is_checked(monkeypatch, past):
    # Past the crossover the kernel sees an epoch's undominated columns
    # only. Neither -1 nor the column after its last may become a node:
    # nodes[-1] is the epoch's last undominated node.
    n = policies.PRUNE_MIN_NODES
    widths = []

    def kernel(rows, prices, anchor, prev):
        widths.append(len(rows[0]))
        return [len(rows[0]) if past else -1] * len(rows)

    monkeypatch.setattr(policies, "_frame_dp", kernel)
    with pytest.raises(InvariantError, match=re.escape(
            f"slot 0: placement -1 is not a node in [0, {n})")):
        run(base_config(policy="psp", node_count=n))
    assert max(widths) < n  # the run was pruned


def test_the_stay_certificate_changes_no_run(monkeypatch):
    # Every run equals, bit for bit, the run whose every epoch goes to the
    # frame DP. With frames of two slots or more the certificate is switched
    # off by a row-minima sum of -inf, which makes no left side larger than
    # the right; 1-slot epochs, which the solver decides by its own rule,
    # are compared with a solver that calls the kernel on every epoch.
    bounds, kernel, calls = policies._stay_bounds, policies._frame_dp, []
    solver = harness.frame_solver

    def never(decision, price, epoch_len):
        lows, cheapest, sums = bounds(decision, price, epoch_len)
        return np.full(len(lows), -math.inf), cheapest, sums

    def kernel_only(rows, v, prices, epoch_len, kept):
        assert epoch_len == 1 and kept is None
        rows, prices = rows * v, prices.tolist()
        return lambda k, anchor, prev: policies._frame_dp(
            rows[k:k + 1].tolist(), prices[k:k + 1], anchor, prev)

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(policies, "_frame_dp", counted)
    spec = PredictorSpec(kind="moving_mode")  # wrong often enough
    epochs = certified = 0
    for nodes, frame_len, budget in itertools.product(
            (3, 6, policies.PRUNE_MIN_NODES), (1, 3, 5),
            (0.0, 0.03, 0.167, 0.417)):
        scn, table = generate_scenario(seed=nodes + frame_len, n_nodes=nodes,
                                       horizon=30, frame_len=frame_len,
                                       budget_avg=budget)
        cases = [("pspwu", beta) for beta in (0.0, 0.65)] + [("psp", 0.0)]
        if frame_len == 1:  # osp decides 1-slot epochs at every frame_len
            cases.append(("osp", 0.0))
        for (policy, beta), v in itertools.product(cases, (0.0, 1.0, 50.0,
                                                           900.0)):
            cfg = PolicyConfig(v=v, beta=beta)
            if frame_len == 1:
                monkeypatch.setattr(harness, "frame_solver", kernel_only)
            else:
                monkeypatch.setattr(policies, "_stay_bounds", never)
            calls.clear()
            want = simulate(scn, table, policy, cfg, spec)
            run_epochs = len(calls)  # every epoch called the kernel
            assert run_epochs == len(range(0, scn.horizon, frame_len))
            monkeypatch.setattr(harness, "frame_solver", solver)
            monkeypatch.setattr(policies, "_stay_bounds", bounds)
            calls.clear()
            got = simulate(scn, table, policy, cfg, spec)
            epochs += run_epochs
            certified += run_epochs - len(calls)
            assert_same_record(got, want)
    assert certified > 0.2 * epochs


@pytest.mark.parametrize("seed", (0, 41))
def test_a_paper_config_osp_run_calls_no_kernel(monkeypatch, seed):
    # At the paper's N=6, H=1400 with a binding budget, frame_solver decides
    # every 1-slot epoch from its row's two smallest entries; the kernel is
    # left for the rounding ties that no slot of these runs has.
    calls = []
    kernel = policies._frame_dp
    monkeypatch.setattr(policies, "_frame_dp",
                        lambda *args: calls.append(None) or kernel(*args))
    config = ExperimentConfig(policy="osp", scenario_seed=seed,
                              trace_seed=seed + 1, budget_avg=0.03,
                              policy_cfg=PolicyConfig(v=50.0, theta=50.0))
    rec = run(config)
    assert calls == [] and len(rec.placement) == 1400
    assert 0 < np.count_nonzero(np.diff(rec.placement)) < 1400


@pytest.mark.parametrize("policy", ("psp", "pspwu", "plm"))
def test_wrong_predictions_decide_and_realized_rows_account(monkeypatch,
                                                            policy):
    scn, table = generate_scenario(seed=5, n_nodes=4, horizon=60,
                                   frame_len=3, budget_avg=0.2)
    predicted = {}

    def predict_epochs(spec, trace, w, n_regions, epoch_len):
        # every third epoch predicts the wrong node at every look-ahead step
        out = np.full((len(range(0, len(trace), epoch_len)), w), -1)
        for k, start in enumerate(range(0, len(trace), epoch_len)):
            future = trace[start + 1:start + 1 + w].tolist()
            if future:
                predicted[k] = [(u + 1) % n_regions if k % 3 == 0 else u
                                for u in future]
                out[k, :len(future)] = predicted[k]
        return out

    monkeypatch.setattr(harness, "predict_epochs", predict_epochs)
    cfg = PolicyConfig(v=50.0, beta=0.65)
    rec = simulate(scn, table, policy, cfg)
    realized, prices = latency_rows(scn, table, slice(None), table.trace)
    epoch_len = 1 if policy == "plm" else scn.frame_len
    placed = rec.placement.tolist()
    prev, moved_by_errors = table.trace[0], 0
    for k, start in enumerate(range(0, scn.horizon, epoch_len)):
        slots = range(start, min(start + epoch_len, scn.horizon))
        users = [table.trace[start]] + predicted.get(k, [])
        span = slice(start, start + len(users))
        decided = {}
        for name, rows in (("predicted", latency_rows(scn, table, span,
                                                      users)[0]),
                           ("realized", realized[span])):
            rows, price = rows.tolist(), prices[span].tolist()
            if policy == "plm":
                decided[name] = [plm_decide(rows[0], rows[1] if k in predicted
                                            else None, price[0], users[0],
                                            prev)]
            else:
                anchor = (rec.w if policy == "pspwu" else rec.q)[start]
                decided[name] = frame_decide(cfg, FrameInput(rows, price,
                                                             anchor, prev))
        assert placed[start:slots.stop] == decided["predicted"], k
        moved_by_errors += decided["predicted"] != decided["realized"]
        for t in slots:
            assert rec.latency[t] == realized[t, placed[t]]
            assert rec.cost[t] == (prices[t] if placed[t] != prev else 0.0)
            prev = placed[t]
    assert len(predicted) == scn.horizon // epoch_len - (policy == "plm")
    assert moved_by_errors > 0


@pytest.mark.parametrize("policy", ("psp", "plm"))
def test_runs_predict_and_build_rows_before_their_loop(monkeypatch, policy):
    calls = {"latency_rows": 0, "predict_epochs": 0}

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(harness, "latency_rows", counted(latency_rows))
    monkeypatch.setattr(harness, "predict_epochs", counted(predict_epochs))
    # a 60% oracle mispredicts many slots, so some epochs decide from
    # predicted rows
    rec = run(base_config(policy=policy, predictor=PredictorSpec(
        accuracies=(0.6, 0.6), rng_seed=3)))
    assert rec.prediction_accuracy[0] < 0.8
    assert calls["predict_epochs"] == 1
    assert calls["latency_rows"] <= 2


@pytest.mark.parametrize("policy", ("psp", "pspwu", "plm"))
def test_oracle_runs_build_no_generator_per_epoch(monkeypatch, policy):
    # at the paper config the oracle's draws are replayed, not drawn
    config = ExperimentConfig(policy=policy)
    scn, table = harness._materialize(config)
    built = []

    def counted(real):
        def call(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        return call

    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    rec = harness.simulate(scn, table, policy, config.policy_cfg,
                           config.predictor)
    monkeypatch.undo()
    assert built == []
    assert rec.per_slot == run(config).per_slot


@pytest.mark.parametrize("kind", ("oracle_noisy", "moving_mode", "markov1"))
@pytest.mark.parametrize("policy", POLICIES)
def test_prediction_accuracy_matches_a_per_call_replay(policy, kind):
    config = base_config(policy=policy, horizon=41, frame_len=4,
                         predictor=PredictorSpec(kind=kind,
                                                 accuracies=(0.7, 0.6, 0.5),
                                                 rng_seed=2))
    rec = run(config)
    scn, table = harness._materialize(config)
    epoch_len, lookahead = harness._epochs(policy, scn.frame_len,
                                           config.predictor)
    hits, attempts = [0] * lookahead, [0] * lookahead
    for k, start in enumerate(range(0, scn.horizon, epoch_len)):
        ahead = min(lookahead, scn.horizon - start - 1)
        if ahead:
            truth = table.trace[start + 1:start + 1 + ahead]
            guess = reference_predict(config.predictor,
                                      table.trace[:start + 1], truth, ahead,
                                      scn.node_count, k)
            for s in range(ahead):
                attempts[s] += 1
                hits[s] += guess[s] == truth[s]
    assert rec.prediction_accuracy == tuple(
        h / a for h, a in zip(hits, attempts) if a)
    assert len(rec.prediction_accuracy) == {"psp": 3, "pspwu": 3,
                                            "plm": 1}.get(policy, 0)


def test_a_one_frame_run_predicts_as_a_per_call_replay(monkeypatch):
    # frame_len == horizon: one epoch that predicts horizon - 1 slots ahead,
    # the deepest look-ahead a run can have
    config = base_config(policy="psp", horizon=60, frame_len=60,
                         predictor=PredictorSpec(kind="markov1"))
    made = []

    def spy(*args):
        made.append(predict_epochs(*args))
        return made[-1]

    monkeypatch.setattr(harness, "predict_epochs", spy)
    rec = run(config)
    trace = harness._materialize(config)[1].trace
    expected = reference_predict(config.predictor, trace[:1], trace[1:], 59,
                                 config.node_count, 0)
    assert [guesses.tolist() for guesses in made] == [[expected]]
    assert len(rec.prediction_accuracy) == 59


def raises_under_optimize(code):
    """Whether code, run by python -O after importing sys, numpy as np and
    edgeplacer.harness, raises InvariantError."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from edgeplacer import harness\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines()) +
        "except harness.InvariantError:\n"
        "    print('raised, optimize =', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "raised, optimize = 1"


def test_invariant_checks_survive_optimize():
    assert raises_under_optimize(
        "real = harness._check_run\n"
        "harness._check_run = lambda placement, cost, q, *rest: real(\n"
        "    placement, cost, 0 * q, *rest)\n"
        "config = harness.ExperimentConfig(policy='am', node_count=4,\n"
        "                                  horizon=120, budget_avg=0.0)\n"
        "harness.run(config)")


def test_the_backlog_check_survives_optimize():
    q, w = unclamped_columns(UNCLAMPED["cost"], UNCLAMPED["e_avg"], 0.0)
    c = UNCLAMPED
    assert raises_under_optimize(
        f"harness._check_run(np.array({c['placement'].tolist()}), "
        f"np.array({c['cost'].tolist()}), np.array({q.tolist()}), "
        f"np.array({w.tolist()}), {c['e_avg']}, {c['epoch_len']}, "
        f"{c['w_q']}, {c['node_count']})")


def test_config_from_dict_full():
    raw = {
        "policy": {"name": "psp", "v": 900.0, "theta": 50.0},
        "scenario": {"seed": 5, "node_count": 6, "horizon": 50,
                     "frame_len": 2, "budget_avg": 0.26},
        "predictor": {"kind": "oracle_noisy", "accuracies": [0.9],
                      "rng_seed": 2},
        "trace": {"kind": "synthetic", "seed": 9, "stickiness": 0.8},
        "sweep": {"axis": "v", "values": [10, 100]},
    }
    config = config_from_dict(raw)
    assert config.policy == "psp"
    assert config.policy_cfg.v == 900.0
    assert config.budget_avg == 0.26
    assert config.sweep_values == (10, 100)
    rec = run(config)
    assert len(rec.placement) == 50


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"policy": {"name": "osp", "vee": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"policy": {"name": "osp"}, "extra": {}})
    with pytest.raises(ConfigError):
        config_from_dict({})  # policy.name required
    with pytest.raises(ConfigError):
        config_from_dict({"policy": {"name": "warp"}})
    with pytest.raises(ConfigError):
        config_from_dict({"policy": {"name": "osp"},
                          "trace": {"kind": "file"}})
    with pytest.raises(ConfigError, match="sweep values must be a nonempty "
                                          "list, got 5$"):
        config_from_dict({"policy": {"name": "osp"},
                          "sweep": {"axis": "v", "values": 5}})
    for key in ("lm_gamma", "plm_weight"):  # the benchmarks take no tunable
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            config_from_dict({"policy": {"name": "lm", key: 1.0}})


@pytest.mark.parametrize("section", ([], "osp", None, 1.0))
def test_a_config_section_that_is_no_object_is_refused(section):
    # config_from_dict's own check, which a parsed file reaches without
    # apply_overrides
    with pytest.raises(ConfigError,
                       match="^section 'policy' must be an object$"):
        config_from_dict({"policy": section})


def test_every_schema_key_sets_a_field_and_every_field_has_a_key():
    # so a field cannot be removed and leave its key behind, or be added
    # and not be reachable from a config file
    parts = {"policy_cfg": PolicyConfig, "predictor": PredictorSpec}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)
              if f.name not in parts}
    fields |= {f"{part}.{f.name}" for part, owner in parts.items()
               for f in dataclasses.fields(owner)}
    targets = [field for keys in harness._SCHEMA.values()
               for field in keys.values()]
    targets.remove(None)  # trace.kind only says whether trace.path is read
    assert set(targets) == fields and len(targets) == len(fields)


# (setting, bad value, what the error names): the bad values of the CLI's
# test_run_bad_value_is_config_error, then values only a library caller can
# pass. "policy_cfg.v" is the v of the PolicyConfig, which checks it.
REJECTED_WHEN_BUILT = [
    ("policy_cfg.v", math.inf, "v must be finite"),
    ("horizon", math.inf, "horizon must be a whole number"),
    ("predictor.rng_seed", math.inf, "rng_seed must be a whole number"),
    ("horizon", 30.7, "horizon must be a whole number"),
    ("node_count", 3.9, "node_count must be a whole number"),
    ("predictor.rng_seed", 2.5, "rng_seed must be a whole number"),
    ("trace_seed", 1.5, "trace_seed must be a whole number"),
    ("node_count", True, "node_count must be a number"),
    ("horizon", "30", "horizon must be a number"),
    ("homogeneous_capacity", "false", "homogeneous_capacity must be true"),
    ("policy_cfg.v", True, "v must be a number"),
    ("budget_avg", True, "budget_avg must be a number"),
    ("policy_cfg.v", "900", "v must be a number"),
    ("trace_stickiness", True, "trace_stickiness must be a number"),
    ("predictor.accuracies", "11", "accuracies must be a list"),
    ("predictor.rng_seed", -1, "rng_seed must be >= 0"),
    # one rate for every link: a matrix, even of numbers, is no number
    ("backhaul_mbps", [[1, True, 1, 1]] + [[1, 1, 1, 1]] * 3,
     "backhaul_mbps must be a number, got [[1, True"),
    ("scenario_seed", "3", "scenario_seed must be a number"),
    ("scenario_seed", 1.5, "scenario_seed must be a whole number"),
    ("backhaul_mbps", "100", "backhaul_mbps must be a number"),
    ("backhaul_mbps", True, "backhaul_mbps must be a number"),
    ("trace_path", 5, "trace_path must be a path, got 5"),
    ("sweep_values", 5, "sweep values must be a nonempty list"),
    ("scenario_seed", -1, "scenario_seed must be >= 0"),
    ("trace_seed", -5, "trace_seed must be >= 0"),
]
# The range rules stay with the scenario, the synthetic trace and the slot
# table, which a run builds.
REJECTED_WHEN_RUN = [
    ("budget_avg", -1, "budget_avg must be finite and >= 0"),
    ("node_count", 0, "at least one region"),
    ("frame_len", 0, "frame_len must be >= 1"),
    ("budget_avg", math.nan, "budget_avg must be finite and >= 0"),
    ("trace_stickiness", 2, "stickiness must be in"),
    ("backhaul_mbps", math.inf, "backhaul_rate must be finite"),
]


def build_owner(setting, value):
    """The ExperimentConfig, or its PolicyConfig or PredictorSpec, built
    with setting set to value."""
    part, _, name = setting.rpartition(".")
    if part:
        return {"policy_cfg": PolicyConfig,
                "predictor": PredictorSpec}[part](**{name: value})
    return ExperimentConfig(**{**dict(policy="nm", node_count=4, horizon=30),
                               name: value})


@pytest.mark.parametrize("setting, value, named", REJECTED_WHEN_BUILT)
def test_each_setting_is_checked_by_its_owner(setting, value, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        build_owner(setting, value)


@pytest.mark.parametrize("setting, value, named", REJECTED_WHEN_RUN)
def test_a_setting_out_of_range_is_rejected_by_the_run(setting, value, named):
    config = build_owner(setting, value)
    with pytest.raises(ConfigError, match=re.escape(named)):
        run(config)


@pytest.mark.parametrize("name, value, kind", [
    ("policy_cfg", 5, "PolicyConfig"),
    ("policy_cfg", {"v": 1.0}, "PolicyConfig"),
    ("predictor", "x", "PredictorSpec"),
    ("predictor", None, "PredictorSpec")])
def test_a_config_takes_its_policy_and_predictor_settings_as_objects(
        name, value, kind):
    # they used to be accepted and to fail the run with an AttributeError
    with pytest.raises(ConfigError, match=re.escape(
            f"{name} must be a {kind}, got {value!r}")):
        ExperimentConfig(policy="psp", horizon=10, **{name: value})


def test_a_config_holds_the_defaults_of_its_owners():
    parsed = config_from_dict({"policy": {"name": "osp"}})
    built = ExperimentConfig(policy="osp")
    for f in dataclasses.fields(ExperimentConfig):
        got, want = getattr(parsed, f.name), getattr(built, f.name)
        assert (type(got), got) == (type(want), want), f.name


def test_trace_and_scenario_defaults_are_the_configs():
    want = ExperimentConfig()
    stickiness = inspect.signature(synthetic_trace).parameters["stickiness"]
    assert stickiness.default == want.trace_stickiness
    params = inspect.signature(generate_scenario).parameters
    for param, name in (("n_nodes", "node_count"), ("horizon", "horizon"),
                        ("budget_avg", "budget_avg"),
                        ("backhaul_mbps", "backhaul_mbps"),
                        ("homogeneous_capacity", "homogeneous_capacity")):
        assert params[param].default == getattr(want, name), param
    assert params["frame_len"].default == 1  # one-slot frames on purpose
    flags = cli._build_parser().parse_args(["gen-trace", "--out", "t.csv"])
    assert (flags.seed, flags.regions, flags.length, flags.stickiness) == (
        want.trace_seed, want.node_count, want.horizon, want.trace_stickiness)


def test_owners_store_the_normalized_values():
    cfg = PolicyConfig(v=900, theta=1, beta=0)
    assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == \
        [float] * 3
    assert type(make_scenario(budget=1).budget_avg) is float
    config = ExperimentConfig(scenario_seed=3.0, node_count=np.int64(4),
                              budget_avg=0, backhaul_mbps=2,
                              trace_stickiness=1, sweep_values=[1, 2])
    assert (config.scenario_seed, config.node_count) == (3, 4)
    assert type(config.scenario_seed) is type(config.node_count) is int
    assert type(config.budget_avg) is type(config.backhaul_mbps) is \
        type(config.trace_stickiness) is float
    assert config.sweep_values == (1, 2)


def test_apply_overrides():
    raw = {"policy": {"name": "osp"}}
    apply_overrides(raw, ["policy.v=900", "scenario.horizon=10",
                          'sweep={"axis": "t"}', "trace.stickiness=0.5",
                          "sweep.values=[1]"])
    assert raw["policy"]["v"] == 900
    assert raw["scenario"]["horizon"] == 10
    assert raw["sweep"] == {"axis": "t", "values": [1]}
    config = config_from_dict(raw)
    assert config.policy_cfg.v == 900.0 and config.horizon == 10
    # an unknown key is nested like any other; the schema check rejects it
    for bad, named in (("policy.vee=1", "'vee'"), ("nope.v=1", "'nope'")):
        with pytest.raises(ConfigError, match=named):
            config_from_dict(apply_overrides(copy.deepcopy(raw), [bad]))
    # no '=', or a key nested into a value that is not an object
    for bad in (["noequals"], ["sweep=5", "sweep.x=1"]):
        with pytest.raises(ConfigError):
            apply_overrides(copy.deepcopy(raw), bad)


def test_verify_frame_oracles_all_match():
    matches, total, mismatches = verify_frame_oracles(seed=2, instances=25)
    assert (matches, mismatches) == (total, [])
    matches, total, mismatches = verify_frame_oracles(seed=3, instances=15)
    assert (matches, mismatches) == (total, [])


def test_verify_frame_oracles_check_the_stay_certificate(monkeypatch):
    # frame_decide decides through the engine's solver: some instances are
    # certified with no kernel call, and a certificate that always holds
    # shows up as mismatches
    kernel, bounds, calls = policies._frame_dp, policies._stay_bounds, []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    def always(decision, price, epoch_len):
        lows, cheapest, sums = bounds(decision, price, epoch_len)
        return np.full(len(lows), math.inf), cheapest, sums

    monkeypatch.setattr(policies, "_frame_dp", counted)
    assert verify_frame_oracles(1, 200)[:2] == (200, 200)
    assert 0 < len(calls) < 200
    monkeypatch.setattr(policies, "_stay_bounds", always)
    matches, total, mismatches = verify_frame_oracles(1, 200)
    assert matches < total == 200 and len(mismatches) == total - matches


def test_verify_reaches_every_solver_path(monkeypatch):
    # frame_solver decides an epoch by its 1-slot rule, by the kernel where
    # that rule leaves a 1-slot epoch to it, by the stay certificate, by the
    # DP on undominated columns or by the DP on every column; verify checks
    # a path against enumeration only where its suites reach it. A frame of
    # two or more slots on PRUNE_MIN_NODES nodes or more is always pruned,
    # so the full DP sees fewer nodes.
    kernel, decide = policies._frame_dp, harness.frame_decide
    widths, paths = [], set()

    def counted(rows, *args):
        widths.append(len(rows[0]))
        return kernel(rows, *args)

    def spy(cfg, frame):
        widths.clear()
        seq = decide(cfg, frame)
        n, length = len(frame.latency[0]), len(frame.latency)
        wide = n >= PRUNE_MIN_NODES
        if length == 1:
            paths.add("1-slot kernel" if widths else "1-slot rule")
        elif not widths:
            paths.add("stay certificate")
        elif wide:
            assert len(widths) == 1 and widths[0] < n
            paths.add("pruned DP")
        else:
            assert widths == [n]
            paths.add("full DP")
        return seq

    monkeypatch.setattr(policies, "_frame_dp", counted)
    monkeypatch.setattr(harness, "frame_decide", spy)
    every = {"1-slot rule", "1-slot kernel", "stay certificate", "pruned DP",
             "full DP"}
    assert verify_frame_oracles(1, 200)[:2] == (200, 200)
    assert paths == every
    paths.clear()
    assert verify_frame_oracles(2, 100)[:2] == (100, 100)
    assert paths == every


def test_both_frame_suites_draw_one_slot_frames(monkeypatch, capsys):
    # A 1-slot frame is decided by frame_solver's 1-slot rule, which verify
    # checks against enumeration only if its suites draw such frames. The
    # CLI's default seed 1 runs the suite at seed 1 and again at seed 2.
    real, lengths = harness.random_frame_instance, []

    def spy(rng, **kwargs):
        cfg, frame = real(rng, **kwargs)
        lengths.append(len(frame.latency))
        return cfg, frame

    monkeypatch.setattr(harness, "random_frame_instance", spy)
    assert cli.main(["verify"]) == 0
    assert "200/200 oracle matches\n100/100" in capsys.readouterr().out
    assert len(lengths) == 300
    for drawn in (lengths[:200], lengths[200:]):
        assert set(drawn) == {1, 2, 3, 4}


def test_bound_constant():
    assert bound_constant_B(10, 20) == 250.0
    assert bound_constant_B(0, 0) == 0.0
    assert bound_constant_B(1, 1) == 1.0


@pytest.mark.parametrize("costs", [(-1.0, 0.0), (0.0, -1e-300)])
def test_bound_constant_refuses_a_negative_cost(costs):
    with pytest.raises(ValueError, match="^costs must be nonnegative$"):
        bound_constant_B(*costs)


def test_verify_horizon_bound_mostly_holds():
    passes, checks, failures = verify_horizon_bound(seed=5, instances=8)
    assert passes >= 0.9 * checks, failures


def test_max_slot_migration_cost():
    scn, table = generate_scenario(seed=2, n_nodes=3, horizon=50)
    top = max_slot_migration_cost(table)
    _, prices = latency_rows(scn, table, slice(None), table.trace)
    assert top == max(prices) and type(top) is float
    assert top <= 0.5  # 50 MB at 10 per GB is the ceiling
    # a slice is a table of its slots
    assert max_slot_migration_cost(table[:10]) == max(prices[:10])
