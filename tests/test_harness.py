import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_predict, reference_synthetic_trace

from edgeplacer import harness
from edgeplacer.harness import (POLICIES, ConfigError, ExperimentConfig,
                                InvariantError, TraceFormatError,
                                apply_overrides, config_from_dict,
                                generate_scenario, max_slot_migration_cost,
                                read_trace_csv, run, simulate, sweep,
                                synthetic_trace, verify_frame_oracles,
                                verify_horizon_bound, write_trace_csv)
from edgeplacer.model import latency_rows
from edgeplacer.policies import (FrameInput, PolicyConfig, frame_decide,
                                 plm_decide)
from edgeplacer.predict import PredictorSpec, predict_epochs


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
        _, table = generate_scenario(seed=seed, n_nodes=3, horizon=40,
                                     access_rate_scale=3.0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        rng.uniform(5.0, 10.0, 3)  # capacities come first
        for t in range(40):
            assert table.input_size[t] == rng.uniform(5.0, 10.0)
            assert table.workload[t] == rng.uniform(2.0, 20.0)
            assert table.access_rate[t] == rng.uniform(5.0, 10.0) * 3.0
            assert table.container_size[t] == rng.uniform(25.0, 50.0)
            assert table.unit_migration_cost[t] == rng.uniform(2.0, 10.0)


def test_generate_scenario_capacity_modes():
    scn, _ = generate_scenario(seed=1, n_nodes=4, horizon=5,
                               homogeneous_capacity=True)
    assert len(set(scn.compute_capacity)) == 1
    scn, _ = generate_scenario(seed=1, n_nodes=4, horizon=5)
    assert len(set(scn.compute_capacity)) > 1
    assert scn.compute_capacity.shape == (4,)


def test_synthetic_trace_endpoints():
    assert len(set(synthetic_trace(3, 5, 200, stickiness=1.0))) == 1
    moved = synthetic_trace(3, 2, 200, stickiness=0.0)
    assert all(a != b for a, b in zip(moved[:-1], moved[1:]))
    with pytest.raises(ValueError):
        synthetic_trace(3, 2, 10, stickiness=1.5)
    # an integral float is the whole number it stands for, as in Scenario
    assert synthetic_trace(3.0, 6.0, 10.0) == synthetic_trace(3, 6, 10)


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
    config = base_config(policy=policy, sweep_axis=axis, sweep_values=values)
    for v, rec in sweep(config):
        solo = (replace(config, **{field: v}) if field else
                replace(config, policy_cfg=replace(config.policy_cfg,
                                                   **{axis: v})))
        assert rec.per_slot == run(solo).per_slot


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


@pytest.mark.parametrize("policy", POLICIES)
def test_deviation_bound_is_checked_for_every_policy(monkeypatch, policy):
    real = harness.advance
    monkeypatch.setattr(harness, "advance",
                        lambda q, *rest: (q + 1e6, *real(q, *rest)[1:]))
    with pytest.raises(InvariantError, match="w_q"):
        run(base_config(policy=policy))


@pytest.mark.parametrize("policy", POLICIES)
def test_weight_below_backlog_is_checked_for_every_policy(monkeypatch, policy):
    real = harness.advance
    # advance returns (q, w, w_prev) and the new w_prev is the old w
    monkeypatch.setattr(harness, "advance",
                        lambda *args: (real(*args)[0], -1.0, args[1]))
    with pytest.raises(InvariantError, match="weight -1.0 fell below"):
        run(base_config(policy=policy))


@pytest.mark.parametrize("node", (-1, 4))
@pytest.mark.parametrize("policy", ("osp", "psp"))
def test_placement_outside_the_nodes_is_checked(monkeypatch, policy, node):
    # node -1 would read the last node's latency if it went unchecked
    monkeypatch.setattr(harness, "_frame_dp",
                        lambda rows, prices, anchor, prev: [node] * len(rows))
    with pytest.raises(InvariantError, match=re.escape(
            f"slot 0: placement {node} is not a node in [0, 4)")):
        run(base_config(policy=policy))


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
                                            prev, cfg)]
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


def test_invariant_checks_survive_optimize():
    script = (
        "import sys\n"
        "from edgeplacer import harness\n"
        "real = harness.advance\n"
        "harness.advance = lambda *args: (0.0, *real(*args)[1:])\n"
        "config = harness.ExperimentConfig(policy='am', node_count=4,\n"
        "                                  horizon=120, budget_avg=0.0)\n"
        "try:\n"
        "    harness.run(config)\n"
        "except harness.InvariantError:\n"
        "    print('raised, optimize =', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised, optimize = 1"


def test_config_from_dict_full():
    raw = {
        "policy": {"name": "psp", "v": 900.0, "theta": 50.0},
        "scenario": {"seed": 5, "node_count": 6, "horizon": 50,
                     "frame_len": 2, "budget_avg": 0.26},
        "predictor": {"kind": "oracle_noisy", "accuracies": [0.9],
                      "rng_seed": 2},
        "trace": {"kind": "synthetic", "seed": 9, "stickiness": 0.8},
        "sweep": {"axis": "v", "values": [10, 100]},
        "output": "out.csv",
    }
    config = config_from_dict(raw)
    assert config.policy == "psp"
    assert config.policy_cfg.v == 900.0
    assert config.budget_avg == 0.26
    assert config.sweep_values == (10, 100)
    assert config.output == "out.csv"
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


def test_apply_overrides():
    raw = {"policy": {"name": "osp"}}
    apply_overrides(raw, ["policy.v=900", "scenario.horizon=10",
                          "output=x.csv", "trace.stickiness=0.5"])
    assert raw["policy"]["v"] == 900
    assert raw["scenario"]["horizon"] == 10
    assert raw["output"] == "x.csv"
    config = config_from_dict(raw)
    assert config.policy_cfg.v == 900.0 and config.horizon == 10
    for bad in ("policy.vee=1", "nope.v=1", "noequals", "output.x=1"):
        with pytest.raises(ConfigError):
            apply_overrides(dict(raw), [bad])


def test_verify_frame_oracles_all_match():
    matches, total, mismatches = verify_frame_oracles(seed=2, instances=25)
    assert (matches, mismatches) == (total, [])
    matches, total, mismatches = verify_frame_oracles(seed=3, instances=15,
                                                      anchor_low=-20.0)
    assert (matches, mismatches) == (total, [])


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
