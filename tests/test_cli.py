import contextlib
import io
import json
import math
import numbers
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplacer import harness
from edgeplacer.cli import main
from edgeplacer.harness import read_trace_csv


def write_config(path, **overrides):
    raw = {
        "policy": {"name": "nm"},
        "scenario": {"seed": 1, "node_count": 4, "horizon": 60,
                     "frame_len": 2, "budget_avg": 0.05},
        "trace": {"kind": "synthetic", "seed": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    path.write_text(json.dumps(raw))
    return path


def test_run_never_migrate_reports_zero_cost(tmp_path, capsys):
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "axis,policy,avg_latency_s,avg_cost,avg_queue,final_queue,negative_w_frames"
    cells = row.split(",")
    assert cells[1] == "nm"
    assert cells[3] == "0.0"  # avg_cost
    assert "wrote" in capsys.readouterr().out


def test_run_missing_config_names_path(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dir", "latin1"])
def test_run_unreadable_config_names_path(tmp_path, capsys, kind):
    config = tmp_path / "c.json"
    if kind == "dir":
        config.mkdir()
    else:
        config.write_bytes(b'{"policy": {"name": "nm\xe9"}}')
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config file {config}: ")


def test_run_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2


def test_run_requires_output(tmp_path, capsys):
    config = write_config(tmp_path / "c.json")
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize("override", [
    "scenario.budget_avg=-1", "scenario.node_count=0", "scenario.frame_len=0",
    "scenario.budget_avg=NaN", "policy.v=Infinity", "trace.stickiness=2",
    "scenario.horizon=Infinity", "predictor.rng_seed=1e400",
    "scenario.backhaul_mbps=Infinity",
    # a non-integral number in an integer field is rejected, not truncated
    "scenario.horizon=30.7", "scenario.node_count=3.9",
    "predictor.rng_seed=2.5", "trace.seed=1.5",
    # a boolean or a string is not a number, and a string is not a flag
    "scenario.node_count=true", 'scenario.horizon="30"',
    'scenario.homogeneous_capacity="false"',
    # nor is it a float setting, an accuracy or a backhaul rate
    "policy.v=true", "scenario.budget_avg=true", 'policy.v="900"',
    "trace.stickiness=true", 'predictor.accuracies="11"',
    # the oracle's seed is a non-negative integer
    "predictor.rng_seed=-1",
    "scenario.backhaul_mbps=[[1,true,1,1],[1,1,1,1],[1,1,1,1],[1,1,1,1]]",
])
def test_run_bad_value_is_config_error(tmp_path, capsys, override):
    config = write_config(tmp_path / "c.json")
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "o.csv"), "--set", override]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o.csv").exists()


def test_run_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    real = harness._check_run
    monkeypatch.setattr(harness, "_check_run",
                        lambda placement, cost, q, *rest: real(
                            placement, cost, 0 * q, *rest))
    config = write_config(tmp_path / "c.json", policy={"name": "am"},
                          scenario={"budget_avg": 0.0})
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o.csv")]) == 4
    assert "invariant violated: " in capsys.readouterr().err


def test_a_setting_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path / "c.json",
                          sweep={"axis": "v", "values": [1.0, 2 ** 1024]})
    out = tmp_path / "o.csv"
    for argv in (["run", "--set", f"policy.v={2 ** 1024}"], ["sweep"]):
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.endswith("v is too large for a float\n")
    assert not out.exists()


# case True: a file in a directory that does not exist; False: a
# directory; "empty": an empty path; "slots": a per-slot path that is a
# directory, next to a summary path that could be written
@pytest.mark.parametrize("case, command", [
    *((case, command) for case in (False, True, "empty")
      for command in ("gen-trace", "run", "sweep")),
    ("slots", "run"), ("slots", "sweep")])
def test_an_output_that_cannot_be_written_fails_before_any_work(
        tmp_path, capsys, monkeypatch, case, command):
    calls = []
    for name in ("simulate", "synthetic_trace"):
        monkeypatch.setattr(harness, name, lambda *args: calls.append(args))
    config = write_config(tmp_path / "c.json",
                          sweep={"axis": "v", "values": [1.0]})
    slots = tmp_path / ("o_slots.csv" if command == "run" else "o_slots_0.csv")
    out, error = {
        True: (tmp_path / "nodir" / "o.csv",
               f"output directory {tmp_path / 'nodir'} does not exist"),
        False: (tmp_path, f"output {tmp_path} is a directory"),
        "empty": ("", "output path is empty"),
        "slots": (tmp_path / "o.csv", f"output {slots} is a directory"),
    }[case]
    argv = [command, "--out", str(out)]
    if command != "gen-trace":
        argv += ["--config", str(config)]
    if case == "slots":
        slots.mkdir()
        argv.append("--per-slot")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    # nothing is written: the directory holds what the test made, no more
    made = ["c.json"] + [slots.name] * (case == "slots")
    assert calls == [] and sorted(os.listdir(tmp_path)) == sorted(made)


@pytest.mark.parametrize("command, override, error", [
    ("run", "scenario.access_rate_scale=1",
     "unknown key(s) in 'scenario': ['access_rate_scale']"),
    ("run", "predictor.window=3", "unknown key(s) in 'predictor': ['window']"),
    ("run", "output=o.csv", "unknown config section 'output'"),
    ("run", "scenario.backhaul_mbps=[[1,1],[1,1]]",
     "backhaul_mbps must be a number, got [[1, 1], [1, 1]]"),
    ("sweep", "sweep.axis=theta", "unknown sweep axis 'theta'"),
])
def test_a_removed_setting_is_a_config_error_that_names_it(
        tmp_path, capsys, command, override, error):
    # access_rate_scale, predictor.window, output, the backhaul matrix and
    # the theta axis no longer exist; theta itself stays a policy tunable
    config = write_config(tmp_path / "c.json",
                          sweep={"axis": "v", "values": [1.0]})
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--set", override]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


def test_run_bad_trace_exit_code(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("slot,region\n0,xyz\n")
    config = write_config(tmp_path / "c.json",
                          trace={"kind": "file", "path": str(trace)})
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o.csv")]) == 3


@pytest.mark.parametrize("path, code, error", [
    (987654, 2, "config error: trace_path must be a path, got 987654"),
    ("dir", 3, "trace error: cannot read trace file {}: "),
    ("latin1.csv", 3, "trace error: cannot read trace file {}: 'utf-8' codec"),
])
def test_an_unreadable_trace_is_no_traceback(tmp_path, capsys, path, code,
                                             error):
    # open() would take an int for a file descriptor, read it and close it
    if isinstance(path, str):
        path = tmp_path / path
        if path.suffix:
            path.write_bytes(b"slot,region\n0,\xe9\n")
        else:
            path.mkdir()
        path = str(path)
    config = write_config(tmp_path / "c.json",
                          trace={"kind": "file", "path": path})
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o.csv")]) == code
    err = capsys.readouterr().err
    assert err.startswith(error.format(path)) and err.count("\n") == 1


def test_run_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "osp", "v": 30.0})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--out", str(out1),
                 "--per-slot"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2),
                 "--per-slot"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a_slots.csv").read_bytes() == \
        (tmp_path / "b_slots.csv").read_bytes()


def test_per_slot_dump_format(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "osp", "v": 5.0})
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--per-slot"]) == 0
    lines = (tmp_path / "o_slots.csv").read_text().splitlines()
    assert lines[0] == "t,placement,latency_s,cost,q,w"
    assert len(lines) == 61
    # every cell must be a plain parseable number
    for line in lines[1:]:
        assert all(float(cell) >= 0 for cell in line.split(","))
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[0] == "" and cells[1] == "osp"
        assert all(float(c) >= 0 for c in cells[2:])


@pytest.mark.parametrize("nodes", (4, 16))  # 16: the pruned frames
def test_a_frame_past_the_horizon_runs_as_one_of_the_horizon(tmp_path, nodes):
    # arrays sized by the frame once overflowed numpy's dimension limit
    config = write_config(tmp_path / "c.json", policy={"name": "psp"},
                          predictor={"kind": "markov1"},
                          scenario={"node_count": nodes})
    for name, frame_len in (("long", "1e20"), ("horizon", "60")):
        assert main(["run", "--config", str(config), "--out",
                     str(tmp_path / f"{name}.csv"), "--per-slot", "--set",
                     f"scenario.frame_len={frame_len}"]) == 0
    assert (tmp_path / "long_slots.csv").read_bytes() == \
        (tmp_path / "horizon_slots.csv").read_bytes()


@pytest.mark.parametrize("policy, horizon, setting", [
    ("psp", 30, "policy.v=1e308"),  # v times every latency overflows
    ("psp", 30, "policy.v=1e307"),  # a frame's sum of them does
    ("osp", 30, "scenario.backhaul_mbps=1e-310"),  # the backhaul term does
    ("osp", 1400, "scenario.backhaul_mbps=1e-305"),  # their sum does
])
def test_a_setting_that_overflows_a_run_is_a_config_error(
        tmp_path, capsys, policy, horizon, setting):
    config = write_config(tmp_path / "c.json", policy={"name": policy},
                          scenario={"horizon": horizon})
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert setting.split("=")[0] in err and not out.exists()


@pytest.mark.parametrize("setting", [
    "scenario.node_count=100000",  # a 10**10-entry backhaul matrix
    "scenario.horizon=10000000",  # 4 * 10**7 latency entries
])
def test_a_scenario_too_large_to_allocate_is_a_config_error(
        tmp_path, capsys, monkeypatch, setting):
    # rejected before numpy allocates anything, not a MemoryError
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(harness, "synthetic_trace", no_allocation)
    monkeypatch.setattr(harness, "generate_scenario", no_allocation)
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert setting.split("=")[0] in err and not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--set", "policy.v=1"]])
def test_an_override_into_a_section_that_is_no_object_is_a_config_error(
        tmp_path, capsys, flag):
    # both flags nest their value into the section, which used to raise a
    # TypeError there
    config = write_config(tmp_path / "c.json", policy="osp", scenario=5)
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "o.csv"), *flag]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_set_overrides_change_the_run(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "osp"})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2),
                 "--set", "policy.v=0.001", "--set", "scenario.budget_avg=0.2"]) == 0
    assert out1.read_text() != out2.read_text()
    assert main(["run", "--config", str(config), "--out", str(out1),
                 "--set", "policy.bogus=1"]) == 2


def test_seed_flag_overrides_scenario_seed(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "am"})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2),
                 "--seed", "8"]) == 0
    assert out1.read_text() != out2.read_text()


def test_sweep_writes_axis_rows(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "osp"},
                          sweep={"axis": "v", "values": [1.0, 10.0, 100.0]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "10.0", "100.0"]


def check_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch, policy,
                                     axis, values):
    runs = []
    monkeypatch.setattr(harness, "simulate", lambda *args: runs.append(args))
    config = write_config(tmp_path / "c.json", policy={"name": policy},
                          sweep={"axis": axis, "values": values})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep value ")
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("values", [[1.0, -1.0], [1.0, "x"], [True, False],
                                    [1.0, "2"]])
def test_sweep_bad_value_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                              values):
    check_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch, "osp",
                                     "v", values)


@pytest.mark.parametrize("policy, axis, values", [
    ("osp", "e_avg", [0.1, -1.0]), ("osp", "e_avg", [0.1, float("nan")]),
    ("psp", "t", [3, 0]),
    ("psp", "t", [3, 5]),  # 4 look-ahead steps, the lstm preset has 3
    ("psp", "t", [3, 2.5]),  # not truncated to a frame of 2
])
def test_sweep_bad_scenario_value_fails_before_any_run(
        tmp_path, capsys, monkeypatch, policy, axis, values):
    check_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch, policy,
                                     axis, values)


def test_integral_float_settings_are_accepted(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "psp"},
                          sweep={"axis": "t", "values": [2, 3]})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out1),
                 "--per-slot"]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out2),
                 "--per-slot", "--set", "sweep.values=[2.0, 3.0]",
                 "--set", "scenario.horizon=60.0",
                 "--set", "scenario.node_count=4.0"]) == 0
    for i in (0, 1):
        assert (tmp_path / f"a_slots_{i}.csv").read_bytes() == \
            (tmp_path / f"b_slots_{i}.csv").read_bytes()


def test_sweep_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path / "c.json", policy={"name": "psp"},
                          sweep={"axis": "t", "values": [1, 2, 3]})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--out", str(out), "--seed", "3",
                 "--regions", "5", "--length", "40"]) == 0
    trace = read_trace_csv(out)
    assert len(trace) == 40
    assert all(0 <= r < 5 for r in trace)


@pytest.mark.parametrize("flag, value", [
    ("--length", "0"), ("--regions", "0"), ("--stickiness", "2"),
    ("--stickiness", "nan"),
])
def test_gen_trace_bad_value_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_trace_past_the_longest_horizon_is_named(tmp_path, capsys):
    # its draws would take 14.2 PiB; the length is refused before them
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--out", str(out), "--length",
                 "1000000000000000"]) == 2
    assert capsys.readouterr().err == (
        "config error: length 1000000000000000 is past the "
        f"{harness.MAX_MATRIX_ENTRIES} slots a run may have\n")
    assert not out.exists()


def test_gen_trace_negative_seed_is_named(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("args, error", [
    pytest.param(["--instances", "0"], "--instances: must be at least 1",
                 id="0"),
    pytest.param(["--instances", "-5"], "--instances: must be at least 1",
                 id="-5"),
    pytest.param(["--seed", "-1"], "--seed: must be at least 0",
                 id="seed=-1"),
])
def test_verify_rejects_fewer_than_one_instance(capsys, monkeypatch, args,
                                                error):
    def suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(harness, "verify_frame_oracles", suite)
    monkeypatch.setattr(harness, "verify_horizon_bound", suite)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert error in captured.err
    assert captured.out == ""


def test_verify_command(tmp_path, capsys):
    assert main(["verify", "--seed", "1", "--instances", "10"]) == 0
    out = capsys.readouterr().out
    assert "10/10 oracle matches" in out
    assert "oracle matches (weight anchor)" in out
    assert "horizon bound holds" in out


def frame_decide_without_second(cfg, frame):
    """frame_decide with a fault: the backward pass keeps only each layer's
    smallest moved-in cost, so under a negative anchor a node may "move"
    into itself at the (negative) move price."""
    v, anchor, lat = cfg.v, frame.q_anchor, frame.latency
    after = []
    for p in range(len(lat) - 1, 0, -1):
        tail = after[-1] if after else [0.0] * len(lat[p])
        m = anchor * frame.move_price[p]
        best = min(v * x + m + t for x, t in zip(lat[p], tail))
        after.append([min(v * x + t, best) for x, t in zip(lat[p], tail)])
    seq, at = [], frame.prev_placement
    for p, row in enumerate(lat):
        m = anchor * frame.move_price[p]
        scores = [v * x + (m if i != at else 0.0) for i, x in enumerate(row)]
        if after:
            scores = [s + t for s, t in zip(scores, after.pop())]
        at = scores.index(min(scores))
        seq.append(at)
    return seq


def test_verify_catches_a_solver_without_the_second_smallest_cost(
        capsys, monkeypatch):
    monkeypatch.setattr(harness, "frame_decide", frame_decide_without_second)
    assert main(["verify", "--instances", "200"]) == 4
    out = capsys.readouterr().out.splitlines()
    matches, total = out[1].split()[0].split("/")
    assert out[1].endswith("oracle matches (weight anchor)")
    assert int(matches) < int(total) == 100


# The config keys the fuzz below sets: every schema key and the settings the
# schema no longer has ("output" is a section of its own).
FUZZ_KEYS = [(section, key) for section, keys in harness._SCHEMA.items()
             for key in keys] + [("scenario", "access_rate_scale"),
                                 ("predictor", "window"), ("output", None)]
# Values of every JSON kind, bad and good; 2 ** 1024 is too large for a float
FUZZ_VALUES = [
    True, False, None, "", "x", "30", "osp", "psp", "pspwu", "lm", "plm",
    "moving_mode", "markov1", "file", "synthetic", "v", "t", "beta", "theta",
    math.nan, math.inf, -math.inf, 2 ** 70, 2 ** 1024, 1e308, 1e-310, -1, 0,
    1, 2, 3, 0.5, 0.9, 2.5, 50.0, [], [1, 10], [0.9, 0.8, 0.5], [1.0, -1.0],
    [[1, 1], [1, 1]], {}, {"name": "osp"}]
# A bound on each size a config sets, so every example stays small
FUZZ_CAPS = {"horizon": 30, "node_count": 8}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(["run", "sweep"]),
       entries=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                                  st.sampled_from(FUZZ_VALUES)),
                        min_size=1, max_size=4))
# three inputs that once ended in a traceback or in a summary of infs: a
# latency past the float range, a float setting past it, a bad sweep value
@example(command="run", entries=[(("scenario", "backhaul_mbps"), 1e-310)])
@example(command="run", entries=[(("policy", "v"), 2 ** 1024)])
@example(command="sweep", entries=[(("sweep", "values"), [1.0, -1.0])])
def test_any_config_ends_in_a_result_or_a_named_error(tmp_path_factory,
                                                      command, entries):
    # every config exits 0, 2 or 3, never with a traceback, and a summary
    # it writes holds finite numbers only (the axis is empty for a run)
    raw = {"policy": {"name": "nm"},
           "scenario": {"seed": 1, "node_count": 4, "horizon": 30,
                        "frame_len": 2, "budget_avg": 0.05},
           "sweep": {"axis": "v", "values": [1.0, 10.0]}}
    for (section, key), value in entries:
        cap = FUZZ_CAPS.get(key)
        if cap is not None and isinstance(value, numbers.Real) and \
                cap < value < math.inf:
            value = cap
        if key is None:
            raw[section] = value
        else:
            raw.setdefault(section, {})[key] = value
    folder = tmp_path_factory.mktemp("fuzz")
    config, out = folder / "c.json", folder / "o.csv"
    config.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        for row in out.read_text().splitlines()[1:]:
            axis, _, *cells = row.split(",")
            assert all(math.isfinite(float(x)) for x in [axis, *cells] if x)
