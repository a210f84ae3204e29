"""Golden output digests: a refactor that changes any reported number fails.

Each of the 7 policies runs under each of the 3 predictors on one short
scenario; the SHA-256 of its summary and per-slot series is pinned below.
One CLI `sweep --per-slot` (pspwu, beta 0.65, so w != q), one `run
--per-slot` (psp, beta 0, so w == q) and one `gen-trace` are pinned by the
bytes of every CSV they write.
A change that alters outputs on purpose regenerates these digests and says
why in CHANGES.md.
"""

import hashlib
import json

import pytest

from edgeplacer.cli import main
from edgeplacer.harness import POLICIES, ExperimentConfig, run
from edgeplacer.policies import PolicyConfig
from edgeplacer.predict import PREDICTOR_KINDS, PredictorSpec

HORIZON = 200

RUN_DIGESTS = {
    ("osp", "oracle_noisy"):
        "b11b0683adcb2a59c7c62893d36ee5a5480d270d1ee50d67cd2495c2beff4c18",
    ("osp", "moving_mode"):
        "b11b0683adcb2a59c7c62893d36ee5a5480d270d1ee50d67cd2495c2beff4c18",
    ("osp", "markov1"):
        "b11b0683adcb2a59c7c62893d36ee5a5480d270d1ee50d67cd2495c2beff4c18",
    ("psp", "oracle_noisy"):
        "eea5512d4a28383bb87e19705161876caf391a61870605e4a88768449bad062b",
    ("psp", "moving_mode"):
        "bdecdc9ef6acc911ac4bb7259529588b78810954de9f8724b96e67bdf73143b9",
    ("psp", "markov1"):
        "82d70e5b6ef87cc85ee0a9751912f2d3893d18ee075c197013359c84851c4df2",
    ("pspwu", "oracle_noisy"):
        "12349c101dc2852608a4d64b5da6e1a205f63513357dba70a02dffe3a441f203",
    ("pspwu", "moving_mode"):
        "f253b0c75b3f231651c2d110da6437a9c086d22d4df05cc171243b7d9a7826c7",
    ("pspwu", "markov1"):
        "390919db486c0d256873dd3ec38297be3484ee097d80c969a828c411e5b2a65f",
    ("am", "oracle_noisy"):
        "0d1e380ff69ca7e6e3ead35cb8d5310af30e58e266740db6220468806c445f4b",
    ("am", "moving_mode"):
        "0d1e380ff69ca7e6e3ead35cb8d5310af30e58e266740db6220468806c445f4b",
    ("am", "markov1"):
        "0d1e380ff69ca7e6e3ead35cb8d5310af30e58e266740db6220468806c445f4b",
    ("nm", "oracle_noisy"):
        "535a15725bdbd471f42c0334c3bc59f754855d5c2d88d4a86bc93822a3e78f13",
    ("nm", "moving_mode"):
        "535a15725bdbd471f42c0334c3bc59f754855d5c2d88d4a86bc93822a3e78f13",
    ("nm", "markov1"):
        "535a15725bdbd471f42c0334c3bc59f754855d5c2d88d4a86bc93822a3e78f13",
    ("lm", "oracle_noisy"):
        "945ddcea2bb1a257a3cb0a36e4da06ea121cf7cce0fdc19eb27f5b99433004f9",
    ("lm", "moving_mode"):
        "945ddcea2bb1a257a3cb0a36e4da06ea121cf7cce0fdc19eb27f5b99433004f9",
    ("lm", "markov1"):
        "945ddcea2bb1a257a3cb0a36e4da06ea121cf7cce0fdc19eb27f5b99433004f9",
    ("plm", "oracle_noisy"):
        "3363e51cca04772bf92dd3626bc359a8425be45bac5f2de73df89ca89ed4b505",
    ("plm", "moving_mode"):
        "a87912c10bf05513165bdb3657d891ace1ac4253e3a06552fd361fbcf3c49604",
    ("plm", "markov1"):
        "8cd6a83ef0a37eaeb567542b4ca260a191d363ad7577e6cb00f8826b72b29359",
}

SWEEP_DIGEST = "654432ac79c507e1a650f6618fb518a26402568cefb38914d54cba0ca319db41"
RUN_PER_SLOT_DIGEST = "e0dfb2390f627236b09c2a0b3a3bbe42b32c47d36018ec2284a6272d114a368e"
GEN_TRACE_DIGEST = "9c8589e1cae03bb70c55f97125f7c8781d81bd3969efb0a6e474958baf35363c"


def golden_config(policy: str, kind: str) -> ExperimentConfig:
    return ExperimentConfig(
        policy=policy, scenario_seed=5, trace_seed=105, node_count=6,
        horizon=HORIZON, frame_len=3, budget_avg=0.03,
        policy_cfg=PolicyConfig(v=50.0, theta=50.0,
                                beta=0.65 if policy == "pspwu" else 0.0),
        predictor=PredictorSpec(kind=kind, accuracies=(0.904, 0.839),
                                rng_seed=5))


def record_digest(rec) -> str:
    h = hashlib.sha256()
    h.update(repr((rec.avg_latency, rec.avg_cost, rec.avg_queue,
                   rec.final_queue, rec.negative_w_frames)).encode())
    columns = (rec.placement, rec.latency, rec.cost, rec.q, rec.w)
    for t, (placement, latency, cost, q, w) in enumerate(
            zip(*(c.tolist() for c in columns))):
        h.update(f"\n{t},{placement},{latency!r},{cost!r},"
                 f"{q!r},{w!r}".encode())
    return h.hexdigest()


def cli_digest(tmp_path, command, raw=None, *flags) -> str:
    """Run one CLI command into an empty directory and hash every file it
    writes there, by name and bytes."""
    args = [command]
    if raw is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        args += ["--config", str(cfg_path)]
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(args + ["--out", str(outdir / f"{command}.csv"), *flags]) == 0
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def sweep_digest(tmp_path) -> str:
    raw = {
        "policy": {"name": "pspwu", "v": 50.0, "theta": 50.0, "beta": 0.65},
        "scenario": {"seed": 7, "node_count": 5, "horizon": HORIZON,
                     "frame_len": 3, "budget_avg": 0.03},
        "predictor": {"kind": "oracle_noisy", "accuracies": [0.904, 0.839],
                      "rng_seed": 7},
        "trace": {"kind": "synthetic", "seed": 107},
        "sweep": {"axis": "v", "values": [10.0, 50.0, 900.0]},
    }
    return cli_digest(tmp_path, "sweep", raw, "--per-slot")


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_run_digest(policy, kind):
    rec = run(golden_config(policy, kind))
    assert record_digest(rec) == RUN_DIGESTS[policy, kind]


def test_cli_sweep_digest(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_DIGEST


def test_cli_run_per_slot_digest(tmp_path):
    raw = {
        "policy": {"name": "psp", "v": 50.0, "theta": 50.0},
        "scenario": {"seed": 8, "node_count": 6, "horizon": HORIZON,
                     "frame_len": 3, "budget_avg": 0.03},
        "predictor": {"kind": "oracle_noisy", "accuracies": [0.904, 0.839],
                      "rng_seed": 8},
        "trace": {"kind": "synthetic", "seed": 108},
    }
    assert cli_digest(tmp_path, "run", raw, "--per-slot") == \
        RUN_PER_SLOT_DIGEST


def test_cli_gen_trace_digest(tmp_path):
    assert cli_digest(tmp_path, "gen-trace", None, "--seed", "9",
                      "--regions", "5", "--length", str(HORIZON),
                      "--stickiness", "0.6") == GEN_TRACE_DIGEST
