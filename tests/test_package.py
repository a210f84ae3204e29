import inspect
import sys

import edgeplacer

PUBLIC = {
    "ACCURACY_PRESETS", "BUDGET_PRESETS", "ExperimentConfig", "FrameInput",
    "PolicyConfig", "PredictorSpec", "RunRecord", "Scenario", "SlotTable",
    "advance", "bound_constant_B", "brute_force_frame",
    "brute_force_horizon", "frame_decide", "frame_objective",
    "generate_scenario", "latency_rows", "lm_decide",
    "max_slot_migration_cost", "plm_decide", "predict_epochs", "run",
    "simulate", "sweep", "synthetic_trace",
}


def test_public_names():
    assert len(edgeplacer.__all__) == len(PUBLIC) == 25
    assert set(edgeplacer.__all__) == PUBLIC
    assert all(hasattr(edgeplacer, name) for name in PUBLIC)
    # no exported name hides the submodule it shares a name with
    for name in ("costqueue", "harness", "model", "policies", "predict"):
        module = getattr(edgeplacer, name)
        assert inspect.ismodule(module)
        assert module is sys.modules[f"edgeplacer.{name}"]
