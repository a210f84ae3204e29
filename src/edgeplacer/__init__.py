"""Online edge service placement under a long-term migration-cost budget.

Library layout: model (per-slot latency/cost arithmetic), costqueue (virtual
budget queue and weight recursion), policies (reactive, frame-predictive and
benchmark placement rules plus brute-force oracles), predict (mobility
predictors), harness (simulation engine, sweeps, CSV), cli (command line).
"""

from .costqueue import advance, bound_constant_B
from .harness import (BUDGET_PRESETS, ExperimentConfig, RunRecord,
                      generate_scenario, run, simulate, sweep, synthetic_trace)
from .model import Scenario, SlotTable, latency_rows, max_slot_migration_cost
from .policies import (FrameInput, PolicyConfig, brute_force_frame,
                       brute_force_horizon, frame_decide, frame_objective,
                       lm_decide, plm_decide)
from .predict import ACCURACY_PRESETS, PredictorSpec, predict_epochs

__version__ = "0.1.0"

__all__ = [
    "ACCURACY_PRESETS", "BUDGET_PRESETS", "ExperimentConfig", "FrameInput",
    "PolicyConfig", "PredictorSpec", "RunRecord", "Scenario", "SlotTable",
    "advance", "bound_constant_B", "brute_force_frame",
    "brute_force_horizon", "frame_decide", "frame_objective",
    "generate_scenario", "latency_rows", "lm_decide",
    "max_slot_migration_cost", "plm_decide", "predict_epochs", "run",
    "simulate", "sweep", "synthetic_trace",
]
