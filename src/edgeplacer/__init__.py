"""Online edge service placement under a long-term migration-cost budget.

Library layout: model (per-slot latency/cost arithmetic), costqueue (virtual
budget queue and weight recursion), policies (reactive, frame-predictive and
benchmark placement rules plus brute-force oracles), predict (mobility
predictors), harness (simulation engine, sweeps, CSV), cli (command line).
"""

from .costqueue import (CostQueueState, advance, bound_constant_B,
                        update_queue, update_weight)
from .harness import (BUDGET_PRESETS, ExperimentConfig, RunRecord,
                      generate_scenario, run, simulate, sweep, synthetic_trace)
from .model import (Placement, Scenario, SlotTable, latency_rows,
                    max_slot_migration_cost, slot_outcome)
from .policies import (FrameInput, PolicyConfig, am_decide, brute_force_frame,
                       brute_force_horizon, frame_objective, lm_decide,
                       nm_decide, osp_decide, plm_decide, psp_frame_decide,
                       pspwu_frame_decide)
from .predict import ACCURACY_PRESETS, PredictorSpec, predict

__version__ = "0.1.0"

__all__ = [
    "ACCURACY_PRESETS", "BUDGET_PRESETS", "CostQueueState", "ExperimentConfig",
    "FrameInput", "Placement", "PolicyConfig", "PredictorSpec", "RunRecord",
    "Scenario", "SlotTable", "advance", "am_decide", "bound_constant_B",
    "brute_force_frame", "brute_force_horizon", "frame_objective",
    "generate_scenario", "latency_rows", "lm_decide",
    "max_slot_migration_cost", "nm_decide", "osp_decide", "plm_decide",
    "predict", "psp_frame_decide", "pspwu_frame_decide", "run", "simulate",
    "slot_outcome", "sweep", "synthetic_trace", "update_queue",
    "update_weight",
]
