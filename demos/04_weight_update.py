"""The weight-update variant: same frame solver, momentum-weighted anchor.

Instead of anchoring each frame on the queue alone, the weight recursion
w(t+1) = w(t) + dq + beta * max(w(t) - w(t-1), 0) lets past backlog growth
echo forward. The policy throttles migration earlier, which drains the
queue, at a small latency price.
"""

import numpy as np

from edgeplacer import ExperimentConfig, PolicyConfig, PredictorSpec, run

SEEDS = range(5)


def runs(policy, beta):
    out = []
    for s in SEEDS:
        cfg = ExperimentConfig(
            policy=policy, scenario_seed=s, trace_seed=s + 100, node_count=6,
            horizon=1400, frame_len=3, budget_avg=0.03,
            policy_cfg=PolicyConfig(v=50.0, theta=50.0, beta=beta),
            predictor=PredictorSpec(accuracies=(0.904, 0.839), rng_seed=s))
        out.append(run(cfg))
    return out


plain = runs("psp", beta=0.0)
weighted = runs("pspwu", beta=0.65)

lat_p = np.mean([r.avg_latency for r in plain])
lat_w = np.mean([r.avg_latency for r in weighted])
q_p = np.mean([r.avg_queue for r in plain])
q_w = np.mean([r.avg_queue for r in weighted])

print("5-seed means, frames of 3, v=50, budget 0.03, beta=0.65")
print()
print(f"  queue anchor : latency {lat_p:.4f} s, avg queue {q_p:.3f}")
print(f"  weight anchor: latency {lat_w:.4f} s, avg queue {q_w:.3f}")
print()
print(f"  queue backlog reduced {100 * (1 - q_w / q_p):.1f}% "
      f"for {100 * (lat_w / lat_p - 1):.2f}% extra latency")
print()
print("queue trajectory, seed 0 (every 100th slot):")
print(f"{'slot':>6} {'queue anchor':>13} {'weight anchor':>14}")
for t in range(0, 1400, 100):
    print(f"{t:>6} {plain[0].q[t]:>13.3f} {weighted[0].q[t]:>14.3f}")
