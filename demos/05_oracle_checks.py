"""Brute-force oracles confirm the solvers on desk-scale instances.

The frame solver must match exhaustive enumeration exactly (same minimizer,
same tie-break); the reactive policy's realized latency must sit within the
drift-bound distance of the offline optimum that knows the whole trace.
"""

from edgeplacer.harness import verify_frame_oracles, verify_horizon_bound

matches, total, mismatches = verify_frame_oracles(seed=1, instances=200)
print(f"frame solver vs enumeration      : {matches}/{total} exact matches")

# a weight anchor w >= q >= 0 lies in the backlog's range: the same suite
matches, total, _ = verify_frame_oracles(seed=2, instances=100)
print(f"weight-anchored solver           : {matches}/{total} exact matches")

passes, checks, failures = verify_horizon_bound(seed=1, instances=20)
print(f"reactive policy vs offline oracle: {passes}/{checks} within "
      f"oracle + B/V + 10%")
for line in failures:
    print(f"  tolerated: {line}")
print()
print("the same suites back `edgeplacer verify` on the command line.")
