"""Walk through the per-slot latency and migration-cost arithmetic.

A task of I megabytes uploads over the access link, crosses the backhaul
when the service sits away from the user's node, and runs on the hosting
node's CPU. Moving the container between nodes costs its size times the
per-GB price.

The fixed data (links, capacities) sit on a Scenario and the per-slot draws
in the columns of a SlotTable; latency_rows turns a range of slots into a
float64 matrix with one row of latencies per slot, one column per hosting
node, plus each slot's price of any move.
"""

import numpy as np

from edgeplacer import Scenario, SlotTable, latency_rows, slot_outcome

scn = Scenario(node_count=3, backhaul_rate=np.full((3, 3), 64.0),
               budget_avg=0.1, horizon=1, compute_capacity=(8.0, 8.0, 4.0))

# one slot: user at node 0, 8 MB upload, 4 Gcycles, 8 Mbit/s access,
# a 50 MB container at 2 per GB
table = SlotTable(node_count=3, user_node=[0], input_size=[8.0],
                  workload=[4.0], access_rate=[8.0], container_size=[50.0],
                  unit_migration_cost=[2.0])
# every slot of the table: shapes (1, 3) and (1,)
rows, prices = latency_rows(scn, table, slice(None), table.trace)
[row], [price] = rows.tolist(), prices.tolist()

print("user sits at node 0; task: 8 MB upload, 4 Gcycles of work")
print()
for node, lat in enumerate(row):
    parts = [f"access 8 MB @ 8 Mbit/s = {8 * 8 / 8:.1f} s"]
    if node != 0:
        parts.append(f"backhaul @ 64 Mbit/s = {8 * 8 / 64:.2f} s")
    cap = scn.compute_capacity[node]
    parts.append(f"compute 4 Gc @ {cap:.0f} GHz = {4 / cap:.2f} s")
    print(f"  serve from node {node}: {lat:.2f} s  ({' + '.join(parts)})")

print()
print("moving the 50 MB container at 2 $/GB:")
print(f"  stay put     -> {slot_outcome(row, price, 0, 0)[1]:.3f}")
print(f"  node 0 -> 1  -> {slot_outcome(row, price, 0, 1)[1]:.3f}")
print(f"  node 0 -> 2  -> {slot_outcome(row, price, 0, 2)[1]:.3f}  (same price anywhere)")
