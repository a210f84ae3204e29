"""Shared helpers that hand-construct scenarios, slot tables and rows."""

import numpy as np

from edgeplacer.model import Scenario, SlotTable, latency_rows


def make_scenario(n=3, backhaul=64.0, budget=0.1, horizon=10, frame_len=1,
                  caps=None):
    rate = np.full((n, n), float(backhaul))
    return Scenario(node_count=n, backhaul_rate=rate, budget_avg=budget,
                    horizon=horizon, frame_len=frame_len,
                    compute_capacity=(8.0,) * n if caps is None else caps)


def make_table(users=(0,), n=3, input_size=8.0, workload=4.0,
               access_rate=8.0, container=50.0, unit_cost=2.0):
    """A table of identical slots, the user at users[t] in slot t."""
    slots = len(users)
    return SlotTable(n, list(users), [input_size] * slots, [workload] * slots,
                     [access_rate] * slots, [container] * slots,
                     [unit_cost] * slots)


def make_rows(users=(0,), n=3, backhaul=64.0, caps=None, **draws):
    """Latency rows and move prices of make_table's slots, as Python lists."""
    table = make_table(users, n, **draws)
    rows, prices = latency_rows(make_scenario(n, backhaul, caps=caps), table,
                                0, table.trace)
    return rows.tolist(), prices.tolist()
