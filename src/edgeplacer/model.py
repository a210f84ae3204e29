"""Per-slot arithmetic of the edge system: latency, migration cost, feasibility.

A user roams among N edge nodes. At every slot the service container sits on
exactly one node; serving from node i costs the access-link transfer time,
plus a backhaul transfer when i is not the user's associated node, plus the
compute time on i. Moving the container between two distinct nodes costs its
size times the per-GB transfer price.

Units are fixed and decimal throughout: sizes in MB (1 GB = 1000 MB), data
rates in Mbit/s (1 MB = 8 Mbit), workloads in giga-cycles, capacities in GHz,
latencies in seconds, migration prices in cost units per GB.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

MEGABITS_PER_MEGABYTE = 8.0
MEGABYTES_PER_GIGABYTE = 1000.0

# A placement is a plain node index in [0, node_count).
Placement = int


@dataclass(frozen=True)
class Scenario:
    """Static system description: node population, links, budget, timing."""

    node_count: int
    backhaul_rate: np.ndarray  # N x N Mbit/s between nodes, diagonal unused
    budget_avg: float          # long-term per-slot migration cost budget
    horizon: int               # total slots
    frame_len: int = 1         # slots per frame; prediction window is frame_len - 1

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.frame_len < 1:
            raise ValueError("frame_len must be >= 1")
        if not (math.isfinite(self.budget_avg) and self.budget_avg >= 0):
            raise ValueError("budget_avg must be finite and >= 0")
        rate = np.asarray(self.backhaul_rate, dtype=float)
        if rate.shape != (self.node_count, self.node_count):
            raise ValueError("backhaul_rate must be node_count x node_count")
        off_diag = rate[~np.eye(self.node_count, dtype=bool)]
        if off_diag.size and not ((off_diag > 0) & np.isfinite(off_diag)).all():
            raise ValueError("off-diagonal backhaul rates must be positive and finite")
        object.__setattr__(self, "backhaul_rate", rate)


@dataclass(frozen=True)
class SlotObservation:
    """Everything time-varying at one slot.

    user_node is the node the user is associated with; in predictive frames
    it may be a predicted value rather than the realized one.
    """

    slot: int
    user_node: int
    input_size: float            # MB uploaded by the task
    workload: float              # giga-cycles to process it
    access_rate: float           # Mbit/s user <-> associated node
    compute_capacity: tuple      # GHz per node, length node_count
    container_size: float        # MB of the service container
    unit_migration_cost: float   # cost units per GB moved

    def __post_init__(self):
        if self.slot < 0:
            raise ValueError("slot must be >= 0")
        caps = tuple(float(c) for c in self.compute_capacity)
        object.__setattr__(self, "compute_capacity", caps)
        if not 0 <= self.user_node < len(caps):
            raise ValueError("user_node out of range")
        positive = (self.input_size, self.workload, self.access_rate,
                    self.container_size, self.unit_migration_cost) + caps
        if not all(x > 0 for x in positive):
            raise ValueError("rates, sizes and capacities must be positive")


def with_user_node(obs: SlotObservation, node: int) -> SlotObservation:
    """Copy of obs with the associated node replaced (prediction substitution)."""
    return replace(obs, user_node=node)


def service_latency(scn: Scenario, obs: SlotObservation, placed_at: Placement) -> float:
    """Seconds to serve the slot's task from node placed_at.

    Access transfer + backhaul transfer (zero when the service is on the
    user's associated node, which attaches via the local network) + compute.
    """
    if not 0 <= placed_at < scn.node_count:
        raise ValueError("placed_at out of range")
    access = obs.input_size * MEGABITS_PER_MEGABYTE / obs.access_rate
    if placed_at == obs.user_node:
        backhaul = 0.0
    else:
        # float() so the numpy matrix entry cannot leak its scalar type out
        backhaul = (obs.input_size * MEGABITS_PER_MEGABYTE
                    / float(scn.backhaul_rate[obs.user_node, placed_at]))
    compute = obs.workload / obs.compute_capacity[placed_at]
    return access + backhaul + compute


def migration_cost(obs: SlotObservation, src: Placement, dst: Placement) -> float:
    """Cost of moving the container from src to dst this slot; 0 if unchanged."""
    n = len(obs.compute_capacity)
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError("placement out of range")
    if src == dst:
        return 0.0
    return (obs.container_size / MEGABYTES_PER_GIGABYTE) * obs.unit_migration_cost


def slot_outcome(scn: Scenario, obs: SlotObservation, prev: Placement,
                 cur: Placement) -> tuple[float, float]:
    """Realized (latency, migration cost) of holding cur after prev."""
    return service_latency(scn, obs, cur), migration_cost(obs, prev, cur)
