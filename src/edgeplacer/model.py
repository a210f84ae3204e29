"""Per-slot arithmetic of the edge system: latency, migration cost, feasibility.

A user roams among N edge nodes. At every slot the service container sits on
exactly one node; serving from node i costs the access-link transfer time,
plus a backhaul transfer when i is not the user's associated node, plus the
compute time on i. Moving the container between two distinct nodes costs its
size times the per-GB transfer price.

The fixed data (nodes, links, capacities, budget) live on a Scenario and the
per-slot draws in the columns of a SlotTable. This module is the only reader
of those columns: everything else sees latency rows and move prices.

Units are fixed and decimal throughout: sizes in MB (1 GB = 1000 MB), data
rates in Mbit/s (1 MB = 8 Mbit), workloads in giga-cycles, capacities in GHz,
latencies in seconds, migration prices in cost units per GB.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MEGABITS_PER_MEGABYTE = 8.0
MEGABYTES_PER_GIGABYTE = 1000.0

# A placement is a plain node index in [0, node_count).
Placement = int

# The most entries a run's (node_count, node_count) backhaul matrix, its
# (horizon, node_count) latency rows or its predictions may have: 2**25
# float64s, 256 MiB each. A size past it is a ValueError (a ConfigError in
# a config) before anything is allocated, not a MemoryError from numpy.
MAX_MATRIX_ENTRIES = 2 ** 25


def _real(value, name: str) -> float:
    """A float setting: a boolean or a string is rejected, not converted,
    and so is a number too large for a float (an int past 2**1024)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _whole(value, name: str) -> int:
    """An integer setting: a non-integral number is rejected, not truncated,
    and a boolean or a string is rejected, not converted."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)  # as float, an int past 2**1024 would overflow
    if not _real(value, name).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _seed(value, name: str) -> int:
    """A seed: a whole number, and >= 0 as numpy's SeedSequence needs,
    checked here so the error names the setting."""
    seed = _whole(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")
    return seed


def _floats(name: str, values) -> np.ndarray:
    """values as a float array: an integer or float array is converted as
    numpy does, and any other input entry by entry through _real, so a
    boolean, a string, any other object or an int past 2**1024 is a
    ValueError that names the column."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float, copy=False)
    entries = np.asarray(values, dtype=object)
    return np.array([_real(x, name) for x in entries.flat],
                    dtype=float).reshape(entries.shape)


def _positive(name: str, values, shape: tuple) -> np.ndarray:
    array = _floats(name, values)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if not (np.isfinite(array) & (array > 0)).all():
        raise ValueError(f"{name} must be finite and > 0")
    return array


@dataclass(frozen=True)
class Scenario:
    """Fixed system description: nodes, links, capacities, budget, timing."""

    node_count: int
    backhaul_rate: np.ndarray     # N x N Mbit/s, diagonal set to inf
    budget_avg: float             # long-term per-slot migration cost budget
    horizon: int                  # total slots
    compute_capacity: np.ndarray  # GHz per node, fixed over time
    frame_len: int = 1            # slots per frame; prediction window is frame_len - 1

    def __post_init__(self):
        for name in ("node_count", "horizon", "frame_len"):
            value = _whole(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)
        budget = _real(self.budget_avg, "budget_avg")
        if not (math.isfinite(budget) and budget >= 0):
            raise ValueError("budget_avg must be finite and >= 0")
        object.__setattr__(self, "budget_avg", budget)
        rate = np.array(_floats("backhaul_rate", self.backhaul_rate))
        if rate.shape != (self.node_count, self.node_count):
            raise ValueError("backhaul_rate must be node_count x node_count")
        off_diag = rate[~np.eye(self.node_count, dtype=bool)]
        _positive("off-diagonal backhaul_rate", off_diag, off_diag.shape)
        np.fill_diagonal(rate, math.inf)
        object.__setattr__(self, "backhaul_rate", rate)
        object.__setattr__(self, "compute_capacity", _positive(
            "compute_capacity", self.compute_capacity, (self.node_count,)))


_DRAWN = ("input_size", "workload", "access_rate", "container_size",
          "unit_migration_cost")


@dataclass(frozen=True, eq=False)
class SlotTable:
    """The per-slot draws of a run: one column per quantity, one entry per slot.

    Checked once, when built: node_count is a whole number, the columns are
    one-dimensional and equally long, every drawn value is a finite positive
    number, and every user node is an integer in [0, node_count). Slicing
    with [a:b] gives those slots' table.
    """

    node_count: int
    user_node: np.ndarray            # node the user is associated with
    input_size: np.ndarray           # MB uploaded by the task
    workload: np.ndarray             # giga-cycles to process it
    access_rate: np.ndarray          # Mbit/s user <-> associated node
    container_size: np.ndarray       # MB of the service container
    unit_migration_cost: np.ndarray  # cost units per GB moved

    def __post_init__(self):
        object.__setattr__(self, "node_count",
                           _whole(self.node_count, "node_count"))
        users = _indices(self.user_node, self.node_count,
                         "user_node must be integer nodes in [0, node_count)")
        object.__setattr__(self, "user_node", users)
        for name in _DRAWN:
            object.__setattr__(self, name, _positive(name, getattr(self, name),
                                                     users.shape))

    def __getitem__(self, slots: slice) -> "SlotTable":
        return SlotTable(self.node_count, self.user_node[slots],
                         *(getattr(self, name)[slots] for name in _DRAWN))

    @cached_property
    def trace(self) -> list[int]:
        """The realized user node of every slot."""
        return self.user_node.tolist()


def latency_rows(scn: Scenario, table: SlotTable, slots, users):
    """Latency rows and move prices of the given slots of the table.

    slots is a slice with step 1 or a one-dimensional integer index array,
    naming one slot per entry of users; users[k] is the user's node in the
    k-th of them, realized or predicted. rows[k, i] is the time in seconds
    to serve that slot from node i: access transfer, plus backhaul
    transfer, plus compute on i. The backhaul rate of the user's own node is
    stored as inf, so its backhaul time is exactly 0 s. prices[k] is the
    cost of any move in that slot; both are float64 arrays. A slot outside
    the table or a node outside [0, node_count) raises ValueError.
    """
    size = len(table.user_node)
    if isinstance(slots, slice):
        start = 0 if slots.start is None else slots.start
        stop = size if slots.stop is None else slots.stop
        if slots.step not in (None, 1) or not 0 <= start <= stop <= size:
            raise ValueError("slots out of the table's range")
        count = stop - start
    else:
        slots = _indices(slots, size, "slots out of the table's range")
        count = len(slots)
    users = _indices(users, scn.node_count,
                     f"user nodes must lie in [0, {scn.node_count})")
    if len(users) != count:
        raise ValueError(f"{len(users)} user nodes for {count} slots")
    data = table.input_size[slots, None] * MEGABITS_PER_MEGABYTE
    rows = (data / table.access_rate[slots, None]
            + data / scn.backhaul_rate[users]
            + table.workload[slots, None] / scn.compute_capacity)
    return rows, _move_prices(table, slots)


def _indices(values, size: int, message: str) -> np.ndarray:
    """values as a one-dimensional intp array, each in [0, size); floats,
    booleans and strings are rejected, not truncated. An intp array is
    returned as it is; intp, as bincount and a * n + b do not wrap in it."""
    index = np.asarray(values)
    if index.size == 0:
        return index.astype(np.intp).reshape(0)
    if (index.ndim != 1 or not np.issubdtype(index.dtype, np.integer)
            or index.min() < 0 or index.max() >= size):
        raise ValueError(message)
    return index.astype(np.intp, copy=False)


def _move_prices(table: SlotTable, slots=slice(None)) -> np.ndarray:
    return (table.container_size[slots] / MEGABYTES_PER_GIGABYTE
            * table.unit_migration_cost[slots])


def max_slot_migration_cost(table: SlotTable) -> float:
    """Largest migration cost any placement change could incur in the table."""
    return float(_move_prices(table).max())
