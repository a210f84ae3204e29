"""Virtual cost-queue dynamics and the weight-update recursion.

The queue tracks cumulative overrun of the per-slot migration budget:
q(t+1) = max(q(t) + e(t) - e_avg, 0). Keeping it stable is what enforces
the long-term budget. The weight w(t) is a queue surrogate with recursive
memory of past backlog changes (momentum weighted by beta); with beta = 0
and zero initial state it coincides with the queue exactly.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CostQueueState:
    """Queue backlog plus the weight history needed by the weight-update rule."""

    q: float = 0.0
    w: float = 0.0
    w_prev: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("queue backlog must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


def bound_constant_B(e_avg: float, e_max: float) -> float:
    """Constant (e_avg^2 + e_max^2) / 2 appearing in the drift upper bound."""
    if e_avg < 0 or e_max < 0:
        raise ValueError("costs must be nonnegative")
    return 0.5 * (e_avg * e_avg + e_max * e_max)


def advance(state: CostQueueState, e: float, e_avg: float) -> CostQueueState:
    """Apply one slot's cost to the queue, then to the weight:

        q(t+1) = max(q + e - e_avg, 0)
        w(t+1) = w + (q(t+1) - q) + beta * max(w - w_prev, 0)

    The weight is not clamped, and it needs no clamp: w - q never falls,
    so from the zero state w >= q >= 0 at every slot.
    """
    if e < 0 or e_avg < 0:
        raise ValueError("queue inputs must be nonnegative")
    q_next = max(state.q + (e - e_avg), 0.0)
    momentum = max(state.w - state.w_prev, 0.0)
    return CostQueueState(q_next, state.w + (q_next - state.q)
                          + state.beta * momentum, state.w, state.beta)
