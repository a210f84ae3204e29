"""Virtual cost-queue dynamics and the weight-update recursion.

The queue tracks cumulative overrun of the per-slot migration budget:
q(t+1) = max(q(t) + e(t) - e_avg, 0). Keeping it stable is what enforces
the long-term budget. The weight w(t) is a queue surrogate with recursive
memory of past backlog changes (momentum weighted by beta); with beta = 0
and zero initial state it coincides with the queue exactly.
"""


def bound_constant_B(e_avg: float, e_max: float) -> float:
    """Constant (e_avg^2 + e_max^2) / 2 appearing in the drift upper bound."""
    if e_avg < 0 or e_max < 0:
        raise ValueError("costs must be nonnegative")
    return 0.5 * (e_avg * e_avg + e_max * e_max)


def advance(q: float, w: float, w_prev: float, e: float, e_avg: float,
            beta: float) -> tuple[float, float, float]:
    """Apply one slot's cost to the queue, then to the weight, and return
    the next (q, w, w_prev):

        q(t+1) = max(q + e - e_avg, 0)
        w(t+1) = w + (q(t+1) - q) + beta * max(w - w_prev, 0)

    A negative or NaN backlog, cost or budget, or a beta outside [0, 1], is
    a ValueError. The weight is not clamped, and it needs no clamp: w - q
    never falls, so from the zero state w >= q >= 0 at every slot.
    """
    if not (q >= 0.0 and e >= 0.0 and e_avg >= 0.0 and 0.0 <= beta <= 1.0):
        raise ValueError("queue inputs must be >= 0 and beta in [0, 1]")
    # Compares in place of max(x, 0.0), a builtin call; like max, they keep
    # x when it is -0.0 or NaN.
    q_next = q + (e - e_avg)
    if q_next < 0.0:
        q_next = 0.0
    rise = w - w_prev
    return q_next, w + (q_next - q) + beta * (0.0 if rise < 0.0 else rise), w
