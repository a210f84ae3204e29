import numpy as np
import pytest

from edgeplacer.costqueue import advance, bound_constant_B


def update_queue(q, e, e_avg):
    """The queue step of advance."""
    return advance(q, 0.0, 0.0, e, e_avg, 0.0)[0]


def test_update_queue_examples():
    assert update_queue(0, 5, 10) == 0.0
    assert update_queue(10, 7, 5) == 12.0
    assert update_queue(3, 0, 5) == 0.0


def test_update_queue_rejects_negative():
    # a negative or NaN backlog, cost or budget is refused
    for bad in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (float("nan"), 0, 0),
                (0, float("nan"), 0), (0, 0, float("nan"))):
        with pytest.raises(ValueError):
            update_queue(*bad)


def test_update_queue_never_negative_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        q = update_queue(float(rng.uniform(0, 10)), float(rng.uniform(0, 2)),
                         float(rng.uniform(0, 2)))
        assert q >= 0.0


def test_bound_constant():
    assert bound_constant_B(10, 20) == 250.0
    assert bound_constant_B(0, 0) == 0.0
    assert bound_constant_B(1, 1) == 1.0


def test_update_weight_examples():
    # with e_avg = 0 the queue change is the slot's cost
    assert advance(0.0, 5.0, 3.0, 2.0, 0.0, 0.5) == (2.0, 8.0, 5.0)  # 5 + 2 + 0.5*2
    # falling weight, momentum term is clamped out
    assert advance(0.0, 3.0, 5.0, 1.0, 0.0, 0.9) == (1.0, 4.0, 3.0)


def test_beta_zero_weight_tracks_queue_exactly():
    rng = np.random.default_rng(7)
    q = w = w_prev = 0.0
    e_avg = 0.3
    for _ in range(300):
        q, w, w_prev = advance(q, w, w_prev, float(rng.uniform(0, 1)), e_avg,
                               0.0)
        assert w == q


def test_advance_single_step_bound():
    # one queue step moves by at most max(e_avg, e)
    rng = np.random.default_rng(11)
    q = w = w_prev = 0.0
    e_avg = 0.4
    for _ in range(300):
        e = float(rng.uniform(0, 1))
        q_next, w, w_prev = advance(q, w, w_prev, e, e_avg, 0.65)
        assert abs(q_next - q) <= max(e_avg, e)
        q = q_next


def test_weight_dominates_queue_from_zero_state():
    # from the all-zero start the momentum terms only ever add, so w >= q
    rng = np.random.default_rng(13)
    q = w = w_prev = 0.0
    for _ in range(400):
        q, w, w_prev = advance(q, w, w_prev, float(rng.uniform(0, 1)), 0.3,
                               0.65)
        assert w >= q >= 0.0


def test_weight_is_not_clamped():
    # a falling weight below a positive queue may cross zero
    q, w, _ = advance(1.0, 0.2, 5.0, 0.0, 1.0, 0.5)
    assert q == 0.0
    assert w == -0.8


def test_state_validation():
    # a negative backlog and a beta outside [0, 1] are refused
    for q, beta in ((-0.1, 0.0), (0.0, 1.5), (0.0, -0.1),
                    (0.0, float("nan"))):
        with pytest.raises(ValueError):
            advance(q, 0.0, 0.0, 0.0, 0.0, beta)
    assert advance(0.0, 0.0, 0.0, 0.0, 0.0, 1.0) == (0.0, 0.0, 0.0)
