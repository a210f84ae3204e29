import numpy as np
import pytest

from edgeplacer.costqueue import CostQueueState, advance, bound_constant_B


def update_queue(q, e, e_avg):
    """The queue step of advance."""
    return advance(CostQueueState(q=q), e, e_avg).q


def test_update_queue_examples():
    assert update_queue(0, 5, 10) == 0.0
    assert update_queue(10, 7, 5) == 12.0
    assert update_queue(3, 0, 5) == 0.0


def test_update_queue_rejects_negative():
    # a negative backlog is refused by the state, a negative cost by advance
    for bad in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
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
    s = CostQueueState(q=0.0, w=5.0, w_prev=3.0, beta=0.5)
    nxt = advance(s, 2.0, 0.0)
    assert (nxt.q, nxt.w, nxt.w_prev) == (2.0, 8.0, 5.0)  # 5 + 2 + 0.5*2
    s = CostQueueState(q=0.0, w=3.0, w_prev=5.0, beta=0.9)
    nxt = advance(s, 1.0, 0.0)
    assert nxt.w == 4.0  # falling weight, momentum term is clamped out
    assert nxt.w_prev == 3.0
    assert nxt.beta == 0.9


def test_beta_zero_weight_tracks_queue_exactly():
    rng = np.random.default_rng(7)
    state = CostQueueState(beta=0.0)
    e_avg = 0.3
    for _ in range(300):
        state = advance(state, float(rng.uniform(0, 1)), e_avg)
        assert state.w == state.q


def test_advance_single_step_bound():
    # one queue step moves by at most max(e_avg, e)
    rng = np.random.default_rng(11)
    state = CostQueueState(beta=0.65)
    e_avg = 0.4
    for _ in range(300):
        e = float(rng.uniform(0, 1))
        nxt = advance(state, e, e_avg)
        assert abs(nxt.q - state.q) <= max(e_avg, e)
        state = nxt


def test_weight_dominates_queue_from_zero_state():
    # from the all-zero start the momentum terms only ever add, so w >= q
    rng = np.random.default_rng(13)
    state = CostQueueState(beta=0.65)
    for _ in range(400):
        state = advance(state, float(rng.uniform(0, 1)), 0.3)
        assert state.w >= state.q >= 0.0


def test_weight_is_not_clamped():
    # a falling weight below a positive queue may cross zero
    state = CostQueueState(q=1.0, w=0.2, w_prev=5.0, beta=0.5)
    state = advance(state, 0.0, 1.0)
    assert state.q == 0.0
    assert state.w == -0.8


def test_state_validation():
    with pytest.raises(ValueError):
        CostQueueState(q=-0.1)
    with pytest.raises(ValueError):
        CostQueueState(beta=1.5)
