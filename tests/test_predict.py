import itertools
from dataclasses import replace

import numpy as np
import pytest

from edgeplacer.predict import (ACCURACY_PRESETS, PredictorSpec, predict,
                                predict_epochs)


def test_perfect_oracle_returns_truth():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0, 1.0, 1.0), rng_seed=3)
    future = [4, 2, 0]
    assert predict(spec, [1, 2], future, 3, n_regions=5) == future


def test_zero_accuracy_two_regions_is_complement():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.0, 0.0), rng_seed=9)
    assert predict(spec, [0], [1, 0], 2, n_regions=2) == [0, 1]


def test_oracle_deterministic_per_salt():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.5, 0.5), rng_seed=4)
    a = predict(spec, [0, 1], [2, 3], 2, n_regions=5, salt=0)
    b = predict(spec, [0, 1], [2, 3], 2, n_regions=5, salt=0)
    assert a == b
    draws = {tuple(predict(spec, [0, 1], [2, 3], 2, n_regions=5, salt=s))
             for s in range(50)}
    assert len(draws) > 1  # salts decorrelate the error pattern


def test_oracle_outputs_stay_in_range():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.3,) * 3, rng_seed=1)
    rng = np.random.default_rng(2)
    for salt in range(100):
        n = int(rng.integers(2, 7))
        future = [int(rng.integers(n)) for _ in range(3)]
        out = predict(spec, [0], future, 3, n_regions=n, salt=salt)
        assert all(0 <= r < n for r in out)


def test_oracle_empirical_accuracy_tracks_setting():
    spec = PredictorSpec(kind="oracle_noisy",
                         accuracies=ACCURACY_PRESETS["arima"], rng_seed=7)
    trials = 4000
    hits = np.zeros(3)
    for salt in range(trials):
        out = predict(spec, [0], [1, 2, 3], 3, n_regions=6, salt=salt)
        hits += [out[s] == [1, 2, 3][s] for s in range(3)]
    for s, acc in enumerate(ACCURACY_PRESETS["arima"]):
        assert abs(hits[s] / trials - acc) < 0.03


def test_moving_mode_uses_window_and_low_tie():
    spec = PredictorSpec(kind="moving_mode", window=4)
    # last four entries: [2, 2, 1, 1] -> tie, lowest region wins
    assert predict(spec, [0, 0, 2, 2, 1, 1], [], 2, n_regions=3) == [1, 1]
    spec = PredictorSpec(kind="moving_mode", window=2)
    assert predict(spec, [0, 0, 2, 2, 1, 1], [], 1, n_regions=3) == [1]


def test_markov_alternating_history():
    spec = PredictorSpec(kind="markov1")
    history = [0, 1] * 6 + [0]  # ends at 0; 0->1 and 1->0 dominate
    assert predict(spec, history, [], 2, n_regions=2) == [1, 0]


def _enumerated_most_likely_path(history, w, n):
    counts = np.ones((n, n))
    for a, b in zip(history[:-1], history[1:]):
        counts[a, b] += 1.0
    probs = counts / counts.sum(axis=1, keepdims=True)
    best_path, best_p = None, -1.0
    for path in itertools.product(range(n), repeat=w):
        p = 1.0
        at = history[-1]
        for step in path:
            p *= probs[at, step]
            at = step
        if p > best_p:
            best_p, best_path = p, list(path)
    return best_path


def test_markov_matches_enumerated_max_product_path():
    spec = PredictorSpec(kind="markov1")
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        history = [int(rng.integers(n)) for _ in range(int(rng.integers(5, 40)))]
        w = int(rng.integers(1, 4))
        got = predict(spec, history, [], w, n_regions=n)
        assert got == _enumerated_most_likely_path(history, w, n)


def test_predict_rejects_bad_inputs():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0,))
    with pytest.raises(ValueError):
        predict(spec, [0], [1], 0, n_regions=2)
    with pytest.raises(ValueError):
        predict(spec, [], [1], 1, n_regions=2)
    with pytest.raises(ValueError):
        predict(spec, [0], [1, 1], 2, n_regions=2)  # only one accuracy given
    with pytest.raises(ValueError):
        predict(spec, [5], [1], 1, n_regions=2)  # history out of range
    for kind in ("oracle_noisy", "moving_mode", "markov1"):
        # floats and bools would be truncated to regions; 2-D has no order
        for history in ([0.5], [0.0, 1.0], [True], np.array([False]),
                        [[0, 1]], np.zeros((2, 1), dtype=int), 0):
            with pytest.raises(ValueError):
                predict(replace(spec, kind=kind), history, [1], 1,
                        n_regions=2)
    with pytest.raises(ValueError):
        PredictorSpec(kind="crystal_ball")
    with pytest.raises(ValueError):
        PredictorSpec(accuracies=(1.5,))
    with pytest.raises(ValueError):
        PredictorSpec(window=0)


def test_predict_epochs_rejects_bad_inputs():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0,))
    assert predict_epochs(spec, [0, 1, 1], 1, 2, 2).tolist() == [[1], [-1]]
    for trace, w, n, epoch_len in (([0, 1], -1, 2, 1), ([0, 1], 1, 2, 0),
                                   ([0, 1], 2, 2, 1), ([0, 2], 1, 2, 1),
                                   ([0, -1], 1, 2, 1), ([], 1, 2, 1),
                                   ([0.0, 1.0], 1, 2, 1), ([[0, 1]], 1, 2, 1),
                                   ([0, 1], 1, 0, 1)):
        with pytest.raises(ValueError):
            predict_epochs(spec, trace, w, n, epoch_len)
