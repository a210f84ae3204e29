import itertools
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_predict

from edgeplacer import predict
from edgeplacer.predict import ACCURACY_PRESETS, PredictorSpec, predict_epochs


def test_perfect_oracle_returns_truth():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0, 1.0, 1.0), rng_seed=3)
    trace = [1, 2, 4, 2, 0]
    assert predict_epochs(spec, trace, 3, 5, 1).tolist() == [
        [2, 4, 2], [4, 2, 0], [2, 0, -1], [0, -1, -1], [-1, -1, -1]]


def test_zero_accuracy_two_regions_is_complement():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.0, 0.0), rng_seed=9)
    trace = [0, 1, 0, 0, 1, 1, 0]
    got = predict_epochs(spec, trace, 2, 2, 2)
    assert got.tolist() == [[0, 1], [1, 0], [0, 1], [-1, -1]]


def test_oracle_deterministic_per_salt():
    # epoch k draws what a generator seeded with (rng_seed, k) draws
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.5, 0.5), rng_seed=4)
    trace = [0, 2, 3] * 50
    a = predict_epochs(spec, trace, 2, 5, 3)
    assert np.array_equal(a, predict_epochs(spec, trace, 2, 5, 3))
    # a shorter run's epochs draw what the longer run's first epochs draw
    assert np.array_equal(predict_epochs(spec, trace[:33], 2, 5, 3), a[:11])
    # every epoch predicts the same truths, and the salts decorrelate the
    # error pattern
    assert len({tuple(row) for row in a.tolist()}) > 1
    other = predict_epochs(replace(spec, rng_seed=5), trace, 2, 5, 3)
    assert not np.array_equal(other, a)


def test_oracle_outputs_stay_in_range():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(0.3,) * 3, rng_seed=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        trace = rng.integers(n, size=int(rng.integers(4, 40)))
        epoch_len = int(rng.integers(1, 4))
        got = predict_epochs(spec, trace, 3, n, epoch_len)
        # -1 only past the end of the trace
        ahead = np.minimum(3, len(trace) - 1 - np.arange(0, len(trace),
                                                         epoch_len))
        assert ((got >= 0) == (np.arange(3) < ahead[:, None])).all()
        assert (got < n).all()


def test_oracle_empirical_accuracy_tracks_setting():
    # epoch k starts at region 0 and predicts the true regions 1, 2, 3
    spec = PredictorSpec(kind="oracle_noisy",
                         accuracies=ACCURACY_PRESETS["arima"], rng_seed=7)
    trials = 4000
    got = predict_epochs(spec, [0, 1, 2, 3] * trials, 3, 6, 4)
    hits = (got == [1, 2, 3]).mean(axis=0)
    for s, acc in enumerate(ACCURACY_PRESETS["arima"]):
        assert abs(hits[s] - acc) < 0.03


def _reference_rows(spec, trace, w, n, epoch_len):
    """Every epoch's oracle row from its own per-call generator."""
    rows = []
    for k, start in enumerate(range(0, len(trace), epoch_len)):
        ahead = min(w, len(trace) - start - 1)
        future = trace[start + 1:start + 1 + ahead]
        rows.append(reference_predict(spec, trace[:start + 1], future, ahead,
                                      n, k) + [-1] * (w - ahead))
    return rows


@pytest.mark.parametrize("rng_seed", [0, 2 ** 32 + 5, 2 ** 64 + 3,
                                      2 ** 160 + 7])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 50])
def test_oracle_replays_each_epochs_generator(n, rng_seed):
    # one, two, three and six 32-bit words of seed entropy (past four, the
    # words and the salt are mixed into a full pool); n == 2 draws no
    # replacement and n == 1 draws nothing
    rng = np.random.default_rng(n)
    for w in range(1, 6):
        spec = PredictorSpec(accuracies=rng.uniform(0.0, 1.0, w).tolist(),
                             rng_seed=rng_seed)
        trace = rng.integers(n, size=61).tolist()
        for epoch_len in (1, 2):
            assert predict_epochs(spec, trace, w, n, epoch_len).tolist() == (
                _reference_rows(spec, trace, w, n, epoch_len))


def test_oracle_redraws_the_rows_the_replay_cannot_match(monkeypatch):
    # with 2**31 + 1 replacement regions Lemire's method rejects about half
    # of its 32-bit draws and draws again; those rows come from their own
    # generator
    n = 2 ** 31 + 2
    drawn = []

    def counted(spec, truths, n_regions, salt):
        drawn.append(salt)
        return real(spec, truths, n_regions, salt)

    real = predict._drawn_row
    monkeypatch.setattr(predict, "_drawn_row", counted)
    spec = PredictorSpec(accuracies=(0.0, 0.5, 0.0), rng_seed=11)
    trace = np.random.default_rng(5).integers(n, size=201).tolist()
    got = predict_epochs(spec, trace, 3, n, 1)
    assert 20 < len(drawn) < 180
    assert got.tolist() == _reference_rows(spec, trace, 3, n, 1)
    # more than 2**32 regions are drawn too
    drawn.clear()
    truths = np.array([[1, 2], [3, 4]])
    rows = predict._oracle_noisy(spec, truths, 2 ** 32 + 2)
    assert drawn == [0, 1]
    assert rows.tolist() == [reference_predict(spec, [0], truths[k], 2,
                                               2 ** 32 + 2, k)
                             for k in (0, 1)]


@pytest.mark.parametrize("horizon", [1400, 200])
@pytest.mark.parametrize("kind", predict.PREDICTOR_KINDS)
def test_a_run_predicts_in_one_call(monkeypatch, kind, horizon):
    # psp at the paper's and the golden runs' shape: 3-slot frames predict
    # 2 slots ahead, but the last frame sees only 1; each kind's predictor
    # is the function of its name
    name, calls = f"_{kind}", []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = getattr(predict, name)
    monkeypatch.setattr(predict, name, counted)
    trace = np.random.default_rng(3).integers(6, size=horizon)
    got = predict_epochs(PredictorSpec(kind=kind), trace, 2, 6, 3)
    assert got[-1].tolist() == [got[-1, 0], -1] and got[-1, 0] >= 0
    assert len(calls) == 1


def test_moving_mode_uses_window_and_low_tie():
    # epoch 1 starts at slot 5 and knows the trace's first six regions;
    # only a window of 3 gives both answers
    assert predict.MODE_WINDOW == 3
    spec = PredictorSpec(kind="moving_mode")
    # last three entries [2, 2, 1]: the mode is 2, where a window of 1, 2,
    # 5 or 6 gives 1, 1, 0 or 0
    trace = [0, 0, 0, 2, 2, 1, 0, 0]
    assert predict_epochs(spec, trace, 2, 3, 5)[1].tolist() == [2, 2]
    # [2, 1, 0]: a three-way tie, and the lowest region wins, where a
    # window of 4 or more gives 1
    trace = [1, 1, 1, 2, 1, 0, 2, 2]
    assert predict_epochs(spec, trace, 1, 3, 5)[1].tolist() == [0]


def test_markov_alternating_history():
    spec = PredictorSpec(kind="markov1")
    history = [0, 1] * 6 + [0]  # ends at 0; 0->1 and 1->0 dominate
    # epoch 1 starts at the last slot of history; its future is not read
    got = predict_epochs(spec, history + [0, 0], 2, 2, len(history) - 1)
    assert got[1].tolist() == [1, 0]


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
        # epoch 1 starts at the last slot of history
        got = predict_epochs(spec, history + [0] * w, w, n, len(history) - 1)
        assert got[1].tolist() == _enumerated_most_likely_path(history, w, n)


def test_predict_rejects_bad_inputs():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0,))
    for kind in ("oracle_noisy", "moving_mode", "markov1"):
        # floats and bools would be truncated to regions; 2-D has no order
        for trace in ([0.5], [0.0, 1.0], [True], np.array([False]),
                      [[0, 1]], np.zeros((2, 1), dtype=int), 0):
            with pytest.raises(ValueError):
                predict_epochs(replace(spec, kind=kind), trace, 1, 2, 1)
    with pytest.raises(ValueError):
        PredictorSpec(kind="crystal_ball")
    with pytest.raises(ValueError):
        PredictorSpec(accuracies=(1.5,))
    # a string, a boolean or a fraction is rejected, not converted; the seed
    # is a non-negative integer
    for kwargs in ({"accuracies": "11"}, {"accuracies": (True,)},
                   {"rng_seed": 2.5}, {"rng_seed": -1},
                   {"rng_seed": True}, {"rng_seed": "3"}):
        with pytest.raises(ValueError):
            PredictorSpec(**kwargs)
    assert PredictorSpec(rng_seed=np.uint8(3)).rng_seed == 3
    # a whole float is kept as an int, as every integer setting does
    spec = PredictorSpec(rng_seed=1.0)
    assert spec.rng_seed == 1 and type(spec.rng_seed) is int


def test_predict_epochs_rejects_bad_inputs():
    spec = PredictorSpec(kind="oracle_noisy", accuracies=(1.0,))
    assert predict_epochs(spec, [0, 1, 1], 1, 2, 2).tolist() == [[1], [-1]]
    for trace, w, n, epoch_len in (([0, 1], -1, 2, 1), ([0, 1], 1, 2, 0),
                                   ([0, 1], 2, 2, 1), ([0, 2], 1, 2, 1),
                                   ([0, -1], 1, 2, 1), ([], 1, 2, 1),
                                   ([0.0, 1.0], 1, 2, 1), ([[0, 1]], 1, 2, 1),
                                   ([0, 1], 1, 0, 1), ([0, 1, 2], 1, 3, 1.5),
                                   ([0, 1], 1.5, 2, 1), ([0, 1], 1, None, 1),
                                   ([0, 1], True, 2, 1), ([0, 1], 1, "2", 1)):
        with pytest.raises(ValueError):
            predict_epochs(spec, trace, w, n, epoch_len)
    # a whole float is the whole number it stands for, and an epoch longer
    # than the trace is one epoch
    assert predict_epochs(spec, [0, 1, 1], 1.0, np.float64(2.0),
                          2 ** 70).tolist() == [[1]]
    # predictions, or moving_mode's and markov1's counts per region, past
    # MAX_MATRIX_ENTRIES are refused before they are allocated
    for kind in ("moving_mode", "markov1"):
        for w, n in ((2 ** 70, 2), (2 ** 25, 2), (1, 2 ** 40)):
            with pytest.raises(ValueError, match="entries a run may have"):
                predict_epochs(replace(spec, kind=kind), [0, 1], w, n, 1)
