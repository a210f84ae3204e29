"""Pluggable mobility predictors.

Predictive placement needs the user's next few associated-node indices. Three
predictors are provided: a noisy oracle that returns the true future region
with a configured per-step accuracy (stand-in for trained sequence models,
parameterized by their measured accuracies), a moving-mode baseline, and a
first-order Markov chain fitted on the observed history.
"""

from dataclasses import dataclass

import numpy as np

PREDICTOR_KINDS = ("oracle_noisy", "moving_mode", "markov1")

# Measured per-step accuracy presets at look-ahead depths 1..3 for the three
# reference prediction methods the noisy oracle can emulate.
ACCURACY_PRESETS = {
    "lstm": (0.904, 0.839, 0.548),
    "arima": (0.885, 0.808, 0.509),
    "sma": (0.355, 0.102, 0.002),
}


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to use and its knobs.

    accuracies (oracle_noisy): chance of returning the true region at each
    look-ahead step. window (moving_mode): how much history the mode uses.
    rng_seed drives the oracle's error draws.
    """

    kind: str = "oracle_noisy"
    accuracies: tuple = ACCURACY_PRESETS["lstm"]
    window: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        object.__setattr__(self, "accuracies",
                           tuple(float(a) for a in self.accuracies))
        if any(not 0.0 <= a <= 1.0 for a in self.accuracies):
            raise ValueError("accuracies must lie in [0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def predict(spec: PredictorSpec, history, true_future, w: int, n_regions: int,
            salt: int = 0) -> list[int]:
    """Predict the user's next w region indices.

    history is the realized trace so far (most recent last): a nonempty
    one-dimensional sequence of integer regions in [0, n_regions), such as a
    list or a view of a SlotTable column, which is read and not copied.
    true_future is the realized continuation, consumed only by the noisy
    oracle. salt is mixed into the seed so repeated draws (one per frame)
    are independent while identical calls stay identical.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    h = np.asarray(history)
    if h.size == 0:
        raise ValueError("history must be nonempty")
    if h.ndim != 1 or not np.issubdtype(h.dtype, np.integer):
        raise ValueError("history must be a one-dimensional sequence of "
                         f"integer regions, got {h.dtype} with shape {h.shape}")
    if h.min() < 0 or h.max() >= n_regions:
        raise ValueError("history region out of range")

    if spec.kind == "oracle_noisy":
        return _oracle_noisy(spec, true_future, w, n_regions, salt)
    # bincount takes only intp-castable input, and a * n + b must not wrap
    # in a narrow dtype such as uint8; an intp view is used as it is
    h = h.astype(np.intp, copy=False)
    if spec.kind == "moving_mode":
        return _moving_mode(spec, h, w, n_regions)
    return _markov1(h, w, n_regions)


def _oracle_noisy(spec, true_future, w, n_regions, salt):
    if len(true_future) < w:
        raise ValueError("true_future shorter than prediction window")
    if len(spec.accuracies) < w:
        raise ValueError("need one accuracy per look-ahead step")
    rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed, salt)))
    out = []
    for s in range(w):
        truth = int(true_future[s])
        if n_regions == 1 or rng.random() < spec.accuracies[s]:
            out.append(truth)
        else:
            # uniform over the other regions
            r = int(rng.integers(n_regions - 1))
            out.append(r if r < truth else r + 1)
    return out


def _moving_mode(spec, history, w, n_regions):
    counts = np.bincount(history[-spec.window:], minlength=n_regions)
    mode = int(counts.argmax())  # ties fall to the lowest region index
    return [mode] * w


def _transition_counts(history, n):
    """counts[a, b]: 1 plus how often region b directly follows region a.

    One bincount over the pair index a * n + b; the counts are exact
    integers stored as floats.
    """
    pairs = history[:-1] * n + history[1:]
    return 1.0 + np.bincount(pairs, minlength=n * n).reshape(n, n)


def _markov1(history, w, n_regions):
    """Most-likely path of length w under a fitted first-order chain.

    Transition counts get Laplace +1 smoothing over all region pairs. The
    path maximizes the product of step probabilities; on ties the lowest
    region index wins at each step, so the result is the lexicographically
    smallest maximizer (backward max-product pass, forward reconstruction).
    """
    counts = _transition_counts(history, n_regions)
    probs = counts / counts.sum(axis=1, keepdims=True)

    # suffix[s][i]: best probability of steps s+1..w-1 given region i at step s
    suffix = np.ones((w, n_regions))
    for s in range(w - 2, -1, -1):
        suffix[s] = (probs * suffix[s + 1]).max(axis=1)

    path = []
    at = int(history[-1])
    for s in range(w):
        scores = probs[at] * suffix[s]
        at = int(scores.argmax())  # first occurrence = lowest region
        path.append(at)
    return path
