"""Pluggable mobility predictors.

Predictive placement needs the user's next few associated-node indices. Three
predictors are provided: a noisy oracle that returns the true future region
with a configured per-step accuracy (stand-in for trained sequence models,
parameterized by their measured accuracies), a moving-mode baseline, and a
first-order Markov chain fitted on the observed history.

No prediction depends on a placement decision, so a run makes all of its
predictions at once with predict_epochs.
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

# markov1 decides its epochs in blocks whose (epochs, n, n) arrays hold at
# most this many elements, so its temporaries do not grow with the trace.
_BLOCK_ELEMS = 1 << 14


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


def predict_epochs(spec: PredictorSpec, trace, w: int, n_regions: int,
                   epoch_len: int) -> np.ndarray:
    """The predictions of every decision epoch of a run over trace.

    trace is the run's realized region column: a nonempty one-dimensional
    integer sequence in [0, n_regions), checked once here and read, not
    copied, when it is an intp array. Epoch k starts at slot
    start = k * epoch_len, knows the history trace[:start + 1] and predicts
    the next ahead = min(w, len(trace) - start - 1) regions.

    Returns an int array of shape (number of epochs, w). Row k holds the
    regions predicted for slots start + 1 .. start + ahead, and -1 past
    them. oracle_noisy keeps each true region of trace with its step's
    accuracy and otherwise names a uniform other region, drawing from a
    generator seeded with (rng_seed, k); moving_mode repeats the mode of the
    last window regions of the history; markov1 follows the most likely
    path of a first-order chain fitted on the history.
    """
    if w < 0 or epoch_len < 1:
        raise ValueError("need w >= 0 and epoch_len >= 1")
    column = _column(trace, n_regions)
    if spec.kind == "oracle_noisy" and len(spec.accuracies) < w:
        raise ValueError("need one accuracy per look-ahead step")
    starts = np.arange(0, len(column), epoch_len)
    aheads = np.minimum(w, len(column) - 1 - starts)
    out = np.full((len(starts), w), -1, dtype=np.intp)
    # Only the last few epochs see less than w slots ahead. A shorter
    # markov1 path is not a prefix of a longer one, so every look-ahead
    # length gets its own pass (np.unique would import numpy.ma, ~1 MB).
    for ahead in range(1, w + 1):
        epochs = np.flatnonzero(aheads == ahead)
        if not len(epochs):
            continue
        anchors = starts[epochs]
        if spec.kind == "oracle_noisy":
            truths = column[anchors[:, None] + np.arange(1, ahead + 1)]
            rows = _oracle_noisy(spec, truths, n_regions, epochs.tolist())
        elif spec.kind == "moving_mode":
            rows = _moving_mode(spec, column, anchors, ahead, n_regions)
        else:
            rows = _markov1(column, anchors, ahead, n_regions)
        out[epochs, :ahead] = rows
    return out


def _column(history, n_regions):
    """history as an intp column after the one check of its regions."""
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
    # bincount takes only intp-castable input, and a * n + b must not wrap
    # in a narrow dtype such as uint8; an intp view is used as it is
    return h.astype(np.intp, copy=False)


def _oracle_noisy(spec, truths, n_regions, salts):
    """Each true region, kept with its step's accuracy and otherwise
    replaced by a uniform other region. Every row draws from its own
    generator, seeded from (rng_seed, salt)."""
    rows = np.asarray(truths).tolist()
    if n_regions == 1:
        return rows
    for row, salt in zip(rows, salts):
        rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed,
                                                            salt)))
        for s, truth in enumerate(row):
            if not rng.random() < spec.accuracies[s]:
                r = int(rng.integers(n_regions - 1))
                row[s] = r if r < truth else r + 1
    return rows


def _moving_mode(spec, column, anchors, w, n_regions):
    """The most frequent region of the last window slots up to each anchor,
    repeated w times; ties fall to the lowest region index. Cumulative
    per-region counts make each window's counts one subtraction."""
    ends = anchors + 1
    cum = np.zeros((ends[-1] + 1, n_regions), dtype=np.intp)
    np.cumsum(column[:ends[-1], None] == np.arange(n_regions), axis=0,
              out=cum[1:])
    counts = cum[ends] - cum[np.maximum(ends - spec.window, 0)]
    return np.repeat(counts.argmax(axis=1)[:, None], w, axis=1)


def _transition_counts(column, anchors, n):
    """Yield each block of the ascending anchors with its transition counts.

    counts[b, a, c] is 1 plus how often region c directly follows region a
    in column[:anchors[b] + 1]. The counts run on from block to block, so
    every pair is counted once, by one bincount over (epoch, pair) indices;
    they are exact integers stored as floats.
    """
    size = n * n
    block = max(1, _BLOCK_ELEMS // size)
    running = np.zeros(size, dtype=np.intp)
    done = 0  # the pairs (column[i], column[i + 1]) with i < done are counted
    for lo in range(0, len(anchors), block):
        ends = anchors[lo:lo + block]
        seg = column[done:ends[-1] + 1]
        pairs = seg[:-1] * n + seg[1:]
        # pair i first counts for the first anchor above i
        owner = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=done))
        new = np.bincount(owner * size + pairs, minlength=len(ends) * size)
        counts = running + np.cumsum(new.reshape(len(ends), size), axis=0)
        running, done = counts[-1], ends[-1]
        yield ends, 1.0 + counts.reshape(len(ends), n, n)


def _markov1(column, anchors, w, n_regions):
    """Most-likely path of length w after each anchor under a first-order
    chain fitted on the column up to that anchor.

    Transition counts get Laplace +1 smoothing over all region pairs. The
    path maximizes the product of step probabilities; on ties the lowest
    region index wins at each step, so the result is the lexicographically
    smallest maximizer (backward max-product pass, forward reconstruction).
    Costs O(len(column) + anchors * n_regions**2 * w) in all.
    """
    paths = []
    for ends, counts in _transition_counts(column, anchors, n_regions):
        probs = counts / counts.sum(axis=2, keepdims=True)
        # suffix[b, s, i]: best probability of steps s+1..w-1 given region
        # i at step s
        suffix = np.ones((len(ends), w, n_regions))
        for s in range(w - 2, -1, -1):
            suffix[:, s] = (probs * suffix[:, s + 1, None, :]).max(axis=2)
        epochs = np.arange(len(ends))
        at = column[ends]
        path = np.empty((len(ends), w), dtype=np.intp)
        for s in range(w):
            # first occurrence = lowest region
            at = path[:, s] = (probs[epochs, at] * suffix[:, s]).argmax(axis=1)
        paths.append(path)
    return np.concatenate(paths)
