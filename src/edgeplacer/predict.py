"""Pluggable mobility predictors.

Predictive placement needs the user's next few associated-node indices. Three
predictors are provided: a noisy oracle that returns the true future region
with a configured per-step accuracy (stand-in for trained sequence models,
parameterized by their measured accuracies), a moving-mode baseline, and a
first-order Markov chain fitted on the observed history.

No prediction depends on a placement decision, so a run makes all of its
predictions at once with predict_epochs.
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import MAX_MATRIX_ENTRIES, _indices, _real, _seed, _whole

PREDICTOR_KINDS = ("oracle_noisy", "moving_mode", "markov1")

# moving_mode predicts the mode of this many latest regions of the history.
MODE_WINDOW = 3

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
    look-ahead step. rng_seed, a non-negative whole number stored as int
    (2.0 becomes 2), drives the oracle's error draws. moving_mode takes the
    mode of the last MODE_WINDOW regions and has no knob.
    """

    kind: str = "oracle_noisy"
    accuracies: tuple = ACCURACY_PRESETS["lstm"]
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        accuracies = self.accuracies
        if isinstance(accuracies, str) or not isinstance(accuracies, Iterable):
            raise ValueError(f"accuracies must be a list of numbers, got {accuracies!r}")
        object.__setattr__(self, "accuracies", tuple(
            _real(a, "accuracy") for a in accuracies))
        if any(not 0.0 <= a <= 1.0 for a in self.accuracies):
            raise ValueError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "rng_seed", _seed(self.rng_seed, "rng_seed"))


def predict_epochs(spec: PredictorSpec, trace, w: int, n_regions: int,
                   epoch_len: int) -> np.ndarray:
    """The predictions of every decision epoch of a run over trace.

    trace is the run's realized region column: a nonempty one-dimensional
    integer sequence in [0, n_regions), checked once here and read, not
    copied, when it is an intp array. Epoch k starts at slot
    start = k * epoch_len, knows the history trace[:start + 1] and predicts
    the next ahead = min(w, len(trace) - start - 1) regions. The
    predictions, and moving_mode's and markov1's counts per region, may
    not pass MAX_MATRIX_ENTRIES.

    Returns an int array of shape (number of epochs, w). Row k holds the
    regions predicted for slots start + 1 .. start + ahead, and -1 past them;
    one predictor call predicts w steps for every epoch, and each row is cut to
    its ahead (see _markov1). oracle_noisy keeps each true region of trace with
    its step's accuracy and otherwise names a uniform other region; epoch k's
    draws are those of numpy's default_rng(SeedSequence((rng_seed, k))),
    replayed for all epochs at once in array arithmetic. moving_mode repeats
    the mode of the last MODE_WINDOW regions of the history; markov1 follows
    the most likely path of a first-order chain fitted on the history.
    """
    w, epoch_len = _whole(w, "w"), _whole(epoch_len, "epoch_len")
    n_regions = _whole(n_regions, "n_regions")
    if w < 0 or epoch_len < 1:
        raise ValueError("need w >= 0 and epoch_len >= 1")
    column = _column(trace, n_regions)
    if spec.kind == "oracle_noisy" and len(spec.accuracies) < w:
        raise ValueError("need one accuracy per look-ahead step")
    # an epoch longer than the trace is its one epoch
    starts = np.arange(0, len(column), min(epoch_len, len(column)))
    if len(starts) * w > MAX_MATRIX_ENTRIES:
        raise ValueError(f"{len(starts)} epochs of w = {w} predictions pass "
                         f"the {MAX_MATRIX_ENTRIES} entries a run may have")
    if w == 0:
        return np.empty((len(starts), 0), dtype=np.intp)
    if spec.kind != "oracle_noisy" and (
            n_regions * max(n_regions, len(column)) > MAX_MATRIX_ENTRIES):
        raise ValueError(f"{spec.kind}'s counts of {n_regions} regions pass "
                         f"the {MAX_MATRIX_ENTRIES} entries a run may have")
    aheads = np.minimum(w, len(column) - 1 - starts)
    if spec.kind == "oracle_noisy":
        truths = column.take(starts[:, None] + np.arange(1, w + 1),
                             mode="clip")
        rows = _oracle_noisy(spec, truths, n_regions)
    elif spec.kind == "moving_mode":
        rows = _moving_mode(column, starts, w, n_regions)
    else:
        rows = _markov1(column, starts, w, n_regions, w - aheads)
    return np.where(np.arange(w) < aheads[:, None], rows, -1)


def _column(history, n_regions):
    """history as a nonempty intp column of regions in [0, n_regions)."""
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    if np.size(history) == 0:
        raise ValueError("history must be nonempty")
    return _indices(history, n_regions, "history must be a one-dimensional "
                    f"sequence of integer regions in [0, {n_regions})")


def _oracle_noisy(spec, truths, n_regions):
    """Each true region, kept with its step's accuracy and otherwise
    replaced by a uniform other region. Row e draws what a generator seeded
    from (rng_seed, e) would draw, replayed for all rows at once; the rows
    the replay cannot match exactly are drawn by _drawn_row."""
    rows = np.array(truths)
    if n_regions == 1:
        return rows
    k = n_regions - 1
    if k > 0xFFFFFFFF:  # numpy leaves Lemire's 32-bit method
        redraw = np.ones(len(rows), dtype=bool)
    else:
        redraw = _replay(spec, rows, k)
    for e in np.flatnonzero(redraw):
        rows[e] = _drawn_row(spec, truths[e], n_regions, int(e))
    return rows


def _drawn_row(spec, truths, n_regions, salt):
    """One epoch's predictions drawn from its own generator, seeded from
    (rng_seed, salt): the numpy stream _replay reproduces."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed, salt)))
    row = []
    for s, truth in enumerate(truths):
        if not rng.random() < spec.accuracies[s]:
            r = int(rng.integers(n_regions - 1))
            truth = r if r < truth else r + 1
        row.append(truth)
    return row


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier, in
# the widths of the arrays they meet
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R, _16 = np.uint32([0xCA01F9DD, 0x4973F715, 16])
_MULT_HI, _MULT_LO, _M32, _32 = np.uint64(
    [2549297995355413924, 4865540595714422341, 0xFFFFFFFF, 32])
_B0, _B1 = _MULT_LO & _M32, _MULT_LO >> _32  # 32-bit limbs of _MULT_LO


def _replay(spec, rows, k):
    """Overwrite the missed regions of rows in place, as _drawn_row would
    for row e's salt e (a run has under 2**32 epochs) with n_regions =
    k + 1 in [2, 2**32], and return the mask of rows it could not match: a
    Lemire rejection, which draws again.

    Per row and depth, Generator.random() is (raw >> 11) * 2**-53 of a fresh
    64-bit PCG64 output, and on a miss Generator.integers(k) is the high
    word of a 32-bit value times k (Lemire), the value being the low half of
    a fresh output or the buffered high half of the last one so split; for
    k == 1 it draws nothing. Both happen in lock step for all rows.
    """
    e, w = rows.shape
    every = np.arange(e)
    raw = _pcg64_outputs(spec.rng_seed, every, w + (w + 1) // 2)
    at = np.zeros(e, dtype=np.intp)  # next unread output of each row
    half = np.zeros(e, dtype=np.uint64)  # buffered high half, if any
    has_half = np.zeros(e, dtype=bool)
    redraw = np.zeros(e, dtype=bool)
    reject = np.uint64((2 ** 32 - k) % k)  # Lemire's threshold
    for s in range(w):
        miss = ~((raw[every, at] >> np.uint64(11)) * 2.0 ** -53
                 < spec.accuracies[s])
        at += 1
        out = raw[every, np.minimum(at, raw.shape[1] - 1)]
        fresh = miss & ~has_half & (k > 1)
        at += fresh
        m = np.where(fresh, out & _M32, half) * np.uint64(k)
        half = np.where(fresh, out >> _32, half)
        has_half ^= miss
        redraw |= miss & ((m & _M32) < reject)
        r = (m >> _32).astype(np.intp)
        rows[:, s] = np.where(miss, r + (r >= rows[:, s]), rows[:, s])
    return redraw


def _pcg64_outputs(seed, salts, count):
    """The first count outputs of default_rng(SeedSequence((seed, salt)))'s
    PCG64 for every salt (taken mod 2**32), as a (len(salts), count) uint64
    array."""
    # SeedSequence: hash the entropy words, the seed's low word first, into
    # a pool of 4 words (a column per salt), mix it, and hash 8 words out
    words = [seed >> i & 0xFFFFFFFF
             for i in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, 4), len(salts)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = salts
    pool = _hashed(entropy[:4], 0, 4, _INIT_A, _MULT_A)
    calls = 4
    for src in range(len(entropy)):
        # each pool word takes in every other one, then each later word
        dst, n = np.arange(4) != src, 3 if src < 4 else 4
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashed(
            pool[src] if src < 4 else entropy[src], calls, n, _INIT_A, _MULT_A)
        pool[dst] = mixed ^ mixed >> _16
        calls += n
    # PCG64 srandom from the seed and stream words, paired little-endian:
    # inc = stream << 1 | 1, state = seed + inc, then one step; 128-bit
    # numbers are (high, low) uint64 pairs
    s_hi, s_lo, i_hi, i_lo = (
        w[0].astype(np.uint64) | w[1].astype(np.uint64) << _32
        for state in (_hashed(pool, 0, 4, _INIT_B, _MULT_B),
                      _hashed(pool, 4, 4, _INIT_B, _MULT_B))
        for w in (state[:2], state[2:]))
    inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
    inc_lo = i_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    out = np.empty((len(salts), count + 1), dtype=np.uint64)
    for j in range(count + 1):
        # state = state * mult + inc mod 2**128; the high word of lo * mult's
        # low word is summed from 32-bit limbs
        a0, a1 = lo & _M32, lo >> _32
        p10, p01 = a1 * _B0, a0 * _B1
        cross = (a0 * _B0 >> _32) + (p10 & _M32) + (p01 & _M32)
        hi = (hi * _MULT_LO + lo * _MULT_HI + inc_hi + a1 * _B1
              + (p10 >> _32) + (p01 >> _32) + (cross >> _32))
        low = lo * _MULT_LO
        lo = low + inc_lo
        hi += lo < low
        # XSL-RR output: high ^ low rotated right by the top 6 bits
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return out[:, 1:]  # the first step ends srandom


def _hashed(values, first, count, init, mult):
    """SeedSequence's hash of the count rows of values, or of one value
    count times, as its calls first, first + 1, ... with the constants
    init * mult**call mod 2**32."""
    const = np.array([init * mult ** i & 0xFFFFFFFF
                      for i in range(first, first + count + 1)],
                     dtype=np.uint32)
    hashed = (values ^ const[:-1, None]) * const[1:, None]
    return hashed ^ hashed >> _16


def _moving_mode(column, anchors, w, n_regions):
    """The most frequent region of the last MODE_WINDOW slots up to each
    anchor, repeated w times; ties fall to the lowest region index.
    Cumulative per-region counts make each window's counts one subtraction."""
    ends = anchors + 1
    cum = np.zeros((ends[-1] + 1, n_regions), dtype=np.intp)
    np.cumsum(column[:ends[-1], None] == np.arange(n_regions), axis=0,
              out=cum[1:])
    counts = cum[ends] - cum[np.maximum(ends - MODE_WINDOW, 0)]
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


def _markov1(column, anchors, w, n_regions, shortfalls):
    """Most-likely path of w - shortfalls[b] steps after each anchor b
    under a first-order chain fitted on the column up to it, in a row of w.

    Transition counts get Laplace +1 smoothing over all region pairs. The
    path maximizes the product of step probabilities; on ties the lowest
    region index wins at each step, so the result is the lexicographically
    smallest maximizer (backward max-product pass, forward reconstruction).
    The chain is the same at every step, so the best probability after
    step s depends only on the steps left: a path w - f steps long reads
    step s off the w-step pass at s + f (w - 1 past its end), bit for bit.
    Costs O(len(column) + anchors * n_regions**2 * w) in all.
    """
    steps = np.minimum(shortfalls[:, None] + np.arange(w), w - 1)
    paths, done = [], 0
    for ends, counts in _transition_counts(column, anchors, n_regions):
        probs = counts / counts.sum(axis=2, keepdims=True)
        # suffix[b, s, i]: best probability of steps s+1..w-1 given region
        # i at step s
        suffix = np.ones((len(ends), w, n_regions))
        for s in range(w - 2, -1, -1):
            suffix[:, s] = (probs * suffix[:, s + 1, None, :]).max(axis=2)
        epochs = np.arange(len(ends))
        block, done = steps[done:done + len(ends)], done + len(ends)
        at = column[ends]
        path = np.empty((len(ends), w), dtype=np.intp)
        for s in range(w):
            # first occurrence = lowest region
            at = path[:, s] = (probs[epochs, at]
                               * suffix[epochs, block[:, s]]).argmax(axis=1)
        paths.append(path)
    return np.concatenate(paths)
