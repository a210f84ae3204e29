"""Shared helpers that hand-construct scenarios, slot tables and rows, and
the per-call predictor formulas that batch predictions are checked against."""

import numpy as np

from edgeplacer.model import Scenario, SlotTable, latency_rows


def make_scenario(n=3, backhaul=64.0, budget=0.1, horizon=10, frame_len=1,
                  caps=None):
    rate = np.full((n, n), float(backhaul))
    return Scenario(node_count=n, backhaul_rate=rate, budget_avg=budget,
                    horizon=horizon, frame_len=frame_len,
                    compute_capacity=(8.0,) * n if caps is None else caps)


def make_table(users=(0,), n=3, input_size=8.0, workload=4.0,
               access_rate=8.0, container=50.0, unit_cost=2.0):
    """A table of identical slots, the user at users[t] in slot t."""
    slots = len(users)
    return SlotTable(n, list(users), [input_size] * slots, [workload] * slots,
                     [access_rate] * slots, [container] * slots,
                     [unit_cost] * slots)


def make_rows(users=(0,), n=3, backhaul=64.0, caps=None, **draws):
    """Latency rows and move prices of make_table's slots, as Python lists."""
    table = make_table(users, n, **draws)
    rows, prices = latency_rows(make_scenario(n, backhaul, caps=caps), table,
                                slice(None), table.trace)
    return rows.tolist(), prices.tolist()


def reference_predict(spec, history, true_future, w, n_regions, salt):
    """The w regions predicted after history by the per-call formulas from
    before the batch entry point: one call per epoch, each recounting its
    whole history. The noisy oracle reads true_future and seeds its draws
    with (rng_seed, salt)."""
    history = np.asarray(history).astype(np.intp)
    if spec.kind == "oracle_noisy":
        rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed,
                                                            salt)))
        out = []
        for s in range(w):
            truth = int(true_future[s])
            if n_regions == 1 or rng.random() < spec.accuracies[s]:
                out.append(truth)
            else:
                r = int(rng.integers(n_regions - 1))
                out.append(r if r < truth else r + 1)
        return out
    if spec.kind == "moving_mode":
        counts = np.bincount(history[-spec.window:], minlength=n_regions)
        return [int(counts.argmax())] * w
    pairs = history[:-1] * n_regions + history[1:]
    counts = 1.0 + np.bincount(pairs, minlength=n_regions ** 2).reshape(
        n_regions, n_regions)
    probs = counts / counts.sum(axis=1, keepdims=True)
    suffix = np.ones((w, n_regions))
    for s in range(w - 2, -1, -1):
        suffix[s] = (probs * suffix[s + 1]).max(axis=1)
    path = []
    at = int(history[-1])
    for s in range(w):
        at = int((probs[at] * suffix[s]).argmax())
        path.append(at)
    return path
