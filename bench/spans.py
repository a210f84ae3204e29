"""Spans and counters wrapped around edgeplacer's public names.

A traced pass replaces module attributes with wrappers and puts the
originals back afterwards. Callers look these names up at call time
(`harness.run` from the CLI, `predict` from the simulate loop), so the
wrappers see every call without a change to the program.

A span adds its duration to the child time of the span that called it, the
one below it on the stack, so a span's self time is its duration minus the
time its child spans cover. Spans are folded into per-name totals as they
close instead of being kept one by one, so a long traced run holds no more
memory than a short one.

A name the program no longer has is reported as absent and not wrapped, so
a refactor that renames or removes one still gets measured.

The scenarios and runs that `verify_*` makes for its toy oracle instances
are not the workload's: they are left out of the materialize count and of
the kept runs, though their time still counts in every span.
"""

import time
from collections import defaultdict

# (module, attribute, span name). Every call of these opens a span.
SPANS = (
    ("harness", "run", "harness.run"),
    ("harness", "sweep", "harness.sweep"),
    ("harness", "simulate", "harness.simulate"),
    ("harness", "synthetic_trace", "harness.synthetic_trace"),
    ("harness", "generate_scenario", "harness.generate_scenario"),
    ("harness", "read_trace_csv", "harness.read_trace_csv"),
    ("harness", "write_summary_csv", "harness.write"),
    ("harness", "write_per_slot_csv", "harness.write"),
    ("harness", "write_trace_csv", "harness.write"),
    ("harness", "load_config_file", "harness.config"),
    ("harness", "apply_overrides", "harness.config"),
    ("harness", "config_from_dict", "harness.config"),
    ("harness", "verify_frame_oracles", "harness.verify"),
    ("harness", "verify_horizon_bound", "harness.verify"),
    ("harness", "predict", "predict.predict"),
    ("harness", "osp_decide", "policies.decide"),
    ("harness", "psp_frame_decide", "policies.decide"),
    ("harness", "pspwu_frame_decide", "policies.decide"),
    ("harness", "am_decide", "policies.decide"),
    ("harness", "nm_decide", "policies.decide"),
    ("harness", "lm_decide", "policies.decide"),
    ("harness", "plm_decide", "policies.decide"),
    ("harness", "brute_force_frame", "policies.oracle"),
    ("harness", "brute_force_horizon", "policies.oracle"),
    ("harness", "slot_outcome", "model.slot_outcome"),
    ("harness", "advance", "costqueue.advance"),
)

# (module, attribute, counter name). These are called up to N times per
# slot, so they are counted but get no span. Wrapping both modules counts
# the calls policies makes and the ones slot_outcome makes for harness.
COUNTERS = (
    ("policies", "service_latency", "model.latency_calls"),
    ("policies", "migration_cost", "model.latency_calls"),
    ("model", "service_latency", "model.latency_calls"),
    ("model", "migration_cost", "model.latency_calls"),
)

# The span a CLI operation runs under; its self time is the CLI's own.
CLI_ROOT = "cli.main"
VERIFY = "harness.verify"

LAYERS = ("harness", "predict", "policies", "model", "costqueue", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """One traced pass: wrappers, their totals, and the runs they saw.

    modules maps the short module names used in SPANS and COUNTERS to the
    imported modules. With keep_runs, every simulate call outside verify
    is kept as (scenario, observations, policy, RunRecord) for the run
    statistics.
    """

    def __init__(self, modules: dict, keep_runs: bool = False):
        self.modules = modules
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.runs = [] if keep_runs else None
        self.absent = []
        self.verify_depth = 0  # open verify spans
        self._saved = []
        self._after = {
            "harness.generate_scenario": self._after_materialize,
            "harness.simulate": self._after_simulate,
            "predict.predict": self._after_predict,
            "harness.write": self._after_write,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, attr, _ in SPANS + COUNTERS:
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
            else:
                originals[mod_name, attr] = fn
        for mod_name, attr, name in SPANS:
            if (mod_name, attr) in originals:
                fn = originals[mod_name, attr]
                if name == VERIFY:
                    fn = self._verifying(fn)
                self._patch(mod_name, attr,
                            self.span(name, fn, self._after.get(name)))
        for mod_name, attr, name in COUNTERS:
            if (mod_name, attr) in originals:
                self._patch(mod_name, attr,
                            self.counter(name, originals[mod_name, attr]))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _patch(self, mod_name, attr, wrapper) -> None:
        mod = self.modules[mod_name]
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) runs outside it.

        The time after takes is charged to no span, so the caller's self
        time does not grow by the tracer's own bookkeeping.
        """
        stack, self_s, calls = self.stack, self.self_s, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                stack[-1] += dt
            if after is not None:
                t1 = perf()
                after(args, kwargs, result)
                stack[-1] += perf() - t1
            return result

        return wrapper

    def _verifying(self, fn):
        def wrapper(*args, **kwargs):
            self.verify_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.verify_depth -= 1

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counts taken outside the spans ---------------------------

    def _after_materialize(self, args, kwargs, result) -> None:
        if not self.verify_depth:
            self.counts["harness.materialize_calls"] += 1

    def _after_simulate(self, args, kwargs, rec) -> None:
        if self.runs is None or self.verify_depth:
            return
        try:
            self.runs.append((_arg(args, kwargs, 0, "scn"),
                              _arg(args, kwargs, 1, "observations"),
                              _arg(args, kwargs, 2, "policy"), rec))
        except (IndexError, KeyError):
            self.counts["unreadable.simulate"] += 1

    def _after_predict(self, args, kwargs, preds) -> None:
        counts = self.counts
        try:
            history = _arg(args, kwargs, 1, "history")
            truth = _arg(args, kwargs, 2, "true_future")
            counts["predict.history_elems"] += len(history)
        except (IndexError, KeyError, TypeError):
            counts["unreadable.predict"] += 1
            return
        for step, (guess, real) in enumerate(zip(preds, truth), start=1):
            counts[f"predict.attempts_step{step}"] += 1
            counts[f"predict.hits_step{step}"] += int(guess) == int(real)

    def _after_write(self, args, kwargs, _result) -> None:
        path = _arg(args, kwargs, 0, "path")
        with open(path, "rb") as fh:
            data = fh.read()
        self.counts["harness.write_bytes"] += len(data)
        # every file the harness writes starts with one header row
        self.counts["harness.write_rows"] += data.count(b"\n") - 1

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

