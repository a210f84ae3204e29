"""Write the pinned outputs: every operation's fingerprint for each seed.

    python3 bench/pin.py                        # seeds 0-63, every workload
    python3 bench/pin.py --workload wide --seeds 0-7

Fingerprints are merged into bench/pins.json. Re-pin only
in a change that means to alter outputs, and say why in CHANGES.md: in a
change that claims only speed, a fingerprint that moves is a failure.
"""

import argparse
import json
import os
import sys

import run
import speed
import workloads

DEFAULT_SEEDS = "0-63"


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range,
                        default=seed_range(DEFAULT_SEEDS), help="FIRST-LAST")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    pins = (json.loads(run.PINS.read_text()) if run.PINS.is_file()
            else {"workloads": {}})
    workdir = run.WORK / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            for seed in args.seeds:
                mods = run.fresh_import()
                ops = workloads.build(workload, seed, mods, str(workdir))
                _, failures, fingerprints = run.measure(
                    ops, mods, 0, False, None, speed.Clock(scale=False))
                if failures:
                    print(f"{workload} seed {seed}: {failures}",
                          file=sys.stderr)
                    return 1
                names = [op.name for op in ops]
                entry = pins["workloads"].get(workload)
                if entry is None or entry["ops"] != names:
                    entry = {"ops": names, "seeds": {}}
                    pins["workloads"][workload] = entry
                entry["seeds"][str(seed)] = fingerprints
                print(f"pinned {workload} seed {seed}", flush=True)
    finally:
        run.remove_workdir(workdir)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
