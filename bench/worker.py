"""One repetition of a benchmark workload, in a fresh interpreter.

Reads the workload's generated inputs as JSON on stdin and prints one JSON
object on stdout.  Modes:

* ``setup``: set up only; reports when the first operation could run,
* ``run``: set up, then run and check every operation,
* ``trace``: as ``run`` with spans around qlambert's entry points,
* ``fixed``: fixed-size single-layer timings (no workload).

Times are ``time.monotonic()`` readings, comparable with the parent's.
Every worker also times ``workloads.reference()`` when it starts and
before it ends, so the parent can correct for the host's speed.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# the checkout's own sources, ahead of anything installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "fixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace mode: write the spans here")
    args = parser.parse_args()

    import workloads

    before = workloads.reference()
    inputs = json.load(sys.stdin)
    if args.mode == "fixed":
        import layers

        print(json.dumps({"fixed": layers.fixed_size_timings(args.seed)}))
        return 0

    tracer = None
    if args.mode == "trace":
        import qlambert.cli  # noqa: F401  (loads every module before wrapping)

        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    state = workloads.SETUP[args.workload](inputs)
    ready = time.monotonic()
    out = {"ready": ready, "reference_s": [before]}
    if args.mode != "setup":
        try:
            verdicts = workloads.RUN[args.workload](state)
        except Exception as err:  # a crash is a wrong verdict, not a lost run
            verdicts = [("crash", False, f"{type(err).__name__}: {err}")]
        out["wall_s"] = time.monotonic() - ready
        out["verdicts"] = verdicts
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["reference_s"].append(workloads.reference())
    if tracer is not None:
        out["layers"] = layers.per_layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
