"""qlambert benchmark: the command that runs a workload and reports its metrics.

    python3 bench/run.py --workload {catalog,deep,algebra,all} --seed N
                         [--seconds S] [--trace 0|1]

Every repetition is a fresh interpreter (bench/worker.py) running one
workload as a closed loop with a single caller.  With ``--trace 0`` the
runner repeats the workload for ``--seconds`` (at least MIN_REPS times) and
reports the median end-to-end metrics, with times scaled to the nominal
host speed (see README.md); with ``--trace 1`` it runs the
workload once untraced and once traced, plus the fixed-size layer timings,
and reports the per-layer metrics.  It prints one line per metric, then one
JSON object as its last line, and exits 1 when any verdict was wrong.
Results and spans are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
MIN_REPS = 3
#: setup-only interpreters started after each repetition
SETUP_PER_REP = 2
WORKER_TIMEOUT_S = 120
#: workers keep bytecode caches, as an installed package has them, whatever
#: the caller's environment says
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class WorkerFailed(Exception):
    pass


def _environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": commit,
        "seed": seed,
    }


def _spawn(workload: str, mode: str, inputs, seed: int, spans=None) -> tuple:
    """Run one worker; returns (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--mode", mode]
    cmd += ["--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    try:
        done = subprocess.run(
            cmd,
            input=json.dumps(inputs),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=WORKER_ENV,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return start, json.loads(lines[-1])


class Tally:
    """Verdicts attempted and failed over all repetitions of a run."""

    def __init__(self, expected: int):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def add(self, result) -> None:
        verdicts = result.get("verdicts", []) if result else []
        passed = sum(1 for _, ok, _ in verdicts if ok)
        for label, ok, detail in verdicts:
            if not ok:
                print(f"wrong verdict: {label}: {detail}", file=sys.stderr)
        self.attempted += self.expected
        self.failed += self.expected - min(passed, self.expected)


def _host_scale(results) -> float:
    """Nominal over actual host speed: REFERENCE_S over the median of the
    reference timings the workers took."""
    took = [t for result in results for t in result["reference_s"]]
    return workloads.REFERENCE_S / statistics.median(took)


def _raw_setup(start: float, result: dict) -> float:
    # from spawning the worker to its first operation, less its first
    # reference timing
    return result["ready"] - start - result["reference_s"][0]


def _setup_s(start: float, result: dict) -> float:
    """A worker's set-up time, scaled by the reference timings taken just
    before and after it (a set-up is shorter than the host's swings)."""
    speed = workloads.REFERENCE_S / statistics.fmean(result["reference_s"])
    return _raw_setup(start, result) * speed


def _repeat(workload, inputs, seed, seconds, tally) -> dict:
    """End-to-end metrics: medians over repetitions, in seconds at the
    nominal host speed."""
    runs, setups = [], []
    try:
        _spawn(workload, "setup", inputs, seed)  # writes bytecode caches; not measured
        begin = time.monotonic()
        # stop when another repetition would end past the deadline
        while len(runs) < MIN_REPS or (
            (time.monotonic() - begin) * (len(runs) + 1) / len(runs) <= seconds
        ):
            runs.append(_spawn(workload, "run", inputs, seed))
            tally.add(runs[-1][1])
            for _ in range(SETUP_PER_REP):
                setups.append(_spawn(workload, "setup", inputs, seed))
    except WorkerFailed as err:
        print(err, file=sys.stderr)
        tally.add(None)
        return {}
    # a repetition outlasts the reference timings around it, so its time is
    # scaled by the host speed over the whole run
    scale = _host_scale([result for _, result in runs + setups])
    wall = statistics.median(result["wall_s"] for _, result in runs)
    return {
        "setup_s": statistics.median(_setup_s(*run) for run in runs + setups),
        "wall_s": wall * scale,
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for _, result in runs),
        "raw_setup_s": statistics.median(_raw_setup(*run) for run in runs + setups),
        "raw_wall_s": wall,
        "host_scale": scale,
    }


def _traced(workload, inputs, seed, tally) -> dict:
    """Per-layer metrics from one traced repetition, its untraced twin and
    the fixed-size layer timings."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    try:
        _, plain = _spawn(workload, "run", inputs, seed)
        tally.add(plain)
        _, traced = _spawn(workload, "trace", inputs, seed, spans=spans)
        tally.add(traced)
        _, fixed = _spawn(workload, "fixed", None, seed)
    except WorkerFailed as err:
        print(err, file=sys.stderr)
        tally.add(None)
        return {}
    metrics = dict(traced["layers"])
    metrics.update(fixed["fixed"])
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = overhead * _host_scale([plain, traced])
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(the result object printed last, other figures worth recording)"""
    inputs = workloads.INPUTS[workload](seed)
    tally = Tally(workloads.expected_verdicts(workload, inputs))
    if trace:
        values, names = _traced(workload, inputs, seed, tally), PER_LAYER
    else:
        values = _repeat(workload, inputs, seed, seconds, tally)
        names = END_TO_END
    metrics = {
        name: {"value": values.pop(name), "unit": unit}
        for name, unit in names
        if name in values
    }
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(names),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qlambert" / "__init__.py").is_file():
        print(f"error: no qlambert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment(args.seed)
    print("env " + json.dumps(env))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, extra = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        for metric, entry in result["metrics"].items():
            print(f"{name:8s} {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
        for metric, value in extra.items():
            print(f"{name:8s} {metric:36s} {value:>14.6g}")
        rate = result["failed"] / result["attempted"]
        print(
            f"{name:8s} {'error_rate':36s} {rate:>14.6g} "
            f"({result['failed']} of {result['attempted']} verdicts)"
        )
        OUT.mkdir(exist_ok=True)
        record = dict(result, workload=name, trace=args.trace, env=env, extra=extra)
        record["comparable"] = result["correct"]
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
