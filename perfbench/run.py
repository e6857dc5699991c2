#!/usr/bin/env python3
"""The repo's benchmark: one workload per run, one JSON line of results.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload animate_company --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output carries every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
and a per-layer table is printed above it.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from array import array
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run as a script, this directory is first on the path; its module
# names must not shadow the standard library's (``trace``), and the
# package and the program import from the checkout's root and src/.
sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
    p for p in sys.path if os.path.abspath(p or ".") != HERE
]

from perfbench.gen import KINDS  # noqa: E402
from perfbench.stats import count, labelled  # noqa: E402

WORKLOADS = ("animate_company", "staff_paged", "serve_durable")

#: samples every kind needs for its p99 to have ten beyond it
MIN_SAMPLES = 1000

#: end-to-end metric -> unit, in BENCHMARK.json's order.  The read p99
#: is computed and printed on stderr but is not one of them: on
#: serve_durable it is the queueing tail behind the other client's
#: requests, which moved by up to 77% between runs as other load on the
#: host came and went (see NOTES.md).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "read_p50_ms": "ms",
    "multi_p50_ms": "ms",
    "multi_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_op": "B",
    "recover_s": "s",
}


def _sources_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def run_rounds(round_fn, seed: int, seconds: float, first: int = 0) -> List[Dict[str, Any]]:
    """Rounds of fixed size until ``seconds`` have passed and every kind
    has ``MIN_SAMPLES`` samples.  Round ``i`` draws its inputs from seed
    ``seed * 1000 + i``."""
    rounds: List[Dict[str, Any]] = []
    start = perf_counter()
    while (perf_counter() - start < seconds
           or min(sum(count(r["samples"][k]) for r in rounds) for k in KINDS) < MIN_SAMPLES):
        rounds.append(round_fn(seed * 1000 + first + len(rounds)))
    return rounds


def combine(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool the rounds' samples and counts."""
    run: Dict[str, Any] = {"samples": {kind: {} for kind in KINDS}}
    for round_ in rounds:
        for kind in KINDS:
            pooled = run["samples"][kind]
            for mode, values in round_["samples"][kind].items():
                pooled.setdefault(mode, array("d")).extend(values)
    for key in ("attempted", "failed", "wrong_reads", "wall_s", "raw_wall_s", "raw_busy_s"):
        run[key] = sum(round_[key] for round_ in rounds)
    run["wrong"] = [problem for round_ in rounds for problem in round_["wrong"]]
    return run


def _report(run: Dict[str, Any], metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    for problem in run["wrong"][:10]:
        print(f"model mismatch: {problem}", file=sys.stderr)
    if run["wrong_reads"]:
        print(f"{run['wrong_reads']} reads disagreed with the model", file=sys.stderr)
    return {
        "correct": not run["wrong"] and run["wrong_reads"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _speed_note(rounds: List[Dict[str, Any]]) -> None:
    speeds = [s for r in rounds for s in r["speeds"]]
    raw = sum(r["attempted"] for r in rounds) / sum(r["raw_wall_s"] for r in rounds)
    print(f"time scale to reference speed: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f}; raw ops/s {raw:.1f}", file=sys.stderr)


def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    from perfbench.stats import boundary_modes, summarize

    run = combine(rounds)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "ops_per_s": run["attempted"] / run["wall_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "disk_bytes_per_op": statistics.median(r["disk_bytes"] / r["attempted"] for r in rounds),
        "recover_s": statistics.median(r["recover_s"] for r in rounds),
    }
    for kind in KINDS:
        samples = labelled(run["samples"][kind])
        summary = summarize(samples)
        metrics[f"{kind}_p50_ms"] = summary["p50_ms"]
        metrics[f"{kind}_p99_ms"] = summary["p99_ms"]
        for q in (0.5, 0.99):
            modes = boundary_modes(samples, q)
            if modes:
                print(f"warning: {kind} p{q * 100:g} sits between cost modes {modes}",
                      file=sys.stderr)
    _speed_note(rounds)
    print(f"read p99 (not an end-to-end metric): {metrics['read_p99_ms']:.4f} ms",
          file=sys.stderr)
    print(f"rounds: {len(rounds)}; samples per kind: "
          + ", ".join(f"{k}={count(run['samples'][k])}" for k in KINDS), file=sys.stderr)
    return _report(run, metrics, END_TO_END)


# ----------------------------------------------------------------------


def measure_inprocess(workload, calibrator, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench.inproc import run_round

    return end_to_end(run_rounds(lambda s: run_round(workload, s, calibrator), seed, seconds))


def measure_serve(workload, calibrator, seed: int, seconds: float) -> Dict[str, Any]:
    return end_to_end(run_rounds(lambda s: workload.run_round(s, calibrator), seed, seconds))


def trace_inprocess(workload, calibrator, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced rounds for half the time, then traced rounds."""
    from perfbench import layers
    from perfbench.inproc import run_round

    half = seconds / 2
    untraced = combine(run_rounds(lambda s: run_round(workload, s, calibrator), seed, half))
    tracer = layers.InprocessTrace()
    traced = combine(run_rounds(
        lambda s: run_round(workload, s, calibrator, tracer), seed, half, first=500,
    ))
    table = tracer.table(traced, untraced)
    print(layers.render(workload.name, table))
    return _report(traced, table["metrics"], layers.PER_LAYER)


def trace_serve(workload, calibrator, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench import layers
    from perfbench.trace import difference, merge, read_dumps

    half = seconds / 2
    untraced = combine(run_rounds(lambda s: workload.run_round(s, calibrator), seed, half))
    trace_dir = os.path.join(workload.work_dir, "trace-run")
    recover_dir = os.path.join(workload.work_dir, "trace-recover")
    rounds = run_rounds(
        lambda s: workload.run_round(s, calibrator, trace_dir, recover_dir), seed, half,
        first=500,
    )
    traced = combine(rounds)
    setup = merge(read_dumps(trace_dir, "mark1-"))
    drive = difference(merge(read_dumps(trace_dir, "mark2-")), setup)
    table = layers.serve(
        setup, drive, merge(read_dumps(recover_dir)), traced, untraced, len(rounds),
    )
    print(layers.render(workload.name, table))
    return _report(traced, table["metrics"], layers.PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TROLL animator benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _sources_present():
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    from perfbench.calibrate import Calibrator
    from perfbench.inproc import WORKLOADS as INPROCESS
    from perfbench.serve import ServeWorkload

    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if args.workload == ServeWorkload.name:
            workload = ServeWorkload(work_dir)
            run = trace_serve if args.trace else measure_serve
        else:
            workload = INPROCESS[args.workload](work_dir)
            run = trace_inprocess if args.trace else measure_inprocess
        result = run(workload, Calibrator(), args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still works there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
