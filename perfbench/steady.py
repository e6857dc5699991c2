#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report, for
each end-to-end metric, the quartiles of its values and their spread
(``(q3 - q1) / median``) against the bound in ``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/set-a.json
    python3 perfbench/steady.py --workloads serve_durable --seeds 1-5
    python3 perfbench/steady.py --compare set-a.json set-b.json

Runs are made one after another, never in parallel.  With ``--out`` the
raw values and the summary are written as JSON.  ``--compare`` reads two
such files and prints both sets' quartiles and how far each metric's
second median is from the first, in the metric's "worse" direction,
against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]

from perfbench import stats  # noqa: E402


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(config: Dict, workload: str, seed: int) -> Dict:
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(config: Dict, values: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    summary = {}
    for name, series in values.items():
        q1, median, q3, spread = stats.spread(series)
        summary[name] = {
            "q1": q1, "median": median, "q3": q3, "spread": spread, "bound": bounds[name],
        }
    return summary


def render(workload: str, summary: Dict[str, Dict[str, float]]) -> str:
    lines = [f"== {workload} ==",
             f"{'metric':20s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for name, row in summary.items():
        flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above a third of its bound"
        lines.append(
            f"{name:20s} {row['q1']:12.6g} {row['median']:12.6g} {row['q3']:12.6g} "
            f"{row['spread']:8.3f} {row['bound']:6.2f}{flag}"
        )
    return "\n".join(lines)


def compare(config: Dict, first: Dict, second: Dict) -> bool:
    """Print, per workload, a Markdown table of both sets' quartiles and
    spreads and of the second median's drift in the metric's "worse"
    direction, all against the bounds in ``BENCHMARK.json``.  True when
    every spread is within its bound and no median got worse by more
    than its bound."""
    metrics = {m["name"]: m for m in config["end_to_end"]}

    def series(data: Dict, name: str) -> List[float]:
        return [run["metrics"][name] for run in data["runs"]]

    steady = True
    for workload, data in first["workloads"].items():
        other = second["workloads"][workload]
        print(f"\n#### {workload}\n")
        print("| metric | bound | first: q1 / median / q3 | spread | "
              "second: q1 / median / q3 | spread | median worse by |")
        print("|---|---|---|---|---|---|---|")
        for name, metric in metrics.items():
            a = stats.spread(series(data, name))
            b = stats.spread(series(other, name))
            worse = (b[1] - a[1]) / a[1]
            if metric["better"] == "higher":
                worse = -worse
            bound = metric["bound"]
            ok = worse <= bound and max(a[3], b[3]) <= bound
            steady = steady and ok
            print(f"| `{name}` | {bound:.2f} | {a[0]:.4g} / {a[1]:.4g} / {a[2]:.4g} | "
                  f"{a[3]:.3f} | {b[0]:.4g} / {b[1]:.4g} / {b[2]:.4g} | {b[3]:.3f} | "
                  f"{worse:+.3f}{'' if ok else ' **over bound**'} |")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None, help="write raw values and summary here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), default=None,
                        help="compare the medians of two --out files instead of running")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as handle:
                sets.append(json.load(handle))
        return 0 if compare(config, *sets) else 1
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    report = {"run_seconds": config["run_seconds"], "workloads": {}}
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(config, workload, seed)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {result}")
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        summary = summarize(config, values)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(render(workload, summary), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
