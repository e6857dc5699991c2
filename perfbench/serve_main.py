"""Launch ``repro serve`` for the benchmark.

Usage: ``python3 perfbench/serve_main.py --rss-dir DIR [--trace-dir DIR]
-- serve SPEC --port 0 --shards 2 --spool-dir SPOOL``

Everything after ``--`` goes to the ``repro`` command line unchanged.
Each process of the server (the coordinator and every shard worker)
writes its peak resident set size to ``--rss-dir`` when it ends.  With
``--trace-dir`` the benchmark's wrappers are installed before the
coordinator forks its workers, and each process writes its per-layer
totals there as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_rss(rss_dir: str, role: str) -> None:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    path = os.path.join(rss_dir, f"{role}-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({"peak_kb": peak_kb}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rss-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != here
    ]

    from repro import cli
    from repro.distributed import aio

    tracer = None
    if args.trace_dir:
        from perfbench.trace import Tracer, install_serve, write_json

        tracer = Tracer()
        install_serve(tracer, args.trace_dir)

    worker_main = aio.worker_main

    def measured_worker_main(sock, config):
        try:
            worker_main(sock, config)
        finally:
            _write_rss(args.rss_dir, "worker")

    aio.worker_main = measured_worker_main
    try:
        return cli.main(repro_args)
    finally:
        _write_rss(args.rss_dir, "coordinator")
        if tracer is not None:
            write_json(tracer.dump(), args.trace_dir, f"coordinator-{os.getpid()}")


if __name__ == "__main__":
    sys.exit(main())
