"""Per-layer metrics from a traced run, and the table printed for it.

Times (unit ``s``), counts (``count``) and bytes (``B``) are per round
of the traced half of the run -- a round is a fixed number of ops, so
they do not depend on how many rounds fit in the time.  Set-up layers
(``lang.*``, ``runtime.compile_s``, ``runtime.create_s``) are per
set-up; on ``serve_durable`` they sum the coordinator and both workers.
``unattributed_share`` is the share of the time the callers spent that
no layer accounts for: for the in-process workloads the phase's wall
time minus every layer's self time; for ``serve_durable`` the residual
``client.wait_s`` -- the part of the clients' round trips no server
layer accounts for (queueing, the event loops, sockets and the
client's own encoding) -- over the summed round trips.  The server's
layer times there are those between the marks around the drive, so the
set-up creates and the model checks' reads are not subtracted from the
drive's round trips.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.stats import count

#: per-layer metric -> unit, in BENCHMARK.json's order
PER_LAYER = {
    "lang.parse_s": "s",
    "lang.check_s": "s",
    "runtime.compile_s": "s",
    "runtime.create_s": "s",
    "runtime.occur_self_s": "s",
    "runtime.get_self_s": "s",
    "runtime.txn_fused_share": "ratio",
    "datatypes.term_compiled_share": "ratio",
    "datatypes.eval_self_s": "s",
    "temporal.monitor_updates": "count",
    "temporal.monitor_self_s": "s",
    "interfaces.view_gets": "count",
    "interfaces.view_self_s": "s",
    "storage.faults": "count",
    "storage.evictions": "count",
    "storage.writebacks": "count",
    "storage.hit_ratio": "ratio",
    "storage.load_self_s": "s",
    "storage.store_self_s": "s",
    "relational.btree_ops": "count",
    "relational.btree_self_s": "s",
    "distributed.coordinator_self_s": "s",
    "distributed.wire_self_s": "s",
    "distributed.worker_self_s": "s",
    "distributed.prepare_rounds": "requests/xfer",
    "distributed.fsyncs": "count",
    "distributed.records_per_fsync": "records/fsync",
    "distributed.fsync_self_s": "s",
    "distributed.snapshots": "count",
    "distributed.snapshot_bytes": "B",
    "distributed.snapshot_self_s": "s",
    "distributed.recover_self_s": "s",
    "client.wait_s": "s",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}

#: layers that run only while a server or object base is being set up
SETUP_LAYERS = ("lang.parse", "lang.check", "runtime.compile", "runtime.create",
                "distributed.recover")

#: traced layer -> the ``*_self_s`` metric it feeds
SELF_METRICS = {
    "runtime.occur": "runtime.occur_self_s",
    "runtime.get": "runtime.get_self_s",
    "datatypes.eval": "datatypes.eval_self_s",
    "temporal.monitor": "temporal.monitor_self_s",
    "interfaces.view": "interfaces.view_self_s",
    "storage.load": "storage.load_self_s",
    "storage.store": "storage.store_self_s",
    "relational.btree": "relational.btree_self_s",
    "distributed.coordinator": "distributed.coordinator_self_s",
    "distributed.wire": "distributed.wire_self_s",
    "distributed.worker": "distributed.worker_self_s",
    "distributed.fsync": "distributed.fsync_self_s",
    "distributed.snapshot": "distributed.snapshot_self_s",
}


def compile_counters() -> Dict[str, int]:
    """The process-global term and transaction compiler counters."""
    from repro.datatypes.compile import STATS as TERM
    from repro.runtime.txncompile import STATS as TXN

    values = {f"txn.{k}": v for k, v in TXN.snapshot().items()}
    values.update({f"term.{k}": v for k, v in TERM.snapshot().items()})
    return values


def counters(system) -> Dict[str, int]:
    """The program's own always-on counters, to difference around the
    traced phase."""
    values = compile_counters()
    stats = system.store.stats
    values.update(
        {"storage.faults": stats.faults, "storage.evictions": stats.evictions,
         "storage.writebacks": stats.writebacks}
    )
    return values


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _compile_shares(delta: Dict[str, float]) -> Dict[str, float]:
    fused = delta.get("txn.compiled", 0) + delta.get("txn.cache_hits", 0)
    return {
        "runtime.txn_fused_share": _share(fused, fused + delta.get("txn.fallbacks", 0)),
        "datatypes.term_compiled_share": _share(
            delta.get("term.cache_hits", 0),
            delta.get("term.cache_hits", 0) + delta.get("term.fallbacks", 0),
        ),
    }


def _base(dump: Dict[str, Any], setup: Dict[str, Any]) -> Dict[str, float]:
    """Metrics read the same way from any run's merged tracer dumps."""
    counts, self_s = dump["counts"], dump["self_s"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, name in (("lang.parse", "lang.parse_s"), ("lang.check", "lang.check_s"),
                        ("runtime.compile", "runtime.compile_s"),
                        ("runtime.create", "runtime.create_s")):
        metrics[name] = setup["total_s"].get(layer, 0.0)
    for layer, name in SELF_METRICS.items():
        metrics[name] = self_s.get(layer, 0.0)
    metrics["temporal.monitor_updates"] = counts.get("temporal.monitor", 0)
    metrics["interfaces.view_gets"] = counts.get("interfaces.view", 0)
    metrics["relational.btree_ops"] = counts.get("relational.btree", 0)
    return metrics


def _per_round(metrics: Dict[str, float], rounds: int) -> Dict[str, float]:
    """Totals over the traced rounds -> per round."""
    return {
        name: value / rounds if PER_LAYER[name] in ("s", "count", "B") else value
        for name, value in metrics.items()
    }


def _ops_per_s(run: Dict[str, Any]) -> float:
    return run["attempted"] / run["wall_s"]


class InprocessTrace:
    """Tracing for the in-process rounds: the wrappers are on while a
    round builds its object base and drives its ops, and the set-up and
    drive totals are kept apart (see :func:`perfbench.inproc.run_round`)."""

    def __init__(self):
        from perfbench.trace import Tracer

        self.tracer = Tracer()
        self.setup: List[Dict[str, Any]] = []
        self.phase: List[Dict[str, Any]] = []
        self.delta: Dict[str, int] = {}

    def begin(self) -> None:
        from perfbench.trace import install_inprocess

        self.tracer.reset()
        install_inprocess(self.tracer)

    def built(self, system) -> None:
        self.setup.append(self.tracer.dump())
        self.tracer.reset()
        self.before = counters(system)

    def driven(self, system) -> None:
        self.phase.append(self.tracer.dump())
        self.tracer.unwrap_all()
        for key, value in counters(system).items():
            self.delta[key] = self.delta.get(key, 0) + value - self.before.get(key, 0)

    def table(self, run, untraced) -> Dict[str, Any]:
        from perfbench.trace import merge

        phase = merge(self.phase)
        setup = merge(self.setup)
        delta = self.delta
        metrics = _base(phase, setup)
        metrics.update(_compile_shares(delta))
        for key in ("storage.faults", "storage.evictions", "storage.writebacks"):
            metrics[key] = delta[key]
        lookups = phase["counts"].get("storage.lookup", 0)
        metrics["storage.hit_ratio"] = (
            1.0 - _share(delta["storage.faults"], lookups) if lookups else 0.0
        )
        wall = run["raw_wall_s"]  # layer times are raw, not at reference speed
        attributed = sum(phase["self_s"].values())
        metrics["unattributed_share"] = _share(wall - attributed, wall)
        metrics["trace_overhead"] = _share(_ops_per_s(untraced), _ops_per_s(run))
        rounds = len(self.phase)
        return {"metrics": _per_round(metrics, rounds), "basis": wall / rounds,
                "basis_name": "drive wall time per round",
                "self_s": {k: v / rounds for k, v in phase["self_s"].items()}}


def serve(setup, dump, recover, run, untraced, rounds: int) -> Dict[str, Any]:
    """``setup``: the servers' totals when set-up was done; ``dump``:
    what they did during the drive; ``recover``: the recovering
    servers' totals."""
    tally = dump["tally"]
    metrics = _base(dump, setup)
    delta = {key[len("delta."):]: value for key, value in tally.items() if key.startswith("delta.")}
    metrics.update(_compile_shares(delta))
    for key in ("storage.faults", "storage.evictions", "storage.writebacks"):
        metrics[key] = delta.get(key, 0)
    xfers = count(run["samples"]["multi"])
    metrics["distributed.prepare_rounds"] = _share(tally.get("distributed.prepare_requests", 0), xfers)
    fsyncs = dump["counts"].get("distributed.fsync", 0)
    metrics["distributed.fsyncs"] = fsyncs
    metrics["distributed.records_per_fsync"] = _share(tally.get("distributed.records", 0), fsyncs)
    metrics["distributed.snapshots"] = tally.get("distributed.snapshot_writes", 0)
    metrics["distributed.snapshot_bytes"] = tally.get("distributed.snapshot_bytes", 0)
    metrics["distributed.recover_self_s"] = recover["total_s"].get("distributed.recover", 0.0)
    # layer times are raw, not at reference speed
    round_trips = run["raw_busy_s"]
    server = sum(
        seconds for layer, seconds in dump["self_s"].items() if layer not in SETUP_LAYERS
    )
    metrics["client.wait_s"] = round_trips - server
    metrics["unattributed_share"] = _share(metrics["client.wait_s"], round_trips)
    metrics["trace_overhead"] = _share(_ops_per_s(untraced), _ops_per_s(run))
    self_s = {layer: s / rounds for layer, s in dump["self_s"].items()
              if layer not in SETUP_LAYERS}
    self_s["client.wait"] = metrics["client.wait_s"] / rounds
    return {"metrics": _per_round(metrics, rounds), "basis": round_trips / rounds,
            "basis_name": "summed round trips per round", "self_s": self_s}


def render(workload: str, table: Dict[str, Any]) -> str:
    """Self time per layer with its share of the basis, then every
    per-layer metric."""
    lines: List[str] = [
        f"== {workload}: per-layer self time ==",
        f"{'layer':32s} {'self_s':>10s} {'share':>7s}   (of {table['basis_name']})",
    ]
    basis = table["basis"]
    for layer, seconds in sorted(table["self_s"].items(), key=lambda item: -item[1]):
        lines.append(f"{layer:32s} {seconds:10.4f} {_share(seconds, basis):7.1%}")
    lines.append("")
    for name, unit in PER_LAYER.items():
        lines.append(f"{name:32s} {table['metrics'][name]:14.6g} {unit}")
    return "\n".join(lines)
