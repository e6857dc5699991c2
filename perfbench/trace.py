"""The traced run: wrappers around the program's public functions.

No span is added inside ``src/``.  Instead :class:`Tracer` replaces
each function the benchmark names with a wrapper, in the module or
class that looks the name up at call time (``repro.runtime.objectbase``
imports ``evaluate_term`` by name, so that is where it is patched).

A wrapper accumulates, per layer, a call count and a *self time*: the
call's duration minus the time of wrapped calls nested inside it, kept
on a per-thread stack.  Coroutines are timed slice by slice -- only
while they run on the CPU, never while they wait for a reply -- so an
``await`` on the network is not charged to the coordinator.

A server installs the wrappers before it forks its shard workers, so
the workers inherit them; each worker resets the totals it inherited
and writes its own when it exits (:func:`install_serve`).  Every process
of a traced server also writes its running totals whenever it receives
``SIGUSR1``, so the benchmark can mark the start and end of a phase
and difference the totals (:func:`difference`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import signal
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    """Per-layer call counts, self times and extra tallies."""

    def __init__(self):
        self._local = threading.local()
        # re-entrant: a signal handler may dump while the same thread
        # is inside _leave
        self._lock = threading.RLock()
        self.reset()
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.counts: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: layer -> inclusive seconds (for layers reported inclusively)
        self.total_s: Dict[str, float] = {}
        self.tally: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> Tuple[List[float], float]:
        stack = self._stack()
        stack.append(0.0)
        return stack, perf_counter()

    def _leave(self, layer: str, stack: List[float], start: float, count: int) -> None:
        elapsed = perf_counter() - start
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
            self.total_s[layer] = self.total_s.get(layer, 0.0) + elapsed
            self.counts[layer] = self.counts.get(layer, 0) + count

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.tally[name] = self.tally.get(name, 0) + amount

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``; undone by
        :meth:`unwrap_all`."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def timed(self, original: Callable, layer: str) -> Callable:
        """A wrapper of ``original`` (a function, method or coroutine
        function) that charges its calls to ``layer``."""
        if inspect.iscoroutinefunction(original):
            return self._wrap_coroutine(original, layer)
        return self._wrap_function(original, layer)

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        """Replace ``owner.name`` with a timed wrapper charged to ``layer``."""
        self.patch(owner, name, lambda original: self.timed(original, layer))

    def hook(self, owner: Any, name: str, before: Callable) -> None:
        """Call ``before(*args, **kwargs)`` ahead of ``owner.name``
        without timing it (for counting arguments)."""
        def make(original):
            @functools.wraps(original)
            def hooked(*args, **kwargs):
                before(*args, **kwargs)
                return original(*args, **kwargs)

            return hooked

        self.patch(owner, name, make)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap_function(self, original: Callable, layer: str) -> Callable:
        enter, leave = self._enter, self._leave

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack, start = enter()
            try:
                return original(*args, **kwargs)
            finally:
                leave(layer, stack, start, 1)

        return timed

    def _wrap_coroutine(self, original: Callable, layer: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            return await _Slices(tracer, layer, original(*args, **kwargs))

        return timed

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counts": dict(self.counts),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "tally": dict(self.tally),
            }


class _Slices:
    """Await ``coro``, charging each synchronous slice it runs to
    ``layer`` (nested wrapped calls inside a slice are subtracted)."""

    def __init__(self, tracer: Tracer, layer: str, coro):
        self.tracer, self.layer, self.coro = tracer, layer, coro

    def __await__(self):
        tracer, layer = self.tracer, self.layer
        inner = self.coro.__await__()
        send, error = None, None
        first = True
        while True:
            stack, start = tracer._enter()
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(send)
            except StopIteration as stop:
                tracer._leave(layer, stack, start, 1 if first else 0)
                return stop.value
            except BaseException:
                tracer._leave(layer, stack, start, 1 if first else 0)
                raise
            tracer._leave(layer, stack, start, 1 if first else 0)
            first = False
            try:
                send, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                send, error = None, exc


def difference(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What the processes did between two sets of marks: ``after`` minus
    ``before``, section by section."""
    return {
        section: {key: value - before.get(section, {}).get(key, 0)
                  for key, value in values.items()}
        for section, values in after.items()
    }


def merge(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum tracer dumps from several processes."""
    merged: Dict[str, Dict[str, float]] = {
        "counts": {}, "self_s": {}, "total_s": {}, "tally": {},
    }
    for dump in dumps:
        for section, values in dump.items():
            target = merged.setdefault(section, {})
            for key, value in values.items():
                target[key] = target.get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
# What each workload wraps
# ----------------------------------------------------------------------


def install_inprocess(tracer: Tracer) -> None:
    """Wrap the layers an in-process ObjectBase runs through."""
    from repro.interfaces.views import InterfaceView
    from repro.relational.btree import BTree
    from repro.runtime import objectbase
    from repro.storage.paged import PagedStore
    from repro.storage.registry import InstanceStore
    from repro.temporal.monitors import FormulaMonitor

    tracer.wrap(objectbase, "parse_specification", "lang.parse")
    tracer.wrap(objectbase, "check_specification", "lang.check")
    tracer.wrap(objectbase, "compile_specification", "runtime.compile")
    tracer.wrap(objectbase.ObjectBase, "create", "runtime.create")
    tracer.wrap(objectbase.ObjectBase, "occur", "runtime.occur")
    tracer.wrap(objectbase.ObjectBase, "get", "runtime.get")
    tracer.wrap(objectbase, "evaluate_term", "datatypes.eval")
    tracer.wrap(FormulaMonitor, "update", "temporal.monitor")
    tracer.wrap(InterfaceView, "get", "interfaces.view")
    tracer.wrap(PagedStore, "load", "storage.load")
    tracer.wrap(PagedStore, "store", "storage.store")
    tracer.wrap(BTree, "get", "relational.btree")
    tracer.wrap(BTree, "insert", "relational.btree")
    tracer.wrap(InstanceStore, "get", "storage.lookup")
    tracer.wrap(InstanceStore, "balance", "storage.evict")


def install_serve(tracer: Tracer, out_dir: str) -> None:
    """Wrap the sharded server's layers, in the coordinator process and
    (by inheritance across the fork) in every shard worker.  Each
    process writes its totals to ``out_dir`` when it ends."""
    import asyncio

    from repro import cli
    from repro.distributed import aio, wire, worker
    from repro.distributed.aio import AsyncShardedCommunity
    from repro.distributed.worker import ShardWorker, Spool
    from repro.runtime import objectbase

    install_inprocess(tracer)
    tracer.wrap(aio, "parse_specification", "lang.parse")
    tracer.wrap(aio, "check_specification", "lang.check")
    tracer.wrap(aio, "compile_specification", "runtime.compile")
    # ``_demux`` routes the workers' replies to the waiting requests
    for method in ("create", "occur", "get", "_demux"):
        tracer.wrap(AsyncShardedCommunity, method, "distributed.coordinator")
    tracer.wrap(cli, "_serve_dispatch_async", "distributed.coordinator")

    def front_end(original):
        # ``repro serve --port`` hands each connection to a closure,
        # the JSON-lines front end; time it by its connection handler
        def start_server(client_connected_cb, *args, **kwargs):
            handler = tracer.timed(client_connected_cb, "distributed.coordinator")
            return original(handler, *args, **kwargs)

        return start_server

    tracer.patch(asyncio, "start_server", front_end)
    mark_on_signal(tracer.dump, out_dir, "coordinator")

    def count_prepare(_self, _shard, message, *args, **kwargs):
        if message.get("op") == "prepare_group":
            tracer.add("distributed.prepare_requests", 1)

    tracer.hook(AsyncShardedCommunity, "_call", count_prepare)
    for module in (aio, worker):
        tracer.wrap(module, "encode_frame", "distributed.wire")
    tracer.wrap(wire, "_decode_body", "distributed.wire")
    tracer.wrap(ShardWorker, "handle", "distributed.worker")
    # a worker's event loop: reading request frames, and the group
    # commit cycle that releases the replies
    for method in ("_serve", "_flusher"):
        tracer.wrap(worker._GroupCommitServer, method, "distributed.worker")
    # shard workers run units through the object base's unit entry
    # point, not its public occur/create
    tracer.wrap(objectbase.ObjectBase, "_run_unit", "runtime.occur")
    tracer.wrap(ShardWorker, "_op_create", "runtime.create")
    tracer.wrap(ShardWorker, "__init__", "distributed.recover")
    workers: List[ShardWorker] = []
    tracer.hook(ShardWorker, "__init__", lambda self, config: workers.append(self))
    tracer.wrap(Spool, "append_group", "distributed.fsync")
    tracer.hook(
        Spool, "append_group",
        lambda _self, records, rids: tracer.add("distributed.records", len(records)),
    )
    tracer.wrap(worker, "dump_incremental", "distributed.snapshot")
    tracer.wrap(Spool, "write_snapshot_text", "distributed.snapshot")

    def count_snapshot(_self, text):
        tracer.add("distributed.snapshot_writes", 1)
        tracer.add("distributed.snapshot_bytes", len(text))

    tracer.hook(Spool, "write_snapshot_text", count_snapshot)

    original_main = aio.worker_main

    def traced_worker_main(sock, config):
        from perfbench.layers import compile_counters, counters

        tracer.reset()  # totals inherited from the coordinator are not ours
        workers.clear()
        # the process-global compile stats were forked with the
        # coordinator's values: difference them over the worker's life
        baseline = compile_counters()

        def worker_dump() -> Dict[str, Any]:
            dump = tracer.dump()
            if workers:
                for key, value in counters(workers[0].system).items():
                    dump["tally"]["delta." + key] = value - baseline.get(key, 0)
            return dump

        mark_on_signal(worker_dump, out_dir, "worker")
        try:
            original_main(sock, config)
        finally:
            write_json(worker_dump(), out_dir, f"worker-{os.getpid()}")

    aio.worker_main = traced_worker_main


def mark_on_signal(snapshot: Callable[[], Dict[str, Any]], out_dir: str, role: str) -> None:
    """On the ``n``-th ``SIGUSR1``, write ``snapshot()`` to
    ``mark<n>-<role>-<pid>.json`` in ``out_dir``.  A child forked before
    it installs its own handler ignores the signal."""
    marks = [0]
    owner = os.getpid()

    def on_mark(_signum, _frame):
        if os.getpid() != owner:
            return
        marks[0] += 1
        write_json(snapshot(), out_dir, f"mark{marks[0]}-{role}-{os.getpid()}")

    signal.signal(signal.SIGUSR1, on_mark)


def write_json(dump: Dict[str, Any], out_dir: str, name: str) -> None:
    path = os.path.join(out_dir, name + ".json")
    with open(path + ".tmp", "w") as handle:
        json.dump(dump, handle)
    os.replace(path + ".tmp", path)


def read_dumps(out_dir: str, prefix: str = "") -> List[Dict[str, Any]]:
    """Every dump under ``out_dir`` whose file name starts with ``prefix``."""
    dumps = []
    for folder, _, names in sorted(os.walk(out_dir)):
        for name in sorted(names):
            if name.startswith(prefix) and name.endswith(".json"):
                with open(os.path.join(folder, name)) as handle:
                    dumps.append(json.load(handle))
    return dumps
