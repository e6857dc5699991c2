"""``serve_durable``: two closed-loop client connections against a
``repro serve --port 0 --shards 2 --spool-dir`` subprocess.

The server runs from :mod:`perfbench.serve_main`, which only adds the
per-process peak-RSS files (and, in the traced run, the layer
wrappers) around the unchanged ``repro`` command line.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from time import perf_counter
from typing import Any, Dict, List, Optional

from perfbench.calibrate import Windows, timed
from perfbench.gen import KINDS, AccountGen, expected_balances
from perfbench.specs import ACCOUNT_SPEC

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SHARDS = 2
CLIENTS = 2
ACCOUNTS = 64
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
REPLY_TIMEOUT = 30.0
MARK_TIMEOUT = 30.0


class ServerError(RuntimeError):
    """The server did not start, reply or stop as expected."""


class Server:
    """One ``repro serve`` subprocess on a spool directory."""

    def __init__(self, work_dir: str, spool: str, name: str, trace_dir: Optional[str] = None):
        self.rss_dir = os.path.join(work_dir, f"rss-{name}")
        shutil.rmtree(self.rss_dir, ignore_errors=True)
        os.makedirs(self.rss_dir)
        spec_path = os.path.join(work_dir, "account.troll")
        if not os.path.exists(spec_path):
            with open(spec_path, "w") as handle:
                handle.write(ACCOUNT_SPEC)
        command = [
            sys.executable, os.path.join(HERE, "serve_main.py"),
            "--rss-dir", self.rss_dir,
        ]
        self.trace_dir = trace_dir
        self.marks = 0
        if trace_dir:
            os.makedirs(trace_dir)
            command += ["--trace-dir", trace_dir]
        command += [
            "--", "serve", spec_path, "--port", "0", "--shards", str(SHARDS),
            "--spool-dir", spool,
        ]
        # its own process group, so kill() reaches the shard workers too
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise ServerError("server did not report its port")
        self.port = json.loads(line)["port"]

    def mark(self) -> None:
        """Have every process of a traced server write its running
        totals (see :func:`perfbench.trace.mark_on_signal`) and wait
        until all of them have."""
        self.marks += 1
        prefix = f"mark{self.marks}-"
        os.killpg(self.process.pid, signal.SIGUSR1)
        deadline = perf_counter() + MARK_TIMEOUT
        while sum(name.startswith(prefix) and name.endswith(".json")
                  for name in os.listdir(self.trace_dir)) < SHARDS + 1:
            if perf_counter() > deadline:
                raise ServerError(f"the server's processes did not all write {prefix}")
            time.sleep(0.01)

    def stop(self) -> None:
        """Ask the server to shut down and wait until it has ended."""
        async def shutdown():
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            writer.write(b'{"op": "shutdown"}\n')
            await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT)
            writer.close()

        try:
            asyncio.run(shutdown())
            self.process.wait(timeout=STOP_TIMEOUT)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            self.kill()
            raise ServerError("server did not shut down")

    def kill(self) -> None:
        """End every process of the server, whatever state it is in."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS of every process of the server tree."""
        files = os.listdir(self.rss_dir)
        if len(files) != SHARDS + 1:
            raise ServerError(f"expected {SHARDS + 1} RSS reports, got {len(files)}")
        total_kb = 0
        for name in files:
            with open(os.path.join(self.rss_dir, name)) as handle:
                total_kb += json.load(handle)["peak_kb"]
        return total_kb / 1024.0


class Connection:
    """One JSON-lines client connection."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def call(self, message: bytes) -> Dict[str, Any]:
        self.writer.write(message)
        line = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.writer.close()


def _account(number: int) -> Dict[str, Any]:
    return {"k": "id", "class": "ACCOUNT", "key": number}


def encode(op) -> bytes:
    _, _, name, account, args = op
    if name == "Balance":
        message = {"op": "get", "class": "ACCOUNT", "key": account, "attribute": "Balance"}
    elif name == "send":
        message = {
            "op": "occur", "class": "ACCOUNT", "key": account, "event": "send",
            "args": [_account(args[0]), args[1]],
        }
    else:
        message = {"op": "occur", "class": "ACCOUNT", "key": account, "event": name,
                   "args": list(args)}
    return (json.dumps(message) + "\n").encode("utf-8")


def _value(reply: Dict[str, Any]) -> Any:
    value = reply.get("value")
    return value.get("v") if isinstance(value, dict) else value


def shard_map() -> List[int]:
    """Which shard the server places each account on."""
    from repro.distributed.shardbase import Partitioner
    from repro.lang import check_specification, parse_specification
    from repro.runtime.compilespec import compile_specification

    compiled = compile_specification(check_specification(parse_specification(ACCOUNT_SPEC)))
    partitioner = Partitioner(compiled, SHARDS)
    account = compiled.classes["ACCOUNT"]
    return [
        partitioner.shard_of("ACCOUNT", partitioner.identity_payload(account, {"No": n}))
        for n in range(ACCOUNTS)
    ]


async def _populate(port: int) -> None:
    connection = await Connection.open(port)
    try:
        for number in range(ACCOUNTS):
            message = {
                "op": "create", "class": "ACCOUNT", "identification": {"No": number},
                "event": "open", "args": [AccountGen.INITIAL],
            }
            reply = await connection.call((json.dumps(message) + "\n").encode("utf-8"))
            if not reply.get("ok"):
                raise ServerError(f"create ACCOUNT({number}) failed: {reply}")
    finally:
        connection.close()


async def _balances(port: int) -> List[Any]:
    connection = await Connection.open(port)
    try:
        values = []
        for number in range(ACCOUNTS):
            reply = await connection.call(encode(("read", "get", "Balance", number, ())))
            values.append(_value(reply) if reply.get("ok") else None)
        return values
    finally:
        connection.close()


#: ops each client sends between two calibration blocks
BATCH = 50


async def _batch(connection: Connection, gen: AccountGen, ops: int,
                 result: Dict[str, Any], pending: List) -> bool:
    """A closed loop of ``ops`` requests on one connection.  Returns
    False when the connection dropped; the ops it did not complete
    count as failed."""
    owned = set(gen.owned)
    done = 0
    try:
        for done in range(ops):
            op = gen.next()
            message = encode(op)
            t0 = perf_counter()
            reply = await connection.call(message)
            t1 = perf_counter()
            result["attempted"] += 1
            if not reply.get("ok"):
                result["failed"] += 1
                continue
            kind = op[0]
            pending.append((kind, t1 - t0, op[1]))
            if kind == "read":
                # the other client races this one: an owned account is
                # at least its floor, any other at least 0
                value = _value(reply)
                floor = gen.floor(op[3]) if op[3] in owned else 0
                if not isinstance(value, int) or value < floor:
                    result["wrong_reads"] += 1
            else:
                gen.ack(op)
    except (OSError, ConnectionError, asyncio.TimeoutError, ValueError):
        result["attempted"] += ops - done
        result["failed"] += ops - done
        return False
    return True


async def _drive(port: int, gens: List[AccountGen], ops: int, calibrator) -> Dict[str, Any]:
    """``ops`` ops shared evenly between the clients, all connected at
    once.  Every ``BATCH`` ops per client the clients wait for each
    other and the host's speed is calibrated, with no request in
    flight (see :mod:`perfbench.calibrate`)."""
    result: Dict[str, Any] = {"attempted": 0, "failed": 0, "wrong_reads": 0}
    per_client = ops // len(gens)
    connections: List[Optional[Connection]] = []
    for _ in gens:
        try:
            connections.append(await Connection.open(port))
        except OSError:
            connections.append(None)
    windows = Windows(calibrator, steal=True)
    try:
        for done in range(0, per_client, BATCH):
            count = min(BATCH, per_client - done)
            live = [(n, c) for n, c in enumerate(connections) if c is not None]
            result["attempted"] += count * (len(gens) - len(live))
            result["failed"] += count * (len(gens) - len(live))
            alive = await asyncio.gather(
                *(_batch(c, gens[n], count, result, windows.pending) for n, c in live)
            )
            for (n, connection), ok in zip(live, alive):
                if not ok:
                    connection.close()
                    connections[n] = None
            windows.close(perf_counter())
    finally:
        for connection in connections:
            if connection is not None:
                connection.close()
    result.update(windows.finish(KINDS))
    return result


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


class ServeWorkload:
    """Rounds of one durable server each: set up, drive ``OPS`` ops,
    check, stop, recover on the finished spool and check again.

    In the traced run each round's server writes its totals to its own
    folder under ``trace_dir``, marked once set-up is done and once the
    drive is (``mark1-*``, ``mark2-*``), so the drive's layer times can
    be told apart from set-up and the model checks."""

    name = "serve_durable"
    OPS = 5_000

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.shards = shard_map()
        self.rounds = 0

    def run_round(self, seed: int, calibrator, trace_dir: Optional[str] = None,
                  recover_dir: Optional[str] = None) -> Dict[str, Any]:
        self.rounds += 1
        spool = os.path.join(self.work_dir, "spool")
        shutil.rmtree(spool, ignore_errors=True)
        gens = [AccountGen(seed, client, CLIENTS, self.shards) for client in range(CLIENTS)]
        servers: List[Server] = []

        def start(name: str, trace: Optional[str]) -> Server:
            name = f"{name}{self.rounds}"
            trace = os.path.join(trace, name) if trace else None
            servers.append(Server(self.work_dir, spool, name, trace))
            return servers[-1]

        try:
            setup_s = timed(calibrator, lambda: asyncio.run(
                _populate(start("run", trace_dir).port)), steal=True)
            server = servers[-1]
            if trace_dir:
                server.mark()
            result = asyncio.run(_drive(server.port, gens, self.OPS, calibrator))
            if trace_dir:
                server.mark()
            result["wrong"] = _check(server.port, gens)
            server.stop()
            result["setup_s"] = setup_s
            result["peak_rss_mb"] = server.peak_rss_mb()
            result["disk_bytes"] = dir_bytes(spool)
            result["recover_s"] = timed(calibrator, lambda: asyncio.run(
                _first_read(start("recover", recover_dir).port)), steal=True)
            server = servers[-1]
            result["wrong"] += _check(server.port, gens)
            server.stop()
        finally:
            for server in servers:
                server.kill()
        shutil.rmtree(spool, ignore_errors=True)
        return result


def _check(port: int, gens: List[AccountGen]) -> List[str]:
    """Every balance against the clients' acknowledged ops."""
    got = asyncio.run(_balances(port))
    want = expected_balances(gens)
    return [
        f"ACCOUNT {n}.Balance {g} != {w}" for n, (g, w) in enumerate(zip(got, want)) if g != w
    ]


async def _first_read(port: int) -> None:
    connection = await Connection.open(port)
    try:
        reply = await connection.call(encode(("read", "get", "Balance", 0, ())))
        if not reply.get("ok"):
            raise ServerError(f"recovered server refused its first read: {reply}")
    finally:
        connection.close()
