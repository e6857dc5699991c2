"""The two in-process workloads: ``animate_company`` and ``staff_paged``.

One caller drives an :class:`~repro.runtime.ObjectBase` in a closed
loop.  A run is a series of rounds (:func:`run_round`), each of a fixed
number of ops: ``build`` a fresh object base (timed as set-up), drive
``OPS`` ops through ``execute``, ``check`` the state against the
generator's model, then ``persist_and_recover``, which writes the
workload's persisted form and times a fresh start on it before checking
the model again.  Fixing the ops per round fixes the history that
recovery, memory and disk size depend on, so a faster program does not
pay for its speed with a longer history; for the same reason each
round measures its own peak resident set (:func:`run_round`).
"""

from __future__ import annotations

import datetime
import gc
import os
import shutil
from time import perf_counter
from typing import Any, Callable, Dict, List

from perfbench.calibrate import WINDOW_S, Windows, timed
from perfbench.gen import DEPTS, KINDS, CompanyGen, StaffGen
from perfbench.specs import STAFF_SPEC


def same(value: Any, expected: Any) -> bool:
    """A program value against the model's plain Python value."""
    return getattr(value, "payload", value) == expected


class CompanyWorkload:
    """The paper's company (Sections 4 and 5.1) in memory."""

    name = "animate_company"
    OPS = 40_000

    def __init__(self, work_dir: str):
        from repro.library import FULL_COMPANY_SPEC

        self.spec = FULL_COMPANY_SPEC
        self.work_dir = work_dir

    def build(self, seed: int):
        from repro.interfaces.views import open_view
        from repro.runtime import ObjectBase

        gen = self.gen = CompanyGen(seed)
        system = ObjectBase(self.spec)
        self.depts = {
            name: system.create(
                "DEPT", {"id": name}, "establishment", [datetime.date(1990, 1, 1)]
            )
            for name in DEPTS
        }
        self.persons = [
            system.create("PERSON", key, "hire_into", [gen.dept[i], gen.salary[i]])
            for i, key in enumerate(gen.keys)
        ]
        self.person_keys = [person.key for person in self.persons]
        self.system = system
        persons, depts = self.persons, self.depts
        salary2 = open_view(system, "SAL_EMPLOYEE2")
        research = open_view(system, "RESEARCH_EMPLOYEE")
        occur, get = system.occur, system.get
        self.execute: Dict[str, Callable[[Any, tuple], Any]] = {
            "hire": lambda d, a: occur(depts[d], "hire", [persons[a[0]]]),
            "fire": lambda d, a: occur(depts[d], "fire", [persons[a[0]]]),
            "ChangeSalary": lambda p, a: occur(persons[p], "ChangeSalary", a),
            "ChangeDept": lambda p, a: occur(persons[p], "ChangeDept", a),
            "Salary": lambda p, a: get(persons[p], "Salary"),
            "IncomeInYear": lambda p, a: get(persons[p], "IncomeInYear", a),
            "SAL_EMPLOYEE2": lambda p, a: salary2.get(
                persons[p].key, "CurrentIncomePerYear"
            ),
            "RESEARCH_EMPLOYEE": lambda p, a: research.get(persons[p].key, "Salary"),
        }

    def check(self, system=None) -> List[str]:
        """Mismatches between the object base and the model."""
        system = system or self.system
        gen = self.gen
        keys = self.person_keys
        wrong = []
        for i, key in enumerate(keys):
            for attribute, expected in (
                ("Salary", gen.salary[i]), ("Dept", gen.dept[i]),
            ):
                if not same(system.get(("PERSON", key), attribute), expected):
                    wrong.append(f"PERSON {key[0]}.{attribute}")
        for name in DEPTS:
            members = system.get(("DEPT", name), "employees").payload
            if {m.payload for m in members} != {keys[i] for i in gen.members[name]}:
                wrong.append(f"DEPT {name}.employees")
        return wrong

    def persist_and_recover(self, calibrator) -> Dict[str, Any]:
        """Dump the object base to disk, then time a fresh object base
        restoring from the dump until its first reply."""
        from repro.runtime import ObjectBase
        from repro.runtime.persistence import dump_json, restore_json

        path = os.path.join(self.work_dir, "company.json")
        with open(path, "w") as handle:
            handle.write(dump_json(self.system))
        disk_bytes = os.path.getsize(path)
        restored = []

        def recover():
            fresh = ObjectBase(self.spec)
            with open(path) as handle:
                restore_json(fresh, handle.read())
            fresh.get(("PERSON", self.person_keys[0]), "Salary")
            restored.append(fresh)

        recover_s = timed(calibrator, recover)
        return {"disk_bytes": disk_bytes, "recover_s": recover_s,
                "wrong": self.check(restored[0])}

    def close(self) -> None:
        """Drop every reference to the round's object base, so the next
        round's peak does not include it."""
        self.system = self.execute = self.persons = self.depts = None


class StaffWorkload:
    """STAFF objects in the paged store, ten times more than fit in the
    hot set."""

    name = "staff_paged"
    OPS = 12_000
    HOT_SET = 64

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def build(self, seed: int):
        from repro.datatypes.values import identity
        from repro.runtime import ObjectBase

        self.page_dir = os.path.join(self.work_dir, "pages")
        shutil.rmtree(self.page_dir, ignore_errors=True)
        system = ObjectBase(
            STAFF_SPEC, storage="paged:" + self.page_dir, hot_set=self.HOT_SET
        )
        gen = self.gen = StaffGen(seed)
        create = system.create
        for key in range(gen.POPULATION):
            create("STAFF", {"No": key}, "join", [gen.salary[key]])
        self.system = system
        occur, get = system.occur, system.get
        self.execute = {
            "raise": lambda k, a: occur(("STAFF", k), "raise", a),
            "regrade": lambda k, a: occur(("STAFF", k), "regrade", a),
            "give": lambda k, a: occur(
                ("STAFF", k), "give", (identity("STAFF", a[0]), a[1])
            ),
            "Salary": lambda k, a: get(("STAFF", k), "Salary"),
            "Grade": lambda k, a: get(("STAFF", k), "Grade"),
            "Budget": lambda k, a: get(("STAFF", k), "Budget"),
        }

    def check(self, system=None) -> List[str]:
        system = system or self.system
        gen = self.gen
        wrong = []
        for key in range(gen.POPULATION):
            for attribute, expected in gen.row(key).items():
                if not same(system.get(("STAFF", key), attribute), expected):
                    wrong.append(f"STAFF {key}.{attribute}")
        return wrong

    def persist_and_recover(self, calibrator) -> Dict[str, Any]:
        """Write every dirty instance back and close the page log, then
        time a fresh store rebuilding its index from the log until its
        first record loads; check every record against the model."""
        from repro.storage.codec import value_from_json
        from repro.storage.paged import PagedStore

        if self.system is not None:
            self.system.store.close()
            self.system = None
        disk_bytes = os.path.getsize(os.path.join(self.page_dir, "pages.jsonl"))
        stores = []

        def recover():
            stores.append(PagedStore(self.page_dir))
            stores[0].load("STAFF", 0)

        recover_s = timed(calibrator, recover)
        store = stores[0]
        wrong = []
        try:
            seen = 0
            for key, record in store.scan("STAFF"):
                seen += 1
                number = key[0] if isinstance(key, tuple) else key
                state = record["state"]
                for attribute, expected in self.gen.row(number).items():
                    if value_from_json(state[attribute]).payload != expected:
                        wrong.append(f"STAFF {number}.{attribute} on disk")
            if seen != self.gen.POPULATION:
                wrong.append(f"{seen} STAFF records on disk")
        finally:
            store.close()
        return {"disk_bytes": disk_bytes, "recover_s": recover_s, "wrong": wrong}

    def close(self) -> None:
        if self.system is not None:
            self.system.store.close()
            self.system = None
        self.execute = None
        shutil.rmtree(self.page_dir, ignore_errors=True)


def drive(workload, ops: int, calibrator) -> Dict[str, Any]:
    """Run ``ops`` ops of ``workload``'s stream in a closed loop.

    Returns the latency samples per kind as ``(seconds, mode)`` pairs
    and the wall time, both at reference speed (see
    :mod:`perfbench.calibrate`), with the attempted/failed counts and
    the reads that disagreed with the model."""
    gen, execute = workload.gen, workload.execute
    attempted = failed = wrong = 0
    windows = Windows(calibrator)
    pending = windows.pending
    for _ in range(ops):
        op = gen.next()
        kind = op[0]
        call = execute[op[2]]
        attempted += 1
        t0 = perf_counter()
        try:
            value = call(op[3], op[4])
        except Exception:  # a denial or error: the op failed
            failed += 1
            continue
        t1 = perf_counter()
        pending.append((kind, t1 - t0, op[1]))
        if kind == "read":
            if not same(value, gen.expected(op)):
                wrong += 1
        else:
            gen.ack(op)
        if t1 - windows.start >= WINDOW_S:
            windows.close(t1)
            pending = windows.pending
    windows.close(perf_counter())
    result = windows.finish(KINDS)
    result.update(attempted=attempted, failed=failed, wrong_reads=wrong)
    return result


def reset_peak_rss() -> None:
    """Start a new peak: Linux sets the process's resident-set high-water
    mark (``VmHWM``) back to its current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """The resident-set high-water mark since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("the kernel reports no VmHWM")


def run_round(workload, seed: int, calibrator, tracer=None) -> Dict[str, Any]:
    """One round: build, drive, check, persist and recover.

    The round's peak resident set is its own: the last round's garbage
    is collected and the high-water mark reset when the round starts,
    so the metric does not depend on how many rounds came before.

    With a ``tracer`` (see :mod:`perfbench.layers`) the layer wrappers
    are on while the round builds and drives, and off while it checks
    and recovers."""
    # the previous round's object base is garbage in reference cycles:
    # collect it now, outside every timed phase, so this round starts
    # from the same heap as every other
    gc.collect()
    reset_peak_rss()
    if tracer is not None:
        tracer.begin()
    setup_s = timed(calibrator, lambda: workload.build(seed))
    if tracer is not None:
        tracer.built(workload.system)
    result = drive(workload, workload.OPS, calibrator)
    if tracer is not None:
        tracer.driven(workload.system)
    result["setup_s"] = setup_s
    result["wrong"] = workload.check()
    persisted = workload.persist_and_recover(calibrator)
    result["wrong"] += persisted["wrong"]
    result["recover_s"] = persisted["recover_s"]
    result["disk_bytes"] = persisted["disk_bytes"]
    workload.close()
    result["peak_rss_mb"] = peak_rss_mb()
    return result


WORKLOADS = {
    CompanyWorkload.name: CompanyWorkload,
    StaffWorkload.name: StaffWorkload,
}
