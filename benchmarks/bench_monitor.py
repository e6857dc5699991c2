"""Temporal-monitor upkeep vs population: DEPT hire/fire at 200 and
2,000 PERSONs.

DEPT may close only once every past member has been fired (§4):
``{ for all(P: PERSON : sometime(P in employees) => sometime(after(fire(P)))) } closure``.
The incremental monitor for that permission is updated on every
committed DEPT step.  Its ``sometime(P in employees)`` fold enumerates
bindings from the guard -- the members in the step's state -- rather
than from the active domain (every PERSON ever seen plus the class
population), so a hire or fire costs the same whatever the population.

``test_monitor_population_guard`` is the CI regression guard: two
object bases, one with 200 and one with 2,000 PERSONs, drive the same
hire/fire stream on one DEPT (members kept near 8) in alternating
interleaved blocks, and the per-step cost at 2,000 PERSONs must stay
within 2x the cost at 200.  Both DEPT traces must be identical, and
both DEPTs must close at the end, which checks every fold's verdict.
"""

import gc
import time

from repro.runtime import ObjectBase

from benchmarks.conftest import D1960, D1991

SMALL = 200
LARGE = 2000
POOL = 64  #: PERSONs the stream hires and fires (the same on both sides)
MEMBERS = 8  #: members kept in the DEPT
BLOCKS = 12
OPS_PER_BLOCK = 60


def _company(compiled, persons: int):
    system = ObjectBase(compiled)
    dept = system.create("DEPT", {"id": "Sales"}, "establishment", [D1991])
    people = [
        system.create(
            "PERSON",
            {"Name": f"p{index}", "BirthDate": D1960},
            "hire_into", ["Sales", 6000.0],
        )
        for index in range(persons)
    ]
    return system, dept, people


def _stream(ops: int):
    """``(event, pool index)`` pairs: hire the next PERSON of the pool,
    firing the longest-serving member once the DEPT holds ``MEMBERS``."""
    members = []
    nxt = 0
    out = []
    while len(out) < ops:
        if len(members) < MEMBERS:
            members.append(nxt % POOL)
            out.append(("hire", nxt % POOL))
            nxt += 1
        else:
            out.append(("fire", members.pop(0)))
    return out


def _drive(system, dept, people, ops) -> float:
    start = time.perf_counter()
    for event, index in ops:
        system.occur(dept, event, [people[index]])
    return time.perf_counter() - start


def _close(system, dept, people) -> None:
    for member in sorted(system.get(dept, "employees").payload):
        system.occur(dept, "fire", [member])
    system.occur(dept, "closure")
    assert dept.dead


def test_monitor_population_guard(benchmark, compiled_company):
    """Regression guard: a DEPT hire/fire at 2,000 PERSONs costs <= 2x
    the same step at 200 PERSONs (interleaved alternating blocks)."""
    gc.collect()
    small = _company(compiled_company, SMALL)
    large = _company(compiled_company, LARGE)
    stream = _stream(BLOCKS * OPS_PER_BLOCK)
    seconds = {SMALL: 0.0, LARGE: 0.0}
    gc.disable()
    try:
        for block in range(BLOCKS):
            ops = stream[block * OPS_PER_BLOCK:(block + 1) * OPS_PER_BLOCK]
            # alternate which side goes first so drift hits both alike
            order = (small, large) if block % 2 == 0 else (large, small)
            for side in order:
                seconds[len(side[2])] += _drive(*side, ops)
    finally:
        gc.enable()

    assert list(small[1].trace) == list(large[1].trace)
    _close(*small)
    _close(*large)

    steps = BLOCKS * OPS_PER_BLOCK
    overhead = seconds[LARGE] / seconds[SMALL]
    benchmark.extra_info["workload"] = "A1-monitor"
    benchmark.extra_info["samples"] = steps
    benchmark.extra_info["small_population"] = SMALL
    benchmark.extra_info["large_population"] = LARGE
    benchmark.extra_info["small_step_ms"] = seconds[SMALL] / steps * 1000
    benchmark.extra_info["large_step_ms"] = seconds[LARGE] / steps * 1000
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["blocks"] = BLOCKS

    # give pytest-benchmark a timed body so the JSON artifact carries a
    # stats row for this guard (the ratio itself is in extra_info)
    benchmark.pedantic(lambda: None, rounds=1)

    assert overhead <= 2.0, (
        f"DEPT hire/fire at {LARGE} PERSONs costs {overhead:.2f}x the "
        f"step at {SMALL} (budget <= 2.0x): "
        f"{seconds[LARGE]:.3f}s vs {seconds[SMALL]:.3f}s"
    )
