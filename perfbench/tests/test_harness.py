"""Tests for the benchmark harness itself (not for the program).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from perfbench import stats
from perfbench.calibrate import Calibrator
from perfbench.gen import AccountGen, CompanyGen, StaffGen, expected_balances
from perfbench.inproc import CompanyWorkload, StaffWorkload, drive, peak_rss_mb, reset_peak_rss
from perfbench.trace import Tracer, difference, mark_on_signal, read_dumps


def _stream(gen, count):
    ops = []
    for _ in range(count):
        op = gen.next()
        ops.append(op)
        if op[0] != "read":
            gen.ack(op)
    return ops


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: CompanyGen(seed),
        lambda seed: StaffGen(seed),
        lambda seed: AccountGen(seed, 1, 2, [n % 2 for n in range(64)]),
    ],
    ids=["company", "staff", "account"],
)
def test_generator_is_deterministic_per_seed(make):
    assert _stream(make(7), 2000) == _stream(make(7), 2000)
    assert _stream(make(7), 2000) != _stream(make(8), 2000)


def test_generated_ops_stay_admissible_in_the_model():
    company = CompanyGen(3)
    for _ in range(5000):
        op = company.next()
        if op[0] == "multi":  # fire only members, hire only non-members
            assert (op[4][0] in company.members[op[3]]) == (op[2] == "fire")
        if op[0] != "read":
            company.ack(op)
    assert all(len(m) <= CompanyGen.MEMBERS for m in company.members.values())
    staff = StaffGen(3)
    _stream(staff, 5000)
    assert min(staff.budget) >= 0
    account = AccountGen(3, 0, 2, [n % 2 for n in range(64)])
    for op in _stream(account, 5000):
        if op[2] == "send":
            assert account.shard_of[op[3]] != account.shard_of[op[4][0]]
    assert min(expected_balances([account])) >= 0


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1000)]
    assert stats.percentile(values, 0.99) == 989.0  # ranks 991..1000 lie beyond
    assert stats.percentile(values, 0.50) == 499.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:999], 0.99)
    with pytest.raises(stats.TooFewSamples):
        stats.summarize([(0.001, "a")] * 500)


def test_boundary_check_flags_a_percentile_between_modes():
    fast, slow = (1e-6, "fast"), (1e-3, "slow")
    # a 3% slow mode: p99 lies well inside it, p50 well inside the fast one
    inside = [fast] * 970 + [slow] * 30
    assert stats.boundary_modes(inside, 0.99) == {}
    assert stats.boundary_modes(inside, 0.50) == {}
    # a 1% slow mode: p99 sits exactly where the two modes meet
    edge = [fast] * 990 + [slow] * 10
    shares = stats.boundary_modes(edge, 0.99)
    assert set(shares) == {"fast", "slow"}
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_spread_is_interquartile_range_over_median():
    q1, median, q3, spread = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert spread == pytest.approx(1.0)


def test_company_model_check_rejects_a_corrupted_state(tmp_path):
    workload = CompanyWorkload(str(tmp_path))
    workload.build(11)
    run = drive(workload, 400, Calibrator())
    assert run["failed"] == 0 and run["wrong_reads"] == 0
    assert workload.check() == []
    # a write the model never saw
    workload.system.occur(workload.persons[5], "ChangeSalary", [1])
    assert workload.check() == [f"PERSON {workload.person_keys[5][0]}.Salary"]


def test_staff_recovery_check_rejects_a_corrupted_page_log(tmp_path):
    workload = StaffWorkload(str(tmp_path))
    workload.build(11)
    calibrator = Calibrator()
    drive(workload, 300, calibrator)
    path = os.path.join(workload.page_dir, "pages.jsonl")
    persisted = workload.persist_and_recover(calibrator)
    assert persisted["wrong"] == []
    # append a newer record for STAFF 0 with a salary the model never saw
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]
    last = [line for line in lines if line["c"] == "STAFF" and line["r"] is not None
            and line["r"]["state"] is not None][-1]
    last["r"]["state"]["Salary"]["v"] += 1
    with open(path, "a") as handle:
        handle.write(json.dumps(last) + "\n")
    wrong = workload.persist_and_recover(calibrator)["wrong"]
    assert any("Salary on disk" in problem for problem in wrong)


def test_tracer_charges_self_time_and_subtracts_nested_calls():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

        async def remote(self):
            await asyncio.sleep(0.05)  # waiting is not charged
            self.inner()

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "a")
    tracer.wrap(Layer, "inner", "b")
    tracer.wrap(Layer, "remote", "c")
    try:
        Layer().outer()
        asyncio.run(Layer().remote())
    finally:
        tracer.unwrap_all()
    dump = tracer.dump()
    assert dump["counts"] == {"a": 1, "b": 2, "c": 1}
    assert 0.015 < dump["self_s"]["a"] < 0.03
    assert 0.055 < dump["self_s"]["b"] < 0.08
    assert dump["self_s"]["c"] < 0.01
    assert not hasattr(Layer.outer, "__wrapped__")


def test_peak_rss_restarts_from_the_current_resident_set():
    block = bytearray(64 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    high = peak_rss_mb()
    del block
    reset_peak_rss()
    assert peak_rss_mb() < high - 32


def test_signal_marks_split_a_phase_out_of_running_totals(tmp_path):
    tracer = Tracer()
    previous = signal.getsignal(signal.SIGUSR1)
    try:
        mark_on_signal(tracer.dump, str(tmp_path), "test")
        tracer.add("ops", 3)  # set-up
        os.kill(os.getpid(), signal.SIGUSR1)
        tracer.add("ops", 5)  # the phase
        os.kill(os.getpid(), signal.SIGUSR1)
        tracer.add("ops", 7)  # after it
    finally:
        signal.signal(signal.SIGUSR1, previous)
    (before,) = read_dumps(str(tmp_path), "mark1-")
    (after,) = read_dumps(str(tmp_path), "mark2-")
    assert before["tally"] == {"ops": 3}
    assert difference(after, before)["tally"] == {"ops": 5}
