"""Incremental monitors: unit behaviour plus agreement with the naive
semantics on randomised traces (the correctness side of ablation A1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import MapEnvironment
from repro.datatypes.sorts import IdSort, INTEGER, NAT
from repro.datatypes.values import identity, integer, list_value, natural, set_value
from repro.lang.parser import parse_formula
from repro.temporal import Trace, compile_monitor
from repro.temporal.monitors import _GuardedSometimeNode, _SometimeNode, is_stateless
from repro.temporal.evaluation import (
    StateEnvironment,
    evaluate_formula_now,
    make_step,
)

PERSON = IdSort(name="|PERSON|", class_name="PERSON")
PEOPLE = [identity("PERSON", name) for name in ("a", "b", "c")]


def run_both(formula_text, steps, query_env=None, var_sorts=None):
    """Drive both the monitor and the naive evaluator, returning the pair
    of final verdicts (they must agree)."""
    formula = parse_formula(formula_text)
    monitor = compile_monitor(formula, var_sorts or {})
    trace = Trace()
    for step in steps:
        trace.append(step)
        monitor.update(step)
    env = query_env or MapEnvironment()
    state = steps[-1].state_dict() if steps else {}
    live = StateEnvironment(state, env)
    return monitor.check(live), evaluate_formula_now(formula, trace, live)


class TestSometimeAfter:
    def test_exact_args(self):
        steps = [make_step("hire", [PEOPLE[0]])]
        got, want = run_both(
            "sometime(after(hire(P)))",
            steps,
            MapEnvironment({"P": PEOPLE[0]}),
            {"P": PERSON},
        )
        assert got == want == True

    def test_wrong_args(self):
        steps = [make_step("hire", [PEOPLE[0]])]
        got, want = run_both(
            "sometime(after(hire(P)))",
            steps,
            MapEnvironment({"P": PEOPLE[1]}),
            {"P": PERSON},
        )
        assert got == want == False

    def test_no_occurrence(self):
        got, want = run_both(
            "sometime(after(hire(P)))",
            [make_step("other")],
            MapEnvironment({"P": PEOPLE[0]}),
            {"P": PERSON},
        )
        assert got == want == False

    def test_zero_arg_event(self):
        got, want = run_both("sometime(after(go))", [make_step("go")])
        assert got == want == True


class TestFoldNodes:
    def test_sometime_state_closed(self):
        steps = [
            make_step("a", state={"N": integer(0)}),
            make_step("b", state={"N": integer(5)}),
            make_step("c", state={"N": integer(0)}),
        ]
        got, want = run_both("sometime(N = 5)", steps)
        assert got == want == True

    def test_always_state_closed(self):
        steps = [
            make_step("a", state={"N": integer(1)}),
            make_step("b", state={"N": integer(0)}),
        ]
        got, want = run_both("always(N > 0)", steps)
        assert got == want == False

    def test_sometime_with_free_var(self):
        steps = [
            make_step("x", state={"members": set_value([PEOPLE[0]], PERSON)}),
            make_step("y", state={"members": set_value([], PERSON)}),
        ]
        got, want = run_both(
            "sometime(P in members)",
            steps,
            MapEnvironment({"P": PEOPLE[0]}),
            {"P": PERSON},
        )
        assert got == want == True
        got, want = run_both(
            "sometime(P in members)",
            steps,
            MapEnvironment({"P": PEOPLE[1]}),
            {"P": PERSON},
        )
        assert got == want == False

    def test_since_recurrence(self):
        steps = [
            make_step("anchor", state={"N": integer(1)}),
            make_step("keep", state={"N": integer(2)}),
        ]
        got, want = run_both("since(N > 0, after(anchor))", steps)
        assert got == want == True
        steps.append(make_step("break", state={"N": integer(0)}))
        got, want = run_both("since(N > 0, after(anchor))", steps)
        assert got == want == False

    def test_quantified_closure_formula(self):
        steps = [
            make_step("hire", [PEOPLE[0]], state={"members": set_value([PEOPLE[0]], PERSON)}),
            make_step("hire", [PEOPLE[1]], state={"members": set_value(PEOPLE[:2], PERSON)}),
            make_step("fire", [PEOPLE[0]], state={"members": set_value([PEOPLE[1]], PERSON)}),
        ]
        formula = "for all(P: PERSON : sometime(P in members) => sometime(after(fire(P))))"
        got, want = run_both(formula, steps)
        assert got == want == False
        steps.append(
            make_step("fire", [PEOPLE[1]], state={"members": set_value([], PERSON)})
        )
        got, want = run_both(formula, steps)
        assert got == want == True


class TestCurrentInstant:
    def test_sometime_sees_live_state(self):
        formula = parse_formula("sometime(N = 7)")
        monitor = compile_monitor(formula)
        step = make_step("a", state={"N": integer(0)})
        monitor.update(step)
        live = StateEnvironment({"N": integer(7)}, MapEnvironment())
        assert monitor.check(live)

    def test_always_sees_live_state(self):
        formula = parse_formula("always(N >= 0)")
        monitor = compile_monitor(formula)
        monitor.update(make_step("a", state={"N": integer(1)}))
        live = StateEnvironment({"N": integer(-1)}, MapEnvironment())
        assert not monitor.check(live)


# ----------------------------------------------------------------------
# Randomised agreement with the naive semantics
# ----------------------------------------------------------------------

FORMULAS = [
    "sometime(after(hire(P)))",
    "sometime(P in members)",
    "always(count(members) <= 3)",
    "sometime(after(fire(P))) => sometime(after(hire(P)))",
    "for all(Q: PERSON : sometime(Q in members) => sometime(after(fire(Q))))",
    "not(sometime(after(fire(P)))) or sometime(after(hire(P)))",
    "since(count(members) > 0, after(hire(P)))",
]


def random_trace(seed, length):
    rng = random.Random(seed)
    members = set()
    steps = []
    for _ in range(length):
        person = rng.choice(PEOPLE)
        if rng.random() < 0.5:
            event = "hire"
            members.add(person)
        else:
            event = "fire"
            members.discard(person)
        steps.append(
            make_step(event, [person], state={"members": set_value(members, PERSON)})
        )
    return steps


@pytest.mark.parametrize("formula_text", FORMULAS)
@pytest.mark.parametrize("seed", range(6))
def test_monitor_agrees_with_naive(formula_text, seed):
    steps = random_trace(seed, 14)
    for probe in PEOPLE:
        got, want = run_both(
            formula_text,
            steps,
            MapEnvironment({"P": probe}),
            {"P": PERSON},
        )
        assert got == want, (
            f"monitor/naive disagree on {formula_text} (seed={seed}, probe={probe})"
        )


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.sampled_from(["hire", "fire"]), st.integers(0, 2)),
        max_size=20,
    ),
    formula_index=st.integers(0, len(FORMULAS) - 1),
    probe=st.integers(0, 2),
)
def test_monitor_agreement_property(events, formula_index, probe):
    """Property: on every guarded formula and every generated trace the
    incremental monitor and the naive evaluator agree."""
    members = set()
    steps = []
    for event, index in events:
        person = PEOPLE[index]
        if event == "hire":
            members.add(person)
        else:
            members.discard(person)
        steps.append(
            make_step(event, [person], state={"members": set_value(members, PERSON)})
        )
    got, want = run_both(
        FORMULAS[formula_index],
        steps,
        MapEnvironment({"P": PEOPLE[probe]}),
        {"P": PERSON},
    )
    assert got == want


# ----------------------------------------------------------------------
# Guard-driven folds: sometime(x in A) enumerates A, not the domain
# ----------------------------------------------------------------------

NUMS = [natural(n) for n in range(5)]
INT_SORTS = {"x": INTEGER}


def _node_types(node):
    """Every compiled node class under ``node``."""
    found = [type(node)]
    for attr in ("_child", "_left", "_right", "_hold", "_anchor"):
        child = getattr(node, attr, None)
        if child is not None:
            found.extend(_node_types(child))
    return found


def guarded_trace(seed, length):
    """A trace over a ``set(nat)`` attribute ``S`` (sometimes undefined,
    i.e. absent from the step's state), a second set ``T`` and a
    ``list(nat)`` attribute ``L``, driven by ``add``/``drop`` events."""
    rng = random.Random(seed)
    s, t, lst = set(), set(), []
    steps = []
    for _ in range(length):
        n = rng.choice(NUMS)
        event = rng.choice(["add", "drop", "keep"])
        if event == "add":
            s.add(n)
            lst.append(n)
        elif event == "drop":
            s.discard(n)
            t.add(n)
            if n in lst:
                lst.remove(n)
        state = {"T": set_value(t, NAT), "L": list_value(lst, NAT)}
        if rng.random() < 0.8:
            state["S"] = set_value(s, NAT)
        steps.append(make_step(event, [n], state=state))
    return steps


#: (formula, is the fold over ``x`` guard-driven?)
GUARDED_FORMULAS = [
    ("sometime(x in S)", True),
    ("sometime(x in L)", True),
    ("sometime(x in S) => sometime(after(drop(x)))", True),
    ("for all(y: integer : sometime(y in S) => sometime(after(drop(y))))", True),
    ("exists(y: integer : sometime(y in L) and not(y in S))", True),
    ("sometime(x in union(S, T))", False),
    ("sometime(x in S and x in T)", False),
]


@pytest.mark.parametrize("formula_text,guarded", GUARDED_FORMULAS)
def test_guard_selects_fold(formula_text, guarded):
    monitor = compile_monitor(parse_formula(formula_text), INT_SORTS)
    types = _node_types(monitor._root)
    assert (_GuardedSometimeNode in types) == guarded
    if not guarded:
        assert _SometimeNode in types


@pytest.mark.parametrize("formula_text,guarded", GUARDED_FORMULAS)
@pytest.mark.parametrize("seed", range(8))
def test_guarded_monitor_agrees_with_naive(formula_text, guarded, seed):
    steps = guarded_trace(seed, 24)
    probes = [integer(n) for n in range(-1, 6)] + [natural(2)]
    for cut in (1, 7, len(steps)):
        for probe in probes:
            got, want = run_both(
                formula_text, steps[:cut], MapEnvironment({"x": probe}), INT_SORTS
            )
            assert got == want, (
                f"monitor/naive disagree on {formula_text} "
                f"(seed={seed}, cut={cut}, probe={probe})"
            )


def test_guarded_fold_matches_generic_marks():
    """The guarded fold marks the same bindings the generic fold would
    (the generic node is built directly over the same child)."""
    formula = parse_formula("sometime(x in S)")
    guarded = compile_monitor(formula, INT_SORTS)._root
    assert isinstance(guarded, _GuardedSometimeNode)
    generic = _SometimeNode(guarded._child, (("x", INTEGER),))
    env = MapEnvironment()
    for step in guarded_trace(3, 40):
        guarded.update(step, env)
        generic.update(step, env)
        assert guarded._marked == generic._marked


def test_guarded_fold_reads_no_population():
    class CountingEnv(MapEnvironment):
        reads = 0

        def class_population(self, class_name):
            self.reads += 1
            return super().class_population(class_name)

    monitor = compile_monitor(parse_formula("sometime(P in members)"), {"P": PERSON})
    env = CountingEnv(populations={"PERSON": PEOPLE})
    for step in random_trace(1, 10):
        monitor.update(step, env)
    assert env.reads == 0


class TestStateless:
    @pytest.mark.parametrize(
        "formula_text,stateless",
        [
            ("N > 0", True),
            ("not(N > 0) or (P in members => N = 1)", True),
            ("after(hire(P))", False),
            ("N > 0 and sometime(N = 1)", False),
            ("for all(Q: PERSON : Q in members)", False),
        ],
    )
    def test_is_stateless(self, formula_text, stateless):
        formula = parse_formula(formula_text)
        assert is_stateless(formula) == stateless
        assert compile_monitor(formula, {"P": PERSON}).stateless == stateless


def _dept_life_cycle(mode):
    """A DEPT life cycle over 200 PERSONs: random hires, fires
    (permitted or not) and closure attempts, then every candidate fired
    until closure succeeds; returns the verdicts, the journal and the
    dump."""
    from repro.diagnostics import PermissionDenied
    from repro.library import FULL_COMPANY_SPEC
    from repro.observability.journal import Journal, record_to_json
    from repro.runtime import ObjectBase
    from repro.runtime.persistence import dump_state
    from tests.conftest import D1960, D1991

    journal = Journal()
    system = ObjectBase(FULL_COMPANY_SPEC, permission_mode=mode, journal=journal)
    dept = system.create("DEPT", {"id": "Sales"}, "establishment", [D1991])
    people = [
        system.create(
            "PERSON", {"Name": f"p{i}", "BirthDate": D1960},
            "hire_into", ["Sales", 1000.0 + i],
        )
        for i in range(200)
    ]
    rng = random.Random(7)
    plan = []
    for _ in range(160):
        roll = rng.random()
        if roll < 0.45:
            plan.append(("hire", [rng.choice(people[:40])]))
        elif roll < 0.93:
            plan.append(("fire", [rng.choice(people[:48])]))
        else:
            plan.append(("closure", []))
    # then fire everyone once more, trying to close along the way
    for index, person in enumerate(rng.sample(people[:48], 48)):
        plan.append(("fire", [person]))
        if index % 6 == 5:
            plan.append(("closure", []))
    verdicts = []
    for event, args in plan:
        try:
            system.occur(dept, event, args)
            verdicts.append((event, True))
        except PermissionDenied:
            verdicts.append((event, False))
        if dept.dead:
            break
    records = [
        {k: v for k, v in record_to_json(r).items() if k not in ("ts", "mono")}
        for r in journal.records
    ]
    dump = dump_state(system)
    del dump["permission_mode"]
    return verdicts, [repr(o) for o in system.journal], records, dump


def test_dept_life_cycle_incremental_matches_naive():
    incremental = _dept_life_cycle("incremental")
    naive = _dept_life_cycle("naive")
    verdicts = incremental[0]
    assert ("fire", False) in verdicts and ("closure", False) in verdicts
    assert verdicts[-1] == ("closure", True)
    assert incremental == naive


def test_stateless_rules_get_no_upkeep(monkeypatch):
    """PERSON's guards are state propositions: their monitors are never
    updated (nor replayed), while ``monitor.steps`` still counts every
    update of DEPT's temporal monitors."""
    from repro.library import FULL_COMPANY_SPEC
    from repro.observability import Observability
    from repro.runtime import ObjectBase
    from repro.temporal.monitors import FormulaMonitor
    from tests.conftest import D1960, D1991

    updated = []
    original = FormulaMonitor.update

    def spy(self, step, env=None):
        updated.append(self)
        original(self, step, env)

    monkeypatch.setattr(FormulaMonitor, "update", spy)
    obs = Observability()
    system = ObjectBase(FULL_COMPANY_SPEC, observability=obs)
    dept = system.create("DEPT", {"id": "Sales"}, "establishment", [D1991])
    alice = system.create(
        "PERSON", {"Name": "alice", "BirthDate": D1960}, "hire_into", ["Sales", 6000.0]
    )
    system.occur(alice, "become_manager")
    system.occur(alice, "ChangeSalary", [7000.0])
    system.occur(alice, "retire_manager")
    system.occur(dept, "hire", [alice])
    system.occur(dept, "fire", [alice])
    system.occur(dept, "closure")

    person_monitors = list(alice.monitors.values())
    assert len(person_monitors) == 2  # created on first check
    assert all(m.stateless for m in person_monitors)
    assert not any(m in updated for m in person_monitors)
    assert updated and all(not m.stateless for m in updated)
    steps = obs.metrics.snapshot()["counters"]["monitor.steps"]["total"]
    # two stateful DEPT rules, four committed DEPT steps
    assert steps == len(updated) == 2 * 4
