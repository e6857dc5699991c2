"""Seeded op generators, each with a model of the state it expects.

A generator yields ops as ``(kind, mode, name, target, args)``:

* ``kind`` is the op kind latency is reported for (``write``, ``read``
  or ``multi``);
* ``mode`` is the cost class the op is expected to fall in within its
  kind (a stored read is far cheaper than a derived one), used by
  :func:`perfbench.stats.boundary_modes`;
* ``name``/``target``/``args`` say what to ask the program.

Every op is admissible against the model, so a denial means the
program is wrong.  The caller reports each acknowledged op back with
:meth:`ack`; the model then holds the state the program must end in.
The stream depends only on the seed and on the ops acknowledged so far,
so the same seed gives the same ops.
"""

from __future__ import annotations

import datetime
import random
from typing import Any, Dict, List, Tuple

Op = Tuple[str, str, str, Any, tuple]

#: the op kinds latency is reported for
KINDS = ("write", "read", "multi")

DEPTS = ("Research", "Sales", "Ops", "Admin")


class CompanyGen:
    """``animate_company``: PERSON writes, stored/derived/view reads,
    and DEPT ``hire``/``fire`` over a fixed population.

    Shares within each kind keep every percentile inside one cost mode:
    stored reads (about a microsecond) are 20% of reads, so both the
    read p50 and p99 fall among the derived and view reads (about ten
    microseconds).

    ``hire`` and ``fire`` alternate around ``MEMBERS`` employees per
    department.  Their cost is set by the population (the ``closure``
    permission folds over every PERSON), but every DEPT trace step
    records the member set, so a small set keeps the dump -- and the
    time to restore it -- from growing with the square of the run."""

    MEMBERS = 8
    PERSONS = 200

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        persons = self.PERSONS
        self.keys = [
            {
                "Name": f"p{i:04d}",
                "BirthDate": datetime.date(1950 + i % 40, 1 + i % 12, 1 + i % 28),
            }
            for i in range(persons)
        ]
        self.salary = [3000 + (i * 37) % 4000 for i in range(persons)]
        self.dept = [DEPTS[i % len(DEPTS)] for i in range(persons)]
        self.members: Dict[str, List[int]] = {d: [] for d in DEPTS}
        #: persons the RESEARCH_EMPLOYEE view selects, as a list with a
        #: position index so picking and updating are O(1)
        self.research = [i for i in range(persons) if self.dept[i] == "Research"]
        self.research_at = {p: n for n, p in enumerate(self.research)}

    def next(self) -> Op:
        rng = self.rng
        roll = rng.random()
        person = rng.randrange(self.PERSONS)
        if roll < 0.05:
            dept = DEPTS[rng.randrange(len(DEPTS))]
            members = self.members[dept]
            if len(members) >= self.MEMBERS:
                return ("multi", "dept", "fire", dept,
                        (members[rng.randrange(len(members))],))
            while person in members:
                person = rng.randrange(self.PERSONS)
            return ("multi", "dept", "hire", dept, (person,))
        if roll < 0.50:
            if rng.random() < 0.5:
                return ("write", "person", "ChangeSalary", person,
                        (3000 + rng.randrange(4000),))
            return ("write", "person", "ChangeDept", person,
                    (DEPTS[rng.randrange(len(DEPTS))],))
        pick = rng.random()
        if pick < 0.20:
            return ("read", "stored", "Salary", person, ())
        if pick < 0.50:
            return ("read", "computed", "IncomeInYear", person, (1991,))
        if pick < 0.75:
            return ("read", "computed", "SAL_EMPLOYEE2", person, ())
        research = self.research
        return ("read", "computed", "RESEARCH_EMPLOYEE",
                research[rng.randrange(len(research))], ())

    def expected(self, op: Op) -> Any:
        """The value a read must return."""
        _, _, name, person, _ = op
        if name in ("IncomeInYear", "SAL_EMPLOYEE2"):
            return self.salary[person] * 13.5
        return self.salary[person]

    def ack(self, op: Op) -> None:
        kind, _, name, target, args = op
        if kind == "multi":
            members = self.members[target]
            (members.remove if name == "fire" else members.append)(args[0])
        elif name == "ChangeSalary":
            self.salary[target] = args[0]
        elif name == "ChangeDept":
            self.dept[target] = args[0]
            at = self.research_at
            if args[0] == "Research":
                if target not in at:
                    at[target] = len(self.research)
                    self.research.append(target)
            elif target in at:
                last = self.research.pop()
                slot = at.pop(target)
                if last != target:
                    self.research[slot] = last
                    at[last] = slot


class StaffGen:
    """``staff_paged``: single-object writes and reads plus a two-object
    ``give``, with a hot fifth of the keys drawing 80% of the ops."""

    POPULATION = 2000
    HOT_SHARE = 0.8

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        population = self.POPULATION
        order = list(range(population))
        self.rng.shuffle(order)
        self.hot = order[: population // 5]
        self.salary = [1000 + i % 500 for i in range(population)]
        self.grade = [1] * population
        self.budget = [100] * population

    def _key(self) -> int:
        rng = self.rng
        if rng.random() < self.HOT_SHARE:
            return self.hot[rng.randrange(len(self.hot))]
        return rng.randrange(self.POPULATION)

    def next(self) -> Op:
        rng = self.rng
        roll = rng.random()
        if roll < 0.10:
            giver = self._key()
            while self.budget[giver] == 0:
                giver = self._key()
            taker = self._key()
            while taker == giver:
                taker = self._key()
            amount = 1 + rng.randrange(min(self.budget[giver], 20))
            return ("multi", "pair", "give", giver, (taker, amount))
        if roll < 0.50:
            if rng.random() < 0.5:
                return ("write", "single", "raise", self._key(), (1 + rng.randrange(100),))
            return ("write", "single", "regrade", self._key(), (1 + rng.randrange(9),))
        attribute = ("Salary", "Grade", "Budget")[rng.randrange(3)]
        return ("read", "single", attribute, self._key(), ())

    def expected(self, op: Op) -> Any:
        _, _, attribute, key, _ = op
        return self.row(key)[attribute]

    def row(self, key: int) -> Dict[str, int]:
        return {
            "Salary": self.salary[key],
            "Grade": self.grade[key],
            "Budget": self.budget[key],
        }

    def ack(self, op: Op) -> None:
        _, _, name, key, args = op
        if name == "raise":
            self.salary[key] += args[0]
        elif name == "regrade":
            self.grade[key] = args[0]
        elif name == "give":
            taker, amount = args
            self.budget[key] -= amount
            self.budget[taker] += amount


class AccountGen:
    """``serve_durable``, one generator per client connection.

    Client ``c`` sends only from the accounts it owns (``No % clients ==
    c``), and the other client can only add to them, so the client's own
    view of an owned balance is a lower bound and every ``send`` it
    generates is admissible whatever the interleaving.  Every transfer
    goes to an account on the other shard, so all of them run the
    two-phase commit: one cost mode for the ``multi`` kind.

    The mix is 40% reads, 36% deposits and 24% transfers: most ops
    write, since the workload exists for the write path -- group commit,
    fsync and the snapshots every 64 journal records.  A request that
    reaches a shard while it writes a snapshot waits tens of times its
    usual latency, and the share of requests that do is set by the
    records written per op.  With this mix about 3% of deposits and of
    transfers wait, so both p99s lie well inside that snapshot mode
    (about two thirds of the way into it), not on its edge.  An earlier
    mix with 30% writes left only 1.6% of transfers waiting, which put
    the transfer p99 within half a percentile of the mode's edge."""

    INITIAL = 1000

    def __init__(self, seed: int, client: int, clients: int, shard_of: List[int]):
        self.rng = random.Random(seed * 1000 + client)
        self.accounts = len(shard_of)
        self.shard_of = shard_of
        self.owned = [a for a in range(self.accounts) if a % clients == client]
        self.delta = [0] * self.accounts
        #: shard -> the accounts on every other shard
        self.elsewhere: Dict[int, List[int]] = {
            shard: [a for a in range(self.accounts) if shard_of[a] != shard]
            for shard in set(shard_of)
        }

    def floor(self, account: int) -> int:
        """A lower bound on an owned account's balance."""
        return self.INITIAL + self.delta[account]

    def next(self) -> Op:
        rng = self.rng
        roll = rng.random()
        account = rng.randrange(self.accounts)
        if roll < 0.24:
            sender = self.owned[rng.randrange(len(self.owned))]
            others = self.elsewhere[self.shard_of[sender]]
            receiver = others[rng.randrange(len(others))]
            floor = self.floor(sender)
            if floor > 0:
                amount = 1 + rng.randrange(min(floor, 20))
                return ("multi", "xfer", "send", sender, (receiver, amount))
        if roll < 0.60:
            return ("write", "deposit", "deposit", account, (1 + rng.randrange(50),))
        return ("read", "get", "Balance", account, ())

    def ack(self, op: Op) -> None:
        _, _, name, account, args = op
        if name == "deposit":
            self.delta[account] += args[0]
        elif name == "send":
            receiver, amount = args
            self.delta[account] -= amount
            self.delta[receiver] += amount


def expected_balances(generators: List[AccountGen]) -> List[int]:
    """The final balances every client's acknowledged ops imply."""
    accounts = generators[0].accounts
    return [
        AccountGen.INITIAL + sum(g.delta[a] for g in generators)
        for a in range(accounts)
    ]
