"""The benchmark's own specifications.

``animate_company`` runs the paper's Section 4/5.1 company
(``repro.library.FULL_COMPANY_SPEC``) unchanged.  The other two
workloads run the specifications below, which the benchmark owns so a
change to the library cannot silently change what they measure.
"""

from __future__ import annotations

#: ``staff_paged``: single-object writes with non-temporal guards only,
#: plus a two-object global interaction, so no temporal monitor runs
#: and the paging store and its B-tree index dominate.
STAFF_SPEC = """
object class STAFF
  identification
    No: nat;
  template
    attributes
      Salary: nat;
      Grade: nat;
      Budget: nat;
    events
      birth join(nat);
      raise(nat);
      regrade(nat);
      give(STAFF, nat);
      take(nat);
    valuation
      variables s: nat; g: nat; k: nat; B: STAFF;
      join(s) Salary = s;
      join(s) Grade = 1;
      join(s) Budget = 100;
      raise(k) Salary = Salary + k;
      regrade(g) Grade = g;
      give(B, k) Budget = Budget - k;
      take(k) Budget = Budget + k;
    permissions
      variables g: nat; k: nat; B: STAFF;
      { k <= 100 } raise(k);
      { g >= 1 and g <= 9 } regrade(g);
      { k <= Budget } give(B, k);
end object class STAFF;

global interactions
  variables A: STAFF; B: STAFF; k: nat;
  STAFF(A).give(B, k) >> STAFF(B).take(k);
"""

#: ``serve_durable``: deposits are single-shard durable writes; a
#: transfer is ``send`` synchronized with the receiver's ``deposit``,
#: a two-phase commit whenever the two accounts live on different shards.
ACCOUNT_SPEC = """
object class ACCOUNT
  identification
    No: nat;
  template
    attributes
      Balance: nat;
    events
      birth open(nat);
      deposit(nat);
      send(ACCOUNT, nat);
    valuation
      variables k: nat; B: ACCOUNT;
      open(k) Balance = k;
      deposit(k) Balance = Balance + k;
      send(B, k) Balance = Balance - k;
    permissions
      variables k: nat; B: ACCOUNT;
      { k <= Balance } send(B, k);
end object class ACCOUNT;

global interactions
  variables A: ACCOUNT; B: ACCOUNT; k: nat;
  ACCOUNT(A).send(B, k) >> ACCOUNT(B).deposit(k);
"""
