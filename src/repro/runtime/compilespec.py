"""Compilation of checked specifications into runtime form.

The checker's symbol tables are declaration-oriented; the animator wants
occurrence-oriented indexes: "which valuation rules fire for event e?",
"which permissions guard e?", "which calling rules does e trigger?",
"which view classes are born/killed by e?".  :func:`compile_specification`
builds those indexes once, so each occurrence is a few dictionary hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datatypes.sorts import Sort
from repro.lang import ast
from repro.lang.checker import CheckedSpecification, ClassInfo
from repro.temporal.monitors import is_stateless


@dataclass
class CompiledClass:
    """One class (or single object), indexed for the animator."""

    info: ClassInfo
    #: event name -> valuation rules triggered by it
    valuation_by_event: Dict[str, List[ast.ValuationRule]] = field(default_factory=dict)
    #: event name -> permission rules guarding it
    permissions_by_event: Dict[str, List[ast.PermissionRule]] = field(default_factory=dict)
    #: the permission rules whose monitors keep summary state, i.e. the
    #: only ones a committed step must update (stateless rules are
    #: checked against the live state alone)
    stateful_permissions: List[ast.PermissionRule] = field(default_factory=list)
    #: event name -> calling rules it triggers (local interaction section)
    callings_by_event: Dict[str, List[ast.CallingRule]] = field(default_factory=dict)
    #: derived attribute name -> derivation rule
    derivation_by_attribute: Dict[str, ast.DerivationRule] = field(default_factory=dict)
    #: static constraints
    static_constraints: List[ast.ConstraintDecl] = field(default_factory=list)
    #: constraints that must hold at birth only
    initial_constraints: List[ast.ConstraintDecl] = field(default_factory=list)
    #: view classes born by one of this class's events:
    #: event name -> [view class name]
    role_births_by_event: Dict[str, List[str]] = field(default_factory=dict)
    #: view classes killed by one of this class's events
    role_deaths_by_event: Dict[str, List[str]] = field(default_factory=dict)
    #: events that must occur before death (liveness obligations)
    obligations: List[str] = field(default_factory=list)
    #: compiled behaviour-pattern automaton, if the class declares one
    protocol: Optional[object] = None
    #: per-rule variable sorts (permission monitors need them)
    _var_sorts_cache: Dict[int, Dict[str, Sort]] = field(default_factory=dict)
    #: compiled rule bodies (valuation/permission/derivation/constraint
    #: terms lowered to closures), keyed by id(term) with the term kept
    #: for identity checking -- see repro.datatypes.compile.evaluate_term.
    #: Owned here so a class's rules survive global-cache overflow and
    #: die with the specification.
    term_cache: Dict[int, tuple] = field(default_factory=dict)
    #: fused whole-transaction plans (repro.runtime.txncompile), keyed
    #: by event name; entries are TxnPlan objects or decline-reason
    #: strings.  Plans are system-independent, so systems sharing one
    #: compiled specification share them; set_txn_compile clears this.
    txn_cache: Dict[str, object] = field(default_factory=dict)
    #: merged event index (declared + implicit), cached at compile time
    _events_index: Optional[Dict[str, ast.EventDecl]] = None
    _active_events: Optional[List[ast.EventDecl]] = None

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def is_single_object(self) -> bool:
        return self.info.kind == "object"

    @property
    def base(self) -> Optional[str]:
        return self.info.base

    def event(self, name: str) -> Optional[ast.EventDecl]:
        if self._events_index is None:
            self._events_index = self.info.all_events()
        return self._events_index.get(name)

    def active_events(self) -> List[ast.EventDecl]:
        if self._active_events is None:
            self._active_events = [
                e for e in self.info.all_events().values() if e.active
            ]
        return self._active_events

    def var_sorts_for(self, rule: ast.PermissionRule) -> Dict[str, Sort]:
        """Sorts of a permission rule's variables and event binders."""
        key = id(rule)
        cached = self._var_sorts_cache.get(key)
        if cached is not None:
            return cached
        sorts: Dict[str, Sort] = {v.name: v.sort for v in rule.variables}
        decl = self.event(rule.event.name)
        if decl is not None:
            from repro.datatypes.terms import Var

            for index, arg in enumerate(rule.event.args):
                if isinstance(arg, Var) and index < len(decl.param_sorts):
                    sorts.setdefault(arg.name, decl.param_sorts[index])
        self._var_sorts_cache[key] = sorts
        return sorts


@dataclass
class CompiledSpecification:
    """All compiled classes plus the global interaction index."""

    checked: CheckedSpecification
    classes: Dict[str, CompiledClass] = field(default_factory=dict)
    #: (class name, event name) -> global calling rules triggered
    global_callings: Dict[Tuple[str, str], List[ast.CallingRule]] = field(
        default_factory=dict
    )

    def compiled(self, class_name: str) -> CompiledClass:
        return self.classes[class_name]


def compile_specification(checked: CheckedSpecification) -> CompiledSpecification:
    """Index a checked specification for animation."""
    out = CompiledSpecification(checked=checked)
    for name, info in checked.classes.items():
        out.classes[name] = _compile_class(info)

    # Role birth/death bindings: a view class whose birth event is bound
    # to a base event means "the base event brings the role into being".
    for name, info in checked.classes.items():
        if info.base is None:
            continue
        own_template = info.template
        for event in own_template.events:
            if event.binding is None:
                continue
            bound_class = event.binding.object_name
            target = out.classes.get(bound_class)
            if target is None:
                continue
            if event.kind == "birth":
                target.role_births_by_event.setdefault(
                    event.binding.event_name, []
                ).append(name)
            elif event.kind == "death":
                target.role_deaths_by_event.setdefault(
                    event.binding.event_name, []
                ).append(name)

    for block in checked.spec.global_interactions:
        for rule in block.rules:
            trigger = rule.trigger
            if trigger.qualifier is None:
                continue
            key = (trigger.qualifier.name, trigger.name)
            out.global_callings.setdefault(key, []).append(rule)
    return out


def _compile_class(info: ClassInfo) -> CompiledClass:
    compiled = CompiledClass(info=info)
    template = info.template
    # A view class animates its base's rules too (its valuation includes
    # the inherited rules on the shared state) -- the runtime reads the
    # base chain at occurrence time instead, so only own rules here.
    for rule in template.valuation:
        compiled.valuation_by_event.setdefault(rule.event.name, []).append(rule)
    for rule in template.permissions:
        compiled.permissions_by_event.setdefault(rule.event.name, []).append(rule)
    for rule in template.interactions:
        compiled.callings_by_event.setdefault(rule.trigger.name, []).append(rule)
    for rule in template.derivation_rules:
        compiled.derivation_by_attribute[rule.attribute] = rule
    for constraint in template.constraints:
        if constraint.kind == "initially":
            compiled.initial_constraints.append(constraint)
        else:
            compiled.static_constraints.append(constraint)
    if template.behavior_patterns:
        from repro.lang.patterns import compile_pattern

        compiled.protocol = compile_pattern(template.behavior_patterns)
    # Obligations strengthen every death event's permission by
    # sometime(after(e)) with any arguments.
    if template.obligations:
        from repro.lang.ast import PermissionRule, EventRef
        from repro.temporal.formulas import After, EventPattern, Sometime

        compiled.obligations = [o.event for o in template.obligations]
        for death in info.death_events():
            for obligation in template.obligations:
                rule = PermissionRule(
                    position=obligation.position,
                    variables=(),
                    formula=Sometime(
                        body=After(
                            pattern=EventPattern(
                                event=obligation.event, match_any_args=True
                            )
                        )
                    ),
                    event=EventRef(name=death.name),
                )
                compiled.permissions_by_event.setdefault(death.name, []).append(rule)
    compiled.stateful_permissions = [
        rule
        for rules in compiled.permissions_by_event.values()
        for rule in rules
        if not is_stateless(rule.formula)
    ]
    return compiled
