"""Refinement rules: partial maps from judgments to proof states.

A rule inspects a judgment over a context and answers with a state whose
target is the judgment's output context.  Rules are required to be lax
natural: substituting the answer is at most (in the information order)
the answer at the substituted goal, and check_lax_naturality probes that
on sampled instances.

Rules are also required to be support-local: the answer depends only on
the goal up to an injective renaming of its free variables, never on the
rest of the context.  Moving a goal by such a renaming, onto a context
where the other entries were instantiated, dropped or added, moves the
answer the same way, up to the primes of its binders' names, which keep
their stems; so a rule may not look at which other entries are in
scope.  Breadth-first rounds rely on this twice: they hand a rule the
goal over the context of its free variables alone, and they leave a
refused goal alone when a round only renamed it.  The rounds and the
depth-first star rely on it a third time: each run keeps a table of the
goal shapes its tactic refused, and refuses a goal of such a shape
without running the tactic.  check_support_locality
probes the verdicts on the moves support_moves builds; the tests also
compare whole answers over the goal's context and over its support.
Lax naturality alone does not give it: a rule may answer BOT on a goal
and FAIL on a renaming of it and still be lax natural.

A logic may index its rules by goal head: beside its table of rules it
declares, per rule name, the goals the rule can answer with anything
but FAIL (Heads).  A compiled script's rule leaf answers FAIL, as a
clause table's fall-through does, without running the rule on a goal
its entry excludes.  Substitution never changes the operator at the
head of an App, so that FAIL holds for every instance of the goal, and a
variable in the indexed field is always admitted, since substitution
can fill it.  An entry that excludes a goal the rule answers changes
the run's answers; check_heads probes that it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .judgment import JudgmentStructure, goal_support
from .state import (
    Fail,
    ProofState,
    state_approx,
    state_map,
    state_mul,
    state_subst,
    state_unit,
)
from .theory import App, Context, NameSupply, Sort, Substitution, Term, Var


@dataclass(frozen=True)
class Rule:
    name: str
    run: Callable[[Context, Any], ProofState]


Clause = tuple[
    Callable[[Context, Any], bool], Callable[[Context, Any], ProofState]
]

# A rule's entry in its logic's index: per goal class the rule can answer
# with anything but FAIL, the name of one term field and the operators
# its head may have, or None for every goal of the class.
Heads = dict[type, tuple[str, tuple[Any, ...]] | None]


def _admits(heads: Heads, goal: Any) -> bool:
    """Whether a rule with these heads may answer goal with anything but
    FAIL: the goal's class is listed, and the indexed field is a variable
    or has one of the listed operators at its head."""
    cls = goal.__class__
    if cls not in heads:
        return False
    index = heads[cls]
    if index is None:
        return True
    field, ops = index
    term = getattr(goal, field)
    return term.__class__ is not App or term.op in ops


def clause_rule(
    structure: JudgmentStructure, name: str, clauses: Sequence[Clause]
) -> Rule:
    """A rule from an ordered clause table; unmatched goals fail."""

    def run(ctx: Context, goal: Any) -> ProofState:
        for applies, build in clauses:
            if applies(ctx, goal):
                return build(ctx, goal)
        return Fail(ctx, structure.output(goal))

    return Rule(name, run)


@dataclass(frozen=True)
class LaxityFailure:
    rule: str
    goal: Any
    subst: Substitution
    substituted_answer: ProofState
    answer_at_substituted: ProofState


def check_lax_naturality(
    structure: JudgmentStructure,
    rule: Rule,
    samples: Sequence[tuple[Any, Substitution]],
) -> list[LaxityFailure]:
    """Probe rule(X)[s] being approximated by rule(X[s]) on each sample.

    Each sample is a goal together with a substitution whose target is the
    goal's context.  Returns the list of counterexamples found.
    """
    failures = []
    for goal, s in samples:
        answer = rule.run(goal.context, goal)
        lhs = state_subst(structure, answer, s)
        rhs = rule.run(s.source, structure.subst(goal, s))
        if not state_approx(structure, lhs, rhs):
            failures.append(LaxityFailure(rule.name, goal, s, lhs, rhs))
    return failures


# a NamedTuple, which costs the CLI's start a fraction of a dataclass
class LocalityFailure(NamedTuple):
    rule: str
    goal: Any
    move: Substitution
    answer: ProofState
    answer_at_moved: ProofState


def check_support_locality(
    structure: JudgmentStructure,
    rule: Rule,
    samples: Sequence[tuple[Any, Substitution]],
) -> list[LocalityFailure]:
    """Probe that rule(X) and rule(X[s]) give the same verdict on each sample.

    Each sample is a goal together with a move: a substitution whose
    target is the goal's context and which sends the goal's free
    variables to distinct variables, while the other entries may be
    instantiated, dropped or joined by new ones.  The verdict is whether
    the rule answers with subgoals, FAIL or BOT.  Returns the list of
    counterexamples found.
    """
    failures = []
    for goal, s in samples:
        answer = rule.run(goal.context, goal)
        moved = rule.run(s.source, structure.subst(goal, s))
        if type(answer) is not type(moved):
            failures.append(LocalityFailure(rule.name, goal, s, answer, moved))
    return failures


class HeadsFailure(NamedTuple):
    rule: str
    goal: Any
    answer: ProofState


def check_heads(
    structure: JudgmentStructure, rule: Rule, heads: Heads, goals: Iterable[Any]
) -> list[HeadsFailure]:
    """Probe that the rule answers on every goal its heads exclude what
    an indexed leaf answers without running it: FAIL over the goal's
    context, targeting its outputs.

    A goal the heads admit is not run.  Returns the list of
    counterexamples found.
    """
    failures = []
    for goal in dict.fromkeys(goals):
        if _admits(heads, goal):
            continue
        answer = rule.run(goal.context, goal)
        if answer != Fail(goal.context, structure.output(goal)):
            failures.append(HeadsFailure(rule.name, goal, answer))
    return failures


def support_moves(
    goals: Iterable[Any], fillers: dict[Sort, Term], extra: Context
) -> list[tuple[Any, Substitution]]:
    """Samples for check_support_locality: each goal with its moves.

    Every move renames the goal's free variables to fresh names, and its
    context lists the entries in reversed order.  The entries the goal
    does not mention are either kept or instantiated with fillers[sort],
    a closed term, which drops them from the context; and the entries of
    extra are either added in front or not (not when a kept entry has one
    of their names).
    """
    out = []
    for goal in dict.fromkeys(goals):
        free = goal_support(goal)
        entries = goal.context.entries
        others = [name for name, _ in entries if name not in free]
        scope = NameSupply([*goal.context.names, *extra.names])
        renamed = {name: scope.fresh(name) for name, _ in entries if name in free}
        for instantiate in (False, True) if others else (False,):
            kept = () if instantiate else others
            for add in (False, True):
                if add and not set(extra.names).isdisjoint(kept):
                    continue
                source = list(extra.entries) if add else []
                image = {}
                for name, sort in reversed(entries):
                    if name in free:
                        image[name] = Var(renamed[name], sort)
                        source.append((renamed[name], sort))
                    elif instantiate:
                        image[name] = fillers[sort]
                    else:
                        image[name] = Var(name, sort)
                        source.append((name, sort))
                terms = tuple(image[name] for name in goal.context.names)
                move = Substitution(Context(tuple(source)), goal.context, terms)
                out.append((goal, move))
    return out


def rule_seq(
    structure: JudgmentStructure, first: Rule, rest: Sequence[Rule]
) -> Rule:
    """Run first, then the i-th of rest on the i-th subgoal, and flatten.

    Subgoals past the end of rest stay open, as their unit states.
    """

    def run(ctx: Context, goal: Any) -> ProofState:
        # state_map visits the subgoals left to right, once each
        rules = iter(rest)

        def dispatch(subgoal: Any) -> ProofState:
            rule = next(rules, None)
            if rule is None:
                return state_unit(structure, subgoal)
            return rule.run(subgoal.context, subgoal)

        return state_mul(structure, state_map(dispatch, first.run(ctx, goal)))

    names = ", ".join(r.name for r in rest)
    return Rule(f"{first.name} ; [{names}]", run)
