"""Refinement rules: partial maps from judgments to proof states.

A rule inspects a judgment over a context and answers with a state whose
target is the judgment's output context.  Rules are required to be lax
natural: substituting the answer is at most (in the information order)
the answer at the substituted goal, and check_lax_naturality probes that
on sampled instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .judgment import JudgmentStructure
from .state import (
    Fail,
    ProofState,
    state_approx,
    state_map,
    state_mul,
    state_subst,
    state_unit,
)
from .theory import Context, Substitution


@dataclass(frozen=True)
class Rule:
    name: str
    run: Callable[[Context, Any], ProofState]


Clause = tuple[
    Callable[[Context, Any], bool], Callable[[Context, Any], ProofState]
]


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
