"""Probe every shipped rule for stability under substitution and renaming.

A rule is lax natural when substituting into its answer refines the
answer it gives on the substituted goal: rule(X)[s] approximates
rule(X[s]).  It is support-local when its verdict (subgoals, FAIL or
BOT) on a goal is its verdict on the goal moved by an injective renaming
of its free variables, whatever happens to the rest of the context.  Its
heads hold when it answers FAIL on every goal its entry in the logic's
index by goal head excludes, since a compiled script skips it there.
The check runs each rule over a grid of goals crossed with
substitutions, over the same goals moved, and over the grid's goals and
their instances, and prints the counterexample counts.  A deliberately
broken or-introduction, which fails on variable goals instead of leaving
them undetermined, shows what a violation of the first looks like; a
rule that answers BOT unless a number is in scope violates the second;
an entry for plus_eval that admits only numerals violates the third.
"""

from __future__ import annotations

import argparse
import random
import sys

from refkit.logics import arith, dep
from refkit.rule import (
    Rule,
    check_heads,
    check_lax_naturality,
    check_support_locality,
    clause_rule,
    support_moves,
)
from refkit.state import Bot, state_unit
from refkit.theory import Context, Substitution, Var


def arith_samples(rng: random.Random, count: int):
    ctx = Context((("x", arith.EXP), ("u", arith.NUM)))
    source = Context((("y", arith.EXP), ("w", arith.NUM)))

    def rand_expr(depth: int):
        if depth <= 1 or rng.random() < 0.4:
            return rng.choice([arith.num(rng.randrange(4)), Var("x", arith.EXP)])
        return arith.plus(rand_expr(depth - 1), rand_expr(depth - 1))

    x_images = [
        arith.num(0),
        Var("y", arith.EXP),
        arith.plus(arith.num(1), Var("y", arith.EXP)),
    ]
    u_images = [arith.nat(3), Var("w", arith.NUM)]
    out = []
    for _ in range(count):
        goal = rng.choice(
            [
                arith.EvalGoal(ctx, rand_expr(3)),
                arith.AddGoal(
                    ctx,
                    rng.choice([arith.nat(2), Var("u", arith.NUM)]),
                    rng.choice([arith.nat(0), Var("u", arith.NUM)]),
                ),
            ]
        )
        s = Substitution(
            source, ctx, (rng.choice(x_images), rng.choice(u_images))
        )
        out.append((goal, s))
    return out


def dep_samples(rng: random.Random, count: int):
    ctx = Context((("x", dep.EXP), ("p", dep.PROP)))
    source = Context((("y", dep.EXP), ("q", dep.PROP)))

    def rand_prop(depth: int):
        atoms = [
            dep.top(),
            dep.eq(dep.tt(), dep.tt()),
            dep.eq(Var("x", dep.EXP), dep.tt()),
            Var("p", dep.PROP),
        ]
        if depth <= 1 or rng.random() < 0.4:
            return rng.choice(atoms)
        match rng.randrange(2):
            case 0:
                return dep.or_(rand_prop(depth - 1), rand_prop(depth - 1))
            case _:
                return dep.App(
                    dep.SIG_OP, (rand_prop(depth - 1), rand_prop(depth - 1))
                )

    x_images = [dep.tt(), Var("y", dep.EXP), dep.inl(Var("y", dep.EXP))]
    p_images = [dep.or_(dep.top(), dep.top()), Var("q", dep.PROP)]
    out = []
    for _ in range(count):
        goal = dep.TruthGoal(ctx, rand_prop(3))
        s = Substitution(
            source, ctx, (rng.choice(x_images), rng.choice(p_images))
        )
        out.append((goal, s))
    return out


def verdict(failures) -> str:
    return "ok" if not failures else f"{len(failures)} counterexamples"


def report(structure, rules, heads, samples, moved) -> None:
    """One line per rule: the counterexamples to each law.  A rule with
    no entry in heads is run on every goal, so its heads hold."""
    goals = [g for goal, s in samples for g in (goal, structure.subst(goal, s))]
    print(f"  {'':<14} {'lax natural':<20} {'support-local':<20} heads")
    for name, rule in rules.items():
        lax = verdict(check_lax_naturality(structure, rule, samples))
        local = verdict(check_support_locality(structure, rule, moved))
        entry = heads.get(name)
        held = "ok" if entry is None else verdict(check_heads(structure, rule, entry, goals))
        print(f"  {name:<14} {lax:<20} {local:<20} {held}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    print("arith rules:")
    arith_grid = arith_samples(rng, args.samples)
    arith_moves = support_moves(
        (goal for goal, _ in arith_grid),
        {arith.EXP: arith.num(0), arith.NUM: arith.nat(3)},
        Context((("k", arith.NUM),)),
    )
    report(arith.STRUCTURE, arith.RULES, arith.HEADS, arith_grid, arith_moves)
    print("dep rules:")
    samples = dep_samples(rng, args.samples)
    dep_moves = support_moves(
        (goal for goal, _ in samples),
        {dep.EXP: dep.tt(), dep.PROP: dep.top()},
        Context((("k", dep.EXP),)),
    )
    report(dep.STRUCTURE, dep.RULES, dep.HEADS, samples, dep_moves)

    # the shipped or_i1 answers BOT on a variable proposition; dropping
    # that clause makes a variable goal FAIL, and substitution can then
    # turn the goal into one the rule answers, breaking the refinement
    strict = clause_rule(
        dep.STRUCTURE,
        "or_i1_strict",
        ((dep._prop_is(dep.OR_OP), dep._or_i1_build),),
    )
    print("broken variants:")
    report(dep.STRUCTURE, {"or_i1_strict": strict}, {}, samples, dep_moves)

    failures = check_lax_naturality(dep.STRUCTURE, strict, samples)
    if failures:
        first = failures[0]
        print()
        print(f"first counterexample, goal: {dep.STRUCTURE.render(first.goal)}")
        print("  after substituting the answer: FAIL")
        print(
            "  answering the substituted goal: "
            f"{dep.STRUCTURE.render(dep.STRUCTURE.subst(first.goal, first.subst))}"
            " opens normally"
        )

    # a rule that reads its context: the verdict on a goal changes when a
    # move drops the number in scope the goal never mentions
    def nosy_run(ctx, goal):
        if any(sort == arith.NUM for _, sort in ctx.entries):
            return state_unit(arith.STRUCTURE, goal)
        return Bot(ctx, arith.STRUCTURE.output(goal))

    nosy = Rule("num_in_scope", nosy_run)
    print()
    report(arith.STRUCTURE, {"num_in_scope": nosy}, {}, arith_grid, arith_moves)

    # an entry that excludes goals the rule answers: a compiled script
    # would answer FAIL on every + goal without running plus_eval
    numerals_only = {"plus_eval": {arith.EvalGoal: ("expr", (arith.NUM_OP,))}}
    print()
    rules = {"plus_eval": arith.PLUS_EVAL}
    report(arith.STRUCTURE, rules, numerals_only, arith_grid, arith_moves)
    return 0


if __name__ == "__main__":
    sys.exit(main())
