"""Seeded goal mixes for the benchmark, each goal with its own reference.

Nothing here imports refkit: every reference (status, exit code,
`steps_used`, extract) is computed from the generated shape alone, so
the benchmark checks the program against an independent answer.

A batch is a fixed, stratified list of goals: the sizes and the kinds
of goal are the same for every seed, so that runs on different seeds
measure the same amount of work; the seed picks the numerals, the shapes
of the random trees and the positions of `or` levels.  Sizes follow a
low-discrepancy order, so that small and large goals alternate and a
drift of machine speed during a pass does not fall on one size range.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

ARITH_AUTO = "id; all(num_eval | plus_eval | add)*"
ARITH_NAIVE = "(num_eval | plus_eval | add)*"

BATCH_SIZE = 48
# every COMB_EVERY-th arith goal is a left comb, the rest random trees
COMB_EVERY = 4
COMB_NODES = (8, 32)
TREE_NODES = (8, 48)
DEP_LEVELS = (4, 48)
OR_LEVEL_SHARE = 0.15
MAX_NUMERAL = 99

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Expected:
    exit_code: int
    status: str
    steps_used: int
    extract: tuple[str, ...] | None


@dataclass(frozen=True)
class Goal:
    logic: str
    text: str
    script: str
    size: int
    expected: Expected

    def argv(self) -> list[str]:
        return [
            "--logic", self.logic,
            "--goal", self.text,
            "--script", self.script,
            "--json",
        ]


def spread_sizes(lo: int, hi: int, count: int) -> list[int]:
    """`count` evenly spaced sizes from lo to hi, in an order whose every
    prefix covers the range about evenly (golden-ratio sequence ranks)."""
    order = sorted(range(count), key=lambda k: (k * _GOLDEN) % 1.0)
    rank = {k: r for r, k in enumerate(order)}
    return [lo + round((hi - lo) * rank[k] / (count - 1)) for k in range(count)]


# arith expressions are tuples: ("num", n) or ("+", left, right)


def left_comb(rng: random.Random, nodes: int) -> tuple:
    expr = ("num", rng.randint(0, MAX_NUMERAL))
    for _ in range(nodes):
        expr = ("+", expr, ("num", rng.randint(0, MAX_NUMERAL)))
    return expr


def random_tree(rng: random.Random, nodes: int) -> tuple:
    """A `+` tree with `nodes` internal nodes, split points uniform."""
    if nodes == 0:
        return ("num", rng.randint(0, MAX_NUMERAL))
    left = rng.randrange(nodes)
    return ("+", random_tree(rng, left), random_tree(rng, nodes - 1 - left))


def typical_depth(nodes: int) -> int:
    """The most common depth of a random tree with this many `+` nodes."""
    return round(2 * math.log2(nodes + 1) - 1.5)


def random_tree_of_typical_depth(rng: random.Random, nodes: int) -> tuple:
    """A random tree drawn again until its depth is the typical one.

    The work of both arith scripts grows with the depth, so fixing it per
    size keeps the shapes random but the cost of a batch nearly the same
    from seed to seed.
    """
    while True:
        tree = random_tree(rng, nodes)
        if plus_depth(tree) == typical_depth(nodes):
            return tree


def render_expr(expr: tuple) -> str:
    """Concrete syntax; `+` associates to the left, so only right operands
    that are themselves sums need parentheses."""
    if expr[0] == "num":
        return f"num {expr[1]}"
    right = render_expr(expr[2])
    if expr[2][0] == "+":
        right = f"({right})"
    return f"{render_expr(expr[1])} + {right}"


def plus_depth(expr: tuple) -> int:
    if expr[0] == "num":
        return 0
    return 1 + max(plus_depth(expr[1]), plus_depth(expr[2]))


def plus_count_and_sum(expr: tuple) -> tuple[int, int]:
    if expr[0] == "num":
        return 0, expr[1]
    c1, v1 = plus_count_and_sum(expr[1])
    c2, v2 = plus_count_and_sum(expr[2])
    return 1 + c1 + c2, v1 + v2


def arith_goal(expr: tuple, rounds: bool) -> Goal:
    """Breadth-first rounds finish every goal in 3d+1 steps; the depth-first
    star stalls after d+2 steps with subgoals left (d: `+` nesting depth)."""
    d = plus_depth(expr)
    count, total = plus_count_and_sum(expr)
    if rounds:
        script = ARITH_AUTO
        expected = Expected(0, "complete", 3 * d + 1, (str(count), str(total)))
    else:
        script = ARITH_NAIVE
        expected = Expected(1, "incomplete", d + 2, None)
    return Goal("arith", "eval " + render_expr(expr), script, count, expected)


def arith_batch(rng: random.Random, rounds: bool) -> list[Goal]:
    combs = iter(spread_sizes(*COMB_NODES, BATCH_SIZE // COMB_EVERY))
    trees = iter(spread_sizes(*TREE_NODES, BATCH_SIZE - BATCH_SIZE // COMB_EVERY))
    goals = []
    for i in range(BATCH_SIZE):
        if i % COMB_EVERY == 0:
            expr = left_comb(rng, next(combs))
        else:
            expr = random_tree_of_typical_depth(rng, next(trees))
        goals.append(arith_goal(expr, rounds))
    return goals


def dep_goal(rng: random.Random, levels: int) -> Goal:
    """A nest of `levels` levels over `top`, solved positionally.

    A sig level `sig(x. eq(x, W), A)` has the level below as its base A
    and that level's witness W in its body; an `or` level `or(A, top)` is
    proved on the left.  Every rule call answers with subgoals, no step
    of fuel is spent, and the extract is the witness of the top level.
    """
    prop, witness, script = "top", "tt", "top_i"
    # a fixed share of `or` levels at seeded places: `or` levels are the
    # cheap ones, so their number would otherwise move the cost of a goal
    ors = set(rng.sample(range(levels), round(levels * OR_LEVEL_SHARE)))
    for level in range(levels):
        if level in ors:
            prop = f"or({prop}, top)"
            witness = f"inl({witness})"
            script = f"or_i1; [{script}]"
        else:
            prop = f"sig(x. eq(x, {witness}), {prop})"
            witness = f"pair({witness}, refl)"
            script = f"sig_i; [{script}, eq_refl]"
    expected = Expected(0, "complete", 0, (witness,))
    return Goal("dep", "true " + prop, script, levels, expected)


def dep_batch(rng: random.Random) -> list[Goal]:
    return [dep_goal(rng, n) for n in spread_sizes(*DEP_LEVELS, BATCH_SIZE)]


WORKLOADS = {
    "arith-rounds": lambda rng: arith_batch(rng, rounds=True),
    "arith-depth": lambda rng: arith_batch(rng, rounds=False),
    "dep-positional": dep_batch,
}


def make_batch(workload: str, seed: int) -> list[Goal]:
    """The goals of one workload; the same seed gives the same goals."""
    # each workload draws from its own stream, so arith-rounds and
    # arith-depth share the shape distribution but not the shapes
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def check_report(goal: Goal, exit_code: object, stdout: str) -> str | None:
    """Why a `--json` run disagrees with the goal's reference, or None."""
    want = goal.expected
    if exit_code != want.exit_code:
        return f"exit code {exit_code!r}, expected {want.exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"report is not json: {stdout[:80]!r}"
    if not isinstance(report, dict):
        return f"report is not a json object: {stdout[:80]!r}"
    if report.get("status") != want.status:
        return f"status {report.get('status')!r}, expected {want.status!r}"
    if report.get("steps_used") != want.steps_used:
        return (
            f"steps_used {report.get('steps_used')!r}, "
            f"expected {want.steps_used}"
        )
    extract = report.get("extract")
    expected_extract = None if want.extract is None else list(want.extract)
    if extract != expected_extract:
        return f"extract {extract!r}, expected {expected_extract!r}"
    # a complete run leaves no residual goals, an incomplete one some
    if bool(report.get("residual_goals")) != (want.status == "incomplete"):
        return f"residual goals {report.get('residual_goals')!r} for {want.status}"
    return None
