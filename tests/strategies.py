"""Seeded generators for terms, goals, telescopes, and layered states.

Everything is driven by an explicit random.Random so failures replay
from a seed; hypothesis tests feed seeds through these same builders.
"""

from __future__ import annotations

import random

from refkit.logics import arith
from refkit.state import (
    Bot,
    Fail,
    ProofState,
    StateStructure,
    Subgoals,
    TeleCons,
    TeleNil,
)
from refkit.theory import (
    App,
    Context,
    Substitution,
    Term,
    Var,
    ctx_concat,
)

from reference import fresh_name, slot_extend

NUM = arith.NUM
EXP = arith.EXP


def rand_num_term(rng: random.Random, ctx: Context) -> Term:
    """A number: a small literal, or one of the context's num variables."""
    num_vars = [n for n, s in ctx.entries if s == NUM]
    if num_vars and rng.random() < 0.5:
        return Var(rng.choice(num_vars), NUM)
    return arith.nat(rng.randrange(10))


def rand_expr(rng: random.Random, ctx: Context, depth: int) -> Term:
    exp_vars = [n for n, s in ctx.entries if s == EXP]
    if depth <= 0 or rng.random() < 0.4:
        if exp_vars and rng.random() < 0.4:
            return Var(rng.choice(exp_vars), EXP)
        return arith.num(rng.randrange(10))
    return arith.plus(
        rand_expr(rng, ctx, depth - 1), rand_expr(rng, ctx, depth - 1)
    )


def rand_closed_expr(rng: random.Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        return arith.num(rng.randrange(50))
    return arith.plus(
        rand_closed_expr(rng, depth - 1), rand_closed_expr(rng, depth - 1)
    )


def rand_goal(rng: random.Random, ctx: Context, depth: int):
    if rng.random() < 0.5:
        return arith.EvalGoal(ctx, rand_expr(rng, ctx, depth))
    return arith.AddGoal(
        ctx, rand_num_term(rng, ctx), rand_num_term(rng, ctx)
    )


def rand_context(rng: random.Random, max_len: int = 2) -> Context:
    entries = []
    for i in range(rng.randrange(max_len + 1)):
        entries.append((f"g{i}", rng.choice((NUM, EXP))))
    return Context(tuple(entries))


def rand_target(rng: random.Random, max_len: int = 2) -> Context:
    return Context(
        tuple((f"o{i}", NUM) for i in range(rng.randrange(1, max_len + 1)))
    )


def rand_subst(rng: random.Random, target: Context, depth: int = 2) -> Substitution:
    """A substitution into `target` from a freshly generated source."""
    source = rand_context(rng)
    terms = []
    for _, sort in target.entries:
        if sort == NUM:
            terms.append(rand_num_term(rng, source))
        else:
            terms.append(rand_expr(rng, source, depth))
    return Substitution(source, target, tuple(terms))


def rand_state(
    rng: random.Random,
    structure,
    goal_gen,
    ctx: Context,
    max_goals: int = 2,
    depth: int = 2,
    terminal_chance: float = 0.2,
) -> ProofState:
    """A random state over ctx; goal_gen(rng, ctx) makes one subgoal.

    Works at any level: passing a goal_gen that builds states (with the
    matching StateStructure) produces states of states.
    """
    roll = rng.random()
    if roll < terminal_chance:
        target = rand_target(rng)
        if roll < terminal_chance / 2:
            return Fail(ctx, target)
        return Bot(ctx, target)
    walk = ctx
    spine = []
    for _ in range(rng.randrange(max_goals + 1)):
        goal = goal_gen(rng, walk)
        output = structure.output(goal)
        taken = set(walk.names)
        names = []
        for base, _ in output.entries:
            picked = fresh_name(base, taken)
            taken.add(picked)
            names.append(picked)
        binder = tuple(
            (n, s) for n, (_, s) in zip(names, output.entries)
        )
        spine.append((tuple(names), goal))
        walk = ctx_concat(walk, Context(binder))
    target = rand_target(rng)
    terms = tuple(rand_num_term(rng, walk) for _ in target.entries)
    tele: object = TeleNil(walk)
    for names, goal in reversed(spine):
        tele = TeleCons(names, goal, tele)
    return Subgoals(tele, Substitution(walk, target, terms))


def arith_state(rng: random.Random, ctx: Context, **kw) -> ProofState:
    return rand_state(
        rng,
        arith.STRUCTURE,
        lambda r, c: rand_goal(r, c, 2),
        ctx,
        **kw,
    )


def arith_state_of_states(rng: random.Random, ctx: Context, **kw) -> ProofState:
    inner = StateStructure(arith.STRUCTURE)
    return rand_state(
        rng,
        inner,
        lambda r, c: arith_state(r, c, max_goals=2),
        ctx,
        **kw,
    )


def arith_state_of_states_of_states(
    rng: random.Random, ctx: Context, **kw
) -> ProofState:
    doubled = StateStructure(StateStructure(arith.STRUCTURE))
    return rand_state(
        rng,
        doubled,
        lambda r, c: arith_state_of_states(r, c, max_goals=2),
        ctx,
        **kw,
    )


SCRIPT_NAMES = ("num_eval", "plus_eval", "add", "probe", "aux_2")


def rand_script_tactic(rng: random.Random, depth: int, names=SCRIPT_NAMES):
    """A script AST whose rule names are drawn from names."""
    from refkit.script import IdTac, OrElse, RuleName, SeqTac, Star

    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return IdTac()
        return RuleName(rng.choice(names))
    match rng.randrange(4):
        case 0:
            return OrElse(
                rand_script_tactic(rng, depth - 1, names),
                rand_script_tactic(rng, depth - 1, names),
            )
        case 1:
            return Star(rand_script_tactic(rng, depth - 1, names))
        case 2:
            return SeqTac(
                rand_script_tactic(rng, depth - 1, names),
                rand_script_multi(rng, depth - 1, names),
            )
        case _:
            return rand_script_tactic(rng, depth - 1, names)


def rand_script_multi(rng: random.Random, depth: int, names=SCRIPT_NAMES):
    from refkit.script import AllM, EachM, MStar

    match rng.randrange(3):
        case 0:
            return AllM(rand_script_tactic(rng, depth, names))
        case 1:
            return EachM(
                tuple(
                    rand_script_tactic(rng, depth - 1, names)
                    for _ in range(rng.randrange(4))
                )
            )
        case _:
            if depth <= 0:
                return AllM(rand_script_tactic(rng, 0, names))
            return MStar(rand_script_multi(rng, depth - 1, names))


def rand_dep_exp(rng: random.Random, ctx: Context, depth: int) -> Term:
    from refkit.logics import dep

    evars = [n for n, s in ctx.entries if s == dep.EXP]
    if depth <= 0 or rng.random() < 0.4:
        if evars and rng.random() < 0.5:
            return Var(rng.choice(evars), dep.EXP)
        return rng.choice((dep.tt(), dep.refl()))
    if rng.random() < 0.5:
        return dep.inl(rand_dep_exp(rng, ctx, depth - 1))
    return dep.pair(
        rand_dep_exp(rng, ctx, depth - 1), rand_dep_exp(rng, ctx, depth - 1)
    )


def rand_dep_prop(rng: random.Random, ctx: Context, depth: int) -> Term:
    """A proposition over ctx; slot-bound bodies may use the sig binder."""
    from refkit.logics import dep
    from refkit.theory import App

    if depth <= 0:
        return dep.top()
    roll = rng.random()
    if roll < 0.2:
        return dep.top()
    if roll < 0.45:
        return dep.or_(
            rand_dep_prop(rng, ctx, depth - 1),
            rand_dep_prop(rng, ctx, depth - 1),
        )
    if roll < 0.75:
        return dep.eq(rand_dep_exp(rng, ctx, 2), rand_dep_exp(rng, ctx, 2))
    inner = slot_extend(ctx)
    return App(
        dep.SIG_OP,
        (rand_dep_prop(rng, ctx, depth - 1), rand_dep_prop(rng, inner, depth - 1)),
    )


def rand_dep_closed_prop(rng: random.Random, depth: int) -> Term:
    return rand_dep_prop(rng, Context(()), depth)


# names that collide with sig_i's m/n and render_prop's x on purpose
DEP_NAMES = ("g0", "m", "n", "x", "m'1")


def rand_dep_context(rng: random.Random, max_len: int = 3) -> Context:
    from refkit.logics import dep

    names = rng.sample(DEP_NAMES, rng.randrange(max_len + 1))
    return Context(tuple((name, dep.EXP) for name in names))


def rand_dep_subst(rng: random.Random, target: Context) -> Substitution:
    """A substitution into `target` whose terms are expressions over a
    freshly generated source."""
    source = rand_dep_context(rng)
    return Substitution(
        source,
        target,
        tuple(rand_dep_exp(rng, source, 2) for _ in target.entries),
    )


# names that collide on purpose with the binders the rules and the unit
# state pick: plus_eval's xc, xv, zc1, sig_i's m, n, or_i1's x, and the
# outputs c, v of eval
BINDER_NAMES = ("g0", "xc", "xc'1", "xv", "zc1", "m", "n", "x", "x'1", "c", "v")


def rand_binder_context(rng: random.Random, sorts, max_len: int = 5) -> Context:
    names = rng.sample(BINDER_NAMES, rng.randrange(max_len + 1))
    return Context(tuple((name, rng.choice(sorts)) for name in names))
