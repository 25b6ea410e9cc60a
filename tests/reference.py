"""A naive reference kernel, written straight from the paper.

The differential tests compare the kernel in `src/refkit` with this one.
It is small, recursive and unoptimised: named terms and substitutions
held in dicts, binder names searched from the first prime, contexts
rebuilt at every binder, and the unit, the flattening and the rounds of
`m*` transcribed as the paper states them.  It imports constructors and
data classes only, never a function it is compared against, so it cannot
share a bug with the code it checks; `tests/test_reference.py` holds it to
that.  An optimisation lands against this module, not against a private
copy of the code it replaces.
"""

import sys
from dataclasses import fields, is_dataclass

from refkit.logics import arith, dep
from refkit.script import (
    AllM,
    EachM,
    IdTac,
    MStar,
    OrElse,
    RuleName,
    SeqTac,
    Star,
    parse_script,
)
from refkit.state import Bot, Fail, Subgoals, TeleCons, TeleNil
from refkit.tactic import Later, Now, bind
from refkit.theory import (
    App,
    Context,
    ContextMismatch,
    Substitution,
    TheoryError,
    UnsortedTerm,
    Var,
)


def outcome(f, *args):
    """The value f returns, or the class of the kernel error it raises."""
    try:
        return "value", f(*args)
    except TheoryError as err:
        return "raised", type(err)


# ------------------------------------------------------------------ terms


def fresh_name(base, avoid):
    """The first of stem, stem'1, stem'2, ... not in avoid, the stem being
    base up to its first prime, or "x" when that is empty."""
    stem = base.split("'", 1)[0] or "x"
    name, i = stem, 0
    while name in avoid:
        i += 1
        name = f"{stem}'{i}"
    return name


def slot_extend(ctx):
    """ctx with a sig body's slot in scope, in place of any `$x` entry:
    the scope a body is checked in."""
    entries = tuple(e for e in ctx.entries if e[0] != dep.SLOT.name)
    return Context(entries + ((dep.SLOT.name, dep.SLOT.sort),))


def _binders(t):
    return t.op.binds or (None,) * len(t.args)


def ref_subst(t, s, bound=frozenset()):
    """t with s[v.name] for each free variable v.

    s is a dict from names to terms, or a Substitution read as one.  A
    variable s does not cover raises ContextMismatch.  Inside an argument
    that binds v, the variable v (name and sort) stands for itself.
    """
    if isinstance(s, Substitution):
        s = dict(zip(s.target.names, s.terms))
    if isinstance(t, Var):
        if t in bound:
            return t
        if t.name in s:
            return s[t.name]
        raise ContextMismatch(f"variable {t.name!r} not covered")
    if isinstance(t, App):
        return App(t.op, tuple(
            ref_subst(a, s, bound if v is None else bound | {v})
            for a, v in zip(t.args, _binders(t))
        ))
    raise UnsortedTerm(f"not a term: {t!r}")


def ref_open(t, v, u):
    """t with u for each free occurrence of the variable v: a binding
    argument opened.  An argument that binds v again keeps its own."""
    if isinstance(t, Var):
        return u if t == v else t
    if isinstance(t, App):
        return App(t.op, tuple(
            a if w == v else ref_open(a, v, u) for a, w in zip(t.args, _binders(t))
        ))
    raise UnsortedTerm(f"not a term: {t!r}")


def ref_check(ctx, t, bound=frozenset()):
    """Raise unless t is well sorted with its free variables in ctx.
    Inside an argument that binds v, the variable v is in scope too."""
    if isinstance(t, Var):
        if t in bound:
            return
        scope = dict(ctx.entries)
        if t.name not in scope:
            raise ContextMismatch(f"unbound variable {t.name!r}")
        if scope[t.name] != t.sort:
            raise UnsortedTerm(f"variable {t.name!r} used at the wrong sort")
    elif isinstance(t, App):
        for a, v in zip(t.args, _binders(t)):
            ref_check(ctx, a, bound if v is None else bound | {v})
    else:
        raise UnsortedTerm(f"not a term: {t!r}")


def ref_free(t):
    """The variables free in t: an argument that binds v takes v out."""
    if isinstance(t, Var):
        return {t}
    if isinstance(t, App):
        out = set()
        for a, v in zip(t.args, _binders(t)):
            out |= ref_free(a) - {v}
        return out
    raise UnsortedTerm(f"not a term: {t!r}")


def ref_eq(a, b):
    """Structural equality of terms, goals and states, never through
    App.__eq__: a term is compared node by node, and a data class that
    may hold one field by compared field."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(ref_eq, a, b))
    if type(a) is App:
        return a.op == b.op and ref_eq(a.args, b.args)
    if type(a) in (Var, Context) or not is_dataclass(a):
        return a == b
    return all(
        ref_eq(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare
    )


# ------------------------------------------------------------------ rules


def ref_context(j):
    """The context a goal, a state or a telescope lives in."""
    while isinstance(j, (Subgoals, TeleCons)):
        j = j.telescope if isinstance(j, Subgoals) else j.goal
    return j.context


OUTPUTS = {
    arith.EvalGoal: arith.EVAL_OUTPUT,
    arith.AddGoal: arith.ADD_OUTPUT,
    dep.TruthGoal: dep.TRUTH_OUTPUT,
}


def ref_output(goal):
    """The context of the evidence a goal asks for: a state's target."""
    return OUTPUTS[type(goal)] if type(goal) in OUTPUTS else goal.target


def ref_entries(tele):
    """The entries of a telescope, in order, and its closing TeleNil."""
    entries = []
    while isinstance(tele, TeleCons):
        entries.append((tele.names, tele.goal))
        tele = tele.rest
    return entries, tele


class RefTelescope:
    """A telescope over ctx, one goal after another: each binder is named
    fresh against the flat context so far, at the sort of its output."""

    def __init__(self, ctx):
        self.flat = ctx
        self.entries = []

    def push(self, goal, bases):
        """Append goal, over the flat context so far; its binders' Vars."""
        taken, binders = set(self.flat.names), []
        for base, (_, sort) in zip(bases, ref_output(goal).entries, strict=True):
            name = fresh_name(base, taken)
            taken.add(name)
            binders.append(Var(name, sort))
        new = tuple((v.name, v.sort) for v in binders)
        self.flat = Context(self.flat.entries + new)
        self.entries.append((tuple(v.name for v in binders), goal))
        return binders

    def close(self, target, terms):
        tele = TeleNil(self.flat)
        for names, goal in reversed(self.entries):
            tele = TeleCons(names, goal, tele)
        return Subgoals(tele, Substitution(self.flat, target, tuple(terms)))


def ref_state_unit(goal):
    """The unit: one goal whose outputs are handed straight back."""
    output = ref_output(goal)
    b = RefTelescope(ref_context(goal))
    return b.close(output, b.push(goal, [n for n, _ in output.entries]))


def ref_plus_eval(ctx, goal):
    e1, e2 = goal.expr.args
    b = RefTelescope(ctx)
    xc, xv = b.push(arith.EvalGoal(b.flat, e1), ("xc", "xv"))
    yc, yv = b.push(arith.EvalGoal(b.flat, e2), ("yc", "yv"))
    (zc,) = b.push(arith.AddGoal(b.flat, xc, yc), ("zc",))
    (zc1,) = b.push(arith.AddGoal(b.flat, arith.nat(1), zc), ("zc1",))
    (zv,) = b.push(arith.AddGoal(b.flat, xv, yv), ("zv",))
    return b.close(arith.EVAL_OUTPUT, (zc1, zv))


def ref_or_i1(ctx, goal):
    b = RefTelescope(ctx)
    (x,) = b.push(dep.TruthGoal(b.flat, goal.prop.args[0]), ("x",))
    return b.close(dep.TRUTH_OUTPUT, (dep.inl(x),))


def ref_sig_i(ctx, goal):
    ref_check(ctx, goal.prop)
    base, body = goal.prop.args
    b = RefTelescope(ctx)
    (m,) = b.push(dep.TruthGoal(b.flat, base), ("m",))
    opened = ref_open(body, dep.SLOT, m)
    (n,) = b.push(dep.TruthGoal(b.flat, opened), ("n",))
    return b.close(dep.TRUTH_OUTPUT, (dep.pair(m, n),))


# ----------------------------------------------------------------- states


def _keep(name, k):
    return name


def _move(goal, ctx, env, base):
    """goal carried onto ctx, each free variable read from env; the k-th
    binder of a state is named after base(name, k), in nested states too."""
    match goal:
        case arith.EvalGoal(_, e):
            return arith.EvalGoal(ctx, ref_subst(e, env))
        case arith.AddGoal(_, m, n):
            return arith.AddGoal(ctx, ref_subst(m, env), ref_subst(n, env))
        case dep.TruthGoal(_, p):
            return dep.TruthGoal(ctx, ref_subst(p, env))
        case Fail(_, target) | Bot(_, target):
            return type(goal)(ctx, target)
        case Subgoals(tele, validation):
            b, env = RefTelescope(ctx), dict(env)
            for names, g in ref_entries(tele)[0]:
                k = len(b.flat.entries) - len(ctx.entries)
                bases = [base(name, k + i) for i, name in enumerate(names)]
                env.update(zip(names, b.push(_move(g, b.flat, env, base), bases)))
            terms = [ref_subst(t, env) for t in validation.terms]
            return b.close(validation.target, terms)
    raise TheoryError(f"unknown goal: {goal!r}")


def ref_state_subst(state, s):
    """state carried from s.target onto s.source, binder by binder."""
    if ref_context(state) != s.target:
        raise ContextMismatch("substitution target does not match the state")
    return _move(state, s.source, dict(zip(s.target.names, s.terms)), _keep)


def ref_rename(state, base):
    """state with the k-th binder of each telescope renamed after
    base(name, k), fresh against the names before it."""
    ctx = ref_context(state)
    return _move(state, ctx, {n: Var(n, s) for n, s in ctx.entries}, base)


def ref_state_alpha_eq(a, b):
    """Equality up to binder names: both sides renamed onto the spine
    @0, @1, ... and compared."""
    return ref_eq(ref_rename(a, _spine), ref_rename(b, _spine))


def _spine(name, k):
    return f"@{k}"


def ref_obstruction(goals):
    """The kind of the leftmost refusal among goals, or buried in one of
    their states: Fail, Bot or None."""
    for goal in goals:
        if isinstance(goal, (Fail, Bot)):
            return type(goal)
        if isinstance(goal, Subgoals):
            found = ref_obstruction(g for _, g in ref_entries(goal.telescope)[0])
            if found is not None:
                return found
    return None


def ref_state_mul(outer):
    """The flattening: each entry's state spliced in its place, and its
    binders standing from then on for what its validation produced.  A
    refused entry collapses the whole state, into the kind of the first
    refusal among the goals spliced before it, or else into its own."""
    if isinstance(outer, (Fail, Bot)):
        return outer
    ctx = ref_context(outer)
    b = RefTelescope(ctx)
    env = {n: Var(n, s) for n, s in ctx.entries}
    for names, inner in ref_entries(outer.telescope)[0]:
        if isinstance(inner, (Fail, Bot)):
            kind = ref_obstruction(g for _, g in b.entries) or type(inner)
            return kind(ctx, outer.validation.target)
        scope = dict(env)
        for inner_names, g in ref_entries(inner.telescope)[0]:
            moved = _move(g, b.flat, scope, _keep)
            scope.update(zip(inner_names, b.push(moved, inner_names)))
        env.update(zip(names, [ref_subst(t, scope) for t in inner.validation.terms]))
    terms = [ref_subst(t, env) for t in outer.validation.terms]
    return b.close(outer.validation.target, terms)


# ----------------------------------------------------------------- rounds


def _heal(state, answers):
    """answers with each refused entry replaced by the unit of its goal,
    when the answers keep the state's binders one for one."""
    goals, _ = ref_entries(state.telescope)
    entries, nil = ref_entries(answers.telescope)
    if [n for n, _ in goals] != [n for n, _ in entries]:
        return answers
    tele = nil
    for (names, goal), (_, answer) in reversed(list(zip(goals, entries))):
        if isinstance(answer, (Fail, Bot)):
            answer = ref_state_unit(goal)
        tele = TeleCons(names, answer, tele)
    return Subgoals(tele, answers.validation)


def ref_round(state, answers):
    """One round of `m*` on the answers to state: heal, flatten, compare.
    The state after it, and whether the repetition stops there."""
    if isinstance(answers, (Fail, Bot)):
        return state, True
    advanced = ref_state_mul(_heal(state, answers))
    if isinstance(advanced, (Fail, Bot)):
        return state, True
    return advanced, ref_state_alpha_eq(advanced, state)


def full_sweep_repeat(mt):
    """`m*` as a full re-sweep: every round runs mt over the whole state,
    and ref_round heals, flattens and compares."""

    def loop(ctx, state):
        def after(answers):
            advanced, stop = ref_round(state, answers)
            if stop:
                return Now(ref_state_unit(advanced))
            return Later(lambda: loop(ctx, advanced))

        if isinstance(state, (Fail, Bot)):
            return Now(ref_state_unit(state))
        return bind(mt(ctx, state), after)

    return loop


# ------------------------------------------------------------- whole runs

# A computation is run with a budget of fuel: it gives its value and the
# steps it took, or None when it needs more than the budget.  A rule and
# id take no step, a composite the sum of the steps of the parts that run,
# a productive round of m* one more, and the n-th approximant of a star
# answers at n + 1 + its own steps, the earliest one winning.

LOGICS = {"arith": arith, "dep": dep}


def ref_execute(logic, goal, script, fuel):
    """A whole run of the script on the goal, read with the library's
    parsers and interpreted straight from the AST: (status, exit code,
    steps used, state), the state None when the fuel ran out."""
    module = LOGICS[logic]
    goal, ast = module.parse_goal(goal), parse_script(script)
    # the unrolled approximants of a star recurse a few frames per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 1000 + 20 * fuel))
    try:
        got = _run(module.RULES, ast, goal, fuel)
    finally:
        sys.setrecursionlimit(limit)
    if got is None:
        return "out_of_fuel", 4, fuel, None
    state, steps = got
    if isinstance(state, Fail):
        return "failed", 2, steps, state
    if isinstance(state, Bot):
        return "unsuccess", 3, steps, state
    if ref_entries(state.telescope)[0]:
        return "incomplete", 1, steps, state
    return "complete", 0, steps, state


def _run(rules, ast, goal, fuel):
    """The tactic ast on goal: (state, steps), or None past fuel."""
    match ast:
        case RuleName(name):
            return rules[name].run(goal.context, goal), 0
        case IdTac():
            return ref_state_unit(goal), 0
        case OrElse(left, right):
            got = _run(rules, left, goal, fuel)
            if got is None or isinstance(got[0], Subgoals):
                return got
            return _after(got[1], _run(rules, right, goal, fuel - got[1]))
        case SeqTac(first, rest):
            got = _run(rules, first, goal, fuel)
            if got is None:
                return None
            state, steps = got
            got = _after(steps, _run_multi(rules, rest, state, fuel - steps))
            return None if got is None else (ref_state_mul(got[0]), got[1])
        case Star(body):
            best = None
            for n in range(1, fuel):
                budget = (fuel if best is None else best[1] - 1) - n - 1
                if budget < 0:
                    break
                got = _run(rules, _approximant(body, n), goal, budget)
                if got is not None:
                    best = got[0], n + 1 + got[1]
            return best
        case None:
            return None
    raise TypeError(f"not a tactic: {ast!r}")


def _approximant(body, n):
    """The n-th approximant of body*, never at 0: try (body; all(the one
    before))."""
    if n == 0:
        return None
    return OrElse(SeqTac(body, AllM(_approximant(body, n - 1))), IdTac())


def _after(steps, got):
    return None if got is None else (got[0], steps + got[1])


def _run_multi(rules, ast, state, fuel):
    """The multitactic ast on state: (state of answers, steps), or None."""
    match ast:
        case AllM(body):
            return _sweep(state, fuel, lambda i, g, f: _run(rules, body, g, f), None)
        case EachM(bodies):
            def attack(i, goal, fuel):
                if i < len(bodies):
                    return _run(rules, bodies[i], goal, fuel)
                return ref_state_unit(goal), 0

            return _sweep(state, fuel, attack, {})
        case MStar(body):
            steps = 0
            while not isinstance(state, (Fail, Bot)):
                got = _run_multi(rules, body, state, fuel - steps)
                if got is None:
                    return None
                advanced, stop = ref_round(state, got[0])
                steps += got[1]
                if stop:
                    return ref_state_unit(advanced), steps
                if steps >= fuel:
                    return None
                state, steps = advanced, steps + 1
            return ref_state_unit(state), steps
    raise TypeError(f"not a multitactic: {ast!r}")


def _sweep(state, fuel, attack, pending):
    """Each entry of state answered in order by attack(position, goal,
    fuel).  With pending a dict, each goal first has the evidence of the
    entries discharged before it put in for their binders (`[...]`)."""
    if isinstance(state, (Fail, Bot)):
        return state, 0
    entries, nil = ref_entries(state.telescope)
    answered, steps = [], 0
    for i, (names, goal) in enumerate(entries):
        env = None
        if pending is not None:
            env = {n: pending.get(n, Var(n, s)) for n, s in goal.context.entries}
            goal = _move(goal, goal.context, env, _keep)
        got = attack(i, goal, fuel - steps)
        if got is None:
            return None
        answer, k = got
        answered.append((names, answer))
        steps += k
        if env is not None and isinstance(answer, Subgoals):
            if not ref_entries(answer.telescope)[0]:
                terms = [ref_subst(t, env) for t in answer.validation.terms]
                pending.update(zip(names, terms))
    tele = nil
    for names, answer in reversed(answered):
        tele = TeleCons(names, answer, tele)
    return Subgoals(tele, state.validation), steps


# -------------------------------------------------------------------- dep


def ref_render_prop(t):
    """A proposition or an expression as text: a sig's binder is named
    after x, fresh against the names free in its body."""
    if isinstance(t, Var):
        return t.name
    if t.op == dep.SIG_OP:
        base, body = t.args
        name = fresh_name("x", {v.name for v in ref_free(body)})
        body = ref_open(body, dep.SLOT, Var(name, dep.EXP))
        return f"sig({name}. {ref_render_prop(body)}, {ref_render_prop(base)})"
    if not t.args:
        return t.op.name
    return f"{t.op.name}({', '.join(map(ref_render_prop, t.args))})"


def ref_prove_oracle(t):
    """The evidence the dep rules find for a closed proposition, or None;
    a disjunction is proved on the left only."""
    if t.op == dep.TOP_OP:
        return dep.tt()
    if t.op == dep.OR_OP:
        ev = ref_prove_oracle(t.args[0])
        return None if ev is None else dep.inl(ev)
    if t.op == dep.EQ_OP:
        return dep.refl() if ref_eq(*t.args) else None
    if t.op == dep.SIG_OP:
        base, body = t.args
        ev_a = ref_prove_oracle(base)
        if ev_a is None:
            return None
        ev_b = ref_prove_oracle(ref_open(body, dep.SLOT, ev_a))
        return None if ev_b is None else dep.pair(ev_a, ev_b)
    return None
