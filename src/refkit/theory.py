"""Multi-sorted first-order terms with binders, contexts, and substitutions.

Everything downstream (judgments, proof states, rules) is built over this
layer.  Terms are sort-checked at construction time, contexts are ordered
telescopes of distinctly named variables, and substitutions are positional
tuples of terms aligned with their target context.

An operator may declare the variable each argument binds; binding lives
here only.  `subst_apply` leaves a bound variable alone, `instantiate`
opens a binding argument with a term, and `check_term` checks one with
its variable in scope.  An `App` records when it is built its free
variables, as `Var`s so the sort is kept, a binding argument's own
variable taken out; it is closed when there are none.  Only the
constructor sets them, after the arity and sort checks, so a closed term
has been checked all the way down.  The walks hand a closed subterm back
as it is, before doing anything else; a new walk should do the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union


class TheoryError(Exception):
    """Base class for kernel-level errors."""


class UnsortedTerm(TheoryError):
    """A term failed a sort or arity check."""


class ContextMismatch(TheoryError):
    """A context, variable, or substitution boundary did not line up."""


@dataclass(frozen=True)
class Sort:
    name: str

    def __repr__(self) -> str:
        return f"Sort({self.name!r})"


@dataclass(frozen=True)
class Operator:
    """An operator symbol with its argument sorts and result sort."""

    name: str
    arg_sorts: tuple[Sort, ...]
    result: Sort
    # per argument the variable it binds, or None; empty if none binds
    binds: tuple[Var | None, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    sort: Sort


_NO_VARS: frozenset[Var] = frozenset()


@dataclass(frozen=True)
class App:
    op: Operator
    args: tuple["Term", ...]
    # the free variables below; left out of repr, == and hash
    free: frozenset[Var] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op = self.op
        if len(self.args) != len(op.arg_sorts):
            raise UnsortedTerm(
                f"operator {op.name} expects {len(op.arg_sorts)} "
                f"arguments, got {len(self.args)}"
            )
        free = _NO_VARS
        for i, (arg, want) in enumerate(zip(self.args, op.arg_sorts)):
            if type(arg) is App:
                got, below = arg.op.result, arg.free
            else:
                got, below = term_sort(arg), frozenset((arg,))
            if got != want:
                raise UnsortedTerm(
                    f"argument of {op.name} has sort {got.name}, "
                    f"expected {want.name}"
                )
            if op.binds and op.binds[i] is not None:
                below = below - {op.binds[i]}
            if below:
                free = free | below if free else below
        object.__setattr__(self, "free", free)

    @property
    def closed(self) -> bool:
        return not self.free

    def __eq__(self, other: object) -> bool:
        # (a.op, a.args) == (b.op, b.args) without recursion, so deep
        # terms compare; the generated __hash__ stays
        if other.__class__ is not App:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a.op is not b.op and a.op != b.op:
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App is y.__class__:
                    todo.append((x, y))
                elif x != y:
                    return False
        return True


Term = Union[Var, App]


def term_sort(t: Term) -> Sort:
    match t:
        case Var(_, sort):
            return sort
        case App(op, _):
            return op.result
    raise UnsortedTerm(f"not a term: {t!r}")


def term_vars(t: Term) -> set[str]:
    """Names of the variables free in t."""
    match t:
        case Var(name, _):
            return {name}
        case App():
            return {v.name for v in t.free}
    raise UnsortedTerm(f"not a term: {t!r}")


@dataclass(frozen=True)
class Context:
    """An ordered list of distinctly named, sorted variables."""

    entries: tuple[tuple[str, Sort], ...] = ()

    def __post_init__(self) -> None:
        # _index gives each name's position, for lookups here and in the
        # substitutions that target this context
        index: dict[str, int] = {}
        for position, (name, _) in enumerate(self.entries):
            if name in index:
                raise ContextMismatch(f"duplicate variable {name!r} in context")
            index[name] = position
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_names", tuple(index))

    @classmethod
    def _extended(
        cls, base: "Context", extra: tuple[tuple[str, Sort], ...]
    ) -> "Context":
        # same distinctness guarantee as __init__, reusing the base index
        index = dict(base._index)
        position = len(base.entries)
        for name, _ in extra:
            if name in index:
                raise ContextMismatch(f"duplicate variable {name!r} in context")
            index[name] = position
            position += 1
        self = object.__new__(cls)
        object.__setattr__(self, "entries", base.entries + extra)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_names", tuple(index))
        return self

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def lookup(self, name: str) -> Sort | None:
        position = self._index.get(name)
        return None if position is None else self.entries[position][1]

    def __len__(self) -> int:
        return len(self.entries)


def ctx_concat(left: Context, right: Context) -> Context:
    # rejects any name collision between the halves, like the constructor
    return Context._extended(left, right.entries)


def _bind(ctx: Context, v: Var) -> Context:
    """ctx with v in scope, in place of any entry of the same name."""
    entries = tuple([e for e in ctx.entries if e[0] != v.name])
    return Context(entries + ((v.name, v.sort),))


def check_term(ctx: Context, t: Term) -> None:
    """Check that t is well-sorted with all its free variables bound in ctx."""
    match t:
        case Var(name, sort):
            found = ctx.lookup(name)
            if found is None:
                raise ContextMismatch(f"unbound variable {name!r}")
            if found != sort:
                raise UnsortedTerm(
                    f"variable {name!r} used at sort {sort.name}, "
                    f"bound at sort {found.name}"
                )
        case App(op, args):
            # the constructor has checked a closed term already
            if not t.free:
                return
            for a, v in zip(args, op.binds or (None,) * len(args)):
                check_term(ctx if v is None else _bind(ctx, v), a)
        case _:
            raise UnsortedTerm(f"not a term: {t!r}")


@dataclass(frozen=True)
class Substitution:
    """A sort-preserving map from target variables to terms over source.

    terms[i] is the replacement for target.entries[i].  Applying the
    substitution to a term over `target` yields a term over `source`.
    """

    source: Context
    target: Context
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.target.entries):
            raise ContextMismatch(
                f"substitution has {len(self.terms)} terms for "
                f"{len(self.target.entries)} target variables"
            )
        for t, (name, sort) in zip(self.terms, self.target.entries):
            got = term_sort(t)
            if got != sort:
                raise UnsortedTerm(
                    f"substituent for {name!r} has sort {got.name}, "
                    f"expected {sort.name}"
                )
            check_term(self.source, t)

    @classmethod
    def _trusted(
        cls, source: Context, target: Context, terms: tuple[Term, ...]
    ) -> "Substitution":
        # internal builders whose outputs are sorted by construction skip
        # the per-term re-check; everything observable matches __init__
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "terms", terms)
        return self

    def lookup(self, name: str) -> Term | None:
        position = self.target._index.get(name)
        return None if position is None else self.terms[position]


def subst_weaken(source: Context, target: Context) -> Substitution:
    """The substitution sending each target variable to itself over source.

    Every target entry must occur in source with the same sort; this covers
    both weakening (dropping a suffix) and projection (dropping a prefix).
    """
    terms = []
    for name, sort in target.entries:
        found = source.lookup(name)
        if found is None:
            raise ContextMismatch(f"variable {name!r} missing from source")
        if found != sort:
            raise UnsortedTerm(f"variable {name!r} changes sort under weakening")
        terms.append(Var(name, sort))
    return Substitution._trusted(source, target, tuple(terms))


class _Bound:
    """s inside an argument that binds v: v stands for itself."""

    def __init__(self, s: "Substitution | _Bound", v: Var):
        self.s = s
        self.v = v

    def lookup(self, name: str) -> Term | None:
        return self.v if name == self.v.name else self.s.lookup(name)


def subst_apply(t: Term, s: Substitution) -> Term:
    """Carry a term over s.target to a term over s.source.

    A bound variable is left alone.  A subterm the substitution leaves
    unchanged, a closed one among them, is handed back as it is, not
    rebuilt.
    """
    if isinstance(t, Var):
        replacement = s.lookup(t.name)
        if replacement is None:
            raise ContextMismatch(f"variable {t.name!r} not covered by substitution")
        return replacement
    if isinstance(t, App):
        if not t.free:
            return t
        # map, not a comprehension: one frame per level of nesting
        if t.op.binds:
            subs = [s if v is None else _Bound(s, v) for v in t.op.binds]
        else:
            subs = (s,) * len(t.args)
        args = tuple(map(subst_apply, t.args, subs))
        for new, old in zip(args, t.args):
            if new is not old:
                return App(t.op, args)
        return t
    raise UnsortedTerm(f"not a term: {t!r}")


def instantiate(t: Term, v: Var, u: Term) -> Term:
    """t with u for v where v is free: a binding argument opened."""
    if isinstance(t, Var):
        return u if t == v else t
    if isinstance(t, App):
        if v not in t.free:
            return t
        binds = t.op.binds or (None,) * len(t.args)
        return App(t.op, tuple([
            a if w == v else instantiate(a, v, u) for a, w in zip(t.args, binds)
        ]))
    raise UnsortedTerm(f"not a term: {t!r}")


def subst_compose(s1: Substitution, s2: Substitution) -> Substitution:
    """Compose s1 : A -> B with s2 : B -> C into A -> C.

    Application order: applying the composite to a term over C first
    substitutes via s2 (landing over B), then via s1 (landing over A).
    """
    if s1.target != s2.source:
        raise ContextMismatch("substitution boundaries do not meet")
    return Substitution._trusted(
        s1.source, s2.target, tuple(subst_apply(t, s1) for t in s2.terms)
    )


class NameSupply:
    """A set of names in scope that only grows, handing out fresh names.

    fresh(base) takes the stem of base, the part before its first prime
    (or "x" when that is empty), and returns the first of stem, stem'1,
    stem'2, ... not in scope, taking it into scope.  The result depends
    only on base and the names in scope, and the prime keeps generated
    names apart from user identifiers.  Since names are never released,
    every primed name below the last one handed out for a stem stays
    taken, so the search for a stem resumes there instead of rescanning
    from the first prime.
    """

    def __init__(self, names: Iterable[str]):
        self.names = set(names)
        self._next: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        stem = base.split("'", 1)[0] or "x"
        names = self.names
        if stem in names:
            i = self._next.get(stem, 1)
            while f"{stem}'{i}" in names:
                i += 1
            self._next[stem] = i + 1
            stem = f"{stem}'{i}"
        names.add(stem)
        return stem


def freshen_context(
    entries: tuple[tuple[str, Sort], ...], avoid: set[str]
) -> tuple[tuple[tuple[str, Sort], ...], dict[str, str]]:
    """Rename entries away from avoid, also keeping them mutually distinct.

    Returns the renamed entries and the old-name to new-name map.
    """
    scope = NameSupply(avoid)
    out = []
    rename: dict[str, str] = {}
    for name, sort in entries:
        new = scope.fresh(name)
        out.append((new, sort))
        rename[name] = new
    return tuple(out), rename


def render_term(t: Term) -> str:
    # a stack of terms and the text between them, so deep terms print
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, App):
            out.append(t.op.name)
            if t.args:
                out.append("(")
                stack.append(")")
                between = [x for a in t.args for x in (a, ", ")][:-1]
                stack.extend(reversed(between))
        else:
            raise UnsortedTerm(f"not a term: {t!r}")
    return "".join(out)
