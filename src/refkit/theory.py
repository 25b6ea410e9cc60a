"""Multi-sorted first-order terms, contexts, and substitutions.

Everything downstream (judgments, proof states, rules) is built over this
layer.  Terms are sort-checked at construction time, contexts are ordered
telescopes of distinctly named variables, and substitutions are positional
tuples of terms aligned with their target context.

An `App` records when it is built whether it is closed: no `Var` occurs
anywhere below it.  Only its constructor sets the flag, after the arity
and sort checks, so a closed term has been checked all the way down.
The walks that substitute into, check or collect the variables of a term
hand a closed subterm back as it is, before doing anything else; a new
walk should do the same.
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


@dataclass(frozen=True)
class Var:
    name: str
    sort: Sort


@dataclass(frozen=True)
class App:
    op: Operator
    args: tuple["Term", ...]
    # no Var anywhere below; left out of repr, == and hash
    closed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.args) != len(self.op.arg_sorts):
            raise UnsortedTerm(
                f"operator {self.op.name} expects {len(self.op.arg_sorts)} "
                f"arguments, got {len(self.args)}"
            )
        closed = True
        for arg, want in zip(self.args, self.op.arg_sorts):
            got = term_sort(arg)
            if got != want:
                raise UnsortedTerm(
                    f"argument of {self.op.name} has sort {got.name}, "
                    f"expected {want.name}"
                )
            closed = closed and type(arg) is App and arg.closed
        object.__setattr__(self, "closed", closed)


Term = Union[Var, App]


def term_sort(t: Term) -> Sort:
    match t:
        case Var(_, sort):
            return sort
        case App(op, _):
            return op.result
    raise UnsortedTerm(f"not a term: {t!r}")


def term_vars(t: Term) -> set[str]:
    """Names of the variables occurring in t."""
    match t:
        case Var(name, _):
            return {name}
        case App(_, args):
            out: set[str] = set()
            if t.closed:
                return out
            for a in args:
                out |= term_vars(a)
            return out
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

    def extend(self, name: str, sort: Sort) -> "Context":
        return Context._extended(self, ((name, sort),))

    def __len__(self) -> int:
        return len(self.entries)


def ctx_concat(left: Context, right: Context) -> Context:
    # rejects any name collision between the halves, like the constructor
    return Context._extended(left, right.entries)


def check_term(ctx: Context, t: Term) -> None:
    """Check that t is well-sorted with all its variables bound in ctx."""
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
        case App(_, args):
            # the constructor has checked a closed term already
            if t.closed:
                return
            for a in args:
                check_term(ctx, a)
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


def subst_apply(t: Term, s: Substitution) -> Term:
    """Carry a term over s.target to a term over s.source.

    A subterm the substitution leaves unchanged, a closed one among them,
    is handed back as it is, not rebuilt.
    """
    if isinstance(t, Var):
        replacement = s.lookup(t.name)
        if replacement is None:
            raise ContextMismatch(f"variable {t.name!r} not covered by substitution")
        return replacement
    if isinstance(t, App):
        if t.closed:
            return t
        args = tuple([subst_apply(a, s) for a in t.args])
        for new, old in zip(args, t.args):
            if new is not old:
                return App(t.op, args)
        return t
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
    match t:
        case Var(name, _):
            return name
        case App(op, ()):
            return op.name
        case App(op, args):
            return f"{op.name}({', '.join(render_term(a) for a in args)})"
    raise UnsortedTerm(f"not a term: {t!r}")
