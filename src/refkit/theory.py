"""Multi-sorted first-order terms with binders, contexts, and substitutions.

Everything downstream (judgments, proof states, rules) is built over this
layer.  Terms are sort-checked at construction time, contexts are ordered
telescopes of distinctly named variables, and substitutions are positional
tuples of terms aligned with their target context.

An operator may declare the variable each argument binds; binding lives
here only, under one rule: inside an argument that binds v, the variable
v, name and sort, stands for itself.  An `App` records when it is built
its free variables, as `Var`s so the sort is kept, a binding argument's
own variable taken out; it is closed when there are none.  Only the
constructor sets them, after the arity and sort checks, so a closed term
has been checked all the way down.  `subst_apply`, `instantiate` and
`check_term` are one loop, `_replace`, each with its own leaf function.
The loop hands back a subterm whose free variables are all bound, a
closed one among them, as it is, and keeps an explicit stack, so a deep
term takes no Python frames.

Sorts, operators and terms are hash-consed: `Sort`, `Operator` and
`App` look their fields up in one table per process, which holds its
objects weakly, and build an object only on a miss.  So equal ones are
one object, and `==` and the hash are identity, which run no Python
code.  An App's sort checks and free variables are found once
(`App.__post_init__`); a term that fails them is not kept.  A variable
is not interned: `Var` is a named tuple of its name and sort, which
hashes and compares as the tuple `(name, sort)`, in C, and so equals
that plain tuple; no table here keys both.

A context is a snoc list, as in the paper's Γ, x : A: a nonempty
context is its last entry over its parent, the context before it.
Extending a context conses new cells onto it and writes nothing the
context shares, so every context extended from another keeps it as an
ancestor, and an extension that raises changes nothing.  `entries` and
`names` are built on first read, from the nearest ancestor that has
them.  A lookup walks back from the end, so it costs its distance from
there, and `Context._extends` tells in O(k) whether a context is another
followed by k given names by walking back k cells.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, Union
from weakref import KeyedRef


class TheoryError(Exception):
    """Base class for kernel-level errors."""


class UnsortedTerm(TheoryError):
    """A term failed a sort or arity check."""


class ContextMismatch(TheoryError):
    """A context, variable, or substitution boundary did not line up."""


# The one live Sort, App or Operator per key, its fields: (name,),
# (op, args) or (name, arg_sorts, result, binds), whose lengths keep the
# three apart.
_TABLE: dict[tuple, KeyedRef] = {}


def _forget(entry: KeyedRef) -> None:
    # an object built after this one died may have taken its key
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


def _interned(cls: type, key: tuple) -> Any:
    """The cls whose fields are key: the table's, or a new one, which
    goes in once its __post_init__ has passed."""
    entry = _TABLE.get(key)
    obj = None if entry is None else entry()
    if obj is None:
        obj = object.__new__(cls)
        # a dataclass's __match_args__ are its fields, in order
        for name, value in zip(cls.__match_args__, key):
            object.__setattr__(obj, name, value)
        obj.__post_init__()
        _TABLE[key] = KeyedRef(obj, _forget, key)
    return obj


class _Weak:
    """A base whose slotted subclasses the table can hold weakly
    (dataclass's own weakref_slot needs Python 3.11)."""

    __slots__ = ("__weakref__",)

    def __post_init__(self) -> None:
        """Nothing to check unless a subclass says so (see _interned)."""


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Sort(_Weak):
    name: str

    def __new__(cls, name: str) -> Sort:
        return _interned(cls, (name,))

    def __repr__(self) -> str:
        return f"Sort({self.name!r})"


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Operator(_Weak):
    """An operator symbol with its argument sorts and result sort."""

    name: str
    arg_sorts: tuple[Sort, ...]
    result: Sort
    # per argument the variable it binds, or None; empty if none binds
    binds: tuple[Var | None, ...] = field(default=(), repr=False)

    def __new__(cls, name: str, arg_sorts: tuple, result: Sort, binds: tuple = ()):
        return _interned(cls, (name, arg_sorts, result, binds))


class Var(NamedTuple):
    name: str
    sort: Sort


_NO_VARS: frozenset[Var] = frozenset()


@dataclass(frozen=True, eq=False, init=False, slots=True)
class App(_Weak):
    op: Operator
    args: tuple["Term", ...]
    # the free variables below; left out of repr
    free: frozenset[Var] = field(init=False, repr=False)

    def __new__(cls, op: Operator, args: tuple[Term, ...]) -> App:
        return _interned(cls, (op, args))

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


Term = Union[Var, App]


def term_sort(t: Term) -> Sort:
    if t.__class__ is Var:
        return t.sort
    if t.__class__ is App:
        return t.op.result
    raise UnsortedTerm(f"not a term: {t!r}")


def term_vars(t: Term) -> set[str]:
    """Names of the variables free in t."""
    match t:
        case Var(name, _):
            return {name}
        case App():
            return {v.name for v in t.free}
    raise UnsortedTerm(f"not a term: {t!r}")


class Context:
    """An immutable ordered list of distinctly named, sorted variables.

    A nonempty context is its last entry, `_name` and `_sort`, over
    `_parent`, the context before it (see the module docstring).  Every
    walk back ends at an empty context, which has `entries` and `names`.
    """

    def __init__(self, entries: tuple[tuple[str, Sort], ...] = ()):
        state = self.__dict__
        if entries:
            # the last cell of entries consed onto the empty context
            state.update(Context._extended(Context(()), entries).__dict__)
        else:
            state["_length"] = 0
            state["names"] = ()
        state["entries"] = entries

    def _snoc(self, name: str, sort: Sort) -> "Context":
        """self followed by name : sort, which the caller has made sure
        self does not bind."""
        ctx = object.__new__(Context)
        state = ctx.__dict__
        state["_parent"] = self
        state["_name"] = name
        state["_sort"] = sort
        state["_length"] = self._length + 1
        return ctx

    @classmethod
    def _extended(
        cls, base: "Context", extra: tuple[tuple[str, Sort], ...]
    ) -> "Context":
        # check before consing, so a raising extension makes no cell
        seen = set(base.names)
        for name, _ in extra:
            if name in seen:
                raise ContextMismatch(f"duplicate variable {name!r} in context")
            seen.add(name)
        for name, sort in extra:
            base = base._snoc(name, sort)
        return base

    def _extends(self, base: "Context", names: Sequence[str]) -> bool:
        """Whether self is base followed by names, read in O(len(names)).

        It tells only when base is an ancestor of self; False otherwise.
        """
        if self._length != base._length + len(names):
            return False
        ctx = self
        for name in reversed(names):
            if ctx._name != name:
                return False
            ctx = ctx._parent
        return ctx is base

    def _names_from(self, start: int) -> list[str]:
        """The names past the first start entries, in O(their number)."""
        names = []
        ctx = self
        for _ in range(self._length - start):
            names.append(ctx._name)
            ctx = ctx._parent
        names.reverse()
        return names

    def _from_ancestor(
        self, attr: str, read: Callable[["Context"], object]
    ) -> tuple:
        """attr of self: the value at the nearest of self and its ancestors
        that has it, followed by read of each context after that one."""
        cells = []
        ctx = self
        while attr not in ctx.__dict__:
            cells.append(ctx)
            ctx = ctx._parent
        return ctx.__dict__[attr] + tuple(map(read, reversed(cells)))

    @cached_property
    def entries(self) -> tuple[tuple[str, Sort], ...]:
        return self._from_ancestor("entries", attrgetter("_name", "_sort"))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return self._from_ancestor("names", attrgetter("_name"))

    def lookup(self, name: str) -> Sort | None:
        ctx = self
        while ctx._length:
            if ctx._name == name:
                return ctx._sort
            ctx = ctx._parent
        return None

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Context:
            return NotImplemented
        return self is other or self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"Context(entries={self.entries!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def ctx_concat(left: Context, right: Context) -> Context:
    # rejects any name collision between the halves, like the constructor
    return Context._extended(left, right.entries)


def _replace(t: Term, leaf: Callable[[Var], Term]) -> Term:
    """t, an App, with leaf(x) for each free occurrence of a variable x.

    Leaves are visited left to right.  A subterm whose free variables are
    all bound, or whose leaves all came back as they were, is handed back
    as it is, not rebuilt.
    """
    if t.__class__ is not App:
        raise UnsortedTerm(f"not a term: {t!r}")
    # per open App: the App, the variables bound there, its new arguments
    stack: list[tuple[App, frozenset[Var], list[Term]]] = [(t, _NO_VARS, [])]
    while True:
        node, bound, done = stack[-1]
        i = len(done)
        if i < len(node.args):
            a = node.args[i]
            binds = node.op.binds
            if binds and binds[i] is not None:
                scope = bound | {binds[i]}
            else:
                scope = bound
            if a.__class__ is Var:
                done.append(a if a in scope else leaf(a))
            elif a.free <= scope:
                done.append(a)
            else:
                stack.append((a, scope, []))
            continue
        stack.pop()
        for new, old in zip(done, node.args):
            if new is not old:
                node = App(node.op, tuple(done))
                break
        if not stack:
            return node
        stack[-1][2].append(node)


def _in_scope(ctx: Context, x: Var) -> Var:
    found = ctx.lookup(x.name)
    if found is None:
        raise ContextMismatch(f"unbound variable {x.name!r}")
    if found != x.sort:
        raise UnsortedTerm(
            f"variable {x.name!r} used at sort {x.sort.name}, "
            f"bound at sort {found.name}"
        )
    return x


def check_term(ctx: Context, t: Term) -> None:
    """Check that t is well-sorted with all its free variables bound in ctx."""
    if t.__class__ is Var:
        _in_scope(ctx, t)
    # the constructor has checked a closed term already
    elif t.__class__ is not App or t.free:
        _replace(t, partial(_in_scope, ctx))


@dataclass(frozen=True, slots=True)
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

    def lookup(self, name: str) -> Term | None:
        ctx, terms = self.target, self.terms
        position = len(terms)
        while position:
            position -= 1
            if ctx._name == name:
                return terms[position]
            ctx = ctx._parent
        return None


def subst_weaken(source: Context, target: Context) -> Substitution:
    """The substitution sending each target variable to itself over source.

    Every target entry must occur in source with the same sort; this covers
    both weakening (dropping a suffix) and projection (dropping a prefix).
    The constructor's check raises otherwise.
    """
    return Substitution(
        source, target, tuple(Var(name, sort) for name, sort in target.entries)
    )


def _covered(s: Substitution, x: Var) -> Term:
    replacement = s.lookup(x.name)
    if replacement is None:
        raise ContextMismatch(f"variable {x.name!r} not covered by substitution")
    return replacement


def subst_apply(t: Term, s: Substitution) -> Term:
    """Carry a term over s.target to a term over s.source.

    A bound variable is left alone.  A subterm the substitution leaves
    unchanged, a closed one among them, is handed back as it is, not
    rebuilt.
    """
    if t.__class__ is Var:
        return _covered(s, t)
    if t.__class__ is App and not t.free:
        return t
    return _replace(t, partial(_covered, s))


def instantiate(t: Term, v: Var, u: Term) -> Term:
    """t with u for v where v is free: a binding argument opened."""
    if t.__class__ is Var:
        return u if t == v else t
    if t.__class__ is App and v not in t.free:
        return t
    return _replace(t, lambda x: u if x == v else x)


def subst_compose(s1: Substitution, s2: Substitution) -> Substitution:
    """Compose s1 : A -> B with s2 : B -> C into A -> C.

    Application order: applying the composite to a term over C first
    substitutes via s2 (landing over B), then via s1 (landing over A).
    """
    if s1.target != s2.source:
        raise ContextMismatch("substitution boundaries do not meet")
    return Substitution(
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


def render_term(
    t: Term, notation: Mapping[Operator, Callable[[App], Sequence]] | None = None
) -> str:
    """t as text: a variable by its name, an App as `op(arg, …)`, or its
    operator's name alone when it has no arguments.

    `notation` gives some operators their own form: a function from an
    App to the pieces it prints as, in order, each a string or a term.
    One loop over an explicit stack of pieces prints every term, so a
    deep term takes no Python frames.
    """
    notation = notation or {}
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif not isinstance(t, App):
            raise UnsortedTerm(f"not a term: {t!r}")
        elif t.op in notation:
            stack.extend(reversed(notation[t.op](t)))
        else:
            out.append(t.op.name)
            if t.args:
                out.append("(")
                stack.append(")")
                between = [x for a in t.args for x in (a, ", ")][:-1]
                stack.extend(reversed(between))
    return "".join(out)
