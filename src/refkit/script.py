"""The tactic script language: parsing, printing, and elaboration.

Grammar, loosest first:

    tactic  ::= seqpart ('|' seqpart)*            left associative
    seqpart ::= starred (';' mtac)*               left associative
    starred ::= atom '*'*
    atom    ::= 'id' | rule-name | '(' tactic ')'
    mtac    ::= mcore '*'*
    mcore   ::= 'all' '(' tactic ')' | '[' tactic (',' tactic)* ']' | '[' ']'

Rule names are lower-case identifiers.  Star on a tactic is fixed-point
repetition of that tactic down the subgoal tree; star on a multitactic
re-runs it over the flattened state until nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .judgment import JudgmentStructure
from .refiner import Refiner
from .rule import Heads, Rule
from .syntax import Cursor, ParseError, kind_of  # noqa: F401 (ParseError is re-exported)
from .tactic import (
    Tactic,
    all_mt,
    each_mt,
    from_rule,
    id_tactic,
    orelse,
    repeat,
    repeat_multitactic,
    seq,
)


@dataclass(frozen=True)
class RuleName:
    name: str


@dataclass(frozen=True)
class IdTac:
    pass


@dataclass(frozen=True)
class OrElse:
    left: "TacticAst"
    right: "TacticAst"


@dataclass(frozen=True)
class Star:
    body: "TacticAst"


@dataclass(frozen=True)
class SeqTac:
    first: "TacticAst"
    rest: "MultiAst"


@dataclass(frozen=True)
class AllM:
    body: "TacticAst"


@dataclass(frozen=True)
class EachM:
    bodies: tuple["TacticAst", ...]


@dataclass(frozen=True)
class MStar:
    body: "MultiAst"


TacticAst = Union[RuleName, IdTac, OrElse, Star, SeqTac]
MultiAst = Union[AllM, EachM, MStar]


def _vetted(word: str) -> str | None:
    # rule names are lower-case identifiers, and scripts have no numerals
    kind = kind_of(word)
    if kind == "nat":
        return f"unexpected character {word[0]!r}"
    if kind == "ident" and not word.islower():
        return f"bad identifier {word!r}"
    return None


def parse_script(text: str) -> TacticAst:
    cur = Cursor(text, "|;*()[],", _vetted)
    out = _tactic(cur)
    cur.expect_end()
    return out


def _tactic(cur: Cursor) -> TacticAst:
    left = _seqpart(cur)
    while cur.take("|"):
        left = OrElse(left, _seqpart(cur))
    return left


def _seqpart(cur: Cursor) -> TacticAst:
    first = _starred(cur)
    while cur.take(";"):
        first = SeqTac(first, _mtac(cur))
    return first


def _starred(cur: Cursor) -> TacticAst:
    body = _atom(cur)
    while cur.take("*"):
        body = Star(body)
    return body


def _atom(cur: Cursor) -> TacticAst:
    word = cur.peek()
    if word == "all":
        raise cur.error("'all' starts a multitactic")
    if kind_of(word) == "ident":
        cur.expect("ident")
        return IdTac() if word == "id" else RuleName(word)
    if cur.take("("):
        inner = _tactic(cur)
        cur.expect(")")
        return inner
    raise cur.error(f"expected a tactic, found {word!r}")


def _mtac(cur: Cursor) -> MultiAst:
    body = _mcore(cur)
    while cur.take("*"):
        body = MStar(body)
    return body


def _mcore(cur: Cursor) -> MultiAst:
    if cur.take("all"):
        cur.expect("(")
        inner = _tactic(cur)
        cur.expect(")")
        return AllM(inner)
    if cur.take("["):
        if cur.take("]"):
            return EachM(())
        bodies = [_tactic(cur)]
        while cur.take(","):
            bodies.append(_tactic(cur))
        cur.expect("]")
        return EachM(tuple(bodies))
    raise cur.error(f"expected a multitactic, found {cur.peek()!r}")


# precedence levels for printing: 1 alternation, 2 sequencing, 3 star
def _prec(ast: TacticAst) -> int:
    match ast:
        case OrElse(_, _):
            return 1
        case SeqTac(_, _):
            return 2
        case Star(_):
            return 3
        case _:
            return 4


def print_script(ast: TacticAst) -> str:
    return _print_tactic(ast, 1)


def _print_tactic(ast: TacticAst, level: int) -> str:
    match ast:
        case RuleName(name):
            text = name
        case IdTac():
            text = "id"
        case OrElse(left, right):
            text = f"{_print_tactic(left, 1)} | {_print_tactic(right, 2)}"
        case SeqTac(first, rest):
            text = f"{_print_tactic(first, 2)}; {_print_multi(rest)}"
        case Star(body):
            text = f"{_print_tactic(body, 3)}*"
        case _:
            raise TypeError(f"not a tactic: {ast!r}")
    if _prec(ast) < level:
        return f"({text})"
    return text


def _print_multi(ast: MultiAst) -> str:
    match ast:
        case AllM(body):
            return f"all({_print_tactic(body, 1)})"
        case EachM(bodies):
            return f"[{', '.join(_print_tactic(b, 1) for b in bodies)}]"
        case MStar(body):
            return f"{_print_multi(body)}*"
    raise TypeError(f"not a multitactic: {ast!r}")


# the nodes the reader builds in loops, each with its field that nests
_LEFT = {OrElse: "left", SeqTac: "first", Star: "body", MStar: "body"}


def compile_script(
    structure: JudgmentStructure,
    lookup: Callable[[str], Rule],
    ast: TacticAst | MultiAst,
    heads: Mapping[str, Heads] = {},
) -> Tactic:
    """Elaborate a script into a runnable tactic, node for node; names
    resolve eagerly, each with its entry in heads, the logic's index of
    rules by goal head, if it has one.  The left spines of `|`, `;` and
    the stars, which the parser reads in loops, are folded in a loop too,
    so a flat chain takes no Python frame per link."""

    def build(ast):
        match ast:
            case RuleName(name):
                return from_rule(lookup(name), structure, heads.get(name))
            case IdTac():
                return id_tactic(structure)
            case AllM(body):
                return all_mt(structure, build(body))
            case EachM(bodies):
                return each_mt(structure, tuple(map(build, bodies)))
        spine = []
        while ast.__class__ in _LEFT:
            spine.append(ast)
            ast = getattr(ast, _LEFT[ast.__class__])
        if not spine:
            raise TypeError(f"not a script: {ast!r}")
        tactic = build(ast)
        for link in reversed(spine):
            cls = link.__class__
            if cls is OrElse:
                tactic = orelse(tactic, build(link.right))
            elif cls is SeqTac:
                tactic = seq(structure, tactic, build(link.rest))
            elif cls is Star:
                tactic = repeat(structure, tactic)
            else:
                tactic = repeat_multitactic(structure, tactic)
        return tactic

    return build(ast)


def compile_text(
    structure: JudgmentStructure,
    rules: Mapping[str, Rule],
    text: str,
    heads: Mapping[str, Heads] = {},
) -> Tactic:
    """Parse script text and elaborate it against a table of rules and
    their index by goal head."""
    lookup = Refiner(structure, dict(rules)).lookup
    return compile_script(structure, lookup, parse_script(text), heads)
