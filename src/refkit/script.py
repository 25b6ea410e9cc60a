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
from .rule import Rule
from .syntax import Cursor, ParseError, Token, lex
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


def _vetted(tok: Token) -> Token:
    # rule names are lower-case identifiers, and scripts have no numerals
    if tok.kind == "nat":
        raise ParseError(f"unexpected character {tok.text[0]!r}", tok.offset)
    if tok.kind == "ident" and not tok.text.islower():
        raise ParseError(f"bad identifier {tok.text!r}", tok.offset)
    return tok


def parse_script(text: str) -> TacticAst:
    cur = Cursor(map(_vetted, lex(text, "|;*()[],")))
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
    tok = cur.peek()
    if cur.take("ident"):
        if tok.text == "id":
            return IdTac()
        if tok.text == "all":
            raise ParseError("'all' starts a multitactic", tok.offset)
        return RuleName(tok.text)
    if cur.take("("):
        inner = _tactic(cur)
        cur.expect(")")
        return inner
    raise ParseError(f"expected a tactic, found {tok.text!r}", tok.offset)


def _mtac(cur: Cursor) -> MultiAst:
    body = _mcore(cur)
    while cur.take("*"):
        body = MStar(body)
    return body


def _mcore(cur: Cursor) -> MultiAst:
    tok = cur.peek()
    if cur.take("ident", "all"):
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
    raise ParseError(f"expected a multitactic, found {tok.text!r}", tok.offset)


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


def compile_script(
    structure: JudgmentStructure,
    lookup: Callable[[str], Rule],
    ast: TacticAst,
) -> Tactic:
    """Elaborate a script into a runnable tactic; names resolve eagerly."""
    match ast:
        case RuleName(name):
            return from_rule(lookup(name))
        case IdTac():
            return id_tactic(structure)
        case OrElse(left, right):
            return orelse(
                compile_script(structure, lookup, left),
                compile_script(structure, lookup, right),
            )
        case Star(body):
            return repeat(structure, compile_script(structure, lookup, body))
        case SeqTac(first, rest):
            return seq(
                structure,
                compile_script(structure, lookup, first),
                _compile_multi(structure, lookup, rest),
            )
    raise TypeError(f"not a tactic: {ast!r}")


def _compile_multi(
    structure: JudgmentStructure,
    lookup: Callable[[str], Rule],
    ast: MultiAst,
):
    match ast:
        case AllM(body):
            return all_mt(structure, compile_script(structure, lookup, body))
        case EachM(bodies):
            return each_mt(
                structure,
                tuple(compile_script(structure, lookup, b) for b in bodies),
            )
        case MStar(body):
            return repeat_multitactic(
                structure, _compile_multi(structure, lookup, body)
            )
    raise TypeError(f"not a multitactic: {ast!r}")


def compile_text(
    structure: JudgmentStructure, rules: Mapping[str, Rule], text: str
) -> Tactic:
    """Parse script text and elaborate it against a table of rules."""
    lookup = Refiner(structure, dict(rules)).lookup
    return compile_script(structure, lookup, parse_script(text))
