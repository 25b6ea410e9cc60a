"""The tactic script language: lexing, parsing, printing, compiling."""

import random

import pytest

from refkit.logics import arith
from refkit.refiner import Refiner, UnknownRuleName
from refkit.script import (
    AllM,
    EachM,
    IdTac,
    MStar,
    OrElse,
    ParseError,
    RuleName,
    SeqTac,
    Star,
    compile_script,
    parse_script,
    print_script,
)
from refkit.state import Subgoals, TeleNil, tele_goals
from refkit.tactic import Resolved, run_delayed
from refkit.theory import Context

from strategies import rand_script_tactic

J = arith.STRUCTURE
EMPTY = Context(())


def test_atoms():
    assert parse_script("num_eval") == RuleName("num_eval")
    assert parse_script("id") == IdTac()
    assert parse_script("( add )") == RuleName("add")


def test_alternation_associates_left():
    got = parse_script("a | b | c")
    assert got == OrElse(OrElse(RuleName("a"), RuleName("b")), RuleName("c"))


def test_sequencing_binds_tighter_than_alternation():
    got = parse_script("a | b; all(c)")
    assert got == OrElse(RuleName("a"), SeqTac(RuleName("b"), AllM(RuleName("c"))))


def test_sequencing_associates_left():
    got = parse_script("a; all(b); all(c)")
    assert got == SeqTac(
        SeqTac(RuleName("a"), AllM(RuleName("b"))), AllM(RuleName("c"))
    )


def test_star_is_postfix_and_stacks():
    assert parse_script("a*") == Star(RuleName("a"))
    assert parse_script("a**") == Star(Star(RuleName("a")))
    assert parse_script("(a | b)*") == Star(OrElse(RuleName("a"), RuleName("b")))


def test_multitactic_forms():
    assert parse_script("a; [b, c]") == SeqTac(
        RuleName("a"), EachM((RuleName("b"), RuleName("c")))
    )
    assert parse_script("a; []") == SeqTac(RuleName("a"), EachM(()))
    assert parse_script("a; all(b)*") == SeqTac(
        RuleName("a"), MStar(AllM(RuleName("b")))
    )
    assert parse_script("a; [b]*") == SeqTac(
        RuleName("a"), MStar(EachM((RuleName("b"),)))
    )


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_script("a; b")
    assert err.value.position == 3
    assert "(at offset 3)" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_script("a Q")
    assert err.value.position == 2
    # a numeral is rejected where it stands, ahead of the parse error at 3
    with pytest.raises(ParseError) as err:
        parse_script("a; b 12")
    assert err.value.position == 5
    for text in ("a |", "(a", "a)", "all(a)", "a; all(b", "", "12", "a Q"):
        with pytest.raises(ParseError):
            parse_script(text)


def test_printing_uses_minimal_parentheses():
    cases = [
        "a | b | c",
        "a | (b | c)",
        "a; all(b | c)",
        "(a | b); [c, d]",
        "a**",
        "(a; all(b))*",
        "id; all(a | b)*",
        "a; []",
    ]
    for text in cases:
        assert print_script(parse_script(text)) == text


def test_parse_print_round_trip_on_random_scripts():
    rng = random.Random(55)
    for _ in range(300):
        ast = rand_script_tactic(rng, 4)
        assert parse_script(print_script(ast)) == ast


def test_compile_resolves_names_eagerly():
    refiner = Refiner(J, dict(arith.RULES))
    with pytest.raises(UnknownRuleName):
        compile_script(J, refiner.lookup, parse_script("num_eval | missing"))


def _run_script(text, expr):
    refiner = Refiner(J, dict(arith.RULES))
    tac = compile_script(J, refiner.lookup, parse_script(text))
    goal = arith.EvalGoal(EMPTY, expr)
    got = run_delayed(tac(EMPTY, goal), 10000)
    assert isinstance(got, Resolved)
    return got.value


def test_compiled_tactic_star_recurses_without_revisiting_siblings():
    got = _run_script(
        arith.AUTO_NAIVE_SCRIPT, arith.plus(arith.num(2), arith.num(3))
    )
    assert isinstance(got, Subgoals)
    assert len(tele_goals(got.telescope)) == 3


def test_compiled_multitactic_star_reaches_quiescence():
    got = _run_script(arith.AUTO_SCRIPT, arith.plus(arith.num(2), arith.num(3)))
    assert isinstance(got, Subgoals)
    assert isinstance(got.telescope, TeleNil)
    assert got.validation.terms == (arith.nat(1), arith.nat(5))
