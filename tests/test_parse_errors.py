"""Every parse error of the three parsers, message and offset exact.

Each row is one `raise` site of the goal parsers of both logics and of
the script parser, or a case of the order in which errors are found:
the whole text is read into words before any grammar is applied, so an
unknown character, or in a script a word the script language rejects,
is reported ahead of any grammar error, whichever comes first in the
text.  The CLI prints the same message on one `error:` line, and a bad
goal is reported ahead of a bad script.
"""

import pytest

from refkit.cli import main
from refkit.logics import arith, dep
from refkit.script import parse_script
from refkit.syntax import ParseError

# a numeral as long as Python prints (sys.get_int_max_str_digits)
NINES = "9" * 4300
LIMIT = "a numeral or the sum of numerals passes 4300 digits"

PARSERS = {"dep": dep.parse_goal, "arith": arith.parse_goal, "script": parse_script}

ERRORS = [
    # ------------------------------------------------ dep goals
    ("dep", "", "expected: true <proposition> (at offset 0)"),
    ("dep", "false top", "expected: true <proposition> (at offset 0)"),
    # the end of the input sits at its length, past trailing whitespace
    ("dep", "   ", "expected: true <proposition> (at offset 3)"),
    ("dep", "true", "expected 'ident', found '' (at offset 4)"),
    ("dep", "true   ", "expected 'ident', found '' (at offset 7)"),
    ("dep", "true or(top, ", "expected 'ident', found '' (at offset 13)"),
    ("dep", "true eq(tt, tt  ", "expected ')', found '' (at offset 16)"),
    ("dep", "true (", "expected 'ident', found '(' (at offset 5)"),
    ("dep", "true 5", "expected 'ident', found '5' (at offset 5)"),
    ("dep", "true top x", "trailing input 'x' (at offset 9)"),
    ("dep", "true top   )", "trailing input ')' (at offset 11)"),
    ("dep", "true top 123abc", "trailing input '123' (at offset 9)"),
    ("dep", "true sig(x. eq(x, x), top) ,", "trailing input ',' (at offset 27)"),
    ("dep", "true frob", "unknown proposition form 'frob' (at offset 5)"),
    ("dep", "true é", "unknown proposition form 'é' (at offset 5)"),
    ("dep", "true _x", "unknown proposition form '_x' (at offset 5)"),
    ("dep", "true eq(tt, y)", "unknown or unbound name 'y' (at offset 12)"),
    # a sig body sees only its own binder, and a base none
    ("dep", "true sig(x. sig(y. eq(x, y), top), top)",
     "unknown or unbound name 'x' (at offset 22)"),
    ("dep", "true sig(x. top, eq(x, x))",
     "unknown or unbound name 'x' (at offset 20)"),
    ("dep", "true sig(tt. top, top)", "bad binder 'tt' (at offset 9)"),
    # '²' is a word character but neither a letter nor a decimal digit
    ("dep", "true sig(x². top, top)", "bad binder 'x²' (at offset 9)"),
    ("dep", "true sig(5. top, top)", "expected 'ident', found '5' (at offset 9)"),
    ("dep", "true sig(x top", "expected '.', found 'top' (at offset 11)"),
    ("dep", "true sig(x y. top, top)", "expected '.', found 'y' (at offset 11)"),
    ("dep", "true sig(x. eq(x, x) top)", "expected ',', found 'top' (at offset 21)"),
    ("dep", "true eq(tt tt)", "expected ',', found 'tt' (at offset 11)"),
    ("dep", "true or(top top)", "expected ',', found 'top' (at offset 12)"),
    ("dep", "true eq(refl, inl(tt, tt))", "expected ')', found ',' (at offset 20)"),
    ("dep", "true ²", "unexpected character '²' (at offset 5)"),
    ("dep", "true top @", "unexpected character '@' (at offset 9)"),
    # an unknown character is found before the grammar error ahead of it
    ("dep", "true frob @", "unexpected character '@' (at offset 10)"),
    # ------------------------------------------------ arith goals
    ("arith", "", "unknown goal form '' (at offset 0)"),
    ("arith", "frob 1", "unknown goal form 'frob' (at offset 0)"),
    ("arith", "eval", "expected an expression, found '' (at offset 4)"),
    ("arith", "eval  ", "expected an expression, found '' (at offset 6)"),
    ("arith", "eval 5", "expected an expression, found '5' (at offset 5)"),
    ("arith", "eval num 1 +", "expected an expression, found '' (at offset 12)"),
    ("arith", "eval num 1 + (num 2 + )",
     "expected an expression, found ')' (at offset 22)"),
    ("arith", "eval num", "expected 'nat', found '' (at offset 8)"),
    ("arith", "eval num x", "expected 'nat', found 'x' (at offset 9)"),
    # an identifier spelled like a kind is still an identifier
    ("arith", "eval num nat", "expected 'nat', found 'nat' (at offset 9)"),
    ("arith", "add 1", "expected 'nat', found '' (at offset 5)"),
    ("arith", "add x y", "expected 'nat', found 'x' (at offset 4)"),
    ("arith", "add 1 eval", "expected 'nat', found 'eval' (at offset 6)"),
    ("arith", "eval (num 1", "expected ')', found '' (at offset 11)"),
    ("arith", "eval num 1 + (num 2", "expected ')', found '' (at offset 19)"),
    ("arith", "eval num 1 num 2", "trailing input 'num' (at offset 11)"),
    ("arith", "add 5 6 7", "trailing input '7' (at offset 8)"),
    ("arith", "eval num 1 + ?", "unexpected character '?' (at offset 13)"),
    ("arith", "eval num ²", "unexpected character '²' (at offset 9)"),
    ("arith", "eval num 1 .", "unexpected character '.' (at offset 11)"),
    ("arith", "eval num 1 + num 2 @ frob", "unexpected character '@' (at offset 19)"),
    # the numeral-sum limit, at the numeral that passes it
    ("arith", f"add {NINES} {NINES}", f"{LIMIT} (at offset 4305)"),
    ("arith", f"eval num 1{NINES}", f"{LIMIT} (at offset 9)"),
    ("arith", f"eval num {NINES} + num 1", f"{LIMIT} (at offset 4316)"),
    # ------------------------------------------------ scripts
    ("script", "", "expected a tactic, found '' (at offset 0)"),
    ("script", "   ", "expected a tactic, found '' (at offset 3)"),
    ("script", "*", "expected a tactic, found '*' (at offset 0)"),
    ("script", "id | ", "expected a tactic, found '' (at offset 5)"),
    ("script", "(id | )", "expected a tactic, found ')' (at offset 6)"),
    ("script", "id; [", "expected a tactic, found '' (at offset 5)"),
    ("script", "id; [id,]", "expected a tactic, found ']' (at offset 8)"),
    ("script", "id; all(", "expected a tactic, found '' (at offset 8)"),
    ("script", "id;", "expected a multitactic, found '' (at offset 3)"),
    ("script", "id; ", "expected a multitactic, found '' (at offset 4)"),
    ("script", "id; id", "expected a multitactic, found 'id' (at offset 4)"),
    ("script", "id;; id", "expected a multitactic, found ';' (at offset 3)"),
    ("script", "all", "'all' starts a multitactic (at offset 0)"),
    ("script", "all(id)", "'all' starts a multitactic (at offset 0)"),
    ("script", "id; all", "expected '(', found '' (at offset 7)"),
    ("script", "id; all x", "expected '(', found 'x' (at offset 8)"),
    ("script", "id; [id", "expected ']', found '' (at offset 7)"),
    ("script", "(id", "expected ')', found '' (at offset 3)"),
    ("script", "id)", "trailing input ')' (at offset 2)"),
    ("script", "id; all(id) x", "trailing input 'x' (at offset 12)"),
    ("script", "Foo", "bad identifier 'Foo' (at offset 0)"),
    ("script", "id | Foo", "bad identifier 'Foo' (at offset 5)"),
    ("script", "_", "bad identifier '_' (at offset 0)"),
    ("script", "id 12", "unexpected character '1' (at offset 3)"),
    ("script", "id ²", "unexpected character '²' (at offset 3)"),
    ("script", "²id", "unexpected character '²' (at offset 0)"),
    ("script", "id. ", "unexpected character '.' (at offset 2)"),
    # whichever bad word comes first wins, and each wins over the grammar
    ("script", "num_eval 5 @", "unexpected character '5' (at offset 9)"),
    ("script", "num_eval @ 5", "unexpected character '@' (at offset 9)"),
    ("script", "true foo @", "unexpected character '@' (at offset 9)"),
]


@pytest.mark.parametrize(
    "parser, text, message", ERRORS, ids=[f"{p}:{t[:24]!r}" for p, t, _ in ERRORS]
)
def test_parse_error_message_and_offset(parser, text, message):
    with pytest.raises(ParseError) as err:
        PARSERS[parser](text)
    assert str(err.value) == message
    assert err.value.position == int(message.rsplit(" ", 1)[1].rstrip(")"))


CLI_ERRORS = [
    ("dep", "true frob @", "id", "unexpected character '@' (at offset 10)"),
    ("dep", "true   ", "id", "expected 'ident', found '' (at offset 7)"),
    ("dep", "true top", "num_eval 5 @", "unexpected character '5' (at offset 9)"),
    # the goal is read first
    ("dep", "true frob", "Foo", "unknown proposition form 'frob' (at offset 5)"),
    ("arith", "eval num nat", "id", "expected 'nat', found 'nat' (at offset 9)"),
    ("arith", f"add {NINES} {NINES}", "id", f"{LIMIT} (at offset 4305)"),
    ("arith", "eval num 1", "true foo @", "unexpected character '@' (at offset 9)"),
    ("arith", "eval num 1", "id;", "expected a multitactic, found '' (at offset 3)"),
]


@pytest.mark.parametrize("logic, goal, script, message", CLI_ERRORS)
def test_cli_prints_the_parse_error_on_one_line(logic, goal, script, message, capsys):
    code = main(["--logic", logic, "--goal", goal, "--script", script])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
