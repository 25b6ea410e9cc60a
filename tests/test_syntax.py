"""The lexer: the words of a text are `_WORD.findall(text)`.

`syntax.lex` pads punctuation with spaces, splits on whitespace and cuts
each distinct chunk with `_WORD`.  The reference below is the lexer that
ran `_WORD` over the whole text: its words, or its first complaint with
the offset of the word it is about.
"""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.script import _vetted
from refkit.syntax import _WORD, Cursor, ParseError, kind_of, lex

# each language's punctuation, and the vet its reader passes
LANGUAGES = {
    "dep goal": ("(),.", None),
    "arith goal": ("()+", None),
    "script": ("|;*()[],", _vetted),
}

# all three languages' punctuation, digits, letters, characters no
# language has, and whitespace that is not ASCII
ALPHABET = (
    "(),.+|;*[]" "0129" "abxZ_" "\u00b2\u00e9@$"
    " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
)


def ref_lex(text, punctuation, vet=None):
    """`_WORD`'s words of text and "", or a ParseError at the first word
    that is an unknown character or that vet rejects."""
    matches = list(_WORD.finditer(text))
    for match in matches:
        word = match.group()
        kind = kind_of(word)
        if kind != "nat" and kind != "ident" and kind not in punctuation:
            raise ParseError(f"unexpected character {word[0]!r}", match.start())
        complaint = vet(word) if vet else None
        if complaint:
            raise ParseError(complaint, match.start())
    return [match.group() for match in matches] + [""]


def lexed(text, punctuation, vet=None):
    """The words, or the message and offset of the error raised."""
    try:
        return "words", lex(text, punctuation, vet)
    except ParseError as err:
        return "error", str(err), err.position


def ref_lexed(text, punctuation, vet=None):
    try:
        return "words", ref_lex(text, punctuation, vet)
    except ParseError as err:
        return "error", str(err), err.position


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_the_words_are_those_of_the_whole_text(text):
    for punctuation, vet in LANGUAGES.values():
        got = lexed(text, punctuation, vet)
        assert got == ref_lexed(text, punctuation, vet)
        if got[0] == "words":
            kinds = Cursor(text, punctuation, vet).kinds
            assert kinds == {word: kind_of(word) for word in got[1]}


def test_the_lexer_words_a_few_texts_as_the_reference_does():
    for text in (
        "true sig(x. eq(x, pair(x, tt)), top)",
        "eval num 12 + (num 3+num 4)",
        "id; all(num_eval | add)*",
        "a\u3000b\x85c (d)\u2028",
        "x\u00b2(\u00e9) 12ab",
        "sig(x.y,",
        "",
        "  \x1c ",
    ):
        for punctuation, vet in LANGUAGES.values():
            assert lexed(text, punctuation, vet) == ref_lexed(text, punctuation, vet)


def test_split_and_re_agree_on_whitespace():
    # the lexer splits with str.split, and `_WORD` skips what re's \s
    # matches; the words are the same only if the two agree everywhere
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    by_split = set(every) - set("".join(every.split()))
    assert by_split == set(re.findall(r"\s", every))
