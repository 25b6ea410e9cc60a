"""One lexer and one token cursor for the goal and script languages.

Goals of both logics and tactic scripts are read by recursive descent
over the tokens made here.  A token is one punctuation character of the
language, an identifier (a letter or `_`, then letters, digits and `_`),
a numeral (a run of decimal digits) or the end of the input.  Whitespace
only separates tokens; any other character is an error at its offset.
Each parser rejects the kinds of token its language has no use for.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

# \s, \d and \w are str.isspace, str.isdecimal and str.isalnum-or-'_';
# the pattern fails only where nothing but whitespace is left
_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>\w+)|(?P<char>\S))")


class ParseError(ValueError):
    """Text that does not parse, with the offset where reading stopped."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Token(NamedTuple):
    kind: str  # a punctuation character, "ident", "nat" or "eof"
    text: str
    offset: int


def lex(text: str, punctuation: str) -> Iterator[Token]:
    """The tokens of text, ending with one "eof" token.

    Tokens come lazily, so a caller that vets each one as it arrives
    reports the first bad token in text order, ahead of any unknown
    character further on.
    """
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, offset = match[kind], match.start(kind)
        if kind == "nat":
            yield Token("nat", word, offset)
        elif kind == "ident" and (word[0].isalpha() or word[0] == "_"):
            yield Token("ident", word, offset)
        elif kind == "char" and word in punctuation:
            yield Token(word, word, offset)
        else:
            raise ParseError(f"unexpected character {word[0]!r}", offset)
    yield Token("eof", "", len(text))


class Cursor:
    """A reading position in a token list that ends with "eof"."""

    def __init__(self, tokens: Iterable[Token]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str, text: str | None = None) -> Token | None:
        """Consume the next token if it has this kind (and text)."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take(kind)
        if tok is None:
            found = self.peek()
            raise ParseError(f"expected {kind!r}, found {found.text!r}", found.offset)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset)
