"""One lexer and one cursor for the goal and script languages.

Goals of both logics and tactic scripts are read by recursive descent
over the words made here.  A word is a plain string: one punctuation
character of the language, an identifier (a letter or `_`, then letters,
digits and `_`), a numeral (a run of decimal digits), or "" for the end
of the input.  A word's kind is read off its first character (see
`kind_of`).  Whitespace only separates words; any other character is an
error at its offset.  Each parser rejects the kinds of word its language
has no use for.

Words carry no offsets.  The cursor keeps the text, and the offset of a
word is found only when an error is raised there, by reading the text
again up to that word; the end of the input sits at the text's length,
past any trailing whitespace.

The whole text is read into words before any grammar is applied, so the
first unknown character, or the first word a language's `vet` rejects,
is reported ahead of any grammar error, whichever comes first in the
text.
"""

from __future__ import annotations

import re
from typing import Callable

# \d and \w are str.isdecimal and str.isalnum-or-'_'; whitespace matches
# none of the three, so findall skips it.  \d+ is tried first, so a \w+
# word never starts with a decimal digit.
_WORD = re.compile(r"\d+|\w+|\S")


class ParseError(ValueError):
    """Text that does not parse, with the offset where reading stopped."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def kind_of(word: str) -> str:
    """The kind of a word: "nat", "ident", "eof" for "", else the word."""
    if not word:
        return "eof"
    first = word[0]
    if first.isdecimal():
        return "nat"
    if first.isalpha() or first == "_":
        return "ident"
    return word


def _offset(text: str, index: int) -> int:
    """Where the index-th word of text starts; its length for the end."""
    for i, match in enumerate(_WORD.finditer(text)):
        if i == index:
            return match.start()
    return len(text)


def lex(
    text: str,
    punctuation: str,
    vet: Callable[[str], str | None] | None = None,
) -> list[str]:
    """The words of text, ending with "" for the end of the input.

    `vet` gives a complaint about a word the language has no use for, or
    None.  The first word in the text that is an unknown character or
    that `vet` rejects raises a ParseError.
    """
    words = _WORD.findall(text)

    def complaint(word: str) -> str | None:
        kind = kind_of(word)
        if kind != "nat" and kind != "ident" and kind not in punctuation:
            return f"unexpected character {word[0]!r}"
        return vet(word) if vet else None

    # words repeat, so each distinct one is judged once
    bad = [word for word in set(words) if complaint(word)]
    if bad:
        index = min(map(words.index, bad))
        raise ParseError(complaint(words[index]), _offset(text, index))
    words.append("")
    return words


class Cursor:
    """A reading position in the words of one text."""

    def __init__(
        self,
        text: str,
        punctuation: str,
        vet: Callable[[str], str | None] | None = None,
    ):
        self.text = text
        self.words = lex(text, punctuation, vet)
        # words repeat, so `expect` looks a kind up instead of reading it
        self.kinds = {word: kind_of(word) for word in set(self.words)}
        self.pos = 0

    def peek(self) -> str:
        return self.words[self.pos]

    def take(self, word: str) -> bool:
        """Consume the next word if it is this one."""
        if self.words[self.pos] != word:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        """Consume and return the next word, which must be of this kind."""
        word = self.words[self.pos]
        if self.kinds[word] != kind:
            raise self.error(f"expected {kind!r}, found {word!r}")
        self.pos += 1
        return word

    def expect_end(self) -> None:
        word = self.words[self.pos]
        if word:
            raise self.error(f"trailing input {word!r}")

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at word `at`, by default the next word."""
        return ParseError(message, _offset(self.text, self.pos if at is None else at))
