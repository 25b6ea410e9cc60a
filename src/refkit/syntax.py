r"""One lexer and one cursor for the goal and script languages.

Goals of both logics and tactic scripts are read by recursive descent
over the words made here.  A word is a plain string: one punctuation
character of the language, an identifier (a letter or `_`, then letters,
digits and `_`), a numeral (a run of decimal digits), or "" for the end
of the input.  A word's kind is read off its first character (see
`kind_of`).  Whitespace only separates words; any other character is an
error at its offset.  Each parser rejects the kinds of word its language
has no use for.

The words of a text are `_WORD.findall(text)`, made the cheap way: each
punctuation mark of the language is padded with spaces, the text is
split on whitespace, and only the distinct chunks are cut by `_WORD`.
That gives the same words, because a punctuation mark is a one-character
`\S` word that no run of `\d` or `\w` takes in, and because `str.split`
and `re`'s `\s` count the same characters as whitespace.  Mostly each
chunk is one word, and the list of chunks is the list of words.

Words carry no offsets.  The cursor keeps the text, and the offset of a
word is found only when an error is raised there, by reading the text
again up to that word; the end of the input sits at the text's length,
past any trailing whitespace.

The whole text is read into words before any grammar is applied, so the
first unknown character, or the first word a language's `vet` rejects,
is reported ahead of any grammar error, whichever comes first in the
text.

A reader may also keep the value of a form it read on the cursor, and be
handed it back where the same words come again (`Cursor.recall`).
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


def _read(
    text: str,
    punctuation: str,
    vet: Callable[[str], str | None] | None,
) -> tuple[list[str], dict[str, str]]:
    """The words of text, ending with "", and the kind of each distinct
    word (see `lex`)."""
    padded = text
    for mark in punctuation:
        padded = padded.replace(mark, f" {mark} ")
    chunks = padded.split()
    # chunks repeat, so the distinct ones are cut into words, all in one
    # go; if each is one word the chunks are the words, and else each
    # distinct chunk is cut on its own and the words are spliced
    distinct = set(chunks)
    found = _WORD.findall(" ".join(distinct))
    words = chunks
    if len(found) > len(distinct):
        cut = {chunk: _WORD.findall(chunk) for chunk in distinct}
        words = [word for chunk in chunks for word in cut[chunk]]
    kinds = {word: kind_of(word) for word in found}

    def complaint(word: str) -> str | None:
        kind = kinds[word]
        if kind != "nat" and kind != "ident" and kind not in punctuation:
            return f"unexpected character {word[0]!r}"
        return vet(word) if vet else None

    bad = [word for word in kinds if complaint(word)]
    if bad:
        index = min(map(words.index, bad))
        raise ParseError(complaint(words[index]), _offset(text, index))
    words.append("")
    kinds[""] = "eof"
    return words, kinds


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
    return _read(text, punctuation, vet)[0]


class Cursor:
    """A reading position in the words of one text, and the forms kept
    for `recall`."""

    def __init__(
        self,
        text: str,
        punctuation: str,
        vet: Callable[[str], str | None] | None = None,
    ):
        self.text = text
        # words repeat, so `expect` looks a kind up instead of reading it
        self.words, self.kinds = _read(text, punctuation, vet)
        self.pos = 0
        # per (key, reach): the start, length, depth and value of the
        # form kept last
        self._kept: dict[tuple, tuple[int, int, int, object]] = {}
        # per form being read after a miss: its (key, reach), start and
        # depth, and whether it was compared and found unlike
        self._open: list[tuple[tuple, int, int, bool]] = []
        self._unlike = 0  # how many of those were
        # the first ")" at or after the last form `recall` was asked about
        self._close_at = -1

    def recall(self, key: object, depth: int) -> object | None:
        """The value kept under key for a form spelled with the same words
        as the one whose name was just read, or None.  On None the caller
        reads the form and hands its value, never None, to `remember`.

        A form is its name, a "(" and the words up to the ")" that closes
        it.  The caller vouches that a form's value depends on nothing but
        its key and its words, so a hit moves the cursor past the form.

        Forms are kept by key and reach, the distance from the name to
        the first ")", which equal forms share.  Only the form kept last
        with the same key and reach is compared, and none is compared
        inside a form found unlike the one kept: no word is compared
        twice, so misses add at most one comparison per word to reading.

        A value kept at some depth is handed back only at that depth or
        less.  The reader then recurses no deeper than it did to read the
        form, so the memo never yields a term deeper than the reader
        could have read where it stands.
        """
        words = self.words
        start = self.pos - 1
        close = self._close_at
        if close < start:
            # the cursor only moves on: one scan serves the forms that
            # start before the next ")"
            try:
                close = words.index(")", start)
            except ValueError:
                close = len(words)
            self._close_at = close
        slot = (key, close - start)
        kept = None if self._unlike else self._kept.get(slot)
        unlike = False
        if kept is not None:
            first, length, deepest, value = kept
            if depth <= deepest:
                if words[start:start + length] == words[first:first + length]:
                    self.pos = start + length
                    return value
                unlike = True
                self._unlike += 1
        self._open.append((slot, start, depth, unlike))
        return None

    def remember(self, value: object) -> None:
        """Keep the value of the form the last missed `recall` asked about,
        now read up to the word just taken."""
        slot, start, depth, unlike = self._open.pop()
        self._kept[slot] = (start, self.pos - start, depth, value)
        self._unlike -= unlike

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
