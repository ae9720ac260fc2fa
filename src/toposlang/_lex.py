"""The tokenizer and token cursor under both parsers, `prop.syntax` and
`local.syntax`.

A parser subclasses `Cursor` and sets two class attributes: `token`, a
regex with one alternative per kind of token, in the order that decides
each split, with no capturing group and no whitespace alternative; and
`error`, the class of every exception it raises.

Valid input is lexed by one `findall`, which gives the tokens as strings
and skips what lies between them.  The input is valid when the tokens
cover every character that is not whitespace: their joined length equals
that of the text with its whitespace removed.  (Regex `\\s` and
`str.isspace` agree on every code point.)  `toks` is the list of token
strings, ending with the sentinel `""`, which no token equals; `i` indexes
the next one.  A parser tells the kinds of token apart by their text and
compares token strings directly.

Columns exist only in error messages, so they are rebuilt only when an
error is raised: `column(i)` reruns the pattern with `finditer`, which
meets the same tokens at their places.  A lexical error is reported at the
first character that is neither whitespace nor inside a token, which is
where a lexer matching token by token from the start would stop.
"""
from __future__ import annotations

import re

# The characters a name starts with, in both grammars.
NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class Cursor:
    token: re.Pattern
    error: type[Exception]

    def __init__(self, text: str):
        toks = self.token.findall(text)
        if len("".join(toks)) != len("".join(text.split())):
            pos = self.stray(text)
            raise self.error(f"lexical error at column {pos}: {text[pos:pos + 10]!r}")
        toks.append("")
        self.text = text
        self.toks = toks
        self.i = 0

    def stray(self, text: str) -> int:
        """The first character that no token covers and is not whitespace."""
        end = 0
        for m in self.token.finditer(text):
            gap = text[end:m.start()]
            if gap.strip():
                break
            end = m.end()
        else:
            gap = text[end:]
        return end + len(gap) - len(gap.lstrip())

    def column(self, i: int) -> int:
        """The column of token i, the sentinel's being the text's length."""
        starts = [m.start() for m in self.token.finditer(self.text)]
        starts.append(len(self.text))
        return starts[i]

    def shown(self, i: int) -> str:
        """The text an error message quotes for token i."""
        return self.toks[i]

    def expected(self, what: str, i: int) -> Exception:
        return self.error(f"expected {what} at column {self.column(i)}, got {self.shown(i)!r}")

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise self.expected(repr(tok), self.i)
        self.i += 1

    def finish(self) -> None:
        """Raise unless every token has been read."""
        if self.toks[self.i]:
            raise self.error(f"trailing input at column {self.column(self.i)}: "
                             f"{self.shown(self.i)!r}")
