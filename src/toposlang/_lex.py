"""The token cursor under both parsers, `prop.syntax` and `local.syntax`.

A parser subclasses `Cursor` and sets three class attributes: `token`, a
regex of named alternatives, one of them `ws` for the whitespace it skips;
`reserved`, the names that are tokens of their own kind; and `error`, the
class of every exception it raises.  A token is `(kind, value, column)`.
Its kind is the name of the alternative that matched, or the name itself
when it is reserved; its value is the text of that group, so a group that
covers part of its match, like `proj_(?P<proj>\\d+)`, gives that part.
The tokens end with `("eof", "", len(text))`.
"""
from __future__ import annotations

import re


class Cursor:
    token: re.Pattern
    reserved: frozenset[str]
    error: type[Exception]

    def __init__(self, text: str):
        token, reserved, toks = self.token, self.reserved, []
        pos = 0
        while pos < len(text):
            m = token.match(text, pos)
            if not m:
                raise self.error(f"lexical error at column {pos}: {text[pos:pos + 10]!r}")
            kind = m.lastgroup
            if kind != "ws":
                value = m.group(kind)
                if kind == "name" and value in reserved:
                    kind = value
                toks.append((kind, value, pos))
            pos = m.end()
        toks.append(("eof", "", len(text)))
        self.toks = toks
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v, pos = self.next()
        if k != kind or (value is not None and v != value):
            raise self.error(f"expected {value or kind!r} at column {pos}, got {v!r}")
        return v

    def at_sym(self, ch: str) -> bool:
        kind, value, _ = self.toks[self.i]
        return value == ch and kind == "sym"

    def finish(self) -> None:
        """Raise unless every token has been read."""
        kind, value, pos = self.peek()
        if kind != "eof":
            raise self.error(f"trailing input at column {pos}: {value!r}")
