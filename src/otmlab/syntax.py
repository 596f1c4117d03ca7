"""Tokens and cursors shared by the package's text syntaxes.

`.otm` programs and formulas are scanned into tokens with 1-based line and
column spans and read through a `TokenCursor`; ordinal and set literals are
read character by character through a `CharCursor`.  Each syntax passes its
differences as data (punctuation, keywords, whitespace), and every syntax
reports a mistake the same way: a `ParseError` naming the span, what was
expected and what was found, input nested past Python's recursion limit
included (`parse_nested`).  JSON inputs are read by `parse_json`, which
refuses nesting past a fixed depth on every Python version.
"""

from __future__ import annotations

import json
from typing import Callable, Collection, List, NamedTuple, Optional, Sequence, TypeVar

from .errors import ParseError, SourceSpan

# The digits of a number.  `str.isdigit` also holds for characters such as
# '²' that `int` rejects.
DIGITS = frozenset("0123456789")

T = TypeVar("T")


class Token(NamedTuple):
    kind: str  # "punct", "keyword", "ident", "number" or "eof"
    text: str
    span: SourceSpan


def scan(
    text: str,
    punct: Sequence[str],
    what: str,
    keywords: Collection[str] = (),
    numbers: bool = False,
) -> List[Token]:
    """Split text into tokens, skipping whitespace and `#` line comments.

    punct is tried in order, so a longer mark must precede its prefixes.  A
    word (a letter or `_`, then letters, digits or `_`) is a "keyword" if it
    is in keywords and an "ident" otherwise; with numbers, a run of ASCII
    digits is a "number".  Any other character raises a ParseError expecting
    `what`.  The list ends with an "eof" token.
    """
    tokens: List[Token] = []
    starts = {p[0] for p in punct}
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        mark = ch in starts and next((p for p in punct if text.startswith(p, i)), None)
        if mark:
            kind, end = "punct", i + len(mark)
        elif numbers and ch in DIGITS:
            kind, end = "number", i + 1
            while end < n and text[end] in DIGITS:
                end += 1
        elif ch.isalpha() or ch == "_":
            end = i + 1
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            kind = "keyword" if text[i:end] in keywords else "ident"
        else:
            raise ParseError(SourceSpan(line, col, 1), what, ch)
        tokens.append(Token(kind, text[i:end], SourceSpan(line, col, end - i)))
        col += end - i
        i = end
    tokens.append(Token("eof", "", SourceSpan(line, col, 1)))
    return tokens


class TokenCursor:
    """A position in a token list; grammar classes subclass it."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def span(self) -> SourceSpan:
        return self.peek().span

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if it reads text."""
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def error(self, expected: str, tok: Optional[Token] = None):
        """Raise a ParseError at tok (default: the next token)."""
        tok = tok or self.peek()
        raise ParseError(tok.span, expected, tok.text or "end of input")

    def expect(self, text: str) -> Token:
        if self.peek().text != text:
            self.error(f"'{text}'")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        if self.peek().kind != "ident":
            self.error(what)
        return self.next()

    def expect_end(self, what: str):
        if self.peek().kind != "eof":
            self.error(what)


class CharCursor:
    """A position in a one-line literal; `whitespace` is what skip_ws skips."""

    def __init__(self, text: str, whitespace: str):
        self.text = text
        self.pos = 0
        self.whitespace = whitespace

    def span(self) -> SourceSpan:
        return SourceSpan(1, 1 + self.pos, 1)

    def error(self, expected: str):
        found = self.text[self.pos : self.pos + 8] or "end of input"
        raise ParseError(self.span(), expected, found)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in self.whitespace:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        """Consume the next character if it is ch."""
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def take(self, ch: str):
        if not self.accept(ch):
            self.error(f"'{ch}'")

    def take_nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("a number")
        return int(self.text[start : self.pos])

    def expect_end(self, what: str):
        """Skip trailing whitespace and require the end of the text."""
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(what)


def parse_nested(cursor, parse: Callable[[], T]) -> T:
    """parse(), with input nested too deeply for Python's recursion limit
    reported as a ParseError at the cursor's position."""
    try:
        return parse()
    except RecursionError:
        raise ParseError(cursor.span(), "less nesting", "input nested too deeply") from None


# the deepest nesting of JSON arrays and objects parse_json accepts; every
# Python version's json.loads reads this deep without recursing too far
_JSON_MAX_DEPTH = 100


def parse_json(text: str, source: str):
    """json.loads(text); malformed JSON, or JSON whose arrays and objects nest
    more than 100 deep, is a ValueError naming source.  The depth is checked
    iteratively on the parsed value: json.loads itself raises RecursionError
    on deep input under some Python versions and not under others."""
    too_deep = ValueError(f"{source}: JSON nested too deeply")
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not JSON: {exc}") from None
    except RecursionError:
        raise too_deep from None
    level = [value]
    for _ in range(_JSON_MAX_DEPTH):
        level = [
            child
            for node in level
            if isinstance(node, (list, dict))
            for child in (node.values() if isinstance(node, dict) else node)
        ]
        if not level:
            return value
    raise too_deep
