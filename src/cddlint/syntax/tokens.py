"""The token stream produced by the scanner."""

from __future__ import annotations

import enum


class TokenKind(enum.IntEnum):
    IDENT = 1
    NUMBER = 2
    STRING = 3
    CHAR = 4
    PUNCT = 5  # an operator or separator, named by its text
    EOF = 6


class TokenStream:
    """Token i is ``kinds[i]``, ``texts[i]``, bytes ``starts[i]:ends[i]``, on
    ``lines[i]``; ``comments[i]``, if present, lists the ``//`` line comments
    before it as (text, byte_start, byte_end, line). ``len()`` is the token
    count; the lists run two EOF entries past it (see scanner.py)."""

    __slots__ = ("kinds", "texts", "starts", "ends", "lines", "comments", "count")

    def __init__(self, kinds, texts, starts, ends, lines, comments, count):
        self.kinds: list[int] = kinds
        self.texts: list[str] = texts
        self.starts: list[int] = starts
        self.ends: list[int] = ends
        self.lines: list[int] = lines
        self.comments: dict[int, list[tuple[str, int, int, int]]] = comments
        self.count = count

    def __len__(self) -> int:
        return self.count


class InvalidCharacter(Exception):
    """A byte outside the lexical grammar (or an unterminated literal)."""

    def __init__(self, message: str, byte_start: int, byte_end: int, line: int):
        self.message = message
        self.byte_start = byte_start
        self.byte_end = byte_end
        self.line = line
        super().__init__(f"{message} at line {line} (bytes {byte_start}..{byte_end})")
