"""Token and trivia records produced by the scanner."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.IntEnum):
    IDENT = 1
    NUMBER = 2
    STRING = 3
    CHAR = 4
    PUNCT = 5  # an operator or separator, named by its text
    EOF = 6


class Trivia(NamedTuple):
    """A `//` line comment; the only trivia the scanner keeps."""

    text: str
    byte_start: int
    byte_end: int
    line: int


class Token(NamedTuple):
    kind: int
    text: str
    byte_start: int
    byte_end: int
    line: int
    trivia: tuple[Trivia, ...]


class InvalidCharacter(Exception):
    """A byte outside the lexical grammar (or an unterminated literal)."""

    def __init__(self, message: str, byte_start: int, byte_end: int, line: int):
        self.message = message
        self.byte_start = byte_start
        self.byte_end = byte_end
        self.line = line
        super().__init__(f"{message} at line {line} (bytes {byte_start}..{byte_end})")
