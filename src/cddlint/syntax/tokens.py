"""Token and trivia records produced by the scanner."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.IntEnum):
    IDENT = 1
    NUMBER = 2
    STRING = 3
    CHAR = 4
    AT = 5
    LPAREN = 6
    RPAREN = 7
    LBRACE = 8
    RBRACE = 9
    LBRACKET = 10
    RBRACKET = 11
    SEMI = 12
    COMMA = 13
    DOT = 14
    ELLIPSIS = 15
    COLON = 16
    COLONCOLON = 17
    QUESTION = 18
    ARROW = 19
    ASSIGN = 20
    PLUS_ASSIGN = 21
    MINUS_ASSIGN = 22
    STAR_ASSIGN = 23
    SLASH_ASSIGN = 24
    PERCENT_ASSIGN = 25
    AMP_ASSIGN = 26
    BAR_ASSIGN = 27
    CARET_ASSIGN = 28
    SHL_ASSIGN = 29
    SHR_ASSIGN = 30
    USHR_ASSIGN = 31
    EQ = 32
    NE = 33
    LT = 34
    GT = 35
    LE = 36
    GE = 37
    ANDAND = 38
    OROR = 39
    NOT = 40
    AMP = 41
    BAR = 42
    CARET = 43
    TILDE = 44
    PLUS = 45
    MINUS = 46
    STAR = 47
    SLASH = 48
    PERCENT = 49
    PLUSPLUS = 50
    MINUSMINUS = 51
    SHL = 52
    EOF = 53


class TriviaKind(enum.IntEnum):
    LINE_COMMENT = 2


class Trivia(NamedTuple):
    kind: int
    text: str
    byte_start: int
    byte_end: int
    line_start: int
    line_end: int


class Token(NamedTuple):
    kind: int
    text: str
    byte_start: int
    byte_end: int
    line_start: int
    line_end: int
    trivia: tuple[Trivia, ...]


class InvalidCharacter(Exception):
    """A byte outside the lexical grammar (or an unterminated literal)."""

    def __init__(self, message: str, byte_start: int, byte_end: int, line: int):
        self.message = message
        self.byte_start = byte_start
        self.byte_end = byte_end
        self.line = line
        super().__init__(f"{message} at line {line} (bytes {byte_start}..{byte_end})")
