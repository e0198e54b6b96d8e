"""Tokenizer: one compiled bytes regex walked with ``finditer``.

Lexical contract:
  - input is UTF-8 encoded bytes; spans are byte offsets, lines are 1-based
  - the result is a TokenStream of parallel lists: token i is ``kinds[i]``,
    ``texts[i]``, ``starts[i]``, ``ends[i]`` and ``lines[i]``; a kind is
    IDENT (keywords included), NUMBER, STRING, CHAR, PUNCT or EOF, and no
    token spans lines, so one line number places it
  - an operator or separator is a PUNCT token named by its spelling alone:
    ``texts[i]`` is "{", "->", "+=", ... as in JLS SE 17 §3.11-3.12
  - ``comments[i]`` lists the ``//`` line comments before token i; trailing
    ones, with no token after them, are listed under a final EOF token
  - whitespace and ``/* */`` block comments make no entry: they only move
    the line counter
  - an EOF token ends the stream whenever anything follows the last token,
    so len(tokenize("")) == 0 but tokenize("  ") is one EOF token
  - ``len()`` counts the tokens, that EOF included; every list holds two
    more EOF entries past them
  - ``>>`` and ``>>>`` are emitted as adjacent ">" tokens (the parser
    re-merges them into shifts); ``>>=``, ``>>>=``, ``<<`` and ``<<=`` are
    single tokens
  - string and char literals cannot hold a line terminator, not even after a
    backslash (JLS SE 17 §3.10.5): such a literal is unterminated at its line
  - the pattern ends in a catch-all alternative, so no byte is ever skipped:
    an invalid byte, or an unterminated block comment, string or char
    literal, raises InvalidCharacter
"""

from __future__ import annotations

import re
from sys import intern
from typing import NoReturn

from .tokens import InvalidCharacter, TokenKind, TokenStream

# Group numbers, in pattern order; m.lastindex names the alternative matched.
_SPACE, _LINE, _BAD_BLOCK, _IDENT, _NUMBER, _STRING, _CHAR, _PUNCTUATION, \
    _BAD_STRING, _BAD_CHAR, _BAD_BYTE = range(1, 12)
_KIND = {_IDENT: TokenKind.IDENT, _NUMBER: TokenKind.NUMBER, _STRING: TokenKind.STRING,
         _CHAR: TokenKind.CHAR, _PUNCTUATION: TokenKind.PUNCT}

_TOKEN_RE = re.compile(
    rb"""
    ( (?: [ \t\r\n\f]+ | /\*.*?\*/ )+ )                # whitespace, block comments
  | ( //[^\n]* )                                      # line comment
  | ( /\* )                                           # unterminated comment
  | ( [A-Za-z_$][A-Za-z0-9_$]* )                      # identifier
  | ( 0[xX][0-9a-fA-F_]*[lLfFdD]?
    | 0[bB][01_]*[lLfFdD]?
    | (?: [0-9][0-9_]*(?:\.[0-9_]*)? | \.[0-9][0-9_]* )
      (?: [eE][+-]?[0-9]+ )? [lLfFdD]? )              # number
  | ( "(?:[^"\\\n]|\\[^\n])*" )                       # string literal
  | ( '(?:[^'\\\n]|\\[^\n])*' )                       # char literal
  | ( >>>= | >>= | <<= | \.\.\. | -- | \+\+ | && | \|\| | << | :: | ->
    | [-=!<>+*/%&|^]= | [-(){}\[\];,@?~.:=<>!&|^+*/%] )  # punctuation
  | ( "(?:[^"\\\n]|\\[^\n])*\\? )                     # unterminated string
  | ( '(?:[^'\\\n]|\\[^\n])*\\? )                     # unterminated char
  | ( . )                                             # any other byte
    """,
    re.VERBOSE | re.DOTALL,
)


def active_backend() -> str:
    """Name of the scanner implementation; benchmark results record it."""
    return "pure-python"


def tokenize(text: str) -> TokenStream:
    """Lex source text into a token stream with byte spans and line comments."""
    return tokenize_bytes(text.encode("utf-8"))


def tokenize_bytes(data: bytes) -> TokenStream:
    """Lex UTF-8 bytes; spans index directly into ``data``."""
    kinds: list[int] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    lines: list[int] = []
    add_kind, add_text, add_start, add_end, add_line = (
        kinds.append, texts.append, starts.append, ends.append, lines.append)
    comments: dict[int, list[tuple[str, int, int, int]]] = {}
    line = 1
    for m in _TOKEN_RE.finditer(data):
        group = m.lastindex
        start, end = m.span()
        if group == _SPACE:
            line += data.count(b"\n", start, end)
        elif _IDENT <= group <= _PUNCTUATION:
            text = m.group().decode("utf-8")
            if group == _IDENT or group == _PUNCTUATION:
                text = intern(text)
            add_kind(_KIND[group])
            add_text(text)
            add_start(start)
            add_end(end)
            add_line(line)
        elif group == _LINE:
            comment = (m.group().decode("utf-8"), start, end, line)
            comments.setdefault(len(kinds), []).append(comment)
        else:
            _raise(data, group, start, end, line)
    n = len(data)
    count = len(kinds) + (n > 0 and (not kinds or ends[-1] < n))
    eofs = count - len(kinds) + 2  # the final EOF token, if any, and two more
    for entries, eof in ((kinds, TokenKind.EOF), (texts, ""), (starts, n), (ends, n),
                         (lines, line)):
        entries += [eof] * eofs
    return TokenStream(kinds, texts, starts, ends, lines, comments, count)


def _raise(data: bytes, group: int, start: int, end: int, line: int) -> NoReturn:
    if group == _BAD_BLOCK:
        raise InvalidCharacter("unterminated block comment", start, len(data), line)
    if group == _BAD_STRING:
        raise InvalidCharacter("unterminated string literal", start, end, line)
    if group == _BAD_CHAR:
        raise InvalidCharacter("unterminated char literal", start, end, line)
    raise InvalidCharacter(f"invalid character 0x{data[start]:02x}", start, end, line)


def physical_loc(text: str) -> int:
    """Physical line count: the number of newline characters (wc -l)."""
    return text.count("\n")
