"""Tokenizer: one compiled bytes regex walked with ``finditer``.

The matches are taken in batches of at most ``_BATCH``. Each batch is
filled in by passes that run in C, not by an interpreted step per token:
``map`` over ``lastindex``, ``Match.start``, ``Match.end`` and
``Match.group``, ``accumulate`` over ``bytes.count`` for the lines, and
``compress`` to take the ``//`` comments out; only the comments of a batch
are visited one by one.

Lexical contract:
  - input is UTF-8 encoded bytes; spans are byte offsets, lines are 1-based
  - a line ends at LF, at CR LF or at a lone CR (JLS SE 17 §3.4)
  - the result is a TokenStream of parallel lists: token i is ``kinds[i]``,
    ``texts[i]``, ``starts[i]``, ``ends[i]`` and ``lines[i]``; a kind is
    IDENT (keywords included), NUMBER, STRING, CHAR, PUNCT or EOF, and no
    token spans lines, so one line number places it
  - an operator or separator is a PUNCT token named by its spelling alone:
    ``texts[i]`` is "{", "->", "+=", ... as in JLS SE 17 §3.11-3.12
  - ``comments[i]`` lists the ``//`` line comments before token i; trailing
    ones, with no token after them, are listed under a final EOF token
  - whitespace and ``/* */`` block comments make no entry: one match takes
    the gap of them before a token (or ``//`` comment) and the token itself,
    and the line counter moves by the line terminators from the previous
    match's end to the token's start; the gap after the last token ends in
    the empty END alternative at the end of the input
  - an EOF token ends the stream whenever anything follows the last token,
    so len(tokenize("")) == 0 but tokenize("  ") is one EOF token
  - ``len()`` counts the tokens, that EOF included; every list holds two
    more EOF entries past them
  - ``>>`` and ``>>>`` are emitted as adjacent ">" tokens (the parser
    re-merges them into shifts); ``>>=``, ``>>>=``, ``<<`` and ``<<=`` are
    single tokens
  - string and char literals cannot hold a line terminator, not even after a
    backslash (JLS SE 17 §3.10.5): such a literal is unterminated at its line
  - a catch-all alternative comes before END, so no byte is ever skipped:
    an invalid byte, or an unterminated block comment, string or char
    literal, raises InvalidCharacter; the first one in the input does,
    wherever the batches end, once the tokens before it are decoded
  - a byte that is not UTF-8 inside a literal or a ``//`` comment raises
    InvalidCharacter too, with its own offset and line; a batch is decoded
    in one pass, and only one that fails is decoded again match by match
  - token texts are interned, so each spelling is stored once
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter
from sys import intern
from typing import NoReturn

from .tokens import InvalidCharacter, TokenKind, TokenStream

# Group numbers, in pattern order; m.lastindex names the alternative matched.
_LINE, _BAD_BLOCK, _IDENT, _NUMBER, _STRING, _CHAR, _PUNCTUATION, \
    _BAD_STRING, _BAD_CHAR, _BAD_BYTE, _END = range(1, 12)
_KIND = {_IDENT: TokenKind.IDENT, _NUMBER: TokenKind.NUMBER, _STRING: TokenKind.STRING,
         _CHAR: TokenKind.CHAR, _PUNCTUATION: TokenKind.PUNCT}
_ERRORS = frozenset({_BAD_BLOCK, _BAD_STRING, _BAD_CHAR, _BAD_BYTE})
_lastindex = attrgetter("lastindex")

# Matches are taken this many at a time: each batch is filled in by passes
# that run in C, and holding every match of a large file at once would cost
# more than twice the memory of the token stream.
_BATCH = 4096

# The leading gap is greedy and the catch-all `.` or END always matches after
# the longest gap, so the gap is never given back: no possessive quantifier,
# which Python 3.10 lacks, is needed to keep the match from backtracking.
_TOKEN_RE = re.compile(
    rb"""
    (?: [ \t\r\n\f]+ | /\*.*?\*/ )*                   # whitespace, block comments
    (?: ( //[^\r\n]* )                                # line comment
      | ( /\* )                                       # unterminated comment
      | ( [A-Za-z_$][A-Za-z0-9_$]* )                  # identifier
      | ( 0[xX][0-9a-fA-F_]*[lLfFdD]?
        | 0[bB][01_]*[lLfFdD]?
        | (?: [0-9][0-9_]*(?:\.[0-9_]*)? | \.[0-9][0-9_]* )
          (?: [eE][+-]?[0-9]+ )? [lLfFdD]? )          # number
      | ( "(?:[^"\\\r\n]|\\[^\r\n])*" )               # string literal
      | ( '(?:[^'\\\r\n]|\\[^\r\n])*' )               # char literal
      | ( >>>= | >>= | <<= | \.\.\. | -- | \+\+ | && | \|\| | << | :: | ->
        | [-=!<>+*/%&|^]= | [-(){}\[\];,@?~.:=<>!&|^+*/%] ) # punctuation
      | ( "(?:[^"\\\r\n]|\\[^\r\n])*\\? )             # unterminated string
      | ( '(?:[^'\\\r\n]|\\[^\r\n])*\\? )             # unterminated char
      | ( . )                                         # any other byte
      | ( \Z )                                        # end of input
    )
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
    comments: dict[int, list[tuple[str, int, int, int]]] = {}
    # the line counter counts LFs: in a file that holds a CR it counts them in
    # a copy of the same length in which each CR LF is a space and an LF and
    # each lone CR is an LF, so a file without a CR pays nothing per token
    breaks = data
    if b"\r" in data:
        breaks = data.replace(b"\r\n", b" \n").replace(b"\r", b"\n")
    line = 1
    last = 0  # where the previous match ended
    matches = _TOKEN_RE.finditer(data)
    while batch := list(islice(matches, _BATCH)):
        groups = list(map(_lastindex, batch))
        # the first match that is no token or comment ends the stream: END,
        # or an error, raised once the tokens before it are in
        stop = groups.index(_END) if _END in groups else None
        if not _ERRORS.isdisjoint(groups[:stop]):
            stop = next(i for i, group in enumerate(groups) if group in _ERRORS)
        if stop is not None:
            del batch[stop + 1:], groups[stop + 1:]
        batch_starts = list(map(re.Match.start, batch, groups))
        batch_ends = list(map(re.Match.end, batch))
        steps = list(map(breaks.count, repeat(b"\n"), chain((last,), batch_ends),
                         batch_starts))
        steps[0] += line
        batch_lines = list(accumulate(steps))
        line, last = batch_lines[-1], batch_ends[-1]
        if stop is not None:
            batch.pop()
            stopped = (groups.pop(), batch_starts.pop(), batch_ends.pop(), batch_lines.pop())
        try:
            batch_texts = list(map(bytes.decode, map(re.Match.group, batch, groups)))
        except UnicodeDecodeError:
            _raise_undecodable(batch, groups, batch_starts, batch_lines)
            raise
        if _LINE in groups:
            # the k-th comment of the batch, at j, comes before its j - k-th token
            base = len(kinds)
            for k, j in enumerate(compress(range(len(groups)), map(_LINE.__eq__, groups))):
                comments.setdefault(base + j - k, []).append(
                    (batch_texts[j], batch_starts[j], batch_ends[j], batch_lines[j]))
            is_token = list(map(_LINE.__ne__, groups))
            groups, batch_texts, batch_starts, batch_ends, batch_lines = (
                list(compress(entries, is_token))
                for entries in (groups, batch_texts, batch_starts, batch_ends, batch_lines))
        kinds += map(_KIND.__getitem__, groups)
        texts += map(intern, batch_texts)
        starts += batch_starts
        ends += batch_ends
        lines += batch_lines
        if stop is not None:
            if stopped[0] != _END:
                _raise(data, *stopped)
            break
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


def _raise_undecodable(batch, groups, starts, lines) -> None:
    """Raise InvalidCharacter at the first byte of a batch's tokens and
    comments that is not UTF-8, with its offset in the file and its line."""
    for match, group, start, line in zip(batch, groups, starts, lines):
        try:
            match.group(group).decode()
        except UnicodeDecodeError as exc:
            raise InvalidCharacter(f"invalid character 0x{exc.object[exc.start]:02x}",
                                   start + exc.start, start + exc.end, line) from None


def physical_loc(text: str) -> int:
    """Physical line count: the number of newline characters (wc -l). A lone
    CR ends a token's line but is not counted here."""
    return text.count("\n")
