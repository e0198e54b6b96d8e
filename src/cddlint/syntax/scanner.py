"""Tokenizer: one compiled bytes regex, read by one ``split`` of the input.

Each match of the pattern is a pair of groups: the gap of whitespace and
comments before a token, and the token itself. The pattern matches wherever
the last match ended, so ``split`` returns the input in threes: the empty
text before a match, its gap and its token, all bytes, with no ``re.Match``
object per token. Each list of the stream is filled by passes that run in
C, not by an interpreted step per token:
  - a token's kind comes from a 256-entry table indexed by its first byte;
    only a token that starts with ``/``, ``.``, ``"``, ``'`` or a byte the
    table does not list is looked at one by one: a ``/`` that may open a
    comment left open, a number such as ``.5``, a literal that may be
    unterminated, an invalid byte
  - ends are ``accumulate`` over the gap and token lengths, starts are ends
    less token lengths, and lines ``accumulate`` over the LFs in the gaps: a
    file that holds a CR is read from a copy in which each lone CR is an LF,
    which changes no token, as none holds a line terminator

Memory is O(n) in the input. The pieces of the split are dropped as soon as
they are read; on Java source, the scanner's peak exceeds the stream it
returns by at most about a quarter of the stream's own size.

Lexical contract:
  - input is bytes; spans are byte offsets, lines are 1-based
  - a line ends at LF, at CR LF or at a lone CR (JLS SE 17 §3.4)
  - the input is checked as UTF-8 once, before it is lexed: its first byte
    that is not UTF-8, in a token, a comment or a gap, raises
    InvalidCharacter with its offset and line before any other error
  - the result is a TokenStream of parallel lists: token i is ``kinds[i]``,
    ``texts[i]``, ``starts[i]``, ``ends[i]`` and ``lines[i]``; a kind is
    IDENT (keywords included), NUMBER, STRING, CHAR, PUNCT or EOF, and no
    token spans lines, so one line number places it
  - an operator or separator is a PUNCT token named by its spelling alone:
    ``texts[i]`` is "{", "->", "+=", ... as in JLS SE 17 §3.11-3.12
  - ``partners[i]`` is the index of the bracket token i pairs with, or -1:
    a ``(`` pairs with the first ``)`` after it at which the parentheses
    between them balance, a ``{`` with a ``}`` alike, each kind apart from
    the other; a token that is no such bracket, one with no partner and
    every entry past ``len()`` have -1. ``[``/``]`` are not paired, as no
    reader needs them, nor ``<``/``>``, which are ambiguous
  - whitespace, ``/* */`` block comments and ``//`` line comments make no
    entry: they are the gap before a token, and the line counter moves by
    the line terminators in it; the gap after the last token ends in the
    empty END alternative at the end of the input
  - an EOF token ends the stream whenever anything follows the last token,
    so len(tokenize_bytes(b"")) == 0 but tokenize_bytes(b"  ") is one EOF
    token
  - ``len()`` counts the tokens, that EOF included; every list holds two
    more EOF entries past them
  - ``>>`` and ``>>>`` are emitted as adjacent ">" tokens (the parser
    re-merges them into shifts); ``>>=``, ``>>>=``, ``<<`` and ``<<=`` are
    single tokens
  - string and char literals cannot hold a line terminator, not even after a
    backslash (JLS SE 17 §3.10.5): such a literal is unterminated at its line
  - a catch-all alternative comes before END, so no byte is ever skipped:
    an invalid byte, or an unterminated block comment, string or char
    literal, raises InvalidCharacter; the first one in the input does
  - token texts are interned, so each spelling is stored once
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, repeat
from operator import add, is_, itemgetter, sub
from sys import intern

from .tokens import InvalidCharacter, TokenKind, TokenStream

# The gap is greedy and the catch-all `.` or END always matches after the
# longest gap, so the gap is never given back: no possessive quantifier,
# which Python 3.10 lacks, is needed to keep the match from backtracking. A
# comment in the gap is tried only at a `/`, so a gap of whitespace alone
# costs no comment alternative.
# Identifiers, and the separators that start no longer token, come first as
# they are the most common; a string or char literal ends at its closing
# quote or, left open, before the line terminator.
_TOKEN_RE = re.compile(
    rb"""
    ( [ \t\r\n\f]*                                   # whitespace, comments
      (?: / (?: \*.*?\*/ | /[^\r\n]* ) [ \t\r\n\f]* )* )
    ( [A-Za-z_$][A-Za-z0-9_$]*                        # identifier
    | [(){}\[\];,@?~]                                 # separator
    | /\*                                             # unterminated comment
    | 0[xX][0-9a-fA-F_]*
      (?: (?:\.[0-9a-fA-F_]*)? [pP][+-]?[0-9]+ )? [lLfFdD]?  # hex, a float if an exponent
    | 0[bB][01_]*[lLfFdD]?
    | (?: [0-9][0-9_]*(?:\.[0-9_]*)? | \.[0-9][0-9_]* )
      (?: [eE][+-]?[0-9]+ )? [lLfFdD]?                # number
    | "(?:[^"\\\r\n]|\\[^\r\n])*["\\]?                # string literal
    | '(?:[^'\\\r\n]|\\[^\r\n])*['\\]?                # char literal
    | >>>= | >>= | <<= | \.\.\. | -- | \+\+ | && | \|\| | << | :: | ->
    | [-=!<>+*/%&|^]= | [-.:=<>!&|^+*/%]              # operator
    | .                                               # any other byte
    | \Z                                              # end of input: empty
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# The kind of a token by its first byte; None for a token that needs a
# second look (`/`, `.`, `"`, `'` and every byte outside the grammar).
_KIND_BY_HEAD: list = [None] * 256
for _kind, _heads in (
    (TokenKind.IDENT, b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"),
    (TokenKind.NUMBER, b"0123456789"),
    (TokenKind.PUNCT, b"(){}[];,@?~:=<>!&|^+-*%"),
):
    for _head in _heads:
        _KIND_BY_HEAD[_head] = _kind
del _kind, _heads, _head

_OPENER_OF = {"(": "(", ")": "(", "{": "{", "}": "{"}


def active_backend() -> str:
    """Name of the scanner implementation; benchmark results record it."""
    return "pure-python"


def tokenize_bytes(data: bytes) -> TokenStream:
    """Lex UTF-8 bytes into a token stream with byte spans; spans index
    directly into ``data``."""
    # a lone CR ends a line as an LF does; in a copy with an LF for each one,
    # every line terminator ends in an LF and every token reads the same
    if b"\r" in data:
        data = re.sub(rb"\r(?!\n)", b"\n", data)
    # the one UTF-8 check: after it, no token's decode can fail
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            raise InvalidCharacter(f"invalid character 0x{data[exc.start]:02x}", exc.start,
                                   exc.end, data.count(b"\n", 0, exc.start) + 1) from None
    n = len(data)
    # each match is three pieces: the empty text before it, its gap, its token
    parts = _TOKEN_RE.split(data)
    gaps = parts[1::3]
    toks = parts[2::3]
    del parts
    stop = toks.index(b"")  # END; after trailing whitespace, a second END follows
    del toks[stop:], gaps[stop + 1:]
    sizes = list(map(len, toks))
    ends = list(accumulate(map(add, map(len, gaps), sizes)))
    starts = list(map(sub, ends, sizes))
    del sizes
    # token k is on line 1 + the LFs of gaps 0 to k; lines[stop] is the end's
    lines = list(accumulate(map(bytes.count, gaps, repeat(b"\n")), initial=1))
    del gaps, lines[0]
    kinds = list(map(_KIND_BY_HEAD.__getitem__, map(itemgetter(0), toks)))
    error = None
    for i in compress(range(stop), map(is_, kinds, repeat(None))):
        tok = toks[i]
        if tok.startswith(b"."):
            kinds[i] = TokenKind.NUMBER if tok[1:2].isdigit() else TokenKind.PUNCT
        elif tok.startswith(b'"'):
            if not _closed(tok):
                error = "unterminated string literal"
                break
            kinds[i] = TokenKind.STRING
        elif tok.startswith(b"/"):
            if tok == b"/*":  # left open, the comment runs to the end
                error = "unterminated block comment"
                ends[i] = n
                break
            kinds[i] = TokenKind.PUNCT
        elif tok.startswith(b"'"):
            if not _closed(tok):
                error = "unterminated char literal"
                break
            kinds[i] = TokenKind.CHAR
        else:
            error = f"invalid character 0x{tok[0]:02x}"
            break
    if error is not None:
        raise InvalidCharacter(error, starts[i], ends[i], lines[i])
    texts = list(map(intern, map(bytes.decode, toks)))
    del toks
    line = lines.pop()
    count = len(kinds) + (n > 0 and (not kinds or ends[-1] < n))
    eofs = count - len(kinds) + 2  # the final EOF token, if any, and two more
    for entries, eof in ((kinds, TokenKind.EOF), (texts, ""), (starts, n), (ends, n),
                         (lines, line)):
        entries += [eof] * eofs
    return TokenStream(kinds, texts, starts, ends, lines, _pair_brackets(texts), count)


def _pair_brackets(texts: list[str]) -> list[int]:
    """The ``partners`` list: a closer pairs with the last unpaired opener of
    its kind, kept on one stack per kind."""
    partners = [-1] * len(texts)
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for i in compress(range(len(texts)), map(_OPENER_OF.__contains__, texts)):
        stack = stacks[_OPENER_OF[texts[i]]]
        if texts[i] in stacks:
            stack.append(i)
        elif stack:
            j = stack.pop()
            partners[i], partners[j] = j, i
    return partners


def _closed(literal: bytes) -> bool:
    """Whether a string or char literal ends in its closing quote: in one left
    open, a last quote is escaped by an odd run of backslashes."""
    body = literal[1:-1]
    return (len(literal) > 1 and literal[-1] == literal[0]
            and (len(body) - len(body.rstrip(b"\\"))) % 2 == 0)


def physical_loc(data: bytes) -> int:
    """Physical line count: the line terminators in ``data``, where LF, CR LF
    and a lone CR each end a line, as for a token; of a file with no lone CR,
    that is ``wc -l``."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
