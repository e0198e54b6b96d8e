"""Tokenizer: one compiled bytes regex read by ``findall``, a window at a time.

Each match of the pattern is a pair of groups: the gap of whitespace and
``/* */`` comments before a token, and the token (or ``//`` comment)
itself. ``findall`` returns the pairs as bytes, with no ``re.Match`` object
per token, and each list of a window is filled by passes that run in C, not
by an interpreted step per token:
  - a token's kind comes from a 256-entry table indexed by its first byte;
    only a token that starts with ``/``, ``.``, ``"``, ``'`` or a byte the
    table does not list is looked at one by one: a ``//`` comment, a number
    such as ``.5``, a literal that may be unterminated, an invalid byte
  - starts and ends are ``accumulate`` over the gap and token lengths, and
    lines ``accumulate`` over the LFs in the gaps: a file that holds a CR is
    read from a copy in which each lone CR is an LF, which changes no token,
    as none holds a line terminator
  - ``compress`` takes the ``//`` comments out; only they are visited one by
    one

A window runs from where the last one stopped to the first line terminator
at least ``_WINDOW`` bytes on, or to the end of the input; it ends right
after an LF or after a CR with no LF next, never between CR and LF, so no
token is cut. What the cut does make is the empty END match at the window's
end, and a ``/*`` whose comment closes past it: before the true end of the
input either one is dropped, with every pair after it, and the next window
starts at its gap. A window whose first pair is dropped so grows until the
comment closes or the input ends; only then is an open ``/*`` an error.

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
  - ``comments[i]`` lists the ``//`` line comments before token i; trailing
    ones, with no token after them, are listed under a final EOF token
  - ``partners[i]`` is the index of the bracket token i pairs with, or -1:
    a ``(`` pairs with the first ``)`` after it at which the parentheses
    between them balance, a ``{`` with a ``}`` alike, each kind apart from
    the other; a token that is no such bracket, one with no partner and
    every entry past ``len()`` have -1. ``[``/``]`` are not paired, as no
    reader needs them, nor ``<``/``>``, which are ambiguous
  - whitespace and ``/* */`` block comments make no entry: they are the gap
    before a token (or ``//`` comment), and the line counter moves by the
    line terminators in it; the gap after the last token ends in the empty
    END alternative at the end of the input
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
    literal, raises InvalidCharacter; the first one in the input does,
    wherever the windows end
  - token texts are interned, so each spelling is stored once
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, compress, repeat
from operator import is_, is_not, itemgetter
from sys import intern

from .tokens import InvalidCharacter, TokenKind, TokenStream

# A window ends at the first line terminator this many bytes on: all the
# pairs of a large file held at once would cost more than twice the memory
# of the token stream.
_WINDOW = 1 << 15

# The gap is greedy and the catch-all `.` or END always matches after the
# longest gap, so the gap is never given back: no possessive quantifier,
# which Python 3.10 lacks, is needed to keep the match from backtracking.
# Identifiers, and the separators that start no longer token, come first as
# they are the most common; a string or char literal ends at its closing
# quote or, left open, before the line terminator.
_TOKEN_RE = re.compile(
    rb"""
    ( [ \t\r\n\f]* (?: /\*.*?\*/ [ \t\r\n\f]* )* )   # whitespace, block comments
    ( [A-Za-z_$][A-Za-z0-9_$]*                        # identifier
    | [(){}\[\];,@?~]                                 # separator
    | //[^\r\n]*                                      # line comment
    | /\*                                             # unterminated comment
    | 0[xX][0-9a-fA-F_]*[lLfFdD]?
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
    """Lex UTF-8 bytes into a token stream with byte spans and line comments;
    spans index directly into ``data``."""
    kinds: list[int] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    lines: list[int] = []
    comments: dict[int, list[tuple[str, int, int, int]]] = {}
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
    line, pos, size = 1, 0, _WINDOW
    while True:
        end = data.find(b"\n", pos + size - 1) + 1 or n
        flat = list(chain.from_iterable(_TOKEN_RE.findall(data, pos, end)))
        toks = flat[1::2]
        stop = toks.index(b"")  # END: the window's end always matches it
        if end < n:
            # END, or a block comment left open, is where the window was cut
            if b"/*" in toks:
                stop = min(stop, toks.index(b"/*"))
            if stop == 0:  # so the window grows past its end
                size = 2 * (end - pos)
                continue
            size = _WINDOW
        del toks[stop:], flat[2 * stop + 1:]  # the gap of the pair at `stop` stays
        # bounds[2k] is where the gap of pair k starts, bounds[2k + 1] its token
        bounds = list(accumulate(map(len, flat), initial=pos))
        w_starts = bounds[1::2]
        w_ends = bounds[2::2]
        steps = list(map(bytes.count, flat[0::2], repeat(b"\n")))
        steps[0] += line
        w_lines = list(accumulate(steps))
        w_kinds = list(map(_KIND_BY_HEAD.__getitem__, map(itemgetter(0), toks)))
        error = None
        for i in compress(range(stop), map(is_, w_kinds, repeat(None))):
            tok = toks[i]
            if tok.startswith(b"."):
                w_kinds[i] = TokenKind.NUMBER if tok[1:2].isdigit() else TokenKind.PUNCT
            elif tok.startswith(b'"'):
                if not _closed(tok):
                    error = "unterminated string literal"
                    break
                w_kinds[i] = TokenKind.STRING
            elif tok.startswith(b"/"):
                if tok == b"/*":  # left open, the comment runs to the end
                    error = "unterminated block comment"
                    w_ends[i] = n
                    break
                if not tok.startswith(b"//"):  # a comment keeps its None
                    w_kinds[i] = TokenKind.PUNCT
            elif tok.startswith(b"'"):
                if not _closed(tok):
                    error = "unterminated char literal"
                    break
                w_kinds[i] = TokenKind.CHAR
            else:
                error = f"invalid character 0x{tok[0]:02x}"
                break
        if error is not None:
            del toks[i:]
        w_texts = list(map(intern, map(bytes.decode, toks)))
        if error is not None:
            raise InvalidCharacter(error, w_starts[i], w_ends[i], w_lines[i])
        if end == n:
            line = w_lines[stop]
        else:
            line, pos = w_lines[stop - 1], bounds[2 * stop]
        del w_starts[stop:], w_lines[stop:]
        if None in w_kinds:
            # the k-th comment of the window, at j, comes before its j - k-th token
            base = len(kinds)
            is_token = list(map(is_not, w_kinds, repeat(None)))
            for k, j in enumerate(compress(range(stop), map(is_, w_kinds, repeat(None)))):
                comments.setdefault(base + j - k, []).append(
                    (w_texts[j], w_starts[j], w_ends[j], w_lines[j]))
            w_kinds, w_texts, w_starts, w_ends, w_lines = (
                list(compress(entries, is_token))
                for entries in (w_kinds, w_texts, w_starts, w_ends, w_lines))
        kinds += w_kinds
        texts += w_texts
        starts += w_starts
        ends += w_ends
        lines += w_lines
        if end == n:
            break
    count = len(kinds) + (n > 0 and (not kinds or ends[-1] < n))
    eofs = count - len(kinds) + 2  # the final EOF token, if any, and two more
    for entries, eof in ((kinds, TokenKind.EOF), (texts, ""), (starts, n), (ends, n),
                         (lines, line)):
        entries += [eof] * eofs
    return TokenStream(kinds, texts, starts, ends, lines, comments, _pair_brackets(texts),
                       count)


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
