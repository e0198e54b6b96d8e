"""Tokenizer contract: spans, line-comment attachment, line accounting,
that no input byte is ever skipped, and that an input of any size is read
with one split of the pattern."""

from __future__ import annotations

import re
import subprocess
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cddlint.syntax import (
    InvalidCharacter, ParseError, TokenKind, parse_unit, physical_loc, scanner,
)
from cddlint.syntax.scanner import tokenize_bytes

from conftest import ORACLE_DIR

K = TokenKind


def pairs(text: str) -> list[tuple[int, str]]:
    ts = tokenize_bytes(text.encode())
    return list(zip(ts.kinds, ts.texts))[:len(ts)]


# every operator and separator of JLS SE 17 §3.11-3.12
SEPARATORS = ["(", ")", "{", "}", "[", "]", ";", ",", ".", "...", "@", "::"]
OPERATORS = [
    "=", ">", "<", "!", "~", "?", ":", "->",
    "==", ">=", "<=", "!=", "&&", "||", "++", "--",
    "+", "-", "*", "/", "&", "|", "^", "%", "<<", ">>", ">>>",
    "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=", "<<=", ">>=", ">>>=",
]


class TestTokenGoldens:
    def test_empty_input_is_empty_sequence(self):
        assert len(tokenize_bytes(b"")) == 0

    def test_icp_annotation_tokens(self):
        assert pairs("@ICP(0.5)") == [
            (K.PUNCT, "@"), (K.IDENT, "ICP"), (K.PUNCT, "("), (K.NUMBER, "0.5"),
            (K.PUNCT, ")"),
        ]

    def test_condition_example_has_ten_tokens(self):
        # hand trace: if ( a > b && c < d )
        ts = tokenize_bytes(b"if (a > b && c < d)")
        assert len(ts) == 10
        assert ts.texts[:len(ts)] == [
            "if", "(", "a", ">", "b", "&&", "c", "<", "d", ")",
        ]

    def test_spans_are_byte_offsets(self):
        ts = tokenize_bytes(b"a  bb")
        assert (ts.starts[0], ts.ends[0]) == (0, 1)
        assert (ts.starts[1], ts.ends[1]) == (3, 5)

    def test_shift_right_stays_split_for_generics(self):
        assert pairs("List<List<String>> x")[-3:] == [
            (K.PUNCT, ">"), (K.PUNCT, ">"), (K.IDENT, "x"),
        ]

    def test_compound_shift_assign_is_one_token(self):
        assert pairs("x >>= 2") == [(K.IDENT, "x"), (K.PUNCT, ">>="), (K.NUMBER, "2")]
        assert pairs("x >>>= 2") == [(K.IDENT, "x"), (K.PUNCT, ">>>="), (K.NUMBER, "2")]

    @pytest.mark.parametrize("spelling", SEPARATORS + OPERATORS)
    def test_punctuation_is_named_by_its_spelling(self, spelling):
        if spelling in (">>", ">>>"):  # adjacent '>'s; the parser merges them
            assert pairs(spelling) == [(K.PUNCT, ">")] * len(spelling)
            ts = tokenize_bytes(spelling.encode())
            assert ts.starts[:len(ts)] == list(range(len(spelling)))
        else:
            assert pairs(spelling) == [(K.PUNCT, spelling)]

    def test_number_shapes(self):
        for text in ("0", "42L", "0x1F", "0b1010", "1_000", "3.14", ".5", "1e9", "2.5f"):
            assert pairs(text) == [(K.NUMBER, text)]

    def test_hex_floating_point_shapes(self):
        # JLS SE 17 §3.10.2: a hex significand, a `.` fraction or not, then a
        # binary exponent; with no exponent, a `.` ends the literal
        for text in ("0x1.8p1", "0x1p-3", "0X.8P+2d", "0x1.p0f", "0x1F", "0x1FL"):
            assert pairs(text) == [(K.NUMBER, text)]
        assert pairs("0x1.f") == [(K.NUMBER, "0x1"), (K.PUNCT, "."), (K.IDENT, "f")]


class TestTrivia:
    def test_comment_attaches_to_following_token(self):
        # a `//` comment is part of the gap before the token after it
        ts = tokenize_bytes(b"// note\nfoo")
        assert len(ts) == 1
        assert (ts.texts[0], ts.starts[0], ts.lines[0]) == ("foo", 8, 2)

    def test_trailing_trivia_rides_an_eof_token(self):
        ts = tokenize_bytes(b"foo // tail")
        assert ts.kinds[:len(ts)] == [K.IDENT, K.EOF]
        assert ts.starts[1] == ts.ends[1] == 11

    def test_block_comment_line_span(self):
        ts = tokenize_bytes(b"/* a\n b */ x")
        assert ts.lines[0] == 2

    def test_a_line_comment_ends_at_its_line_and_holds_no_block_comment(self):
        ts = tokenize_bytes(b"a // x /* y\nb")
        assert (ts.texts[:len(ts)], ts.lines[:len(ts)]) == (["a", "b"], [1, 2])
        assert not hasattr(ts, "comments")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_each_line_terminator_ends_a_line(self, ending):
        # JLS SE 17 §3.4: a lone CR ends a line, and CR LF is one terminator
        ts = tokenize_bytes(ending.join(["// note", "/* a", "b */ x", "", "y // tail"]).encode())
        assert ts.texts[:len(ts)] == ["x", "y", ""]
        assert ts.lines[:len(ts)] == [3, 5, 5]


class TestErrors:
    def test_invalid_character(self):
        with pytest.raises(InvalidCharacter):
            tokenize_bytes(b"int a = #;")

    def test_unterminated_string(self):
        with pytest.raises(InvalidCharacter):
            tokenize_bytes(b'String s = "abc')

    def test_unterminated_block_comment(self):
        with pytest.raises(InvalidCharacter):
            tokenize_bytes(b"/* never closed")

    @pytest.mark.parametrize("text, message", [
        ('int x;\nString s = "a\\\nb";\nint y;', "unterminated string literal"),
        ("int x;\nchar c = '\\\n';\nint y;", "unterminated char literal"),
    ])
    def test_backslash_newline_ends_a_literal_at_its_line(self, text, message):
        # Java forbids a line terminator in these literals, even escaped;
        # accepting one would count every later line of the file one low
        with pytest.raises(InvalidCharacter) as info:
            tokenize_bytes(text.encode())
        assert (info.value.message, info.value.line) == (message, 2)

    @pytest.mark.parametrize("text, message", [
        ('int x;\rString s = "a\rb";\rint y;', "unterminated string literal"),
        ("int x;\r\nchar c = '\r\n';\r\nint y;", "unterminated char literal"),
    ])
    def test_carriage_return_ends_a_literal_at_its_line(self, text, message):
        with pytest.raises(InvalidCharacter) as info:
            tokenize_bytes(text.encode())
        assert (info.value.message, info.value.line) == (message, 2)

    @pytest.mark.parametrize("data, line", [
        (b'x = "\xff";', 1),
        (b"int x;\n// \xff\nint y;", 2),
        (b"int x;\r\nchar c = '\xe2\x28';", 2),
        (b"a \n" * (1 << 15) + b'"ok" "\xc3";', (1 << 15) + 1),
        (b"class A {\n  /* note\n  \xff */ int x;\n}", 3),
        (b"class A {\r\n  /* note\r\n  \xff */ int x;\r\n}", 3),
        (b"class A {\r  /* note\r  \xff */ int x;\r}", 3),
    ], ids=["string", "line-comment", "char-crlf", "past-two-batches",
            "block-comment-lf", "block-comment-crlf", "block-comment-cr"])
    def test_invalid_utf8_inside_a_token_or_comment(self, data, line):
        # the bad byte is placed in the file, not in its token, as a bare
        # invalid byte is, also inside a /* */ gap; no UnicodeDecodeError
        # escapes, from the scanner or through parse_unit
        bad = max(data.find(b"\xff"), data.find(b"\xe2"), data.find(b"\xc3"))
        expected = (f"invalid character 0x{data[bad]:02x}", bad, line)
        with pytest.raises(InvalidCharacter) as info:
            tokenize_bytes(data)
        assert (info.value.message, info.value.byte_start, info.value.line) == expected
        with pytest.raises(ParseError) as info:
            parse_unit(data)
        [(message, span)] = info.value.diagnostics
        assert (message, span.byte_start, span.line_start) == expected


class TestPhysicalLoc:
    def test_two_newlines(self):
        assert physical_loc(b"a\nb\n") == 2

    def test_empty(self):
        assert physical_loc(b"") == 0

    def test_no_trailing_newline(self):
        # printf 'a\nb' | wc -l == 1
        assert physical_loc(b"a\nb") == 1

    def test_each_line_terminator_counts_once(self):
        # LF, CR LF and a lone CR each end a line, as they do for a token
        assert physical_loc(b"a\rb\r\nc\n\r\rd") == 5

    @pytest.mark.parametrize("name", sorted(p.name for p in ORACLE_DIR.glob("*.java")))
    def test_matches_wc_on_fixtures(self, name):
        path = ORACLE_DIR / name
        with path.open("rb") as stdin:
            out = subprocess.run(["wc", "-l"], stdin=stdin,
                                 capture_output=True, text=True, check=True)
        assert physical_loc(path.read_bytes()) == int(out.stdout.split()[0])


_java_ish = st.text(
    alphabet=st.sampled_from(
        list("abcXY_$09 \t\n(){}[];,.@?~!=<>&|+-*/%^:\"'\\é世")
    ),
    max_size=80,
)

# what may lie between tokens: whitespace, /* */ and // comments only
_SKIPPABLE = re.compile(rb"(?:[ \t\r\n\f]+|/\*.*?\*/|//[^\r\n]*)*", re.DOTALL)


class TestNoSilentSkip:
    @given(_java_ish)
    @example((ORACLE_DIR / "C10.java").read_text())
    @settings(max_examples=400, deadline=None)
    def test_no_byte_is_skipped(self, text):
        """Either an error inside the input, or tokens in order with only
        whitespace and comments between them."""
        data = text.encode("utf-8")
        try:
            ts = tokenize_bytes(data)
        except InvalidCharacter as exc:
            assert 0 <= exc.byte_start < exc.byte_end <= len(data)
            return
        pieces = []
        for i in range(len(ts)):
            if ts.kinds[i] != K.EOF:
                pieces.append((ts.starts[i], ts.ends[i]))
        pos = 0
        for start, end in pieces:
            assert pos <= start < end
            assert _SKIPPABLE.fullmatch(data, pos, start)
            pos = end
        assert _SKIPPABLE.fullmatch(data, pos, len(data))


def _generated(matches: int, error_at: int = -1, period: int = 10):
    """An input of `matches` tokens and `//` comments, with the tokens the
    scanner must make of it. Around every `period`-th match: a `//` comment before a
    line end and after one, a CR LF, a lone CR, and a multi-line `/* */`
    holding all three terminators. At `error_at` an invalid byte stands in
    for the match."""
    out = bytearray()
    kinds, texts, starts, lines = [], [], [], []
    line, after_comment, error = 1, False, None
    edges = {b + d: d for b in range(period, matches, period) for d in (-1, 0, 1)}
    for i in range(matches):
        gap = {-1: "\r\n", 0: "\n/* a\r\nb\rc\nd */ ", 1: "\r"}.get(edges.get(i), " ")
        if after_comment and gap[0] not in "\r\n":
            gap = "\n" + gap
        out += gap.encode()
        line += len(re.findall(r"\r\n|\r|\n", gap))
        if i == error_at:
            error = (len(out), line)
            out += b"#"
            continue
        after_comment = (i in edges and edges[i] <= 0) or i % 97 == 5
        if after_comment:
            text = f"// c{i}"
        else:
            kind, text = [(K.IDENT, f"a{i}"), (K.NUMBER, str(i)), (K.PUNCT, "+=")][i % 3]
            kinds.append(kind)
            texts.append(text)
            starts.append(len(out))
            lines.append(line)
        out += text.encode()
    return bytes(out), (kinds, texts, starts, lines), error


def _scan(data: bytes):
    """The stream's texts, starts, ends and lines, up to ``len()``, or the
    error's message, span and line."""
    try:
        ts = tokenize_bytes(data)
    except InvalidCharacter as exc:
        return exc.message, exc.byte_start, exc.byte_end, exc.line
    n = len(ts)
    return ts.texts[:n], ts.starts[:n], ts.ends[:n], ts.lines[:n]


class _Splits:
    """Stands in for the scanner's pattern and records each input it splits."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.read: list[bytes] = []

    def split(self, data):
        self.read.append(data)
        return self.pattern.split(data)


class TestBatches:
    """Inputs where a scanner that read its input in pieces of 32 KiB, ending
    each after a line terminator, would have to cut a comment, a line or a
    CR LF, re-read a piece or carry a line number over: each is checked
    against the stream or error it must give. The scanner reads every input
    with one ``split`` of its pattern."""

    @pytest.mark.parametrize("data", [
        b"", b"  \n", b"a /* b\r\n */ c // d\r", b"a \n" * (1 << 15), b"a # b",
    ], ids=["empty", "blank", "line-ends", "over-64-kib", "invalid"])
    def test_one_split_per_input(self, monkeypatch, data):
        # the whole input, a lone CR read as an LF, in one piece
        splits = _Splits(scanner._TOKEN_RE)
        monkeypatch.setattr(scanner, "_TOKEN_RE", splits)
        _scan(data)
        assert splits.read == [data.replace(b"d\r", b"d\n")]

    def test_input_of_three_batches(self):
        data, expected, _ = _generated((1 << 15) // 2, period=(1 << 15) // 64)
        ts = tokenize_bytes(data)
        assert len(data) > 2 * (1 << 15)
        assert data.count(b"//") > 60 and data.count(b"\r\n") == 62
        n = len(expected[0])
        assert len(ts) == n  # the input ends in a token: no EOF token
        assert (ts.kinds[:n], ts.texts[:n], ts.starts[:n], ts.lines[:n]) == expected
        assert ts.ends[:n] == [s + len(t) for s, t in zip(ts.starts[:n], ts.texts[:n])]

    @pytest.mark.parametrize("window", [1, 4, 16, 64])
    def test_small_windows_change_nothing(self, window):
        # 32 KiB falls after the generated input's first `window` bytes; its
        # stream is the one it has alone, moved by the blank bytes before it
        at = (1 << 15) - window
        tail, (kinds, texts, starts, lines), _ = _generated(400)
        data = b" " * at + tail
        n = len(kinds)
        ts = tokenize_bytes(data)
        assert len(ts) == n
        assert (ts.kinds[:n], ts.texts[:n], ts.starts[:n], ts.lines[:n]) \
            == (kinds, texts, [s + at for s in starts], lines)

    def test_cut_inside_a_block_comment(self):
        data = b"a /* one\ntwo */ b\nc\n"
        assert _scan(data) == (["a", "b", "c", ""], [0, 16, 18, 20], [1, 17, 19, 20],
                                 [1, 2, 3, 4])

    def test_block_comment_longer_than_the_window(self):
        lines = (1 << 15) // 2
        data = b"a\n/*" + b" x\n" * lines + b"*/ b\n"
        assert len(data) > 1 << 15
        b = len(data) - 2
        assert _scan(data) == (["a", "b", ""], [0, b, b + 2], [1, b + 1, b + 2],
                                 [1, lines + 2, lines + 3])

    def test_block_comment_left_open_across_windows(self):
        data = b"a\n /*" + b" x\n" * ((1 << 15) // 2)
        assert _scan(data) == ("unterminated block comment", 3, len(data), 2)

    def test_cut_in_the_trailing_whitespace(self):
        data = b"a b\n   \n\t\n  \n"
        assert _scan(data) == (["a", "b", ""], [0, 2, 13], [1, 3, 13], [1, 1, 5])

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_crlf_straddling_the_cut(self, window):
        # 32 KiB falls after the input's first `window` bytes: for 3, between
        # its first CR and LF
        at = (1 << 15) - window
        data = b" " * at + b"ab\r\ncd\r\n\r\nef\r\n"
        assert _scan(data) == (["ab", "cd", "ef", ""], [at, at + 4, at + 10, at + 14],
                                 [at + 2, at + 6, at + 12, at + 14], [1, 2, 4, 5])

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_lone_cr_file(self, window):
        # 32 KiB falls after the input's first `window` bytes
        at = (1 << 15) - window
        data = b" " * at + b"ab\rcd\r\ref // x\r"
        assert _scan(data) == (["ab", "cd", "ef", ""], [at, at + 3, at + 7, at + 15],
                                 [at + 2, at + 5, at + 9, at + 15], [1, 2, 4, 5])

    def test_line_longer_than_the_window(self):
        x = (1 << 15) + 100
        data = b"x" * x + b" y\nz"
        assert _scan(data) == (["x" * x, "y", "z"], [0, x + 1, x + 3],
                                 [x, x + 2, x + 4], [1, 1, 2])

    @pytest.mark.parametrize("offset", [0, 1])
    def test_invalid_byte_past_a_boundary(self, offset):
        # the invalid byte takes the place of the match after a multi-line
        # /* */ gap, or of the one after a lone CR
        data, _, (start, line) = _generated(400, error_at=200 + offset)
        assert _scan(data) == ("invalid character 0x23", start, start + 1, line)

    @pytest.mark.parametrize("tail", [
        b'"\xff" #\n',
        b'# "\xff"\n',
        b'"\xff"\n' + b"ok\n" * 8 + b"#\n",
        b"#\n" + b"ok\n" * 8 + b'"\xff"\n',
    ], ids=["undecodable-first", "invalid-first", "undecodable-windows-before",
            "invalid-windows-before"])
    def test_invalid_and_undecodable_bytes_in_a_later_window(self, monkeypatch, tail):
        # the input is checked as UTF-8 before the pattern is read, so a byte
        # that is not UTF-8 is the error even after an invalid one
        data = b"ok\n" * 20 + tail
        at = data.index(b"\xff")
        expected = ("invalid character 0xff", at, at + 1, 21 + data.count(b"\n", 60, at))
        splits = _Splits(scanner._TOKEN_RE)
        monkeypatch.setattr(scanner, "_TOKEN_RE", splits)
        assert _scan(data) == expected
        assert splits.read == []

    @pytest.mark.parametrize("source", ["oracle", "line-comments"])
    def test_peak_memory_stays_near_the_stream(self, source):
        # the pieces of one split of the whole input are held only until the
        # stream's lists are made from them, and cost less than the stream;
        # a `//` comment is read in the gap and makes no entry
        if source == "oracle":
            text = "\n".join(p.read_text(encoding="utf-8")
                             for p in sorted(ORACLE_DIR.glob("*.java")))
        else:
            text = "int a; // c\n"
        data = (text * (300_000 // len(text) + 1)).encode("utf-8")
        tracemalloc.start()
        try:
            ts = tokenize_bytes(data)
            stream, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ts) > 40_000
        assert peak - stream < 4 * 2**20, (stream, peak)
