"""Tokenizer contract: spans, line-comment attachment, line accounting,
and that no input byte is ever skipped."""

from __future__ import annotations

import re
import subprocess

import pytest
from hypothesis import example, given, settings, strategies as st

from cddlint.syntax import InvalidCharacter, TokenKind, physical_loc, tokenize

from conftest import ORACLE_DIR

K = TokenKind


def pairs(text: str) -> list[tuple[int, str]]:
    ts = tokenize(text)
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
        assert len(tokenize("")) == 0

    def test_icp_annotation_tokens(self):
        assert pairs("@ICP(0.5)") == [
            (K.PUNCT, "@"), (K.IDENT, "ICP"), (K.PUNCT, "("), (K.NUMBER, "0.5"),
            (K.PUNCT, ")"),
        ]

    def test_condition_example_has_ten_tokens(self):
        # hand trace: if ( a > b && c < d )
        ts = tokenize("if (a > b && c < d)")
        assert len(ts) == 10
        assert ts.texts[:len(ts)] == [
            "if", "(", "a", ">", "b", "&&", "c", "<", "d", ")",
        ]

    def test_spans_are_byte_offsets(self):
        ts = tokenize("a  bb")
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
            ts = tokenize(spelling)
            assert ts.starts[:len(ts)] == list(range(len(spelling)))
        else:
            assert pairs(spelling) == [(K.PUNCT, spelling)]

    def test_number_shapes(self):
        for text in ("0", "42L", "0x1F", "0b1010", "1_000", "3.14", ".5", "1e9", "2.5f"):
            assert pairs(text) == [(K.NUMBER, text)]


class TestTrivia:
    def test_comment_attaches_to_following_token(self):
        ts = tokenize("// note\nfoo")
        assert len(ts) == 1
        assert [text for text, *_ in ts.comments[0]] == ["// note"]

    def test_trailing_trivia_rides_an_eof_token(self):
        ts = tokenize("foo // tail")
        assert ts.kinds[:len(ts)] == [K.IDENT, K.EOF]
        assert ts.comments[1][-1][0] == "// tail"

    def test_block_comment_line_span(self):
        ts = tokenize("/* a\n b */ x")
        assert ts.comments == {}
        assert ts.lines[0] == 2


class TestErrors:
    def test_invalid_character(self):
        with pytest.raises(InvalidCharacter):
            tokenize("int a = #;")

    def test_unterminated_string(self):
        with pytest.raises(InvalidCharacter):
            tokenize('String s = "abc')

    def test_unterminated_block_comment(self):
        with pytest.raises(InvalidCharacter):
            tokenize("/* never closed")

    @pytest.mark.parametrize("text, message", [
        ('int x;\nString s = "a\\\nb";\nint y;', "unterminated string literal"),
        ("int x;\nchar c = '\\\n';\nint y;", "unterminated char literal"),
    ])
    def test_backslash_newline_ends_a_literal_at_its_line(self, text, message):
        # Java forbids a line terminator in these literals, even escaped;
        # accepting one would count every later line of the file one low
        with pytest.raises(InvalidCharacter) as info:
            tokenize(text)
        assert (info.value.message, info.value.line) == (message, 2)


class TestPhysicalLoc:
    def test_two_newlines(self):
        assert physical_loc("a\nb\n") == 2

    def test_empty(self):
        assert physical_loc("") == 0

    def test_no_trailing_newline(self):
        # printf 'a\nb' | wc -l == 1
        assert physical_loc("a\nb") == 1

    @pytest.mark.parametrize("name", sorted(p.name for p in ORACLE_DIR.glob("*.java")))
    def test_matches_wc_on_fixtures(self, name):
        path = ORACLE_DIR / name
        out = subprocess.run(["wc", "-l"], stdin=path.open("rb"),
                             capture_output=True, text=True, check=True)
        assert physical_loc(path.read_text()) == int(out.stdout.split()[0])


_java_ish = st.text(
    alphabet=st.sampled_from(
        list("abcXY_$09 \t\n(){}[];,.@?~!=<>&|+-*/%^:\"'\\é世")
    ),
    max_size=80,
)

# what may lie between tokens and line comments: whitespace and /* */ only
_SKIPPABLE = re.compile(rb"(?:[ \t\r\n\f]+|/\*.*?\*/)*", re.DOTALL)


class TestNoSilentSkip:
    @given(_java_ish)
    @example((ORACLE_DIR / "C10.java").read_text())
    @settings(max_examples=400, deadline=None)
    def test_no_byte_is_skipped(self, text):
        """Either an error inside the input, or tokens and line comments in
        order with only whitespace and block comments between them."""
        data = text.encode("utf-8")
        try:
            ts = tokenize(text)
        except InvalidCharacter as exc:
            assert 0 <= exc.byte_start < exc.byte_end <= len(data)
            return
        pieces = []
        for i in range(len(ts)):
            pieces.extend((start, end) for _, start, end, _ in ts.comments.get(i, ()))
            if ts.kinds[i] != K.EOF:
                pieces.append((ts.starts[i], ts.ends[i]))
        pos = 0
        for start, end in pieces:
            assert pos <= start < end
            assert _SKIPPABLE.fullmatch(data, pos, start)
            pos = end
        assert _SKIPPABLE.fullmatch(data, pos, len(data))
