"""Property suites over generated sources: additivity, cost linearity,
monotonicity, parallel determinism, fix idempotence/soundness, subtotals
that add up, the keyword audit, the token stream's invariants, and nesting
depth.

The generated-class suites run 200 examples with hypothesis derandomization
(fixed seed).
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cddlint.annotations import DriftStatus, apply_fixes
from cddlint.cli import main
from cddlint.engine import analyze_unit, verdict
from cddlint.history import analyze_snapshot
from cddlint.history.series import analyze_file
from cddlint.rules import CategoryRule, IcpCategory, default_rules
from cddlint.syntax import InvalidCharacter, ParseError, TokenKind, ast, parse_unit
from cddlint.syntax.scanner import tokenize_bytes

from conftest import FIXTURES
from test_parser import _mutants
from test_type_headers import TYPE_HEADER_CASES

RULES = default_rules(internal_types=("Internal*",), external_types=("External*",))

N_EXAMPLES = 200
SUITE = settings(max_examples=N_EXAMPLES, derandomize=True, deadline=None)

# ── generated Java sources ───────────────────────────────────────────────

CONDS = (
    "x > 0",
    "x > 0 && y < 2",
    "flag || x == 1",
    "flag",
    "x != y",
    "x > 0 || y > 0 && flag",
    "!(flag && x > 0)",
)

LEAVES = (
    "x = x + 1;",
    "helper(x);",
    "fld.use();",
    "int v# = x;",
    "ExternalBox b# = make();",
    "x = {cond} ? 1 : 2;",
    "fld.use(y);",
    "throw new RuntimeException();",
)


def _leaf():
    return st.tuples(st.just("leaf"), st.sampled_from(LEAVES),
                     st.sampled_from(CONDS))


def _node(children):
    block = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.just("if"), st.sampled_from(CONDS), block,
                  st.none() | block),
        st.tuples(st.just("while"), st.sampled_from(CONDS), block),
        st.tuples(st.just("for"), block),
        st.tuples(st.just("foreach"), block),
        st.tuples(st.just("try"), block, st.booleans(), st.booleans()),
        st.tuples(st.just("switch"), st.integers(1, 3), st.booleans()),
        st.tuples(st.just("lambda"), st.sampled_from(CONDS)),
    )


stmt_spec = st.recursive(_leaf(), _node, max_leaves=6)
method_body = st.lists(stmt_spec, min_size=0, max_size=4)


class _Renderer:
    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return str(self.counter)

    def stmts(self, specs, indent: str) -> list[str]:
        out: list[str] = []
        for spec in specs:
            out.extend(self.stmt(spec, indent))
        return out

    def stmt(self, spec, indent: str) -> list[str]:
        kind = spec[0]
        if kind == "leaf":
            text = spec[1].replace("#", self.fresh()).replace("{cond}", spec[2])
            return [indent + text]
        if kind == "if":
            _, cond, then, orelse = spec
            lines = [f"{indent}if ({cond}) {{"]
            lines += self.stmts(then, indent + "  ")
            if orelse is None:
                lines.append(indent + "}")
            else:
                lines.append(indent + "} else {")
                lines += self.stmts(orelse, indent + "  ")
                lines.append(indent + "}")
            return lines
        if kind == "while":
            _, cond, body = spec
            return [f"{indent}while ({cond}) {{",
                    *self.stmts(body, indent + "  "), indent + "}"]
        if kind == "for":
            i = "i" + self.fresh()
            return [f"{indent}for (int {i} = 0; {i} < x; {i}++) {{",
                    *self.stmts(spec[1], indent + "  "), indent + "}"]
        if kind == "foreach":
            v = "e" + self.fresh()
            return [f"{indent}for (var {v} : items()) {{",
                    *self.stmts(spec[1], indent + "  "), indent + "}"]
        if kind == "try":
            _, body, has_catch, has_finally = spec
            if not (has_catch or has_finally):
                has_catch = True
            lines = [indent + "try {", *self.stmts(body, indent + "  ")]
            if has_catch:
                lines += [indent + "} catch (Exception ex" + self.fresh() + ") {"]
            if has_finally:
                lines += [indent + "} finally {"]
            lines.append(indent + "}")
            return lines
        if kind == "switch":
            _, n_cases, has_default = spec
            lines = [indent + "switch (x) {"]
            for i in range(n_cases):
                lines += [f"{indent}  case {i}:", f"{indent}    break;"]
            if has_default:
                lines += [f"{indent}  default:", f"{indent}    break;"]
            lines.append(indent + "}")
            return lines
        if kind == "lambda":
            return [f"{indent}run(() -> {spec[1]});"]
        raise AssertionError(kind)


def render_class(bodies, extra_stmt: str | None = None) -> str:
    r = _Renderer()
    lines = ["class G {", "  private InternalRepo fld;", ""]
    for i, body in enumerate(bodies):
        lines.append(f"  void m{i}(int x, int y, boolean flag) {{")
        lines += r.stmts(body, "    ")
        if extra_stmt is not None:
            lines.append("    " + extra_stmt)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


class_bodies = st.lists(method_body, min_size=1, max_size=2)


# ── suites ───────────────────────────────────────────────────────────────

@given(class_bodies)
@SUITE
def test_additivity(bodies):
    """Disabling one category removes exactly its subtotal and leaves every
    other site identical."""
    unit = parse_unit(render_class(bodies).encode(), "G.java")
    [full] = analyze_unit(unit, RULES)
    assert sum(full.subtotals.values()) == full.total
    for disabled in IcpCategory:
        cats = {
            cat: CategoryRule((cat is not disabled and rule.enabled, rule.cost))
            for cat, rule in RULES.categories.items()
        }
        [partial] = analyze_unit(unit, RULES._replace(categories=cats))
        assert partial.total == full.total - full.subtotals[disabled]
        kept = tuple(s for s in full.sites if s.category is not disabled)
        assert partial.sites == kept


@given(class_bodies, st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]))
@SUITE
def test_cost_linearity_with_limit_coscaling(bodies, k):
    """Scaling every cost by k scales totals by k; co-scaling the limit keeps
    the over-limit set unchanged."""
    unit = parse_unit(render_class(bodies).encode(), "G.java")
    analyses = analyze_unit(unit, RULES)
    scaled_rules = default_rules(
        categories={
            cat: CategoryRule((rule.enabled, rule.cost * k))
            for cat, rule in RULES.categories.items()
        },
        internal_types=RULES.internal_types,
        external_types=RULES.external_types,
        default_limit=RULES.default_limit * k,
    )
    scaled = analyze_unit(unit, scaled_rules)
    for before, after in zip(analyses, scaled):
        assert after.total == before.total * k
        assert verdict(after, scaled_rules).over_limit == \
            verdict(before, RULES).over_limit


@given(class_bodies)
@SUITE
def test_monotonicity_appended_if(bodies):
    """Appending `if (true) {}` to each method adds at least 2.0 (1 branch +
    1 condition) and never decreases any category."""
    base = parse_unit(render_class(bodies).encode(), "G.java")
    grown = parse_unit(render_class(bodies, extra_stmt="if (true) {}").encode(), "G.java")
    [before] = analyze_unit(base, RULES)
    [after] = analyze_unit(grown, RULES)
    n_methods = len(base.types[0].methods)
    assert after.total >= before.total + 2 * n_methods
    for cat in IcpCategory:
        assert after.subtotals[cat] >= before.subtotals[cat]


@given(st.lists(class_bodies, min_size=2, max_size=4))
@SUITE
def test_parallel_determinism(all_bodies):
    """Thread-pool analysis equals sequential analysis, result for result."""
    units = [
        parse_unit(render_class(bodies).encode(), f"G{i}.java")
        for i, bodies in enumerate(all_bodies)
    ]
    sequential = [analyze_unit(u, RULES) for u in units]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda u: analyze_unit(u, RULES), units))
    assert parallel == sequential


@given(class_bodies, st.none() | st.integers(0, 30))
@SUITE
def test_fix_idempotence_and_soundness(bodies, declared):
    """After apply_fixes every unit reconciles InSync, and fixing a second
    time changes nothing, byte for byte."""
    text = render_class(bodies)
    if declared is not None:
        text = f"@ICP({declared})\n{text}"
    data = text.encode()
    fixed = apply_fixes(data, analyze_file("G.java", data, RULES).units)

    units = analyze_file("G.java", fixed, RULES).units
    assert units
    for unit in units:
        assert unit.status is DriftStatus.IN_SYNC

    assert apply_fixes(fixed, units) == fixed


def _rule_variants(base):
    """The rule set as given, with half-point costs (0.5 and 1.5 in turn),
    and with each category disabled in turn."""
    yield base
    yield base._replace(categories={
        cat: CategoryRule((rule.enabled, Fraction(1 + 2 * (i % 2), 2)))
        for i, (cat, rule) in enumerate(base.categories.items())
    })
    for off in IcpCategory:
        yield base._replace(categories={
            cat: CategoryRule((rule.enabled and cat is not off, rule.cost))
            for cat, rule in base.categories.items()
        })


def _assert_subtotals_add_up(unit, base):
    for rules in _rule_variants(base):
        for a in analyze_unit(unit, rules):
            assert list(a.subtotals) == list(IcpCategory)
            for cat, subtotal in a.subtotals.items():
                assert type(subtotal) is Fraction
                assert subtotal == sum(
                    (site.cost for site in a.sites if site.category is cat), Fraction(0))
                if not rules.categories[cat].enabled:
                    assert subtotal == 0
            assert type(a.total) is Fraction
            assert a.total == sum(a.subtotals.values(), Fraction(0))


def test_subtotals_add_up_on_the_oracle_corpus():
    """Each subtotal is the sum of its category's site costs, and the total
    the sum of the subtotals, for every unit of the oracle fixtures."""
    manifest = json.loads((FIXTURES / "oracle" / "manifest.json").read_text("utf-8"))
    base = default_rules(internal_types=tuple(manifest["config"]["internal_types"]),
                         external_types=tuple(manifest["config"]["external_types"]))
    for rel in manifest["files"]:
        data = (FIXTURES / "oracle" / rel).read_bytes()
        _assert_subtotals_add_up(parse_unit(data, rel), base)


@given(class_bodies)
@SUITE
def test_subtotals_add_up_on_generated_classes(bodies):
    _assert_subtotals_add_up(parse_unit(render_class(bodies).encode(), "G.java"), RULES)


# ── the keyword audit ────────────────────────────────────────────────────

# the keywords that each make one branch or exception site; a `do` loop's
# one site is its `while`, so `do` is left out (the audit's "minus one per do")
_SITE_KEYWORDS = frozenset({
    "if", "else", "for", "while", "switch", "try", "catch", "finally",
})

# every form the audit counts, in one class: a multi-label case, `default`
# before `:` and `->`, a do-while, wildcards, ternaries and a lambda body
KEYWORD_FORMS_SOURCE = b"""\
class K {
  java.util.Map<String, ? extends Number> m;
  java.util.List<?> xs;
  int f(int x, boolean c) {
    do { x--; } while (x > 0 && c);
    switch (x) { case 1, 2: x = c ? 1 : 2; break; default: break; }
    switch (x) { case 3 -> g(); default -> g(); }
    if (c) { run(() -> { if (c) g(); }); } else if (!c) { g(); } else { g(); }
    try { g(); } catch (IllegalStateException | IllegalArgumentException e) {
    } finally { g(); }
    for (int i : new int[] {1}) { while (c) { c = i > 0 ? false : c; } }
    return c ? 1 : 0;
  }
}
"""


def _keyword_sites(data: bytes) -> int:
    """The branch and exception sites a class's tokens promise, counted with
    no parse: one per site keyword, per case label (`case A, B:` has two),
    per `default` that ends in `:` or `->`, and per `?` that is no wildcard
    (one after a `<` or `,` is)."""
    tokens = tokenize_bytes(data)
    kinds, texts = tokens.kinds, tokens.texts
    count = 0
    for i in range(len(tokens)):
        word = texts[i]
        if kinds[i] == TokenKind.IDENT:
            if word in _SITE_KEYWORDS:
                count += 1
            elif word == "case":  # a case constant holds no `,`, `:` or `->`
                j = i + 1
                while texts[j] not in (":", "->"):
                    count += texts[j] == ","
                    j += 1
                count += 1
            elif word == "default" and texts[i + 1] in (":", "->"):
                count += 1
        elif word == "?" and texts[i - 1] not in ("<", ","):
            count += 1
    return count


LAMBDA_RULES = RULES._replace(count_lambdas=True)


def _engine_keyword_sites(data: bytes) -> int:
    """The engine's branch and exception sites, lambdas counted, less the
    lambda sites themselves, which no keyword makes."""
    unit = parse_unit(data, "K.java")
    return sum(site.category in (IcpCategory.BRANCH, IcpCategory.EXCEPTION)
               and site.reason != "lambda expression"
               for analysis in analyze_unit(unit, LAMBDA_RULES) for site in analysis.sites)


def _lambda_spans(decl: ast.TypeDecl) -> list[ast.Span]:
    """The spans of the lambdas in a type's own code, its anonymous and
    enum-constant bodies included; a type declared in it is listed apart."""
    spans, stack = [], [decl]
    while stack:
        node = stack.pop()
        if type(node) is ast.Lambda:
            spans.append(node.span)
        stack.extend(x for x in node if isinstance(x, tuple))
    return spans


def test_lambda_counting_adds_exactly_the_sites_inside_lambdas():
    """A unit's sites with lambda counting off are its sites with it on,
    less exactly those inside one of its lambdas, each lambda's own site
    included."""
    inputs = [p.read_bytes() for p in sorted(FIXTURES.rglob("*.java"))]
    inputs += [source.encode() for source, _ in TYPE_HEADER_CASES.values()]
    inputs += _mutants(2000, seed=7)
    lambdas = 0
    for data in inputs:
        try:
            unit = parse_unit(data, "K.java")
        except ParseError:
            continue
        for decl, off, on in zip(unit.types, analyze_unit(unit, RULES),
                                 analyze_unit(unit, LAMBDA_RULES)):
            spans = _lambda_spans(decl)
            lambdas += len(spans)
            assert off.sites == tuple(site for site in on.sites if not any(
                span.contains(site.span) for span in spans)), data
    assert lambdas  # the inputs hold lambdas


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda p: p.name)
def test_keyword_audit_on_the_fixtures(path):
    """A second witness, independent of parser parity, that no branch or
    exception keyword is lost: each is one site of the engine's."""
    data = path.read_bytes()
    assert _engine_keyword_sites(data) == _keyword_sites(data)


def test_keyword_audit_on_every_form():
    # do-while 1, the two switches 4 and 3, the if chain 5 (one in the
    # lambda), try 3, for and while 2, and the ternaries 3
    assert _keyword_sites(KEYWORD_FORMS_SOURCE) == 21
    assert _engine_keyword_sites(KEYWORD_FORMS_SOURCE) == 21


@given(class_bodies)
@SUITE
def test_keyword_audit_on_generated_classes(bodies):
    data = render_class(bodies).encode()
    assert _engine_keyword_sites(data) == _keyword_sites(data)


# ── the type list ────────────────────────────────────────────────────────

# a type: its method bodies and the types declared in it
type_shape = st.recursive(
    st.tuples(class_bodies, st.just([])),
    lambda inner: st.tuples(class_bodies, st.lists(inner, min_size=1, max_size=3)),
    max_leaves=5,
)

_TYPE_NAME_RE = re.compile(rb"\b(?:class|interface|enum)\s+(\w+)")


def render_types(shapes) -> tuple[str, list[str]]:
    """A file declaring the `type_shape`s, each nested type between its
    outer type's methods, and the dotted names of its types in a recursive
    pre-order walk."""
    r = _Renderer()
    lines: list[str] = []
    names: list[str] = []

    def declare(shape, outer: str, indent: str) -> None:
        bodies, nested = shape
        simple = f"T{r.fresh()}"
        name = f"{outer}.{simple}" if outer else simple
        names.append(name)
        lines.append(f"{indent}static class {simple} {{")
        lines.append(f"{indent}  private InternalRepo fld;")
        for i in range(max(len(bodies), len(nested))):
            if i < len(bodies):
                lines.append(f"{indent}  void m{i}(int x, int y, boolean flag) {{")
                lines.extend(r.stmts(bodies[i], indent + "    "))
                lines.append(f"{indent}  }}")
            if i < len(nested):
                declare(nested[i], name, indent + "  ")
        lines.append(indent + "}")

    for shape in shapes:
        declare(shape, "", "")
    return "\n".join(lines) + "\n", names


def _pre_order(data: bytes, decls: list) -> list[tuple[str, tuple]]:
    """(dotted name, span) of each type in a recursive pre-order walk of
    `decls` by span: the types inside a type, and inside no other of them,
    are the ones declared in it. A simple name is read from the bytes."""
    walked = []

    def walk(decls: list, outer: str) -> None:
        while decls:
            decl, decls = decls[0], decls[1:]
            inner = [d for d in decls if decl.span.contains(d.span)]
            decls = [d for d in decls if not decl.span.contains(d.span)]
            simple = _TYPE_NAME_RE.search(data, decl.header_start).group(1).decode()
            name = f"{outer}.{simple}" if outer else simple
            walked.append((name, decl.span))
            walk(inner, name)

    walk(sorted(decls, key=lambda d: d.span.byte_start), "")
    return walked


def _assert_types_in_pre_order(data: bytes, names: list[str] | None = None) -> None:
    unit = parse_unit(data, "T.java")
    assert all(type(decl) is ast.TypeDecl for decl in unit.types)  # no placeholder
    assert [(d.name, d.span) for d in unit.types] == _pre_order(data, list(unit.types))
    if names is not None:
        assert [d.name for d in unit.types] == names


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda p: p.name)
def test_types_are_listed_in_pre_order_in_the_fixtures(path):
    _assert_types_in_pre_order(path.read_bytes())


@given(st.lists(type_shape, min_size=1, max_size=2))
@SUITE
def test_types_are_listed_in_pre_order_in_generated_files(shapes):
    text, names = render_types(shapes)
    _assert_types_in_pre_order(text.encode(), names)


# ── the token stream ─────────────────────────────────────────────────────

# every character of the fixtures, each kind of whitespace, quotes, a `$`, a
# backslash and a non-ASCII letter, and the comment delimiters
_SCAN_PIECES = sorted(set("".join(
    p.read_text(encoding="utf-8") for p in FIXTURES.rglob("*.java")
)) | set("\n\r\t\f\"'\\é$")) + ["//", "/*", "*/", "\n", "\r\n"]

# a line ends at LF, CR LF or a lone CR (JLS SE 17 §3.4)
_LINE_TERMINATOR = re.compile(rb"\r\n|\r|\n")


def _line_at(data: bytes, offset: int) -> int:
    return 1 + len(_LINE_TERMINATOR.findall(data, 0, offset))


# a token's kind by its text: the first byte names it, and a `.` is a number
# only before a digit
_KIND_BY_TEXT = (
    (re.compile(r"[A-Za-z_$]"), TokenKind.IDENT),
    (re.compile(r"[0-9]|\.[0-9]"), TokenKind.NUMBER),
    (re.compile('"'), TokenKind.STRING),
    (re.compile("'"), TokenKind.CHAR),
    (re.compile(""), TokenKind.PUNCT),
)

_scan_texts = st.lists(st.sampled_from(_SCAN_PIECES), max_size=60).map("".join)


def _reference_partners(texts, n):
    """Each `(` or `{` of the first n tokens paired with the closer at which
    the depth of its own kind, counted from it, returns to 0; -1 elsewhere."""
    partners = [-1] * len(texts)
    for i in range(n):
        closer = {"(": ")", "{": "}"}.get(texts[i])
        if closer is None:
            continue
        depth = 0
        for j in range(i, n):
            depth += (texts[j] == texts[i]) - (texts[j] == closer)
            if depth == 0:
                partners[i], partners[j] = j, i
                break
    return partners


def _assert_token_stream_invariants(text):
    """Every token is the bytes it spans, of the kind its text gives, on the
    line its offset gives, in order; an EOF token ends the stream exactly when something follows the last
    token; len() counts no sentinel; an error is reported on the line of its
    offset; no token holds a line terminator; brackets are paired
    as depth counting pairs them."""
    data = text.encode("utf-8")
    try:
        ts = tokenize_bytes(data)
    except InvalidCharacter as exc:
        assert exc.line == _line_at(data, exc.byte_start)
        return
    n = len(ts)
    for i in range(n):
        assert ts.texts[i] == data[ts.starts[i]:ts.ends[i]].decode("utf-8")
        assert ts.lines[i] == _line_at(data, ts.starts[i])
        assert not _LINE_TERMINATOR.search(data, ts.starts[i], ts.ends[i])
        if ts.kinds[i] != TokenKind.EOF:
            assert ts.kinds[i] == next(kind for head, kind in _KIND_BY_TEXT
                                       if head.match(ts.texts[i]))
        if i + 1 < n:
            assert ts.ends[i] <= ts.starts[i + 1]
    tokens = [i for i in range(n) if ts.kinds[i] != TokenKind.EOF]
    ends_in_eof = bool(data) and (not tokens or ts.ends[tokens[-1]] < len(data))
    assert tokens == list(range(n - ends_in_eof))
    assert ts.partners == _reference_partners(ts.texts, n)
    # past len(), the lists hold only EOF entries, at least the two the
    # parser may look ahead
    lists = (ts.kinds, ts.texts, ts.starts, ts.ends, ts.lines, ts.partners)
    assert len({len(lst) for lst in lists}) == 1 and len(ts.kinds) >= n + 2
    tail = list(zip(*(lst[n - ends_in_eof:] for lst in lists)))
    last_line = _line_at(data, len(data))
    assert set(tail) == {(TokenKind.EOF, "", len(data), len(data), last_line, -1)}


@given(_scan_texts)
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_token_stream_invariants(text):
    _assert_token_stream_invariants(text)


@given(st.lists(st.sampled_from(["(", ")", "{", "}", "[", "]", "x", " ", "\n"]),
                max_size=40).map("".join))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_brackets_pair_as_depth_counting_pairs_them(text):
    """Texts of brackets alone, which most texts of `_scan_texts` are not:
    every kind nested in and crossing the others, and unpaired openers and
    closers."""
    _assert_token_stream_invariants(text)


# ── nesting depth ────────────────────────────────────────────────────────

# forms the parser still reads by recursion: a statement nested `depth` deep,
# and its hand-computed total at depth 100
NESTED_FORMS = {
    # if 1 + 101 conditions
    "parentheses": (lambda d: "if (" + "(c && " * d + "c" + ")" * d + ") return;", 102),
    # 100 ternaries 1 + their conditions 1
    "ternaries": (lambda d: "int v = " + "c ? 0 : " * d + "1;", 200),
    # if 1 + its condition 1
    "unary chains": (lambda d: "if (" + "!" * d + "c) return;", 2),
    # 100 ifs 1 + their conditions 1
    "blocks": (lambda d: "{ if (c) return; " * d + "}" * d, 200),
}


def nested_class(form: str, depth: int) -> str:
    stmt = NESTED_FORMS[form][0](depth)
    return f"class Deep {{\n  void f(boolean c) {{\n    {stmt}\n  }}\n}}\n"


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_recursive_forms_parse_to_depth_100(form):
    unit = parse_unit(nested_class(form, 100).encode(), "Deep.java")
    assert unit.diagnostics == ()
    [analysis] = analyze_unit(unit, RULES)
    assert analysis.total == NESTED_FORMS[form][1]


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_too_deep_nesting_fails_its_file_alone(form, tmp_path, monkeypatch, capsys):
    """2,000 levels exhaust the parser's recursion: `check` and `history`
    report that one file as a parse failure and score the others."""
    deep = nested_class(form, 2000)
    ok = "class Ok { void f(boolean c) { if (c) return; } }"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Deep.java").write_text(deep)
    (tmp_path / "Ok.java").write_text(ok)
    assert main(["check", "--format", "json", "."]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"] == [
        {"path": "Deep.java", "message": "parse failed: nesting too deep"}
    ]
    assert [(u["path"], u["total"]) for u in doc["units"]] == [("Ok.java", 2)]

    stats = analyze_snapshot([(path, analyze_file(path, text.encode(), RULES))
                              for path, text in (("Deep.java", deep), ("Ok.java", ok))])
    assert stats.diagnostics == ("Deep.java: parse failed: nesting too deep",)
    assert (stats.class_count, stats.mean_icp) == (1, 2)
