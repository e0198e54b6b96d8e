"""Property suites over generated sources: additivity, cost linearity,
monotonicity, parallel determinism, fix idempotence/soundness, the token
stream's invariants, and nesting depth.

The generated-class suites run 200 examples with hypothesis derandomization
(fixed seed).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cddlint.annotations import DriftStatus, apply_fixes, extract_declared, reconcile
from cddlint.cli import main
from cddlint.engine import analyze_unit, verdict
from cddlint.history import analyze_snapshot
from cddlint.history.series import SnapshotFile
from cddlint.rules import CategoryRule, IcpCategory, default_rules
from cddlint.syntax import InvalidCharacter, TokenKind, parse_unit, tokenize

from conftest import FIXTURES

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
    unit = parse_unit(render_class(bodies), "G.java")
    [full] = analyze_unit(unit, RULES)
    assert sum(full.subtotals.values()) == full.total
    for disabled in IcpCategory:
        cats = {
            cat: CategoryRule(cat is not disabled and rule.enabled, rule.cost)
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
    text = render_class(bodies)
    unit = parse_unit(text, "G.java")
    analyses = analyze_unit(unit, RULES)
    scaled_rules = default_rules(
        categories={
            cat: CategoryRule(rule.enabled, rule.cost * k)
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
    base = parse_unit(render_class(bodies), "G.java")
    grown = parse_unit(render_class(bodies, extra_stmt="if (true) {}"), "G.java")
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
        parse_unit(render_class(bodies), f"G{i}.java")
        for i, bodies in enumerate(all_bodies)
    ]
    sequential = [analyze_unit(u, RULES) for u in units]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda u: analyze_unit(u, RULES), units))
    assert parallel == sequential


@given(class_bodies, st.none() | st.integers(0, 30))
@SUITE
def test_fix_idempotence_and_soundness(bodies, declared):
    """After apply_fix every unit reconciles InSync, and fixing a second time
    changes nothing, byte for byte."""
    text = render_class(bodies)
    if declared is not None:
        text = f"@ICP({declared})\n{text}"
    unit = parse_unit(text, "G.java")
    analyses = analyze_unit(unit, RULES)
    fixed = apply_fixes(text, analyses, unit)

    unit2 = parse_unit(fixed, "G.java")
    declared2 = extract_declared(unit2)
    analyses2 = analyze_unit(unit2, RULES)
    for analysis in analyses2:
        assert reconcile(analysis, declared2).status is DriftStatus.IN_SYNC

    assert apply_fixes(fixed, analyses2, unit2) == fixed


# ── the token stream ─────────────────────────────────────────────────────

_SCAN_PIECES = sorted(set("".join(
    p.read_text(encoding="utf-8") for p in FIXTURES.rglob("*.java")
))) + ["//", "/*", "*/", "\n"]


@given(st.lists(st.sampled_from(_SCAN_PIECES), max_size=60).map("".join))
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_token_stream_invariants(text):
    """Every token is the bytes it spans, on the line its offset gives, in
    order; line comments sit under token numbers; an EOF token ends the stream
    exactly when something follows the last token; len() counts no sentinel."""
    data = text.encode("utf-8")
    try:
        ts = tokenize(text)
    except InvalidCharacter:
        return
    n = len(ts)
    for i in range(n):
        assert ts.texts[i] == data[ts.starts[i]:ts.ends[i]].decode("utf-8")
        assert ts.lines[i] == 1 + data.count(b"\n", 0, ts.starts[i])
        if i + 1 < n:
            assert ts.ends[i] <= ts.starts[i + 1]
    for i, comments in ts.comments.items():
        assert 0 <= i < n
        for comment, start, end, line in comments:
            assert comment.startswith("//")
            assert comment == data[start:end].decode("utf-8")
            assert line == 1 + data.count(b"\n", 0, start)
    tokens = [i for i in range(n) if ts.kinds[i] != TokenKind.EOF]
    ends_in_eof = bool(data) and (not tokens or ts.ends[tokens[-1]] < len(data))
    assert tokens == list(range(n - ends_in_eof))
    # past len(), the lists hold only EOF entries, at least the two the
    # parser may look ahead
    lists = (ts.kinds, ts.texts, ts.starts, ts.ends, ts.lines)
    assert len({len(lst) for lst in lists}) == 1 and len(ts.kinds) >= n + 2
    tail = list(zip(*(lst[n - ends_in_eof:] for lst in lists)))
    last_line = 1 + data.count(b"\n")
    assert set(tail) == {(TokenKind.EOF, "", len(data), len(data), last_line)}


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
    unit = parse_unit(nested_class(form, 100), "Deep.java")
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

    files = [SnapshotFile("Deep.java", deep, False), SnapshotFile("Ok.java", ok, False)]
    stats = analyze_snapshot(files, RULES)
    assert stats.diagnostics == ("Deep.java: parse failed: nesting too deep",)
    assert (stats.class_count, stats.mean_icp) == (1, 2)
