"""Declared-value extraction, the drift rule, and fix-mode rewriting."""

from __future__ import annotations

import difflib
from fractions import Fraction

import pytest

from cddlint.annotations import (
    DriftStatus,
    RewriteConflict,
    apply_fixes,
    extract_declared,
    reconcile,
)
from cddlint.history.series import analyze_file
from cddlint.rules import default_rules
from cddlint.syntax import parse_unit

from conftest import LISTING_INTERNAL_TYPES

LISTING_RULES = default_rules(internal_types=LISTING_INTERNAL_TYPES)


def units_of(text: str, rules=LISTING_RULES):
    return analyze_file("T.java", text.encode(), rules).units


def fix(text: str, rules=LISTING_RULES) -> str:
    return apply_fixes(text.encode(), units_of(text, rules)).decode()


class TestExtract:
    def test_listing_declarations(self, listing_source):
        unit = parse_unit(listing_source.encode())
        [(value, spans)], malformed = extract_declared(unit)
        assert (value, len(spans), malformed) == (Fraction(8), 1, None)
        assert len(unit.site_icp) == 6
        assert sum(e.value for e in unit.site_icp) == 8

    def test_no_annotations_is_empty(self):
        unit = parse_unit(b"class A { void f() {} }")
        assert extract_declared(unit) == ([(None, ())], None)
        assert unit.site_icp == ()

    def test_a_marker_comment_is_no_site(self):
        # a comment is part of the gap: `// @ICP(2)` records nothing, while
        # the annotation before the same statement is its site
        commented = b"class A { void f(boolean x) {\n  // @ICP(2)\n  if (x) {}\n} }"
        assert parse_unit(commented).site_icp == ()
        annotated = parse_unit(commented.replace(b"// @ICP(2)", b"@ICP(2)"))
        assert [e.value for e in annotated.site_icp] == [2]

    @pytest.mark.parametrize("variable", [
        "try {} catch (@ICP(x) Exception e) {}", "if (o instanceof @ICP(x) String s) {}"])
    def test_a_malformed_icp_on_a_catch_parameter_or_pattern_is_noted(self, variable):
        unit = parse_unit(f"class A {{ void f(Object o) {{\n{variable} }} }}".encode())
        assert extract_declared(unit)[1] == "@ICP needs a decimal argument (line 2)"

    def test_non_decimal_argument_is_malformed(self):
        [(value, spans)], malformed = extract_declared(parse_unit(b"@ICP(two) class A {}"))
        assert (value, len(spans)) == (None, 1)
        assert malformed == "@ICP needs a decimal argument (line 1)"

    def test_missing_argument_is_malformed(self):
        [(value, spans)], malformed = extract_declared(parse_unit(b"@ICP class A {}"))
        assert (value, len(spans)) == (None, 1)
        assert malformed == "@ICP needs a decimal argument (line 1)"

    @pytest.mark.parametrize("source, values, span_counts", [
        # a malformed site-level @ICP changes no type's value
        ("@ICP(3) class A {\n  @ICP(x) int n;\n}\n@ICP(4) class B {}\n",
         [3, 4], [1, 1]),
        # a malformed class-level one leaves its own type unannotated
        ("@ICP(3) class A {\n  @ICP(x) static class In {}\n}\n@ICP(4) class B {}\n",
         [3, None, 4], [1, 1, 1]),
        ("@ICP(3) class A {\n  @ICP(1) @ICP(x) static class In {}\n}\n",
         [3, None], [1, 2]),
    ], ids=["site-level", "class-level", "one-of-two-class-level"])
    def test_a_malformed_icp_leaves_only_its_own_type_unannotated(
            self, source, values, span_counts):
        declared, malformed = extract_declared(parse_unit(source.encode()))
        assert [value for value, _ in declared] == values
        assert [len(spans) for _, spans in declared] == span_counts
        assert malformed == "@ICP needs a decimal argument (line 2)"

    @pytest.mark.parametrize("source", [
        b"record R(@ICP(x) int y) {}",
        b"class A { void f(final @ICP int y) {} }",
    ], ids=["record-component", "method-parameter"])
    def test_a_malformed_icp_on_a_parameter_gives_a_note(self, source):
        declared, malformed = extract_declared(parse_unit(source))
        assert declared == [(None, ())]
        assert malformed == "@ICP needs a decimal argument (line 1)"

    def test_site_annotation_after_final(self):
        unit = parse_unit(
            b"class A { void f(boolean c) { final @ICP(2) int x = c ? 1 : 2; } }"
        )
        assert [(e.owner, e.value) for e in unit.site_icp] == [("A", 2)]

    def test_other_annotations_ignored(self):
        unit = parse_unit(b"@Entity class A { @Id int x; }")
        assert extract_declared(unit) == ([(None, ())], None)
        assert unit.site_icp == ()


# Each source's site-level @ICP values, as (owner, the source text of the
# element that carries the value, value); a `// @ICP(1)` comment is none.
LAMBDA_BODY = "{\n    // @ICP(1)\n    @ICP(2) if (c) g();\n  }"
SITE_BODY = "{\n    @ICP(1) g();\n  }"
SITE_CASES = {
    # lambda bodies (their sites went unread before the parser recorded them)
    "lambda-in-a-method": (
        f"class A {{ void f() {{ run(() -> {LAMBDA_BODY}); }} }}",
        [("A", "@ICP(2) if (c) g();", 2)]),
    "lambda-in-a-field-initializer": (
        f"class A {{ Runnable r = () -> {LAMBDA_BODY}; }}",
        [("A", "@ICP(2) if (c) g();", 2)]),
    # the annotation before a label belongs to the labeled statement
    "labeled-statement": (
        "class A { void f() {\n    // @ICP(1)\n    @ICP(2) lbl: for (;;) {}\n  } }",
        [("A", "@ICP(2) lbl: for (;;) {}", 2)]),
    "for-each-variable": (
        "class A { void f(int[] xs) { for (@ICP(1) int x : xs) {} } }",
        [("A", "@ICP(1) int x : xs", 1)]),
    "try-resource": (
        "class A { void f() { try (@ICP(1) var r = open()) {} } }",
        [("A", "@ICP(1) var r = open()", 1)]),
    "final-local-with-two-declarators": (
        "class A { void f() { final @ICP(1) int x = 1, y = 2; } }",
        [("A", "final @ICP(1) int x = 1, y = 2;", 1)]),
    "nested-type-and-a-member-after-it": (
        "class A { static class B { @ICP(1) int n; } @ICP(2) int m; }",
        [("A.B", "@ICP(1) int n;", 1), ("A", "@ICP(2) int m;", 2)]),
    # a parameter and a record component, owned by the type that declares them
    "method-parameter": (
        "class A { void f(final @ICP(1) int y) {} }",
        [("A", "final @ICP(1) int y", 1)]),
    "record-component": (
        "class A { record R(@ICP(1) int y) {} }",
        [("A.R", "@ICP(1) int y", 1)]),
    # a catch parameter and a pattern variable, as a parameter
    "catch-parameter": (
        "class A { void f() { try {} catch (final @ICP(1) IOException | E e) {} } }",
        [("A", "final @ICP(1) IOException | E e", 1)]),
    "instanceof-pattern": (
        "class A { boolean f(Object o) { return o instanceof @ICP(1) String s; } }",
        [("A", "@ICP(1) String s", 1)]),
    # a type test declares no variable, so its type's annotation is no site
    "instanceof-type-test": (
        "class A { boolean f(Object o) { return o instanceof @ICP(1) String; } }",
        []),
    # an anonymous body's members are its enclosing type's; a local type
    # owns its members, and its own @ICP is class level
    "anonymous-body": (
        "class A { Object o = new Object() { @ICP(1) int n; }; }",
        [("A", "@ICP(1) int n;", 1)]),
    "local-class-and-a-statement-after-it": (
        "class A { void f() { @ICP(3) class L { @ICP(1) int n; } @ICP(2) int m = 0; } }",
        [("A$1L", "@ICP(1) int n;", 1), ("A", "@ICP(2) int m = 0;", 2)]),
    # a statement or member that fails drops what it recorded
    "local-initializer-that-fails-at-a-declarator": (
        f"class A {{ void f() {{ Runnable r = () -> {SITE_BODY} oops; }} }}",
        []),
    "for-init-that-fails-at-a-declarator": (
        f"class A {{ void f() {{ for (a < b > c = () -> {SITE_BODY}, 5;;) {{}} }} }}",
        []),
    "cast-whose-operand-fails": (
        f"class A {{ void f() {{ (a)(() -> {SITE_BODY}, b); }} }}",
        []),
    "else-if-link-that-fails": (
        f"class A {{ void f() {{ if (c) g(); else if (h(() -> {SITE_BODY}) ==) g(); }} }}",
        []),
    "do-while-that-fails": (
        f"class A {{ void f() {{ do {SITE_BODY} while (x; }} }}",
        []),
    "field-that-fails": (
        f"class A {{ Runnable r = () -> {SITE_BODY} oops; }}",
        []),
}


@pytest.mark.parametrize("source, expected", SITE_CASES.values(), ids=SITE_CASES)
def test_each_site_level_icp_is_recorded_once_with_its_element(source, expected):
    data = source.encode()
    sites = parse_unit(data).site_icp
    assert sorted((s.owner, data[s.span.byte_start:s.span.byte_end].decode(), s.value)
                  for s in sites) == sorted(expected)


class TestReconcile:
    @pytest.mark.parametrize("total, declared, expected", [
        (Fraction(8), Fraction(8), (0, DriftStatus.IN_SYNC)),
        (Fraction(8), Fraction(7), (1, DriftStatus.DRIFTED)),
        (Fraction(1, 2), Fraction(2), (Fraction(-3, 2), DriftStatus.DRIFTED)),
        (Fraction(3), None, (None, DriftStatus.UNANNOTATED)),
    ])
    def test_rule(self, total, declared, expected):
        assert reconcile(total, declared) == expected

    def test_in_sync(self, listing_source):
        [unit] = units_of(listing_source)
        assert unit.status is DriftStatus.IN_SYNC
        assert unit.delta == 0

    def test_unannotated(self):
        text = "class A { void f() { try {} catch (Exception e) {} finally {} } }"
        [unit] = units_of(text, default_rules())
        assert unit.status is DriftStatus.UNANNOTATED
        assert unit.declared is None
        assert unit.delta is None
        assert unit.total == 3

    def test_drifted_by_one(self, listing_source):
        [unit] = units_of(listing_source.replace("@ICP(8)", "@ICP(7)"))
        assert unit.status is DriftStatus.DRIFTED
        assert unit.delta == 1


class TestApplyFix:
    def test_rewrites_drifted_class_annotation(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        assert fix(text) == listing_source

    def test_in_sync_text_is_byte_identical(self, listing_source):
        assert fix(listing_source) == listing_source

    def test_idempotent(self, listing_source):
        once = fix(listing_source.replace("@ICP(8)", "@ICP(3)"))
        assert fix(once) == once

    def test_inserts_annotation_when_missing(self):
        text = "class A {\n  private InternalDep dep;\n}\n"
        fixed = fix(text, default_rules(internal_types=("Internal*",)))
        assert fixed == "@ICP(1)\nclass A {\n  private InternalDep dep;\n}\n"

    def test_insert_respects_indentation(self):
        text = "class Out {\n  static class In {\n    void f(boolean x) { if (x) {} }\n  }\n}\n"
        inner = [u for u in units_of(text, default_rules()) if u.type_name == "Out.In"]
        fixed = apply_fixes(text.encode(), inner).decode()
        assert "\n  @ICP(2)\n  static class In {" in fixed

    def test_locality_only_one_line_changes(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        fixed = fix(text)
        changed = [
            line for line in difflib.unified_diff(
                text.splitlines(), fixed.splitlines(), lineterm="", n=0
            )
            if line.startswith(("+", "-")) and not line.startswith(("+++", "---"))
        ]
        assert changed == ["-@ICP(7)", "+@ICP(8)"]

    def test_half_point_rendering(self):
        text = "class A { void f(ExternalFoo e, ExternalBar b, ExternalBaz z) {} }"
        rules = default_rules(external_types=("External*",))
        [unit] = units_of(text, rules)
        assert unit.total == Fraction(3, 2)
        assert fix(text, rules).startswith("@ICP(1.5)\n")

    def test_fix_soundness_reparse_in_sync(self, listing_source):
        fixed = fix(listing_source.replace("@ICP(8)", "@ICP(7)"))
        [unit] = units_of(fixed)
        assert unit.status is DriftStatus.IN_SYNC

    def test_duplicate_class_annotation_conflicts(self):
        text = "@ICP(1)\n@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
        with pytest.raises(RewriteConflict):
            fix(text, default_rules())

    def test_multi_type_file_fixed_in_one_pass(self):
        text = (
            "@ICP(9)\nclass A { void f(boolean x) { if (x) {} } }\n"
            "class B { void g() { try {} finally {} } }\n"
        )
        assert fix(text, default_rules()) == (
            "@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
            "@ICP(2)\nclass B { void g() { try {} finally {} } }\n"
        )
