"""Counting-rule micro-goldens, the annotated-controller golden, verdicts,
and rule-set behavior (category toggles, costs, lambda handling)."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from cddlint.engine import analyze_unit, verdict
from cddlint.rules import (
    CategoryRule,
    IcpCategory,
    LimitOverride,
    default_rules,
)
from cddlint.syntax import parse_unit

from conftest import LISTING_INTERNAL_TYPES, LONG_GUARD_SOURCE, LONG_SUM_SOURCE

B = IcpCategory.BRANCH
C = IcpCategory.CONDITION
E = IcpCategory.EXCEPTION
I = IcpCategory.INTERNAL_COUPLING
X = IcpCategory.EXTERNAL_COUPLING

DEFAULTS = default_rules()


def in_method(stmts: str) -> str:
    return (
        "class T {\n  void m(int a, int b, int c, int d, boolean x) {\n"
        f"{stmts}\n  }}\n}}"
    )


def analyze_one(source: str, rules=DEFAULTS):
    unit = parse_unit(source, "T.java")
    analyses = analyze_unit(unit, rules)
    assert len(analyses) == 1
    return analyses[0]


def only(*categories: IcpCategory):
    """Rules with just the given categories enabled (isolates one rule)."""
    cats = {
        cat: CategoryRule(cat in categories, rule.cost)
        for cat, rule in DEFAULTS.categories.items()
    }
    return default_rules(categories=cats)


class TestBranchRule:
    def test_lone_if_counts_one(self):
        a = analyze_one(in_method("    if (x) {}"), only(B))
        assert a.total == 1

    def test_if_else_counts_two(self):
        a = analyze_one(in_method("    if (x) {} else {}"), only(B))
        assert a.total == 2

    def test_else_if_chain_counts_four(self):
        a = analyze_one(
            in_method("    if (x) {} else if (a > b) {} else {}"), only(B)
        )
        assert a.total == 4
        assert [s.reason for s in a.sites] == [
            "if statement", "else branch", "if statement", "else branch",
        ]

    def test_each_loop_kind_counts_one(self):
        a = analyze_one(
            in_method(
                "    for (int i = 0; i < a; i++) {}\n"
                "    while (x) {}\n"
                "    do {} while (x);\n"
                "    for (int v : items()) {}"
            ),
            only(B),
        )
        assert a.total == 4

    def test_switch_counts_one_plus_labels(self):
        a = analyze_one(
            in_method(
                "    switch (a) {\n      case 1: break;\n"
                "      case 2: break;\n      default: break;\n    }"
            ),
            only(B),
        )
        assert a.total == 4

    def test_ternary_counts_one(self):
        a = analyze_one(in_method("    int r = x ? 1 : 2;"), only(B))
        assert a.total == 1


class TestConditionRule:
    def test_paper_worked_example_totals_three(self):
        # 1 for the if, 1 per boolean expression
        a = analyze_one(in_method("    if (a > b && c < d) {}"))
        assert a.total == 3
        assert a.subtotals[B] == 1 and a.subtotals[C] == 2

    def test_single_condition(self):
        a = analyze_one(in_method("    if (x) {}"), only(C))
        assert a.total == 1

    def test_mixed_operators_count_each(self):
        a = analyze_one(in_method("    if (x || a > b && c < d) {}"), only(C))
        assert a.total == 3

    def test_negation_adds_nothing(self):
        a = analyze_one(in_method("    if (!x) {}"), only(C))
        assert a.total == 1

    def test_operators_inside_negation_still_reachable(self):
        a = analyze_one(in_method("    if (!(x && a > b)) {}"), only(C))
        assert a.total == 2

    def test_ordinals_in_reasons(self):
        a = analyze_one(in_method("    if (a > b && c < d) {}"), only(C))
        assert [s.reason for s in a.sites] == [
            "boolean condition 1 of 2", "boolean condition 2 of 2",
        ]

    def test_enhanced_for_has_no_guard(self):
        a = analyze_one(in_method("    for (int v : items()) {}"), only(C))
        assert a.total == 0


class TestExceptionRule:
    def test_try_catch_finally_counts_three(self):
        a = analyze_one(in_method("    try {} catch (Exception e) {} finally {}"))
        assert a.total == 3
        assert a.subtotals[E] == 3

    def test_try_catch_counts_two(self):
        a = analyze_one(in_method("    try {} catch (Exception e) {}"), only(E))
        assert a.total == 2

    def test_multi_catch_is_one_clause(self):
        a = analyze_one(
            in_method(
                "    try (Res r = open()) {}\n"
                "    catch (IllegalStateException | IllegalArgumentException e) {}"
            ),
            only(E),
        )
        assert a.total == 2


class TestCouplingRules:
    def test_listing_fields_make_two_sites(self):
        rules = default_rules(internal_types=LISTING_INTERNAL_TYPES)
        a = analyze_one(
            "class T { private CertificateRepository repo;"
            " private TrainingCompleted trainingCompleted; }",
            rules,
        )
        assert a.total == 2 and a.subtotals[I] == 2

    def test_listing_signature_makes_two_sites(self):
        rules = default_rules(internal_types=LISTING_INTERNAL_TYPES)
        a = analyze_one(
            "class T { public CertificateResponse execute(Long id, Student s)"
            " { return null; } }",
            rules,
        )
        assert a.total == 2 and a.subtotals[I] == 2

    def test_external_declaration_costs_half(self):
        rules = default_rules(external_types=("Optional",))
        a = analyze_one("class T { void m() { Optional<Foo> x = find(); } }", rules)
        assert a.total == Fraction(1, 2)
        assert a.subtotals[X] == Fraction(1, 2)

    def test_var_and_java_lang_never_match_external(self):
        rules = default_rules(external_types=("*",))
        a = analyze_one(
            "class T { void m() { var v = find(); Long id = 0L; int n = 1; } }",
            rules,
        )
        assert a.total == 0

    def test_use_requires_statically_visible_type(self):
        rules = default_rules(internal_types=("Repo",))
        a = analyze_one(
            "class T { void m() { var r = make(); r.find(); } }", rules
        )
        assert a.total == 0  # r has no declared type; no inference happens

    def test_argument_position_is_not_a_use(self):
        rules = default_rules(internal_types=("Repo",))
        a = analyze_one(
            "class T { void m(Repo r) { sink(r); } }", rules
        )
        assert a.subtotals[I] == 1  # the parameter only

    def test_annotations_never_create_coupling(self):
        rules = default_rules(internal_types=("GetMapping", "RestController"))
        a = analyze_one(
            '@RestController class T { @GetMapping("/x") void m() {} }', rules
        )
        assert a.total == 0

    def test_replaced_patterns_are_the_ones_matched(self):
        # matchers are shared by pattern, so a rule set made by `_replace`
        # must answer with its own patterns, not with its original's
        source = "class T { Repo r; Lib l; }"
        rules = default_rules(internal_types=("Repo",), external_types=("Lib",))
        swapped = rules._replace(internal_types=("Lib",), external_types=("Repo",))
        as_given = ["internal coupling: Repo field", "external coupling: Lib declaration"]
        assert [s.reason for s in analyze_one(source, rules).sites] == as_given
        assert [s.reason for s in analyze_one(source, swapped).sites] == [
            "external coupling: Repo declaration", "internal coupling: Lib field"]
        assert [s.reason for s in analyze_one(source, rules).sites] == as_given


class TestLambdas:
    WRAPPED = "class T { void m(Runner r) { r.accept(() -> pick(x ? 1 : 2)); } }"

    def test_lambda_wrapping_adds_nothing_by_default(self):
        a = analyze_one(self.WRAPPED)
        assert a.total == 0

    def test_count_lambdas_counts_body_and_lambda(self):
        rules = default_rules(count_lambdas=True)
        a = analyze_one(self.WRAPPED, rules)
        # 1 lambda (branch) + 1 ternary (branch) + 1 condition
        assert a.subtotals[B] == 2 and a.subtotals[C] == 1


class TestExpressionPositions:
    def test_field_initializer_ternary_counts(self):
        a = analyze_one("class T { int x = 1 > 0 ? 1 : 2; }")
        assert a.subtotals[B] == 1 and a.subtotals[C] == 1

    def test_enum_constant_args_are_walked(self):
        a = analyze_one("enum T { A(1 > 0 ? 1 : 2), B(0); }")
        assert a.subtotals[B] == 1 and a.subtotals[C] == 1

    def test_field_initializer_use_counts(self):
        rules = default_rules(internal_types=("Internal*",))
        a = analyze_one(
            "class T { private InternalA a; private InternalA b = a; }", rules
        )
        # two fields plus the bare-name initializer use of a
        assert a.subtotals[I] == 3


class TestLongChains:
    def test_long_guard_counts_every_operator(self):
        a = analyze_one(LONG_GUARD_SOURCE)
        # the if, then the guard's 1 + 4,999 `&&` conditions
        assert a.total == 5001
        assert a.subtotals[B] == 1 and a.subtotals[C] == 5000

    def test_long_sum_makes_one_use_at_its_first_term(self):
        a = analyze_one(LONG_SUM_SOURCE, default_rules(internal_types=("Repo",)))
        assert [s.reason for s in a.sites] == [
            "internal coupling: Repo field",
            "internal coupling: use of repo (Repo)",
        ]
        assert a.sites[1].span.byte_start == LONG_SUM_SOURCE.index("repo.size()")


class TestGolden:
    def test_annotated_controller_totals_eight(self, listing_source):
        rules = default_rules(internal_types=LISTING_INTERNAL_TYPES)
        unit = parse_unit(listing_source, "CertificateDetailsController.java")
        [a] = analyze_unit(unit, rules)
        assert a.total == 8
        assert a.subtotals[B] == 1
        assert a.subtotals[C] == 1
        assert a.subtotals[I] == 6
        assert a.subtotals[E] == 0 and a.subtotals[X] == 0


class TestVerdicts:
    @pytest.mark.parametrize("total,expected", [
        (Fraction(8), False),
        (Fraction(19, 2), False),   # 9.5
        (Fraction(10), False),      # at the limit is not over
        (Fraction(21, 2), True),    # 10.5
        (Fraction(11), True),
    ])
    def test_strict_inequality(self, total, expected):
        source = "class T {%s}" % (" private Dep d;" * 0)
        a = analyze_one(source)
        forced = type(a)(a.path, a.type_name, a.span, a.sites, total, a.subtotals)
        assert verdict(forced, DEFAULTS).over_limit is expected

    def test_override_first_match_wins(self):
        rules = default_rules(limit_overrides=(
            LimitOverride("**/dto/**", Fraction(20)),
            LimitOverride("**/dto/**", Fraction(5)),
        ))
        a = analyze_one("class T {}")
        forced = type(a)("src/dto/X.java", "X", a.span, (), Fraction(12), a.subtotals)
        v = verdict(forced, rules)
        assert v.applicable_limit == 20 and not v.over_limit

    def test_override_matches_type_name_too(self):
        rules = default_rules(limit_overrides=(LimitOverride("*Dto", Fraction(20)),))
        a = analyze_one("class T {}")
        forced = type(a)("src/X.java", "BigDto", a.span, (), Fraction(12), a.subtotals)
        assert not verdict(forced, rules).over_limit


class TestStructure:
    def test_disabled_category_produces_no_sites(self):
        a = analyze_one(in_method("    if (x) {}"), only(C))
        assert all(s.category is C for s in a.sites)

    def test_sites_in_document_order(self, listing_source):
        rules = default_rules(internal_types=LISTING_INTERNAL_TYPES)
        unit = parse_unit(listing_source)
        [a] = analyze_unit(unit, rules)
        starts = [s.span.byte_start for s in a.sites]
        assert starts == sorted(starts)

    def test_nested_types_are_independent_units(self):
        rules = DEFAULTS
        unit = parse_unit(
            "class Outer { void f(int x) { if (x > 0) {} }"
            " static class In { void g(int y) { while (y > 0) {} } } }"
        )
        by_name = {a.type_name: a for a in analyze_unit(unit, rules)}
        assert by_name["Outer"].total == 2  # only its own if
        assert by_name["Outer.In"].total == 2  # only its own while


class TestVariableModifiers:
    """Annotations and `final` before a variable come in any order (JLS SE 17
    §4.12.4); each form once made the parser drop the code after it."""

    @pytest.mark.parametrize("body,total", [
        # ternary 1 + its condition 1, if 1 + its condition 1
        ("final @Nullable String x = c ? g() : h(); if (x == null) return;", 4),
        # for 1, if 1 + condition 1
        ("for (final @Nullable String s : xs) { if (s == null) return; }", 3),
        # try 1, if 1 + condition 1
        ("try (final @Cleanup Reader r = open()) { if (r == null) return; }", 3),
        # try 1, catch 1, if 1 + condition 1
        ("try { g(); } catch (final @Ignored Exception e) { if (e == null) return; }", 4),
        # for 1 + condition 1; modifiers repeat and interleave
        ("for (@A final @B final int i = 0; i < 3; i++) {}", 2),
        # nothing in a lambda counts; if 1 + condition 1
        ('g((final @A("x") String s) -> s); if (c) return;', 2),
    ])
    def test_final_before_an_annotation(self, body, total):
        unit = parse_unit(
            f"class T {{ void m(boolean c, List<String> xs) {{ {body} }} }}", "T.java")
        assert unit.diagnostics == ()
        [a] = analyze_unit(unit, DEFAULTS)
        assert a.total == total


class TestTypeUseAnnotations:
    """Type-use annotations inside a type (JLS SE 17 §4.11) are read, so the
    declaration that holds them keeps its code: each total is that of the
    same source without the annotations."""

    @pytest.mark.parametrize("member,total", [
        # if 1 + its condition 1
        ("void f(java.util.List<@NonNull String> xs, boolean c) { if (c) return; }", 2),
        ("void f(String @A [] xs, boolean c) { if (c) return; }", 2),
        ("void f(String @A [] @B [] xs, boolean c) { if (c) return; }", 2),
        # ternary 1 + its condition 1, if 1 + its condition 1
        ("void f(boolean c) { java.util.List<@A String> xs = c ? g() : h(); if (c) return; }", 4),
        ("void f(boolean c) { Map<@A ? extends @B K, @C ? super V> m = c ? g() : h();"
         " if (c) return; }", 4),
        ('void f(boolean c) { Object o = (List<@A("x") String>) (c ? g() : h());'
         " if (c) return; }", 4),
        ("void f(boolean c, String @A ... xs) { if (c) return; }", 2),
        ("void f(boolean c, java.util.@A List<String> xs) { if (c) return; }", 2),
        ("void f(boolean c) { String xs @A [] = c ? g() : h(); if (c) return; }", 4),
        ("void f(boolean c) { Object o = new @A String[c ? 1 : 2]; if (c) return; }", 4),
        ("void f(boolean c) { Object o = new String @A [c ? 1 : 2]; if (c) return; }", 4),
    ])
    def test_annotation_inside_a_type(self, member, total):
        for source in (member, re.sub(r'@\w+(\("x"\))? ', "", member)):
            unit = parse_unit(f"class T {{ {source} }}", "T.java")
            assert unit.diagnostics == ()
            [a] = analyze_unit(unit, DEFAULTS)
            assert a.total == total
