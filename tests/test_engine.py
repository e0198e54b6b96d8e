"""Counting-rule micro-goldens, the annotated-controller golden, verdicts,
and rule-set behavior (category toggles, costs, lambda handling)."""

from __future__ import annotations

import gc
import re
from fractions import Fraction

import pytest

from cddlint import engine
from cddlint.engine import analyze_unit, verdict
from cddlint.rules import (
    CategoryRule,
    IcpCategory,
    LimitOverride,
    default_rules,
)
from cddlint.syntax import ast, parse_unit

from conftest import LISTING_INTERNAL_TYPES, LONG_GUARD_SOURCE, LONG_SUM_SOURCE, ORACLE_DIR

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
    unit = parse_unit(source.encode(), "T.java")
    analyses = analyze_unit(unit, rules)
    assert len(analyses) == 1
    return analyses[0]


def only(*categories: IcpCategory):
    """Rules with just the given categories enabled (isolates one rule)."""
    cats = {
        cat: CategoryRule((cat in categories, rule.cost))
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

    def test_a_receiver_named_as_a_new_type_hides_no_new(self):
        # the receiver `InternalRepo` names no variable; the `new` still counts
        rules = default_rules(internal_types=("Internal*",))
        a = analyze_one("class T { void f() { InternalRepo.find(new InternalRepo()); } }",
                        rules)
        assert [s.reason for s in a.sites] == ["internal coupling: new InternalRepo"]


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

    @pytest.mark.parametrize("body", ["r -> r.go()", "r -> { r.go(); }"])
    def test_a_lambda_parameter_shadows_a_field(self, body):
        rules = default_rules(internal_types=("Internal*",), count_lambdas=True)
        a = analyze_one(f"class T {{ InternalRepo r; void f() {{ xs.forEach({body}); }} }}",
                        rules)
        assert [s.reason for s in a.sites] == [
            "internal coupling: InternalRepo field", "lambda expression"]

    @pytest.mark.parametrize("expr", [
        "x ? new InternalX() : null",
        "new InternalX().run(new InternalX())",
        "repo.get()",  # a use of the field, counted apart from the outer one
        "x && repo.ok() ? 1 : 2",
        "y -> y ? 1 : 2",
    ])
    def test_an_expression_body_scores_as_its_block_form(self, expr):
        rules = default_rules(internal_types=("Internal*",))
        source = "class T {{ InternalX repo; void f() {{ repo.find(x -> {}); }} }}"
        for lambdas in (False, True):
            as_expr, as_block = (
                analyze_one(source.format(body), rules._replace(count_lambdas=lambdas))
                for body in (expr, f"{{ return {expr}; }}"))
            assert as_expr.total == as_block.total
            assert [s.reason for s in as_expr.sites] == [s.reason for s in as_block.sites]


# `new InternalX()` in each position an expression can hold another; the
# engine reaches every one of them by the same descent
USE_POSITIONS = {
    "unary-operand": "-new InternalX()",
    "assignment-target": "new InternalX().f = 1",
    "assignment-value": "a = new InternalX()",
    "field-access-receiver": "new InternalX().f",
    "index-receiver": "(new InternalX())[0]",
    "index": "arr[new InternalX()]",
    "cast-operand": "(Object) new InternalX()",
    "array-dimension": "new int[new InternalX().n]",
    "array-initializer": "new Object[] { new InternalX() }",
    "method-reference-receiver": "new InternalX()::run",
    "initializer-list": "{ new InternalX() }",
    "switch-expression-scrutinee": "switch (new InternalX()) { default -> 0; }",
    "switch-expression-rule": "switch (x) { case 1 -> new InternalX(); default -> 0; }",
    "switch-expression-yield": "switch (x) { default: yield new InternalX(); }",
    "anonymous-class-arguments": "new Object(new InternalX()) { }",
    "ternary-condition": "new InternalX().ok() ? 1 : 2",
    "ternary-then": "x ? new InternalX() : null",
    "ternary-else": "x ? null : new InternalX()",
    "call-receiver": "new InternalX().run()",
    "call-arguments": "sink(1, new InternalX())",
    "constructor-arguments": "new Object(1, new InternalX())",
    "binary-left": "new InternalX() + 1",
    "binary-right": "1 + new InternalX()",
}
LAMBDA_BODIES = {
    "expression-body": "() -> new InternalX()",
    "block-body": "() -> { new InternalX(); }",
}


class TestExpressionPositions:
    RULES = default_rules(internal_types=("InternalX",))

    def uses(self, expr: str, rules=RULES):
        return analyze_one(in_method(f"Object v = {expr};"), rules).subtotals[I]

    @pytest.mark.parametrize("expr", USE_POSITIONS.values(), ids=USE_POSITIONS.keys())
    def test_a_use_in_any_position_counts_once(self, expr):
        assert self.uses(expr) == 1

    @pytest.mark.parametrize("expr", LAMBDA_BODIES.values(), ids=LAMBDA_BODIES.keys())
    def test_a_use_in_a_lambda_body_counts_with_lambda_counting_alone(self, expr):
        assert self.uses(expr, self.RULES._replace(count_lambdas=True)) == 1
        assert self.uses(expr) == 0

    def test_the_type_of_a_cast_is_no_use(self):
        assert self.uses("(InternalX) o") == 0

    def test_an_array_initializer_scores_as_a_bare_one(self):
        # `new T[] {` opens the elements, not an anonymous class body
        for stmt in ("Object[] v = new Object[] { x ? 1 : 2 };",
                     "Object[] v = { x ? 1 : 2 };"):
            unit = parse_unit(in_method(stmt).encode(), "T.java")
            [analysis] = analyze_unit(unit, DEFAULTS)
            assert (analysis.total, analysis.subtotals[B], analysis.subtotals[C]) == (2, 1, 1)
            assert unit.diagnostics == ()

    def test_an_anonymous_class_body_counts_in_the_enclosing_unit(self):
        # its field, its method's parameter and guard, and the captured
        # local's use; with lambdas off a body inside a lambda counts nothing
        body = ("new Runnable() { InternalX f; public void run(InternalX p) {"
                " if (x) { local.go(); } } }")
        source = in_method(f"InternalX local = null; Runnable r = {body};")
        unit = parse_unit(source.encode())
        assert unit.diagnostics == ()
        [analysis] = analyze_unit(unit, self.RULES)
        assert [(s.category, s.reason) for s in analysis.sites] == [
            (I, "internal coupling: InternalX field"),
            (I, "internal coupling: InternalX parameter"),
            (B, "if statement"),
            (C, "boolean condition 1 of 1"),
            (I, "internal coupling: use of local (InternalX)"),
        ]
        assert self.uses(f"() -> {body}") == 0
        assert self.uses(f"() -> {body}", self.RULES._replace(count_lambdas=True)) == 2

    def test_a_guard_counts_no_operator_of_a_class_body_in_it(self):
        # the body's `&&` is its method's, not the `if`'s; its ternary's
        # guard is its own
        a = analyze_one(in_method(
            "if (new Object() { boolean t() { return x && x ? x : x; } } != null) {}"))
        assert (a.subtotals[B], a.subtotals[C]) == (2, 3)

    def test_a_guard_counts_no_operator_of_a_switch_arm_in_it(self):
        # the arm's `if` has its own guard, with its `&&`
        a = analyze_one(in_method(
            "if (switch (a) { default -> { if (x && y) yield x; yield y; } }) {}"))
        assert (a.subtotals[B], a.subtotals[C]) == (4, 3)

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
        unit = parse_unit(listing_source.encode(), "CertificateDetailsController.java")
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
        forced = type(a)((a.path, a.type_name, a.span, a.sites, total, a.subtotals))
        assert verdict(forced, DEFAULTS).over_limit is expected

    def test_override_first_match_wins(self):
        rules = default_rules(limit_overrides=(
            LimitOverride(("**/dto/**", Fraction(20))),
            LimitOverride(("**/dto/**", Fraction(5))),
        ))
        a = analyze_one("class T {}")
        forced = type(a)(("src/dto/X.java", "X", a.span, (), Fraction(12), a.subtotals))
        v = verdict(forced, rules)
        assert v.applicable_limit == 20 and not v.over_limit

    def test_override_matches_type_name_too(self):
        rules = default_rules(limit_overrides=(LimitOverride(("*Dto", Fraction(20))),))
        a = analyze_one("class T {}")
        forced = type(a)(("src/X.java", "BigDto", a.span, (), Fraction(12), a.subtotals))
        assert not verdict(forced, rules).over_limit


class TestStructure:
    def test_disabled_category_produces_no_sites(self):
        a = analyze_one(in_method("    if (x) {}"), only(C))
        assert all(s.category is C for s in a.sites)

    def test_sites_in_document_order(self, listing_source):
        rules = default_rules(internal_types=LISTING_INTERNAL_TYPES)
        unit = parse_unit(listing_source.encode())
        [a] = analyze_unit(unit, rules)
        starts = [s.span.byte_start for s in a.sites]
        assert starts == sorted(starts)

    def test_nested_types_are_independent_units(self):
        rules = DEFAULTS
        unit = parse_unit(
            b"class Outer { void f(int x) { if (x > 0) {} }"
            b" static class In { void g(int y) { while (y > 0) {} } } }"
        )
        by_name = {a.type_name: a for a in analyze_unit(unit, rules)}
        assert by_name["Outer"].total == 2  # only its own if
        assert by_name["Outer.In"].total == 2  # only its own while

    def test_analysis_makes_no_reference_cycle(self):
        """Nested types are walked in pre-order, and walking them leaves no
        cycle, so a unit's tree is freed with its last reference instead of
        waiting for the cyclic garbage collector."""
        unit = parse_unit(b"class T { class In { class Deep {} } class In2 {} } class U {}")
        gc.collect()
        gc.disable()
        try:
            analyses = analyze_unit(unit, DEFAULTS)
            declared = [decl.name for decl in unit.types]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [a.type_name for a in analyses] == declared == [
            "T", "T.In", "T.In.Deep", "T.In2", "U"]


class TestScopes:
    """A use resolves a name in the scope it is in: a method, block, loop,
    case, catch clause or lambda opens one, a binding in it shadows an outer
    one and ends with it, and a local is visible from its declaration on."""

    RULES = default_rules(internal_types=("Internal*",))

    def uses(self, source: str) -> dict[str, list[int]]:
        """Each unit's counted uses, by the offset of each."""
        unit = parse_unit(source.encode(), "T.java")
        return {a.type_name: [s.span.byte_start for s in a.sites if "use of" in s.reason]
                for a in analyze_unit(unit, self.RULES)}

    def test_a_parameter_shadows_a_field(self):
        source = "class T { InternalRepo r; void f(String r) { r.go(); } }"
        assert self.uses(source) == {"T": []}

    def test_a_block_local_ends_with_its_block(self):
        source = "class T { void f() { { InternalRepo r = null; r.go(); } r.go(); } }"
        assert self.uses(source) == {"T": [source.index("r.go()")]}

    def test_a_nested_type_sees_its_outer_field_unless_it_shadows_it(self):
        source = ("class T { InternalRepo r; class In { void f() { r.go(); } }"
                  " class Own { String r; void f() { r.go(); } } }")
        assert self.uses(source) == {"T": [], "T.In": [source.index("r.go()")], "T.Own": []}

    def test_a_catch_parameter_and_a_for_each_variable_shadow_a_field(self):
        source = ("class T { InternalRepo r; void f() { try {} catch (Exception r) { r.go(); }"
                  " for (String r : xs) { r.go(); } r.go(); } }")
        assert self.uses(source) == {"T": [source.rindex("r.go()")]}

    def test_a_local_is_visible_from_its_declaration_on(self):
        source = "class T { void f() { r.go(); InternalRepo r = null; r.go(); } }"
        assert self.uses(source) == {"T": [source.rindex("r.go()")]}

    def test_this_names_the_field_past_a_shadowing_parameter(self):
        source = "class A { InternalRepo x; void f(String x) { this.x.go(); } }"
        assert self.uses(source) == {"A": [source.index("this.x")]}
        source = "class A { String x; void f(InternalRepo x) { this.x.go(); } }"
        assert self.uses(source) == {"A": []}

    def test_this_in_a_class_body_names_the_body_s_field(self):
        source = ("class A { InternalRepo r; Object o = new Object() {"
                  " String r; void f() { this.r.go(); } }; }")
        assert self.uses(source) == {"A": []}

    def test_a_local_type_sees_the_locals_declared_before_it(self):
        source = "class A { void f(InternalRepo r) { class L { void g() { r.count(); } } } }"
        assert self.uses(source) == {"A": [], "A$1L": [source.index("r.count")]}
        source = ("class A { void f() { class L { void g() { r.count(); } }"
                  " InternalRepo r = null; } }")
        assert self.uses(source) == {"A": [], "A$1L": []}

    def test_a_local_type_in_a_lambda_sees_its_statement_s_scope(self):
        # whether or not lambdas are counted; only the enclosing unit's
        # total depends on it, by the lambda's own branch
        unit = parse_unit(b"class A { void f(InternalRepo r) { Runnable q = () -> {"
                          b" class L { void g() { r.count(); } } }; } }")
        for lambdas in (False, True):
            rules = self.RULES._replace(count_lambdas=lambdas)
            assert {a.type_name: a.total for a in analyze_unit(unit, rules)} == {
                "A": 1 + lambdas, "A$1L": 1}

    def test_this_and_the_bare_name_of_one_field_count_once(self):
        source = "class A { InternalRepo x; void f() { x.go(this.x.size()); } }"
        assert self.uses(source) == {"A": [source.index("x.go")]}
        source = "class A { InternalRepo x; void f(InternalRepo x) { x.go(this.x.size()); } }"
        assert self.uses(source) == {"A": [source.index("x.go"), source.index("this.x")]}


class TestExactTotals:
    def test_totals_stay_exact_for_any_cost_denominators(self):
        costs = {B: Fraction(1, 3), C: Fraction(1, 2), E: Fraction(0),
                 I: Fraction(5, 2), X: Fraction(5, 2)}
        rules = default_rules(
            categories={cat: CategoryRule((cat is not X, cost)) for cat, cost in costs.items()},
            internal_types=("Repo",), external_types=("Lib",))
        a = analyze_one(
            "class T { Repo repo; Lib lib;\n"
            "  void m(boolean x) { if (x && !x) { repo.save(); }"
            " try { g(); } catch (E e) { } } }", rules)
        counts = {cat: sum(s.category is cat for s in a.sites) for cat in IcpCategory}
        assert counts == {B: 1, C: 2, E: 2, I: 2, X: 0}  # X is disabled
        assert list(a.subtotals) == list(IcpCategory)
        assert all(type(v) is Fraction for v in (a.total, *a.subtotals.values()))
        assert a.subtotals == {cat: costs[cat] * counts[cat] for cat in IcpCategory}
        assert a.total == sum(a.subtotals.values()) == Fraction(1, 3) + 1 + 5

    def test_a_second_analysis_builds_no_fraction(self, monkeypatch):
        units = [parse_unit(path.read_bytes(), str(path))
                 for path in sorted(ORACLE_DIR.rglob("*.java"))]
        first = [analyze_unit(unit, DEFAULTS) for unit in units]
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        second = [analyze_unit(unit, DEFAULTS) for unit in units]
        assert built == []
        assert second == first


class TestLeaves:
    def test_no_child_walk_on_a_leaf(self, monkeypatch):
        # a NameRef or a Literal has no children, so the expression walk and
        # the `&&`/`||` search make no generator for one
        units = [parse_unit(path.read_bytes(), str(path))
                 for path in sorted(ORACLE_DIR.rglob("*.java"))]
        walked = []
        real = engine.iter_children

        def counting(node):
            walked.append(type(node))
            return real(node)

        monkeypatch.setattr(engine, "iter_children", counting)
        rules = DEFAULTS._replace(count_lambdas=True)
        for unit in units:
            analyze_unit(unit, rules)
        assert walked and not {ast.NameRef, ast.Literal} & set(walked)
        assert all(kind._child_indices for kind in walked)


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
            f"class T {{ void m(boolean c, List<String> xs) {{ {body} }} }}".encode(), "T.java")
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
        ("void f(boolean c) { Object o = (@A String) (c ? g() : h()); if (c) return; }", 4),
        ("void f(boolean c) { Object o = x instanceof @A String ? 1 : 2; if (c) return; }", 4),
    ])
    def test_annotation_inside_a_type(self, member, total):
        for source in (member, re.sub(r'@\w+(\("x"\))? ', "", member)):
            unit = parse_unit(f"class T {{ {source} }}".encode(), "T.java")
            assert unit.diagnostics == ()
            [a] = analyze_unit(unit, DEFAULTS)
            assert a.total == total
