"""Parser contract: structure goldens, span nesting, recognition
completeness, error tolerance, and determinism."""

from __future__ import annotations

import random
import re
import sys

import pytest

from cddlint.engine import analyze_unit
from cddlint.history.series import analyze_file
from cddlint.rules import default_rules
from cddlint.syntax import ParseError, TokenKind, parse_unit, physical_loc
from cddlint.syntax import ast, parser
from cddlint.syntax.scanner import tokenize_bytes
from cddlint.syntax.tokens import InvalidCharacter

from conftest import ELSE_IF_SOURCE, FIXTURES, ORACLE_DIR
from test_type_headers import TYPE_HEADER_CASES

ORACLE_FILES = sorted(ORACLE_DIR.rglob("*.java"))


def span_text(data: bytes, span: ast.Span) -> str:
    return data[span.byte_start:span.byte_end].decode()


def walk_nodes(node):
    yield node
    for child in ast.iter_children(node):
        yield from walk_nodes(child)


def all_nodes(unit: ast.SourceUnit):
    for t in unit.types:
        yield from walk_nodes(t)


class TestListingGolden:
    def test_structure(self, listing_source):
        unit = parse_unit(listing_source.encode(), "CertificateDetailsController.java")
        assert unit.diagnostics == ()
        assert len(unit.types) == 1
        decl = unit.types[0]
        assert decl.name == "CertificateDetailsController"
        assert decl.kind == "class"
        assert [f.name for f in decl.fields] == ["repo", "trainingCompleted"]
        assert [m.name for m in decl.methods] == ["execute"]
        body = decl.methods[0].body
        assert [type(s).__name__ for s in body.stmts] == [
            "LocalDecl", "LocalDecl", "If", "LocalDecl", "Return",
        ]

    def test_var_locals_carry_no_type(self, listing_source):
        unit = parse_unit(listing_source.encode())
        body = unit.types[0].methods[0].body
        locals_ = [s for s in body.stmts if isinstance(s, ast.LocalDecl)]
        assert len(locals_) == 3
        assert all(s.declared_type is None for s in locals_)

    def test_statement_annotations_are_recorded(self, listing_source):
        unit = parse_unit(listing_source.encode())
        body = unit.types[0].methods[0].body
        if_stmt = next(s for s in body.stmts if isinstance(s, ast.If))
        [site] = [s for s in unit.site_icp if s.span == if_stmt.span]
        assert (site.owner, site.value) == ("CertificateDetailsController", 2)
        src = listing_source.encode()
        assert src[site.use_span.byte_start:site.use_span.byte_end] == b"@ICP(2)"


class TestBasics:
    def test_minimal_class(self):
        unit = parse_unit(b"class A {}")
        assert len(unit.types) == 1
        decl = unit.types[0]
        assert (decl.name, decl.fields, decl.methods) == ("A", (), ())

    def test_package_and_imports_are_skipped(self):
        unit = parse_unit(
            b"package com.x.y;\nimport java.util.List;\nimport static a.B.*;\nclass A {}"
        )
        assert [t.name for t in unit.types] == ["A"]

    def test_nested_types_and_dotted_names(self):
        unit = parse_unit(b"class A { static class B { class C {} } }")
        assert [t.name for t in unit.types] == ["A", "A.B", "A.B.C"]

    @pytest.mark.parametrize("header", [
        "class", "public class", "@A class", "public @Deprecated class",
        "@A public @B final class", "@A\nprivate static\n    class",
    ])
    def test_one_header_reader_for_top_level_and_nested_types(self, header):
        # a type's annotations may sit between its modifiers, at top level as
        # when nested, and its header starts at its first modifier
        top = parse_unit(f"{header} X {{}}".encode()).types[0]
        outer, nested = parse_unit(f"class O {{\n{header} X {{}} }}".encode()).types
        assert nested.name == "O.X" and outer.span.contains(nested.span)
        expected = re.search(r"\b(public|private|class)\b", header).start()
        for decl in (top, nested):
            assert [a.name for a in decl.annotations] == re.findall(r"@(\w+)", header)
            assert decl.header_start - decl.span.byte_start == expected

    def test_multi_declarator_locals_split(self):
        unit = parse_unit(b"class A { void f() { int a = 1, b = 2; } }")
        body = unit.types[0].methods[0].body
        assert [s.name for s in body.stmts] == ["a", "b"]

    @pytest.mark.parametrize("stmt, kind", [
        ("int x;", ast.LocalDecl),
        ("final @A int x = 1;", ast.LocalDecl),
        ("@A var x = 1;", ast.LocalDecl),
        ("var x = 1;", ast.LocalDecl),
        ("java.util.List<String> x;", ast.LocalDecl),
        ("java.util.@A List x;", ast.LocalDecl),
        ("int[] x;", ast.LocalDecl),
        ("String @A [] x;", ast.LocalDecl),
        ("a.b.C x, y;", ast.LocalDecl),
        # contextual keywords, and `_` since Java 22, name variables
        ("int var = 1;", ast.LocalDecl),
        ("int yield = 2;", ast.LocalDecl),
        ("int record = 3;", ast.LocalDecl),
        ("int _ = 4;", ast.LocalDecl),
        ("x = 1;", ast.ExprStmt),
        ("a.f(x);", ast.ExprStmt),
        ("a[i] = 2;", ast.ExprStmt),
        ("i++;", ast.ExprStmt),
        ("(a).f();", ast.ExprStmt),
        ("this.x = y;", ast.ExprStmt),
        ("a < b;", ast.ExprStmt),
        # `yield` starts a yield statement, a Return, unless what follows it
        # continues an expression on a variable of that name
        ("yield x;", ast.Return),
        ("yield (x);", ast.Return),
        ("yield -1;", ast.Return),
        ("yield ++x;", ast.Return),
        ("yield = 2;", ast.ExprStmt),
        ("yield += 2;", ast.ExprStmt),
        ("yield.f();", ast.ExprStmt),
        ("yield[0] = 1;", ast.ExprStmt),
        ("yield++;", ast.ExprStmt),
    ])
    def test_local_declarations_and_expression_statements(self, stmt, kind):
        # a statement whose first words no declaration starts with is not
        # tried as one; every other statement still is
        unit = parse_unit(f"class A {{ void f() {{ {stmt} }} }}".encode())
        assert unit.diagnostics == ()
        assert {type(s) for s in unit.types[0].methods[0].body.stmts} == {kind}

    @pytest.mark.parametrize("stmt", [
        "x if = 2;", "int true = 1;", "String null;", "x goto = 1;",
        "for (x if : xs) {}",
        # nor a later declarator
        "int a, if = 2;", "final String s = t, null;", "for (int a, if = 2; ;) {}",
    ])
    def test_a_reserved_word_never_names_a_local(self, stmt):
        # JLS SE 17 §3.9: the statement is not a declaration, so it fails
        # with a diagnostic
        unit = parse_unit(f"class A {{ void f() {{ {stmt} }} }}".encode())
        assert unit.diagnostics
        assert not any(isinstance(node, ast.LocalDecl) for node in walk_nodes(unit.types[0]))

    def test_a_reserved_word_never_names_a_field(self):
        # the member fails with a diagnostic; the members after it parse
        unit = parse_unit(b"class A { int a, if = 2; void f(boolean c) { if (c) g(); } }")
        assert [d.message for d in unit.diagnostics] == ["expected field name"]
        assert unit.types[0].fields == ()
        assert [m.name for m in unit.types[0].methods] == ["f"]

    def test_generics_parse_into_type_args(self):
        # the type arguments are read, and kept only in the type's span
        text = b"class A { Map<String, List<Integer>> m; }"
        unit = parse_unit(text)
        assert unit.diagnostics == ()
        declared = unit.types[0].fields[0].declared_type
        assert declared.qualified_name == "Map"
        assert span_text(text, declared.span) == "Map<String, List<Integer>>"

    def test_array_suffix_normalized(self):
        unit = parse_unit(b"class A { String[] xs; void f(int[] ys) {} }")
        assert unit.types[0].fields[0].declared_type.qualified_name == "String"
        assert unit.types[0].methods[0].params[0].type.qualified_name == "int"

    def test_shift_expression_merges_adjacent_gt(self):
        unit = parse_unit(b"class A { int f(int a) { return a >> 2; } }")
        ret = unit.types[0].methods[0].body.stmts[0]
        assert isinstance(ret.expr, ast.Binary) and ret.expr.op == ">>"

    def test_non_marker_comment_ignored(self):
        unit = parse_unit(b"class A { void f() {\n    // plain note\n    g();\n  } }")
        assert unit.site_icp == ()

    def test_physical_lines_recorded(self):
        # a file's only top-level type is given its physical line count
        [unit] = analyze_file("A.java", b"class A {}\n", default_rules()).units
        assert unit.loc == physical_loc(b"class A {}\n") == 1

    @pytest.mark.parametrize("resources", ["r", "this.r; R s = open()"])
    def test_a_try_resource_may_name_a_variable(self, resources):
        # JLS SE 17 §14.20.3: a resource that names a variable declares none
        unit = parse_unit(
            f"class A {{ void f(R r) {{ try ({resources}) {{ if (c) g(); }} finally {{ h(); }} }} }}"
            .encode())
        assert unit.diagnostics == ()
        [stmt] = unit.types[0].methods[0].body.stmts
        assert [r.name for r in stmt.resources] == re.findall(r"R (\w+) =", resources)
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 4

    def test_a_type_pattern_may_be_final(self):
        # JLS SE 17 §14.30.1
        unit = parse_unit(
            b"class A { void f(Object x) { if (x instanceof final String s) { g(); } } }")
        assert unit.diagnostics == ()
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 2

    @pytest.mark.parametrize("stmt", [
        # array constructor references, JLS SE 17 §15.13
        "g(String[]::new, c ? 1 : 2);",
        "IntFunction<int[]> s = c ? int[]::new : int[][]::new;",
        # member types after type arguments, JLS SE 17 §4.3
        "Outer<A>.Inner x = c ? a : b;",
        "Map<K, V>.Entry<K, V> e = c ? a : b;",
        # an intersection cast, JLS SE 17 §15.16
        "var f = (Function<A, B> & Serializable) (c ? x : y);",
    ], ids=["array-ref", "array-refs", "member-type", "member-type-args", "intersection-cast"])
    def test_type_forms_in_statements(self, stmt):
        unit = parse_unit(f"class A {{ void f() {{ {stmt} }} }}".encode())
        assert unit.diagnostics == ()
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 2  # the ternary and its condition

    @pytest.mark.parametrize("stmt", ["Object o = int[].class;", "Object o = String[][].class;"])
    def test_a_class_literal_may_follow_array_dimensions(self, stmt):
        # JLS SE 17 §15.8.2
        unit = parse_unit(f"class A {{ void f() {{ {stmt} }} }}".encode())
        assert unit.diagnostics == ()
        [decl] = unit.types[0].methods[0].body.stmts
        assert (type(decl.initializer), decl.initializer.name) == (ast.FieldAccess, "class")

    def test_hex_floating_point_literals(self):
        # JLS SE 17 §3.10.2; javac 17 compiles each
        unit = parse_unit(b"class A { double d = 0x1.8p1, e = 0x1p-3; long f = 0x1FL; }")
        assert unit.diagnostics == ()
        assert [f.initializer.text for f in unit.types[0].fields] == [
            "0x1.8p1", "0x1p-3", "0x1FL"]

    def test_a_member_type_keeps_every_type_argument(self):
        text = b"class A { Map<K, V>.Entry<K, V> e; }"
        unit = parse_unit(text)
        assert unit.diagnostics == ()
        declared = unit.types[0].fields[0].declared_type
        assert declared.qualified_name == "Map.Entry"
        assert span_text(text, declared.span) == "Map<K, V>.Entry<K, V>"

    def test_an_intersection_cast_has_its_first_type(self):
        unit = parse_unit(b"class A { Object f() { return (Runnable & Serializable) x; } }")
        cast = unit.types[0].methods[0].body.stmts[0].expr
        assert (type(cast), cast.type.qualified_name) == (ast.Cast, "Runnable")


class TestLists:
    """Every bracketed, separated list is read by one reader."""

    @pytest.mark.parametrize("params, names", [
        ("()", ()),
        ("(a, b)", ("a", "b")),
        ("(int a, String b)", ("a", "b")),
        ("(var a)", ("a",)),
        ("(@A var a, final @B String b)", ("a", "b")),
        ("(int... xs)", ("xs",)),
        ("(String @A ... xs)", ("xs",)),
        ("(int a[], int[] b)", ("a", "b")),
        ("(Map<K, List<V>> m)", ("m",)),
    ])
    def test_lambda_parameter_names(self, params, names):
        unit = parse_unit(f"class A {{ Object f() {{ return {params} -> 0; }} }}".encode())
        assert unit.diagnostics == ()
        assert unit.types[0].methods[0].body.stmts[0].expr.params == names

    @pytest.mark.parametrize("type_text, args", [
        ("List<?>", []),
        ("Map<? extends A, ? super B>", ["A", "B"]),
        ("X<@A T>", ["T"]),
        ("X<?, ?>", []),
        ("List<String> @A []", ["String"]),
    ])
    def test_type_arguments(self, type_text, args):
        # the type's span ends at its `>` or after its array suffix; a
        # project class named only in a type argument is no coupling
        text = f"class A {{ {type_text} x; }}".encode()
        unit = parse_unit(text)
        assert unit.diagnostics == ()
        declared = unit.types[0].fields[0].declared_type
        assert declared.qualified_name == type_text.partition("<")[0]
        assert span_text(text, declared.span) == type_text
        [analysis] = analyze_unit(unit, default_rules(internal_types=tuple(args)))
        assert analysis.sites == ()

    @pytest.mark.parametrize("member, at", [
        ("Optional< Optional InternalFoo> find() { return null; }", "InternalFoo"),
        ("<T T> void f() {}", "T>"),
        ("List<a + b> xs;", "+"),
        ("List<String; int y;", ";"),
    ])
    def test_a_malformed_type_argument_list_fails_its_member(self, member, at):
        text = f"class A {{ {member} void g() {{}} }}".encode()
        unit = parse_unit(text)
        [diagnostic] = unit.diagnostics
        assert diagnostic.message == "expected '>'"
        assert text[diagnostic.span.byte_start:].startswith(at.encode())
        assert [m.name for m in unit.types[0].methods] == ["g"]

    def test_a_diamond_holds_no_type_argument(self):
        text = b"class A { Object f() { return new Y<>(); } }"
        unit = parse_unit(text)
        assert unit.diagnostics == ()
        created = unit.types[0].methods[0].body.stmts[0].expr
        assert created.type.qualified_name == "Y"
        assert span_text(text, created.type.span) == "Y<>"

    def test_an_initializer_list_may_end_in_a_comma(self):
        unit = parse_unit(b"class A { int[] xs = {1, 2,}; }")
        assert unit.diagnostics == ()
        items = unit.types[0].fields[0].initializer.items
        assert [item.text for item in items] == ["1", "2"]

    @pytest.mark.parametrize("member, message", [
        ("void f() { g(a, ); }", "expected expression"),
        ("void f(int a, ) {}", "expected type"),
        ("void f() { Runnable r = (a, ) -> 0; }", "expected type"),
        ("record R(int a, ) {}", "expected '{'"),
    ], ids=["arguments", "parameters", "lambda-parameters", "record-components"])
    def test_a_comma_before_a_closing_parenthesis_fails(self, member, message):
        # javac 17 rejects a `,` after the last argument, parameter, lambda
        # parameter or record component; the statement or member fails at the `)`
        text = f"class A {{ {member} void g() {{}} }}".encode()
        unit = parse_unit(text)
        [diagnostic] = unit.diagnostics
        assert diagnostic.message == message
        assert text[diagnostic.span.byte_start:].startswith(b")")
        assert unit.types[0].methods[-1].name == "g"

    def test_try_resources_may_end_in_a_semicolon(self):
        unit = parse_unit(b"class A { void f() { try (A a = x;) { g(); } } }")
        assert unit.diagnostics == ()
        [stmt] = unit.types[0].methods[0].body.stmts
        assert [r.name for r in stmt.resources] == ["a"]


# One of each statement form, `for` header, try resource and list; the
# parser reads it with no attempt that fails. It is kept here, not under
# tests/fixtures, where it would change the texts `_mutants` draws from.
EVERY_FORM_SOURCE = """\
class Forms {
  int n;
  void f(int[] xs, R r, Map<K, V> m) {
    ;
    { g(); }
    int a = 1, b[] = {1, 2,};
    final @A var c = new int[] {1};
    List<String> d = new ArrayList<>();
    java.util.@A Map<? extends K, ? super V> e = null;
    x = 1;
    a.f(x);
    xs[0] = 2;
    i++;
    ++i;
    new X().f();
    this.n = a;
    this.<T>g();
    super.f();
    label: g();
    yield: while (a < n) break yield;
    int yield = 1;
    yield = 2;
    yield++;
    xs[yield] = 3;
    if (a > 0) g(); else if (a < 0) h(); else k();
    while (a < n) a++;
    do { a--; } while (a > 0);
    for (;;) break;
    for (int i = 0, j = 1; i < j; i++, j--) continue;
    for (i = 0, j = 1; i < j; i++) g();
    for (g(); ; ) break;
    for (int x : xs) g(x);
    for (final @A var x : xs) g(x);
    for (Map.Entry<K, V> en : m.entrySet()) g(en);
    switch (a) { case 1, 2: g(); break; default: h(); }
    switch (e) { case RED -> g(); case (1), -K -> { h(); } default -> throw x; }
    int s = switch (a) { case 1 -> 2; case 2, 3 -> { if (b) yield 3; yield (4); }
      default -> throw new IllegalStateException(); };
    s = switch (a) { case 1: yield a > 0 ? -1 : 1; case 2: yield -1; default: { yield a; } };
    try (r; this.r; R s = open(); var t = open();) { g(); }
    catch (IOException | RuntimeException ex) { h(); } finally { k(); }
    synchronized (this) { g(); }
    assert a > 0;
    assert a > 0 : b ? "p" : "q";
    g(String[]::new);
    Outer<A>.Inner oi = (Function<A, B> & Serializable) x;
    long z = (long) ++i + (char) --i;
    int y = (int) -x + (byte) +a - (a) - x;
    throw new IllegalStateException("x");
  }
  Object h(List<? extends T> ys, String... zs) {
    Runnable q = () -> {};
    Function<int[], String> fn = (int... ws) -> "";
    BiFunction<A, B, C> bf = (var p, final B u) -> x instanceof final String s ? s : (String) x;
    return (p, u) -> p + u;
  }
}
"""


class TestAttempts:
    """The parser reads ahead only where Java is ambiguous, a local
    variable's head (`List<T> x` against `a < b`) and a cast's type (`(T) x`
    against `(a) - b`), and such a read fails only on input that is not
    Java: no `_Fail`, the parser's internal signal of a fault, is raised on
    valid Java."""

    @pytest.fixture
    def raised(self, monkeypatch):
        raised = []
        init = parser._Fail.__init__

        def counting_init(self, *args):
            raised.append(args)
            init(self, *args)

        monkeypatch.setattr(parser._Fail, "__init__", counting_init)
        return raised

    def test_valid_java_raises_no_failed_attempt(self, raised):
        for path in sorted(FIXTURES.rglob("*.java")):
            parse_unit(path.read_bytes(), str(path))
        for source, _ in TYPE_HEADER_CASES.values():
            assert parse_unit(source.encode()).diagnostics == ()
        unit = parse_unit(EVERY_FORM_SOURCE.encode())
        assert [m.name for m in unit.types[0].methods] == ["f", "h"]
        assert unit.diagnostics == ()
        assert raised == []

    def test_a_rule_body_is_not_tried_as_a_declaration(self, raised):
        # `a < b` starts as a type would, but a `->` rule's body is a block,
        # a `throw` or an expression (JLS SE 17 §14.11.1)
        unit = parse_unit(b"class A { boolean f(int x) {"
                          b" return switch (x) { case 1 -> a < b; default -> a > b; }; } }")
        assert unit.diagnostics == ()
        [ret] = unit.types[0].methods[0].body.stmts
        assert [type(case.stmts[0].expr) for case in ret.expr.cases] == [ast.Binary] * 2
        assert raised == []


def shape(expr) -> str:
    """A binary-operator tree written out with every node parenthesized."""
    if type(expr) is ast.Binary:
        return f"({shape(expr.lhs)} {expr.op} {shape(expr.rhs)})"
    assert isinstance(expr, ast.NameRef), expr
    return expr.name


def returned(src: str):
    unit = parse_unit(f"class A {{ Object f() {{ return {src}; }} }}".encode())
    assert unit.diagnostics == ()
    return unit.types[0].methods[0].body.stmts[0].expr


class TestPrecedence:
    @pytest.mark.parametrize("src, expected", [
        # each pair of adjacent levels, looser first, then tighter first
        ("a || b && c", "(a || (b && c))"),
        ("a && b | c", "(a && (b | c))"),
        ("a | b ^ c", "(a | (b ^ c))"),
        ("a ^ b & c", "(a ^ (b & c))"),
        ("a & b == c", "(a & (b == c))"),
        ("a == b < c", "(a == (b < c))"),
        ("a < b << c", "(a < (b << c))"),
        ("a << b + c", "(a << (b + c))"),
        ("a + b * c", "(a + (b * c))"),
        ("a * b + c << d < e == f & g ^ h | i && j || k",
         "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)"),
        # left associativity within a level
        ("a - b - c", "((a - b) - c)"),
        ("a / b * c % d", "(((a / b) * c) % d)"),
        ("a != b == c", "((a != b) == c)"),
        # '>' tokens: adjacent ones are shifts, a lone one compares
        ("a >>> b", "(a >>> b)"),
        ("a >> b > c", "((a >> b) > c)"),
        ("a > b >>> c", "(a > (b >>> c))"),
        ("a instanceof T == b", "((a instanceof T) == b)"),
        ("a && b instanceof T", "(a && (b instanceof T))"),
    ])
    def test_table(self, src, expected):
        assert shape(returned(src)) == expected

    def test_node_types(self):
        expr = returned("a || b == c + d")
        assert type(expr) is ast.Binary
        assert expr.op_span.byte_start == expr.span.byte_start + len("a ")
        assert type(expr.rhs) is ast.Binary
        assert expr.rhs.op_span.byte_start == expr.span.byte_start + len("a || b ")
        assert type(expr.rhs.rhs) is ast.Binary
        assert expr.rhs.rhs.op_span.byte_start == expr.span.byte_start + len("a || b == c ")

    def test_only_a_primitive_cast_takes_a_signed_operand(self):
        # JLS SE 17 §15.16: `(int) -x` and `(long) ++i` are casts, and
        # `(a) - x` is a subtraction, as javac reads them
        unit = parse_unit(b"class A { void f() { long z = (long) ++i; int y = (int) -x;"
                          b" int w = (a) - x; } }")
        assert unit.diagnostics == ()
        z, y, w = unit.types[0].methods[0].body.stmts
        assert [type(z.initializer), type(y.initializer)] == [ast.Cast] * 2
        assert [type(z.initializer.inner), type(y.initializer.inner)] == [ast.Unary] * 2
        assert shape(w.initializer) == "(a - x)"

    def test_span_runs_from_the_first_token_of_the_chain(self):
        src = "(a) - b * c - d"
        expr = returned(src)
        assert expr.span.byte_end - expr.span.byte_start == len(src)
        assert expr.lhs.span.byte_start == expr.span.byte_start  # (a) - b * c
        assert expr.lhs.rhs.span.byte_end - expr.lhs.rhs.span.byte_start == len("b * c")

    def test_instanceof_operand_takes_no_tighter_operator(self):
        # the type operand of instanceof is not a shift expression
        unit = parse_unit(b"class A { void f() { x instanceof String - b; } }")
        [stmt] = unit.types[0].methods[0].body.stmts
        assert isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Opaque)
        assert [d.message for d in unit.diagnostics] == ["expected ';'"]

    def test_deep_parentheses_parse(self):
        assert shape(returned("(" * 120 + "a" + ")" * 120)) == "a"


class TestElseIfChain:
    SRC = ("class A { int f(int x) {\n"
           "  if (x == 0) return 0;\n"
           "  else // @ICP(1)\n"
           "  @ICP(2) if (x == 1) return 1;\n"
           "  else if (x ==) return 2;\n"
           "  return 3; } }")

    def test_links_nest_with_their_spans_and_markers(self):
        unit = parse_unit(self.SRC.encode())
        outer, ret = unit.types[0].methods[0].body.stmts
        inner = outer.else_branch
        assert isinstance(inner, ast.If) and isinstance(ret, ast.Return)
        src = self.SRC.encode()
        assert inner.span.byte_start == src.index(b"@ICP(2) if (x == 1)")
        chain_end = src.index(b"return 2;") + len(b"return 2;")
        assert inner.span.byte_end == outer.span.byte_end == chain_end
        # the second link's annotation is its site; the comment before it is none
        assert [(s.span, s.value) for s in unit.site_icp] == [(inner.span, 2)]
        assert (outer.else_kw.line_start, inner.else_kw.line_start) == (3, 5)

    def test_a_broken_link_is_the_failed_else_branch(self):
        unit = parse_unit(self.SRC.encode())
        failed = unit.types[0].methods[0].body.stmts[0].else_branch.else_branch
        assert isinstance(failed, ast.ExprStmt) and isinstance(failed.expr, ast.Opaque)
        assert self.SRC.encode()[failed.span.byte_start:failed.span.byte_end] == (
            b"if (x ==) return 2;")
        assert [d.message for d in unit.diagnostics] == ["expected expression"]

    def test_long_chain_parses_without_recursion(self):
        stmt = parse_unit(ELSE_IF_SOURCE.encode()).types[0].methods[0].body.stmts[0]
        links = 0
        while isinstance(stmt, ast.If):
            links += 1
            stmt = stmt.else_branch
        assert links == 1000 and isinstance(stmt, ast.Return)


def _mutants(count: int, seed: int):
    """Fixture texts with tokens deleted, or copies of tokens inserted."""
    rng = random.Random(seed)
    sources = [p.read_bytes() for p in sorted(FIXTURES.rglob("*.java"))]
    spans = []
    for source in sources:
        ts = tokenize_bytes(source)
        spans.append([(ts.starts[i], ts.ends[i]) for i in range(len(ts))])
    for _ in range(count):
        i = rng.randrange(len(sources))
        data, toks = sources[i], spans[i]
        for _ in range(rng.randint(1, 3)):
            start, end = toks[rng.randrange(len(toks))]
            if rng.random() < 0.5:
                data = data[:start] + data[end:]
            else:
                a, b = toks[rng.randrange(len(toks))]
                data = data[:start] + b" " + sources[i][a:b] + b" " + data[start:]
            toks = [(a, b) for a, b in toks if b <= len(data)]
        yield data


class TestMutationFuzz:
    def test_mutated_fixtures_parse_in_bounds_or_fail_cleanly(self):
        failed = 0
        for data in _mutants(2000, seed=7):
            try:
                unit = parse_unit(data)
            except ParseError as exc:
                failed += 1
                assert exc.diagnostics
                continue
            size = len(data)
            lines = physical_loc(data) + 1
            stack = list(unit.types) + list(unit.diagnostics)
            while stack:
                node = stack.pop()
                span = node.span
                assert 0 <= span.byte_start <= span.byte_end <= size, (data, node)
                assert 1 <= span.line_start <= span.line_end <= lines, (data, node)
                if not isinstance(node, ast.Diagnostic):
                    stack.extend(ast.iter_children(node))
        # the mutations reach both outcomes; no more of them fail whole than
        # the 695 that did once a member type's header fault failed its member
        assert 0 < failed <= 695


def nested_casts(n: int, operand: str) -> bytes:
    """A statement of `n` casts, each the operand of the one before it,
    around `operand`: `int y = (a)((a)(…(operand)…));`."""
    expr = operand
    for _ in range(n):
        expr = f"(a)({expr})"
    return f"class A {{ void f() {{ int y = {expr}; }} }}".encode()


class TestWork:
    """Parser work is linear in the tokens: no input costs more than a
    fixed number of Python calls into the parser per token, also where a
    cast's operand fails under casts nested n deep."""

    CALLS_PER_TOKEN = 8

    @staticmethod
    def calls(data: bytes) -> int:
        """The Python calls into `parser.py` that parsing `data` makes."""
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == parser.__file__:
                calls += 1

        sys.setprofile(profile)
        try:
            parse_unit(data)
        except ParseError:
            pass
        finally:
            sys.setprofile(None)
        return calls

    def test_calls_per_token_stay_bounded(self):
        inputs = [p.read_bytes() for p in sorted(FIXTURES.rglob("*.java"))]
        inputs += [source.encode() for source, _ in TYPE_HEADER_CASES.values()]
        inputs += _mutants(2000, seed=7)
        inputs += [nested_casts(n, operand) for n in (8, 16, 32, 64)
                   for operand in ("x +", "x")]
        for data in inputs:
            try:
                tokens = len(tokenize_bytes(data))
            except InvalidCharacter:
                continue
            # asserted per input, so a blow-up fails at its smallest input
            assert self.calls(data) <= self.CALLS_PER_TOKEN * tokens, data


    @staticmethod
    def lines_per_token(data: bytes) -> float:
        """The line events in `parser.py` that parsing `data` makes, per token."""
        lines = 0

        def trace_line(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return trace_line

        def trace_call(frame, event, arg):
            return trace_line if frame.f_code.co_filename == parser.__file__ else None

        sys.settrace(trace_call)
        try:
            parse_unit(data)
        finally:
            sys.settrace(None)
        return lines / len(tokenize_bytes(data))

    @pytest.mark.parametrize("members", [
        lambda n: "void f() { " + " ".join(f"class L{i} {{}}" for i in range(n)) + " }",
        lambda n: " ".join(f"void f{i}() {{ class L {{}} }}" for i in range(n)),
    ], ids=["distinct-names", "one-name"])
    def test_local_type_naming_is_linear(self, members):
        # a local type's binary name is found with no pass over the types
        # listed before it: four times the local types cost no more per token
        def cost(n):
            return self.lines_per_token(f"class A {{ {members(n)} }}".encode())

        assert cost(400) <= 1.1 * cost(100)


class TestErrorTolerance:
    def test_broken_statement_recovers_at_member_level(self):
        src = b"class A { void f() { int x = ; } void g() { h(); } }"
        unit = parse_unit(src)
        assert unit.diagnostics
        assert [m.name for m in unit.types[0].methods] == ["f", "g"]

    def test_each_diagnostic_of_a_failed_cast_is_recorded_once(self):
        # `(a)(...)` is a cast, as javac reads it; its operand is read once,
        # so the lambda's failed statement is recorded once, and the cast
        # fails at the `,` with javac's `')' expected`
        unit = parse_unit(b"class A { void f() { (a)(() -> { int x = ; }, b); } }")
        assert unit.diagnostics == (
            ast.Diagnostic(("expected expression", ast.Span((41, 42, 1, 1)))),
            ast.Diagnostic(("expected ')'", ast.Span((44, 45, 1, 1)))))

    @pytest.mark.parametrize("statement", [b"(a)();", b"(a)(x, b);"])
    def test_a_cast_whose_operand_fails_fails_its_statement(self, statement):
        # javac rejects both (`-> expected`); the parser reads a cast whose
        # operand fails, not a call of `a`
        src = b"class A { void f() { " + statement + b" g(); } }"
        unit = parse_unit(src)
        assert len(unit.diagnostics) == 1
        opaque, call = unit.types[0].methods[0].body.stmts
        assert type(opaque.expr) is ast.Opaque and type(call.expr) is ast.Call

    def test_a_declaration_fails_at_its_fault(self):
        # once its head and name are read, a statement is a declaration: a
        # fault in a declarator is not read again as an expression
        src = b"class A { void f() { int x = ; List<T> a = b, 5; } }"
        unit = parse_unit(src)
        assert [(d.message, d.span.byte_start) for d in unit.diagnostics] == [
            ("expected expression", src.index(b";")),
            ("expected variable name", src.index(b"5"))]
        assert len(unit.types[0].methods[0].body.stmts) == 2

    def test_a_fault_in_a_for_each_iterable_fails_the_statement(self):
        # once the header has read its ':', it is not retried as a classic
        # `for`, whose fault would be placed at the loop variable
        unit = parse_unit(b"class A { void f() { for (String s : xs +) { if (c) g(); } } }")
        assert unit.diagnostics == (ast.Diagnostic((
            "expected expression", ast.Span((41, 42, 1, 1)))),)

    def test_an_unmatched_parenthesis_fails_its_statement_alone(self):
        unit = parse_unit(b"class A { void f() { g(; } void h(boolean c) { if (c) x(); } }")
        assert [m.name for m in unit.types[0].methods] == ["f", "h"]
        assert unit.diagnostics == (ast.Diagnostic((
            "expected expression", ast.Span((23, 24, 1, 1)))),)
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 2

    def test_an_unpaired_bracket_is_skipped_to_the_end_of_the_file(self):
        # `@B(` has no `)`: its arguments run to EOF, where the class then
        # misses its `}`, rather than being read on from inside them
        with pytest.raises(ParseError) as exc:
            parse_unit(b"class A { @B(x void f() {} } class C { }")
        assert exc.value.diagnostics == [
            ast.Diagnostic((message, ast.Span((40, 40, 1, 1))))
            for message in ("expected type", "expected '}'")]

    def test_a_switch_expression_with_no_body_fails_its_statement_alone(self):
        unit = parse_unit(
            b"class A { void f(int x) { g(switch (x) y); } void h() { if (c) return; } }")
        assert [m.name for m in unit.types[0].methods] == ["f", "h"]
        assert unit.diagnostics[-1] == ast.Diagnostic(("expected '{'", ast.Span((39, 40, 1, 1))))

    @pytest.mark.parametrize("switch,message,fault,case_sizes", [
        (b"case 1 -> a(); b(); default -> c();", "case, default, or '}' expected", b"b();", [2, 1]),
        (b"case 1 -> a(); case 2: b();", "different case kinds used in the switch",
         b"case 2", [1, 1]),
    ], ids=["a-statement-after-a-rule-body", "rules-mixed-with-groups"])
    def test_a_switch_javac_rejects_is_diagnosed_and_read_on(self, switch, message, fault,
                                                             case_sizes):
        # javac 17's message, at the token it names; the statements still
        # count, and the switch's `}` still closes it
        src = b"class A { void f(int x) { switch (x) { " + switch + b" } if (x > 0) g(); } }"
        unit = parse_unit(src)
        assert [(d.message, d.span.byte_start) for d in unit.diagnostics] == [
            (message, src.index(fault))]
        stmts = unit.types[0].methods[0].body.stmts
        assert [len(case.stmts) for case in stmts[0].cases] == case_sizes
        assert isinstance(stmts[1], ast.If)
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 5  # the switch, its two labels, the `if` and its guard

    def test_broken_class_header_is_hard_error(self):
        with pytest.raises(ParseError):
            parse_unit(b"klass A {}")

    def test_invalid_character_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_unit(b"class A { int x = #1; }")


class TestClassBodies:
    """One reader reads every class body: a named type's, an anonymous
    class's and an enum constant's."""

    def test_an_anonymous_class_body_is_a_class_body(self):
        src = b"class A { void f() { Runnable r = new Runnable() { int n; void run() {} }; } }"
        unit = parse_unit(src)
        assert unit.diagnostics == ()
        assert [t.name for t in unit.types] == ["A"]
        decl = unit.types[0].methods[0].body.stmts[0]
        assert isinstance(decl, ast.LocalDecl)
        assert type(decl.initializer) is ast.New
        body = decl.initializer.body
        assert type(body) is ast.ClassBody
        assert [f.name for f in body.fields] == ["n"]
        assert [m.name for m in body.methods] == ["run"]
        assert src[body.span.byte_start:body.span.byte_end] == b"{ int n; void run() {} }"

    def test_an_enum_constant_body_is_a_class_body(self):
        unit = parse_unit(b"enum E { A(1) { void f() {} }, B; }")
        assert unit.diagnostics == ()
        a, b = unit.types[0].enum_constants
        assert [m.name for m in a.body.methods] == ["f"] and a.args
        assert b.body is None

    def test_initializers_are_methods(self):
        unit = parse_unit(b"class A { static { f(); } { g(); } }")
        assert unit.diagnostics == ()
        assert [(m.name, m.params, len(m.body.stmts)) for m in unit.types[0].methods] == [
            ("<clinit>", (), 1), ("<init>", (), 1)]

    def test_a_compact_constructor_is_read_only_in_a_record(self):
        unit = parse_unit(b"record R(int x) { R { f(); } }")
        assert unit.diagnostics == ()
        [ctor] = unit.types[0].methods
        assert (ctor.name, ctor.params, ctor.return_type, len(ctor.body.stmts)) == (
            "R", (), None, 1)
        unit = parse_unit(b"class R { R { f(); } }")
        assert [d.message for d in unit.diagnostics] == ["expected member name"]
        assert unit.types[0].methods == ()

    def test_local_types_take_binary_names(self):
        # JLS SE 17 §13.1: the owner's name, `$`, the lowest number no type
        # of that name has, the name
        unit = parse_unit(b"""class A {
          static class B { void f() { class L {} interface I {} } }
          void g() { { enum L { X } } final record L(int x) {} @Deprecated class M {} }
        }""")
        assert unit.diagnostics == ()
        assert [(t.name, t.kind) for t in unit.types] == [
            ("A", "class"), ("A.B", "class"), ("A.B$1L", "class"), ("A.B$1I", "interface"),
            ("A$1L", "enum"), ("A$2L", "record"), ("A$1M", "class")]
        assert unit.types[-1].annotations[0].name == "Deprecated"

    def test_a_type_in_an_anonymous_body_is_named_under_the_body(self):
        # javac names the Nth anonymous body in `Outer` `Outer$N`, an enum
        # constant's body too, and the types in it under that name
        unit = parse_unit(b"class A { Object o = new Object() { class In {} };"
                          b" void f() { new Object() { void g() { class L {} } }; }"
                          b" enum E { K { class In {} } } }")
        assert unit.diagnostics == ()
        assert [t.name for t in unit.types] == ["A", "A$1.In", "A$2$1L", "A.E", "A.E$1.In"]

    def test_a_statement_read_again_lists_its_types_once(self):
        # the cast fails at `,`; a statement that fails drops its types, and
        # frees their numbers
        src = (b"class A { void f() {"
               b" (a)(() -> { class L {} }, b);"
               b" Object o = new Object() { void g() { class M {} } } x y; }"
               b" void h() { class M {} } }")
        unit = parse_unit(src)
        assert [d.message for d in unit.diagnostics] == ["expected ')'", "expected ';'"]
        assert [t.name for t in unit.types] == ["A", "A$1M"]
        assert span_text(src, unit.types[-1].span) == "class M {}"

    def test_a_dropped_local_type_frees_the_lowest_number(self):
        # the failed statement's `L` took 2 after f's `L`; g's `L` takes 2
        # again, and its `M` 1, before h's `L` takes 3
        unit = parse_unit(b"""class A {
          void f() { class L {} run(() -> { class L {} class M {} }) + ; class L2 {} }
          void g() { class L {} class M {} }
          void h() { class L {} }
        }""")
        assert [d.message for d in unit.diagnostics] == ["expected expression"]
        assert [t.name for t in unit.types] == ["A", "A$1L", "A$1L2", "A$2L", "A$1M", "A$3L"]

    def test_a_fault_in_a_local_type_header_fails_only_its_statement(self):
        unit = parse_unit(b"class A { void f(boolean c) {"
                          b" switch (c) { case true: class break; } if (c) g(); } }")
        assert [d.message for d in unit.diagnostics] == ["expected type name"]
        assert [t.name for t in unit.types] == ["A"]
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 4  # the switch, its label, the `if` and its guard

    def test_a_local_type_keeps_the_whole_file_loc(self):
        # nesting is read from spans: the first type holds every other one
        data = b"// head\nclass A {\n  void f() {\n    class L {}\n  }\n}\n// tail\n"
        units = analyze_file("A.java", data, default_rules()).units
        assert [(u.type_name, u.loc) for u in units] == [("A", 7), ("A$1L", 1)]


class TestTreeInvariants:
    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_span_nesting(self, path):
        unit = parse_unit(path.read_bytes(), path.name)
        size = len(path.read_bytes())
        for parent in all_nodes(unit):
            assert 0 <= parent.span.byte_start <= parent.span.byte_end <= size
            for child in ast.iter_children(parent):
                assert parent.span.contains(child.span), (parent, child)

    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_parse_determinism(self, path):
        data = path.read_bytes()
        first = parse_unit(data, path.name)
        second = parse_unit(data, path.name)
        assert first == second

    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_recognition_completeness(self, path):
        """k occurrences of a construct keyword produce exactly k nodes."""
        data = path.read_bytes()
        unit = parse_unit(data, path.name)
        assert unit.diagnostics == (), "oracle corpus must parse cleanly"
        ts = tokenize_bytes(data)
        words = [w for k, w in zip(ts.kinds, ts.texts) if k == TokenKind.IDENT]
        nodes = list(all_nodes(unit))
        assert words.count("if") == sum(isinstance(n, ast.If) for n in nodes)
        # every for/for-each has one `for`; a while has one `while`; a
        # do-while has one `do` and one `while`, so for+while counts each
        # loop exactly once
        n_loops = sum(isinstance(n, ast.Loop) for n in nodes)
        assert n_loops == words.count("for") + words.count("while")
        assert words.count("try") == sum(isinstance(n, ast.Try) for n in nodes)
        assert words.count("switch") == sum(isinstance(n, ast.Switch) for n in nodes)
        assert words.count("catch") == sum(
            len(n.catches) for n in nodes if isinstance(n, ast.Try)
        )
