"""Parser contract: structure goldens, span nesting, recognition
completeness, error tolerance, and determinism."""

from __future__ import annotations

import dataclasses

import pytest

from cddlint.syntax import ParseError, TokenKind, parse_unit, tokenize
from cddlint.syntax import ast

from conftest import ORACLE_DIR

ORACLE_FILES = sorted(ORACLE_DIR.rglob("*.java"))


def walk_nodes(node):
    yield node
    for child in ast.iter_children(node):
        yield from walk_nodes(child)


def all_nodes(unit: ast.SourceUnit):
    for t in unit.types:
        yield from walk_nodes(t)


class TestListingGolden:
    def test_structure(self, listing_source):
        unit = parse_unit(listing_source, "CertificateDetailsController.java")
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
        unit = parse_unit(listing_source)
        body = unit.types[0].methods[0].body
        locals_ = [s for s in body.stmts if isinstance(s, ast.LocalDecl)]
        assert len(locals_) == 3
        assert all(s.declared_type is None for s in locals_)

    def test_statement_annotations_are_recorded(self, listing_source):
        unit = parse_unit(listing_source)
        body = unit.types[0].methods[0].body
        if_stmt = next(s for s in body.stmts if isinstance(s, ast.If))
        assert [a.simple_name() for a in if_stmt.annotations] == ["ICP"]
        assert if_stmt.annotations[0].numeric_arg == 2


class TestBasics:
    def test_minimal_class(self):
        unit = parse_unit("class A {}")
        assert len(unit.types) == 1
        decl = unit.types[0]
        assert (decl.fields, decl.methods, decl.nested) == ((), (), ())

    def test_package_and_imports_are_skipped(self):
        unit = parse_unit(
            "package com.x.y;\nimport java.util.List;\nimport static a.B.*;\nclass A {}"
        )
        assert [t.name for t in unit.types] == ["A"]

    def test_nested_types_and_dotted_names(self):
        unit = parse_unit("class A { static class B { class C {} } }")
        names = [name for name, _ in ast.iter_type_decls(unit)]
        assert names == ["A", "A.B", "A.B.C"]

    def test_multi_declarator_locals_split(self):
        unit = parse_unit("class A { void f() { int a = 1, b = 2; } }")
        body = unit.types[0].methods[0].body
        assert [s.name for s in body.stmts] == ["a", "b"]

    def test_generics_parse_into_type_args(self):
        unit = parse_unit("class A { Map<String, List<Integer>> m; }")
        field = unit.types[0].fields[0]
        assert field.declared_type.qualified_name == "Map"
        assert [a.qualified_name for a in field.declared_type.type_args] == [
            "String", "List",
        ]

    def test_array_suffix_normalized(self):
        unit = parse_unit("class A { String[] xs; void f(int[] ys) {} }")
        assert unit.types[0].fields[0].declared_type.qualified_name == "String"
        assert unit.types[0].methods[0].params[0].type.qualified_name == "int"

    def test_shift_expression_merges_adjacent_gt(self):
        unit = parse_unit("class A { int f(int a) { return a >> 2; } }")
        ret = unit.types[0].methods[0].body.stmts[0]
        assert isinstance(ret.expr, ast.Binary) and ret.expr.op == ">>"

    def test_marker_comment_recorded(self):
        unit = parse_unit(
            "class A { void f(boolean x) {\n    // @ICP(2)\n    if (x) {}\n  } }"
        )
        if_stmt = unit.types[0].methods[0].body.stmts[0]
        assert len(if_stmt.markers) == 1
        assert if_stmt.markers[0].value == 2

    def test_non_marker_comment_ignored(self):
        unit = parse_unit("class A { void f() {\n    // plain note\n    g();\n  } }")
        stmt = unit.types[0].methods[0].body.stmts[0]
        assert stmt.markers == ()

    def test_physical_lines_and_hash_recorded(self):
        unit = parse_unit("class A {}\n")
        assert unit.physical_lines == 1
        assert len(unit.raw_text_hash) == 64


def shape(expr) -> str:
    """A binary-operator tree written out with every node parenthesized."""
    if type(expr) is ast.Binary:
        return f"({shape(expr.lhs)} {expr.op} {shape(expr.rhs)})"
    assert isinstance(expr, ast.NameRef), expr
    return expr.name


def returned(src: str):
    unit = parse_unit(f"class A {{ Object f() {{ return {src}; }} }}")
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

    def test_span_runs_from_the_first_token_of_the_chain(self):
        src = "(a) - b * c - d"
        expr = returned(src)
        assert expr.span.byte_end - expr.span.byte_start == len(src)
        assert expr.lhs.span.byte_start == expr.span.byte_start  # (a) - b * c
        assert expr.lhs.rhs.span.byte_end - expr.lhs.rhs.span.byte_start == len("b * c")

    def test_instanceof_operand_takes_no_tighter_operator(self):
        # the type operand of instanceof is not a shift expression
        unit = parse_unit("class A { void f() { x instanceof String - b; } }")
        [stmt] = unit.types[0].methods[0].body.stmts
        assert isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Opaque)
        assert [d.message for d in unit.diagnostics] == ["expected ';'"]

    def test_deep_parentheses_parse(self):
        assert shape(returned("(" * 120 + "a" + ")" * 120)) == "a"


class TestErrorTolerance:
    def test_anonymous_class_becomes_opaque_with_diagnostic(self):
        src = "class A { void f() { Runnable r = new Runnable() { }; } }"
        unit = parse_unit(src)
        assert len(unit.diagnostics) == 1
        decl = unit.types[0].methods[0].body.stmts[0]
        assert isinstance(decl, ast.LocalDecl)
        assert isinstance(decl.initializer, ast.Opaque)

    def test_broken_statement_recovers_at_member_level(self):
        src = "class A { void f() { int x = ; } void g() { h(); } }"
        unit = parse_unit(src)
        assert unit.diagnostics
        assert [m.name for m in unit.types[0].methods] == ["f", "g"]

    def test_broken_class_header_is_hard_error(self):
        with pytest.raises(ParseError):
            parse_unit("klass A {}")

    def test_invalid_character_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_unit("class A { int x = #1; }")


class TestTreeInvariants:
    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_span_nesting(self, path):
        unit = parse_unit(path.read_text(), path.name)
        size = len(path.read_bytes())
        for parent in all_nodes(unit):
            assert 0 <= parent.span.byte_start <= parent.span.byte_end <= size
            for child in ast.iter_children(parent):
                assert parent.span.contains(child.span), (parent, child)

    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_parse_determinism(self, path):
        text = path.read_text()
        first = parse_unit(text, path.name)
        second = parse_unit(text, path.name)
        assert first == second

    @pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
    def test_recognition_completeness(self, path):
        """k occurrences of a construct keyword produce exactly k nodes."""
        text = path.read_text()
        unit = parse_unit(text, path.name)
        assert unit.diagnostics == (), "oracle corpus must parse cleanly"
        words = [t.text for t in tokenize(text) if t.kind == TokenKind.IDENT]
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
