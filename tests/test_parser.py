"""Parser contract: structure goldens, span nesting, recognition
completeness, error tolerance, and determinism."""

from __future__ import annotations

import random

import pytest

from cddlint.syntax import ParseError, TokenKind, parse_unit, tokenize
from cddlint.syntax import ast

from conftest import ELSE_IF_SOURCE, FIXTURES, ORACLE_DIR

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


class TestElseIfChain:
    SRC = ("class A { int f(int x) {\n"
           "  if (x == 0) return 0;\n"
           "  else // @ICP(1)\n"
           "  @ICP(2) if (x == 1) return 1;\n"
           "  else if (x ==) return 2;\n"
           "  return 3; } }")

    def test_links_nest_with_their_spans_and_markers(self):
        unit = parse_unit(self.SRC)
        outer, ret = unit.types[0].methods[0].body.stmts
        inner = outer.else_branch
        assert isinstance(inner, ast.If) and isinstance(ret, ast.Return)
        src = self.SRC.encode()
        assert inner.span.byte_start == src.index(b"@ICP(2) if (x == 1)")
        chain_end = src.index(b"return 2;") + len(b"return 2;")
        assert inner.span.byte_end == outer.span.byte_end == chain_end
        assert (outer.markers, [m.value for m in inner.markers]) == ((), [1])
        assert [a.numeric_arg for a in inner.annotations] == [2]
        assert (outer.else_kw.line_start, inner.else_kw.line_start) == (3, 5)

    def test_a_broken_link_is_the_failed_else_branch(self):
        unit = parse_unit(self.SRC)
        failed = unit.types[0].methods[0].body.stmts[0].else_branch.else_branch
        assert isinstance(failed, ast.ExprStmt) and isinstance(failed.expr, ast.Opaque)
        assert self.SRC.encode()[failed.span.byte_start:failed.span.byte_end] == (
            b"if (x ==) return 2;")
        assert [d.message for d in unit.diagnostics] == ["expected expression"]

    def test_long_chain_parses_without_recursion(self):
        stmt = parse_unit(ELSE_IF_SOURCE).types[0].methods[0].body.stmts[0]
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
        ts = tokenize(source.decode())
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
        yield data.decode()


class TestMutationFuzz:
    def test_mutated_fixtures_parse_in_bounds_or_fail_cleanly(self):
        failed = 0
        for text in _mutants(2000, seed=7):
            try:
                unit = parse_unit(text)
            except ParseError as exc:
                failed += 1
                assert exc.diagnostics
                continue
            size = len(text.encode())
            lines = unit.physical_lines + 1
            stack = list(unit.types) + list(unit.diagnostics)
            while stack:
                node = stack.pop()
                span = node.span
                assert 0 <= span.byte_start <= span.byte_end <= size, (text, node)
                assert 1 <= span.line_start <= span.line_end <= lines, (text, node)
                if not isinstance(node, ast.Diagnostic):
                    stack.extend(ast.iter_children(node))
        assert 0 < failed < 2000  # the mutations reach both outcomes


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
        ts = tokenize(text)
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
