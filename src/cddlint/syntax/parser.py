"""Recursive-descent parser for the analyzed Java subset.

Produces a spanned SourceUnit suitable for ICP counting, annotation
extraction and line accounting. Error tolerance is member-level: an
unparseable statement becomes an Opaque expression, an unparseable member is
skipped, both with a recorded Diagnostic; an unparseable type header raises
ParseError.

Binary operators are parsed by one precedence-climbing loop,
``_Parser._parse_binary``, driven by ``_BINARY_LEVELS``: that table is the one
place operator precedence lives.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Optional

from . import ast
from .ast import Span
from .scanner import tokenize_bytes
from .tokens import InvalidCharacter, Token, TokenKind

# punctuation is matched by its text; these are the only kinds the parser tests
_IDENT, _NUMBER, _EOF = TokenKind.IDENT, TokenKind.NUMBER, TokenKind.EOF
_LITERALS = frozenset({TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR})

MODIFIERS = frozenset({
    "public", "private", "protected", "static", "final", "abstract",
    "synchronized", "native", "transient", "volatile", "strictfp", "default",
})

PRIMITIVES = frozenset({
    "boolean", "byte", "short", "int", "long", "char", "float", "double",
})

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})

# words that can never start a type reference in a local declaration
_NON_TYPE_WORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "default", "try",
    "catch", "finally", "return", "throw", "throws", "new", "break",
    "continue", "this", "super", "true", "false", "null", "instanceof",
    "void", "assert", "synchronized",
}) | _TYPE_KEYWORDS

# Binary operators by precedence level, loosest first (JLS SE 17 §15.17-15.24).
# ">>" and ">>>" are written as adjacent ">" tokens.
_BINARY_LEVELS = (
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"), ("<<", ">>", ">>>"),
    ("+", "-"), ("*", "/", "%"),
)
_BINARY_PREC = {op: level for level, ops in enumerate(_BINARY_LEVELS, 1) for op in ops}
_TIGHTEST = len(_BINARY_LEVELS)

_ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=",
})
_PREFIX_OPS = frozenset({"!", "+", "-", "~", "++", "--"})

MARKER_COMMENT_RE = re.compile(r"^//\s*@ICP\(\s*(\d+(?:\.\d+)?)\s*\)\s*$")

_NUMBER_SUFFIXES = "lLfFdD"


class ParseError(Exception):
    """Raised when type or member structure cannot be recovered."""

    def __init__(self, diagnostics: list[ast.Diagnostic]):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0].message if self.diagnostics else "parse failed"
        super().__init__(first)


class _Fail(Exception):
    """Internal: a parse attempt failed; caught at a recovery point."""

    def __init__(self, message: str, span: Span):
        self.message = message
        self.span = span
        super().__init__(message)


def _tok_span(t: Token) -> Span:
    return Span(t.byte_start, t.byte_end, t.line, t.line)


def parse_unit(text: str, path: str = "<memory>") -> ast.SourceUnit:
    """Parse source text into a SourceUnit; pure function of the input."""
    data = text.encode("utf-8")
    try:
        tokens = tokenize_bytes(data)
    except InvalidCharacter as exc:
        span = Span(exc.byte_start, exc.byte_end, exc.line, exc.line)
        raise ParseError([ast.Diagnostic(exc.message, span)]) from exc
    return _Parser(tokens, data, path).parse()


class _Parser:
    def __init__(self, tokens: list[Token], data: bytes, path: str):
        n = len(data)
        if not tokens or tokens[-1].kind != _EOF:
            last_line = tokens[-1].line if tokens else 1
            tokens = tokens + [Token(_EOF, "", n, n, last_line, ())]
        self.toks = tokens
        self.pos = 0
        self.data = data
        self.path = path
        self.diagnostics: list[ast.Diagnostic] = []

    # ── token access ────────────────────────────────────────────────────

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[idx]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if self.pos < len(self.toks) - 1:
            self.pos += 1
        return tok

    def expect(self, text: str, what: str = "") -> Token:
        """Consume the token spelled `text`, a word or a punctuation mark."""
        if self.cur.text != text:
            raise _Fail(f"expected {what or repr(text)}", _tok_span(self.cur))
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        if self.cur.kind != _IDENT:
            raise _Fail(f"expected {what}", _tok_span(self.cur))
        return self.advance()

    @property
    def prev(self) -> Token:
        return self.toks[self.pos - 1] if self.pos > 0 else self.toks[0]

    def span_from(self, start: Token) -> Span:
        end = self.prev
        return Span(start.byte_start, end.byte_end, start.line, end.line)

    def diag(self, message: str, span: Span) -> None:
        self.diagnostics.append(ast.Diagnostic(message, span))

    # ── compilation unit ────────────────────────────────────────────────

    def parse(self) -> ast.SourceUnit:
        types: list[ast.TypeDecl] = []
        if self.cur.text == "package":
            self._skip_to_semi()
        while self.cur.text == "import":
            self._skip_to_semi()
        while self.cur.kind != _EOF:
            if self.cur.text == ";":
                self.advance()
                continue
            decl = self._parse_type_decl_hard()
            types.append(decl)
        return ast.SourceUnit(
            path=self.path,
            types=tuple(types),
            physical_lines=self.data.count(b"\n"),
            raw_text_hash=hashlib.sha256(self.data).hexdigest(),
            diagnostics=tuple(self.diagnostics),
        )

    def _parse_type_decl_hard(self, start=None, annotations=None) -> ast.TypeDecl:
        # a broken type header, top-level or nested, is a hard error
        try:
            return self._parse_type_decl(start, annotations)
        except _Fail as exc:
            self.diag(exc.message, exc.span)
            raise ParseError(self.diagnostics) from exc

    def _parse_type_decl(
        self,
        start: Optional[Token] = None,
        annotations: Optional[tuple[ast.AnnotationUse, ...]] = None,
    ) -> ast.TypeDecl:
        if start is None:
            start = self.cur
            annotations = self._parse_annotations()
        header_tok = self.cur
        while self.cur.text in MODIFIERS:
            self.advance()
        if self.cur.text not in _TYPE_KEYWORDS:
            raise _Fail("expected class, interface or enum", _tok_span(self.cur))
        kind = self.advance().text
        name = self.expect_ident("type name").text
        if self.cur.text == "<":
            self._skip_generics()
        while self.cur.text != "{" and self.cur.kind != _EOF:
            self.advance()  # extends / implements clauses are not analyzed
        self.expect("{")

        enum_constants: tuple[ast.EnumConstant, ...] = ()
        if kind == "enum":
            enum_constants = self._parse_enum_constants()

        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        nested: list[ast.TypeDecl] = []
        while self.cur.text != "}" and self.cur.kind != _EOF:
            self._parse_member(fields, methods, nested)
        self.expect("}")
        return ast.TypeDecl(
            name=name,
            kind=kind,
            annotations=annotations or (),
            fields=tuple(fields),
            methods=tuple(methods),
            nested=tuple(nested),
            span=self.span_from(start),
            header_start=header_tok.byte_start,
            enum_constants=enum_constants,
        )

    def _parse_enum_constants(self) -> tuple[ast.EnumConstant, ...]:
        constants: list[ast.EnumConstant] = []
        while self.cur.text not in (";", "}") and self.cur.kind != _EOF:
            self._parse_annotations()
            start = self.cur
            if self.cur.kind != _IDENT:
                break
            name = self.advance().text
            args: tuple[ast.Expr, ...] = ()
            if self.cur.text == "(":
                args = self._parse_call_args()
            if self.cur.text == "{":
                self.diag("enum constant body is not analyzed", _tok_span(self.cur))
                self._skip_balanced("{", "}")
            constants.append(ast.EnumConstant(name, args, self.span_from(start)))
            if self.cur.text == ",":
                self.advance()
            else:
                break
        if self.cur.text == ";":
            self.advance()
        return tuple(constants)

    # ── members ─────────────────────────────────────────────────────────

    def _parse_member(
        self,
        fields: list[ast.FieldDecl],
        methods: list[ast.MethodDecl],
        nested: list[ast.TypeDecl],
    ) -> None:
        if self.cur.text == ";":
            self.advance()
            return
        start = self.cur
        try:
            annotations = self._parse_annotations()
            if self.cur.text in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            while self.cur.text in MODIFIERS:
                self.advance()
                annotations += self._parse_annotations()  # interleaved @Anno
            if self.cur.text in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            if self.cur.text == "{":
                self.diag("initializer block is not analyzed", _tok_span(self.cur))
                self._skip_balanced("{", "}")
                return
            if self.cur.text == "<":
                self._skip_generics()  # generic method type parameters
            if (
                self.cur.kind == _IDENT
                and self.peek().text == "("
                and self.cur.text not in _NON_TYPE_WORDS
            ):
                methods.append(self._parse_method(start, annotations, None))
                return
            return_type: Optional[ast.TypeRef] = None
            if self.cur.text == "void":
                self.advance()
            else:
                return_type = self._parse_type()
            name_tok = self.expect_ident("member name")
            if self.cur.text == "(":
                methods.append(self._parse_method(start, annotations, return_type, name_tok))
            else:
                if return_type is None:
                    raise _Fail("field cannot be void", _tok_span(name_tok))
                names = self._parse_declarators(name_tok.text, "field name")
                span = self.span_from(start)
                fields.extend(
                    ast.FieldDecl(nm, return_type, annotations if i == 0 else (), iv, span)
                    for i, (nm, iv) in enumerate(names)
                )
        except _Fail as exc:
            self.diag(exc.message, exc.span)
            self._recover_member()

    def _parse_method(
        self,
        start: Token,
        annotations: tuple[ast.AnnotationUse, ...],
        return_type: Optional[ast.TypeRef],
        name_tok: Optional[Token] = None,
    ) -> ast.MethodDecl:
        if name_tok is None:
            name_tok = self.expect_ident("constructor name")
        params = self._parse_params()
        if self.cur.text == "throws":
            self.advance()
            while self.cur.text not in ("{", ";") and self.cur.kind != _EOF:
                self.advance()
        body: Optional[ast.Block] = None
        if self.cur.text == "{":
            body = self._parse_block()
        else:
            self.expect(";", "method body or ';'")
        body_lines = 0
        if body is not None:
            body_lines = body.span.line_end - body.span.line_start + 1
        return ast.MethodDecl(
            name=name_tok.text,
            params=params,
            return_type=return_type,
            annotations=annotations,
            body=body,
            span=self.span_from(start),
            body_line_count=body_lines,
        )

    def _parse_params(self) -> tuple[ast.Param, ...]:
        self.expect("(")
        params: list[ast.Param] = []
        while self.cur.text != ")" and self.cur.kind != _EOF:
            start = self.cur
            anns = self._parse_variable_modifiers()
            ptype = self._parse_type()
            if self.cur.text == "...":
                self.advance()  # varargs behave like the element type
            name = self.expect_ident("parameter name").text
            self._skip_array_suffix()
            params.append(ast.Param(name, ptype, anns, self.span_from(start)))
            if self.cur.text == ",":
                self.advance()
            else:
                break
        self.expect(")")
        return tuple(params)

    def _parse_declarators(
        self, name: str, what: str
    ) -> list[tuple[str, Optional[ast.Expr]]]:
        """The rest of a field or local declarator list after its first name,
        through the ';': one (name, initializer) pair per declarator."""
        names: list[tuple[str, Optional[ast.Expr]]] = []
        while True:
            self._skip_array_suffix()
            init = None
            if self.cur.text == "=":
                self.advance()
                init = self._parse_initializer_value()
            names.append((name, init))
            if self.cur.text != ",":
                break
            self.advance()
            name = self.expect_ident(what).text
        self.expect(";")
        return names

    def _parse_initializer_value(self) -> ast.Expr:
        if self.cur.text == "{":
            return self._parse_initializer_list()
        return self._parse_expr()

    def _parse_initializer_list(self) -> ast.Expr:
        start = self.cur
        self.expect("{")
        items: list[ast.Expr] = []
        while self.cur.text != "}" and self.cur.kind != _EOF:
            items.append(self._parse_initializer_value())
            if self.cur.text == ",":
                self.advance()
            else:
                break
        self.expect("}")
        return ast.InitializerList(tuple(items), self.span_from(start))

    # ── annotations and types ───────────────────────────────────────────

    def _parse_annotations(self) -> tuple[ast.AnnotationUse, ...]:
        uses: list[ast.AnnotationUse] = []
        while self.cur.text == "@":
            start = self.advance()
            name = self.expect_ident("annotation name").text
            while self.cur.text == "." and self.peek().kind == _IDENT:
                self.advance()
                name += "." + self.advance().text
            numeric: Optional[Fraction] = None
            if self.cur.text == "(":
                if (
                    self.peek().kind == _NUMBER
                    and self.peek(2).text == ")"
                ):
                    self.advance()
                    # stays None for non-decimal literals such as hex
                    numeric = _parse_decimal(self.advance().text)
                    self.advance()
                else:
                    self._skip_balanced("(", ")")
            uses.append(ast.AnnotationUse(name, numeric, self.span_from(start)))
        return tuple(uses)

    def _parse_variable_modifiers(self) -> tuple[ast.AnnotationUse, ...]:
        """The annotations and `final` before a variable, in any order
        (JLS SE 17 §4.12.4); the annotations."""
        anns = self._parse_annotations()
        while self.cur.text == "final":
            self.advance()
            anns += self._parse_annotations()
        return anns

    def _parse_type(self) -> ast.TypeRef:
        start = self.cur
        if self.cur.kind != _IDENT or self.cur.text in _NON_TYPE_WORDS:
            raise _Fail("expected type", _tok_span(self.cur))
        name = self.advance().text
        if name not in PRIMITIVES:
            while (
                self.cur.text == "."
                and self.peek().kind == _IDENT
                and self.peek().text not in _NON_TYPE_WORDS
            ):
                self.advance()
                name += "." + self.advance().text
        args: tuple[ast.TypeRef, ...] = ()
        if self.cur.text == "<":
            args = self._parse_type_args()
        self._skip_array_suffix()
        return ast.TypeRef(name, args, self.span_from(start))

    def _parse_type_args(self) -> tuple[ast.TypeRef, ...]:
        self.expect("<")
        args: list[ast.TypeRef] = []
        if self.cur.text == ">":  # diamond
            self.advance()
            return ()
        while True:
            if self.cur.text == "?":  # wildcard, accepted and ignored
                self.advance()
                if self.cur.text in ("extends", "super"):
                    self.advance()
                    args.append(self._parse_type())
            else:
                args.append(self._parse_type())
            if self.cur.text == ",":
                self.advance()
                continue
            self.expect(">")
            return tuple(args)

    def _skip_array_suffix(self) -> None:
        while self.cur.text == "[" and self.peek().text == "]":
            self.advance()
            self.advance()

    def _skip_generics(self) -> None:
        depth = 0
        while self.cur.kind != _EOF:
            k = self.cur.text
            if k == "<":
                depth += 1
            elif k == ">":
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            elif k in ("{", "}", ";"):
                return  # malformed; bail without consuming
            self.advance()

    # ── statements ──────────────────────────────────────────────────────

    def _parse_block(self) -> ast.Block:
        start = self.cur
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while self.cur.text != "}" and self.cur.kind != _EOF:
            stmts.extend(self._parse_statement_recovering())
        self.expect("}")
        return ast.Block(tuple(stmts), self.span_from(start))

    def _parse_statement_recovering(self) -> list[ast.Stmt]:
        start = self.cur
        start_pos = self.pos
        try:
            return self._parse_statement()
        except _Fail as exc:
            return [self._failed_statement(exc, start, start_pos)]

    def _failed_statement(self, exc: _Fail, start: Token, start_pos: int) -> ast.Stmt:
        """Record the failure, skip the rest of the statement and stand an
        Opaque statement in its place."""
        self.diag(exc.message, exc.span)
        self._recover_statement()
        span = self.span_from(start) if self.pos > start_pos else _tok_span(start)
        return ast.ExprStmt(ast.Opaque((), span), span)

    def _parse_statement(self) -> list[ast.Stmt]:
        start = self.cur
        markers = _markers_from_trivia(start)
        annotations = self._parse_annotations()

        if self.cur.text == ";":
            self.advance()
            return [ast.Block((), self.span_from(start), annotations, markers)]
        if self.cur.text == "{":
            block = self._parse_block()
            return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]

        if self.cur.kind == _IDENT:
            word = self.cur.text
            if word == "if":
                return [self._parse_if(start, annotations, markers)]
            if word == "while":
                return [self._parse_while(start, annotations, markers)]
            if word == "do":
                return [self._parse_do_while(start, annotations, markers)]
            if word == "for":
                return [self._parse_for(start, annotations, markers)]
            if word == "switch":
                return [self._parse_switch(start, annotations, markers)]
            if word == "try":
                return [self._parse_try(start, annotations, markers)]
            if word == "return":
                self.advance()
                expr = None
                if self.cur.text != ";":
                    expr = self._parse_expr()
                self.expect(";")
                return [ast.Return(expr, self.span_from(start), annotations, markers)]
            if word == "throw":
                self.advance()
                expr = self._parse_expr()
                self.expect(";")
                return [ast.Throw(expr, self.span_from(start), annotations, markers)]
            if word in ("break", "continue"):
                self.advance()
                if self.cur.kind == _IDENT:  # label
                    self.advance()
                self.expect(";")
                return [ast.Jump(word, self.span_from(start), annotations, markers)]
            if word == "synchronized" and self.peek().text == "(":
                self.diag("synchronized statement is analyzed as a plain block",
                          _tok_span(self.cur))
                self.advance()
                self.expect("(")
                self._parse_expr()
                self.expect(")")
                block = self._parse_block()
                return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]
            if word in ("assert", "yield"):
                self.diag(f"{word} statement is not analyzed", _tok_span(self.cur))
                self._skip_to_semi()
                span = self.span_from(start)
                return [ast.ExprStmt(ast.Opaque((), span), span, annotations, markers)]
            if self.peek().text == ":" and word not in ("case", "default"):
                self.diag("labeled statement: label ignored", _tok_span(self.cur))
                self.advance()
                self.advance()
                return self._parse_statement()

        decls = self._try_parse_local_decl(start, annotations, markers)
        if decls is not None:
            return decls

        expr = self._parse_expr()
        self.expect(";")
        return [ast.ExprStmt(expr, self.span_from(start), annotations, markers)]

    def _parse_if(self, start, annotations, markers) -> ast.If:
        # an `else if` chain is read link by link in this loop, not by
        # recursion, so no chain length exhausts the stack; the nested If
        # nodes are built innermost first once the chain has ended
        links = []
        else_branch: Optional[ast.Stmt] = None
        while True:
            start_pos = self.pos
            try:
                if_kw = _tok_span(self.expect("if"))
                self.expect("(")
                cond = self._parse_expr()
                self.expect(")")
            except _Fail as exc:
                if not links:
                    raise
                # a broken link is the failed statement of the else before it
                else_branch = self._failed_statement(exc, start, start_pos)
                break
            then = self._parse_substatement()
            else_kw = _tok_span(self.advance()) if self.cur.text == "else" else None
            links.append((start, annotations, markers, if_kw, cond, then, else_kw))
            if else_kw is None:
                break
            start, saved = self.cur, self.pos
            try:
                annotations = self._parse_annotations()
            except _Fail:
                annotations = None
            if annotations is None or self.cur.text != "if":
                self.pos = saved  # not a link: the else branch is parsed whole
                else_branch = self._parse_substatement()
                break
            markers = _markers_from_trivia(start)
        for start, annotations, markers, if_kw, cond, then, else_kw in reversed(links):
            else_branch = ast.If(cond, then, else_branch, if_kw, else_kw,
                                 self.span_from(start), annotations, markers)
        return else_branch

    def _parse_substatement(self) -> ast.Stmt:
        stmts = self._parse_statement_recovering()
        if len(stmts) == 1:
            return stmts[0]
        # multi-declarator local statement as a loop/if body: wrap
        span = Span(stmts[0].span.byte_start, stmts[-1].span.byte_end,
                    stmts[0].span.line_start, stmts[-1].span.line_end)
        return ast.Block(tuple(stmts), span)

    def _parse_while(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect("while"))
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        body = self._parse_substatement()
        return ast.Loop("while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_do_while(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect("do"))
        body = self._parse_substatement()
        self.expect("while")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        self.expect(";")
        return ast.Loop("do_while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_for(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect("for"))
        self.expect("(")

        enhanced = self._try_parse_for_each_header()
        if enhanced is not None:
            var, iterable = enhanced
            self.expect(")")
            body = self._parse_substatement()
            return ast.Loop("for_each", None, body, kw, self.span_from(start),
                            var=var, iterable=iterable,
                            annotations=annotations, markers=markers)

        init: list[ast.Stmt] = []
        if self.cur.text != ";":
            decl_start = self.cur
            decls = self._try_parse_local_decl(decl_start, (), ())
            if decls is not None:
                init.extend(decls)
            else:
                init.append(self._parse_expr_list_stmt())
                self.expect(";")
        else:
            self.advance()
        cond = None
        if self.cur.text != ";":
            cond = self._parse_expr()
        self.expect(";")
        update: list[ast.Expr] = []
        if self.cur.text != ")":
            update.append(self._parse_expr())
            while self.cur.text == ",":
                self.advance()
                update.append(self._parse_expr())
        self.expect(")")
        body = self._parse_substatement()
        return ast.Loop("for", cond, body, kw, self.span_from(start),
                        init=tuple(init), update=tuple(update),
                        annotations=annotations, markers=markers)

    def _parse_expr_list_stmt(self) -> ast.Stmt:
        start = self.cur
        exprs = [self._parse_expr()]
        while self.cur.text == ",":
            self.advance()
            exprs.append(self._parse_expr())
        span = self.span_from(start)
        if len(exprs) == 1:
            return ast.ExprStmt(exprs[0], span)
        return ast.Block(tuple(ast.ExprStmt(e, e.span) for e in exprs), span)

    def _try_parse_for_each_header(self) -> Optional[tuple[ast.LocalDecl, ast.Expr]]:
        saved = self.pos
        try:
            start = self.cur
            anns = self._parse_variable_modifiers()
            declared = self._parse_local_type()
            name = self.expect_ident("loop variable").text
            if self.cur.text != ":":
                raise _Fail("not an enhanced for", _tok_span(self.cur))
            self.advance()
            iterable = self._parse_expr()
            var = ast.LocalDecl(name, declared, None, self.span_from(start), anns, ())
            return var, iterable
        except _Fail:
            self.pos = saved
            return None

    def _try_parse_local_decl(
        self,
        start: Token,
        annotations: tuple[ast.AnnotationUse, ...],
        markers: tuple[ast.Marker, ...],
    ) -> Optional[list[ast.Stmt]]:
        saved = self.pos
        saved_diags = len(self.diagnostics)
        try:
            annotations += self._parse_variable_modifiers()
            declared = self._parse_local_type()
            if self.cur.kind != _IDENT:
                raise _Fail("not a declaration", _tok_span(self.cur))
            name_tok = self.cur
            if self.peek().text not in ("=", ";", ",", "["):
                raise _Fail("not a declaration", _tok_span(self.cur))
            self.advance()
            names = self._parse_declarators(name_tok.text, "variable name")
            span = self.span_from(start)
            return [
                ast.LocalDecl(nm, declared, iv, span,
                              annotations if i == 0 else (), markers if i == 0 else ())
                for i, (nm, iv) in enumerate(names)
            ]
        except _Fail:
            self.pos = saved
            del self.diagnostics[saved_diags:]
            return None

    def _parse_local_type(self) -> Optional[ast.TypeRef]:
        """The type of a local variable, loop variable or try resource, after
        its modifiers: `var` before a name (None: no type is inferred) or a
        type."""
        if self.cur.text == "var" and self.peek().kind == _IDENT:
            self.advance()
            return None
        return self._parse_type()

    def _parse_switch(self, start, annotations, markers) -> ast.Switch:
        kw = _tok_span(self.expect("switch"))
        self.expect("(")
        scrutinee = self._parse_expr()
        self.expect(")")
        self.expect("{")
        cases: list[ast.SwitchCase] = []
        while self.cur.text != "}" and self.cur.kind != _EOF:
            case_start = self.cur
            labels: list[ast.CaseLabel] = []
            while self.cur.text in ("case", "default"):
                lbl_start = self.cur
                if self.cur.text == "default":
                    self.advance()
                    labels.append(ast.CaseLabel(None, self.span_from(lbl_start)))
                else:
                    self.advance()
                    expr = self._parse_binary()  # no ternary: ':' ends the label
                    while self.cur.text == ",":  # case A, B:
                        self.advance()
                        labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                        lbl_start = self.cur
                        expr = self._parse_binary()
                    labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                if self.cur.text == "->":
                    self.diag("arrow switch case analyzed as labeled case",
                              _tok_span(self.cur))
                    self.advance()
                    break
                self.expect(":")
            if not labels:
                raise _Fail("expected 'case' or 'default'", _tok_span(self.cur))
            stmts: list[ast.Stmt] = []
            while self.cur.text not in ("}", "case", "default") and self.cur.kind != _EOF:
                stmts.extend(self._parse_statement_recovering())
            cases.append(ast.SwitchCase(tuple(labels), tuple(stmts),
                                        self.span_from(case_start)))
        self.expect("}")
        return ast.Switch(scrutinee, tuple(cases), kw, self.span_from(start),
                          annotations, markers)

    def _parse_try(self, start, annotations, markers) -> ast.Try:
        kw = _tok_span(self.expect("try"))
        resources: list[ast.LocalDecl] = []
        if self.cur.text == "(":
            self.advance()
            while self.cur.text != ")" and self.cur.kind != _EOF:
                res_start = self.cur
                anns = self._parse_variable_modifiers()
                declared = self._parse_local_type()
                name = self.expect_ident("resource name").text
                self.expect("=")
                init = self._parse_expr()
                resources.append(
                    ast.LocalDecl(name, declared, init, self.span_from(res_start), anns, ())
                )
                if self.cur.text == ";":
                    self.advance()
                else:
                    break
            self.expect(")")
        body = self._parse_block()
        catches: list[ast.CatchClause] = []
        while self.cur.text == "catch":
            c_start = self.cur
            c_kw = _tok_span(self.advance())
            self.expect("(")
            self._parse_variable_modifiers()
            types = [self._parse_type()]
            while self.cur.text == "|":  # multi-catch: one clause
                self.advance()
                types.append(self._parse_type())
            pname = self.expect_ident("catch parameter").text
            self.expect(")")
            c_body = self._parse_block()
            catches.append(ast.CatchClause(pname, tuple(types), c_body, c_kw,
                                           self.span_from(c_start)))
        finally_block = None
        finally_kw = None
        if self.cur.text == "finally":
            finally_kw = _tok_span(self.advance())
            finally_block = self._parse_block()
        return ast.Try(tuple(resources), body, tuple(catches), finally_block,
                       kw, finally_kw, self.span_from(start), annotations, markers)

    # ── expressions ─────────────────────────────────────────────────────

    def _parse_expr(self) -> ast.Expr:
        """An expression: an assignment, a ternary or a binary chain."""
        start = self.cur
        lhs = self._parse_ternary()
        if self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            value = self._parse_expr()
            return ast.Assign(op, lhs, value, self.span_from(start))
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        start = self.cur
        cond = self._parse_binary()
        if self.cur.text == "?":
            q_span = _tok_span(self.advance())
            then_expr = self._parse_ternary()
            self.expect(":")
            else_expr = self._parse_ternary()
            return ast.Ternary(cond, then_expr, else_expr, q_span, self.span_from(start))
        return cond

    def _parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: a chain of binary operators of level min_prec
        or tighter, left-associative; each node spans from the chain's start."""
        start = self.cur
        lhs = self._parse_unary()
        # after combining at level p only level p or looser may follow, so
        # `x instanceof T - b`, whose type operand is no shift expression,
        # stops at the '-' as the level-by-level grammar does
        ceiling = _TIGHTEST
        while True:
            op, prec = self._binary_op()
            if not min_prec <= prec <= ceiling:
                return lhs
            ceiling = prec
            op_tok = self.advance()
            if op_tok.text == ">":
                for _ in op[1:]:  # the adjacent ">"s of a '>>' or '>>>'
                    self.advance()
            op_span = self.span_from(op_tok)
            if op == "instanceof":
                ty = self._parse_type()
                if self.cur.kind == _IDENT:  # pattern variable (accepted, unused)
                    self.advance()
                rhs = ast.NameRef(ty.qualified_name, ty.span)
            else:
                rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(op, lhs, rhs, op_span, self.span_from(start))

    def _binary_op(self) -> tuple[str, int]:
        """The binary operator at the cursor and its level (0 if none); a
        '>' followed by an adjacent '>' is a shift."""
        t = self.cur
        op = t.text
        if t.text == ">":
            nxt, third = self.peek(), self.peek(2)
            if nxt.text == ">" and t.byte_end == nxt.byte_start:
                adjacent = third.text == ">" and nxt.byte_end == third.byte_start
                op = ">>>" if adjacent else ">>"
        return op, _BINARY_PREC.get(op, 0)

    def _parse_unary(self) -> ast.Expr:
        start = self.cur
        if start.text in _PREFIX_OPS:
            self.advance()
            return ast.Unary(start.text, self._parse_unary(), self.span_from(start))
        if start.text == "(":
            cast = self._try_parse_cast(start)
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _try_parse_cast(self, start: Token) -> Optional[ast.Expr]:
        saved = self.pos
        try:
            self.expect("(")
            ty = self._parse_type()
            self.expect(")")
            t = self.cur
            castable = t.kind == _IDENT or t.kind in _LITERALS or t.text in ("(", "!", "~")
            if castable and t.text != "instanceof":
                inner = self._parse_unary()
                return ast.Cast(ty, inner, self.span_from(start))
            raise _Fail("not a cast", _tok_span(self.cur))
        except _Fail:
            self.pos = saved
            return None

    def _parse_postfix(self) -> ast.Expr:
        start = self.cur
        expr = self._parse_primary()
        while True:
            k = self.cur.text
            if k == ".":
                if self.peek().text == "<":  # obj.<T>call()
                    self.advance()
                    self._skip_generics()
                    name_tok = self.expect_ident("member name")
                elif self.peek().kind == _IDENT:
                    self.advance()
                    name_tok = self.advance()
                else:
                    raise _Fail("expected member name after '.'", _tok_span(self.peek()))
                if self.cur.text == "(":
                    args = self._parse_call_args()
                    expr = ast.Call(expr, name_tok.text, args, self.span_from(start))
                else:
                    expr = ast.FieldAccess(expr, name_tok.text, self.span_from(start))
            elif k == "(" and isinstance(expr, ast.NameRef):
                args = self._parse_call_args()
                expr = ast.Call(None, expr.name, args, self.span_from(start))
            elif k == "[":
                self.advance()
                idx = self._parse_expr()
                self.expect("]")
                expr = ast.IndexAccess(expr, idx, self.span_from(start))
            elif k == "::":
                self.advance()
                if self.cur.kind == _IDENT:  # a method name or `new`
                    name = self.advance().text
                else:
                    raise _Fail("expected method reference name", _tok_span(self.cur))
                expr = ast.MethodRef(expr, name, self.span_from(start))
            elif k in ("++", "--"):
                op = self.advance().text
                expr = ast.Unary(op, expr, self.span_from(start))
            else:
                return expr

    def _parse_call_args(self) -> tuple[ast.Expr, ...]:
        self.expect("(")
        args: list[ast.Expr] = []
        while self.cur.text != ")" and self.cur.kind != _EOF:
            args.append(self._parse_expr())
            if self.cur.text == ",":
                self.advance()
            else:
                break
        self.expect(")")
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        start = self.cur
        if start.kind in _LITERALS or start.text in ("true", "false", "null"):
            self.advance()
            return ast.Literal(start.text, _tok_span(start))

        if start.kind == _IDENT:
            word = start.text
            if word == "new":
                return self._parse_new(start)
            if word == "switch":
                self.diag("switch expression is not analyzed", _tok_span(self.cur))
                self.advance()
                self.expect("(")
                scrutinee = self._parse_expr()
                self.expect(")")
                self._skip_balanced("{", "}")
                return ast.Opaque((scrutinee,), self.span_from(start))
            if self.peek().text == "->":  # single-param lambda
                name = self.advance().text
                self.advance()
                body = self._parse_lambda_body()
                return ast.Lambda((name,), body, self.span_from(start))
            t = self.advance()
            return ast.NameRef(t.text, _tok_span(t))

        if start.text == "(":
            if self._lparen_starts_lambda():
                return self._parse_paren_lambda(start)
            self.advance()
            inner = self._parse_expr()
            self.expect(")")
            return inner

        if start.text == "{":
            return self._parse_initializer_list()

        raise _Fail("expected expression", _tok_span(self.cur))

    def _parse_new(self, start: Token) -> ast.Expr:
        self.expect("new")
        ty = self._parse_type()
        if self.cur.text == "[":
            dims: list[ast.Expr] = []
            while self.cur.text == "[":
                self.advance()
                if self.cur.text != "]":
                    dims.append(self._parse_expr())
                self.expect("]")
            init = None
            if self.cur.text == "{":
                init = self._parse_initializer_list()
            return ast.ArrayNew(ty, tuple(dims), init, self.span_from(start))
        args: tuple[ast.Expr, ...] = ()
        if self.cur.text == "(":
            args = self._parse_call_args()
        if self.cur.text == "{":
            self.diag("anonymous class body is not analyzed", _tok_span(self.cur))
            self._skip_balanced("{", "}")
            return ast.Opaque(args, self.span_from(start))
        return ast.New(ty, args, self.span_from(start))

    def _lparen_starts_lambda(self) -> bool:
        # scan to the matching ')' and check for '->'; the list ends in EOF,
        # so a ')' always has a next token
        depth = 0
        for i in range(self.pos, len(self.toks)):
            k = self.toks[i].text
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return self.toks[i + 1].text == "->"
            elif k in (";", "{"):
                return False
        return False

    def _parse_paren_lambda(self, start: Token) -> ast.Expr:
        self.expect("(")
        params: list[str] = []
        while self.cur.text != ")" and self.cur.kind != _EOF:
            self._parse_variable_modifiers()
            last_name = None
            while self.cur.text not in (",", ")") and self.cur.kind != _EOF:
                if self.cur.kind == _IDENT:
                    last_name = self.cur.text
                if self.cur.text == "<":
                    self._skip_generics()
                else:
                    self.advance()
            if last_name:
                params.append(last_name)
            if self.cur.text == ",":
                self.advance()
        self.expect(")")
        self.expect("->")
        body = self._parse_lambda_body()
        return ast.Lambda(tuple(params), body, self.span_from(start))

    def _parse_lambda_body(self):
        if self.cur.text == "{":
            return self._parse_block()
        return self._parse_expr()

    # ── recovery and skipping ───────────────────────────────────────────

    def _skip_to_semi(self) -> None:
        depth = 0
        while self.cur.kind != _EOF:
            k = self.cur.text
            if k == ";" and depth == 0:
                self.advance()
                return
            if k == "{":
                depth += 1
            elif k == "}":
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def _skip_balanced(self, open_text: str, close_text: str) -> None:
        depth = 0
        while self.cur.kind != _EOF:
            k = self.cur.text
            if k == open_text:
                depth += 1
            elif k == close_text:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _recover_member(self) -> None:
        depth = 0
        while self.cur.kind != _EOF:
            k = self.cur.text
            if k == ";" and depth == 0:
                self.advance()
                return
            if k == "{":
                depth += 1
            elif k == "}":
                if depth == 0:
                    return
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    _recover_statement = _recover_member


def _parse_decimal(text: str) -> Optional[Fraction]:
    t = text.rstrip(_NUMBER_SUFFIXES)
    if not re.fullmatch(r"\d+(?:\.\d+)?", t):
        return None
    return Fraction(t)


def _markers_from_trivia(tok: Token) -> tuple[ast.Marker, ...]:
    markers: list[ast.Marker] = []
    for tr in tok.trivia:  # line comments only
        m = MARKER_COMMENT_RE.match(tr.text)
        if m:
            span = Span(tr.byte_start, tr.byte_end, tr.line, tr.line)
            markers.append(ast.Marker(Fraction(m.group(1)), span))
    return tuple(markers)
