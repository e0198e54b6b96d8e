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

_K = TokenKind

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
# ">>" and ">>>" are written as adjacent GT tokens.
_BINARY_LEVELS = (
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"), ("<<", ">>", ">>>"),
    ("+", "-"), ("*", "/", "%"),
)
_BINARY_PREC = {op: level for level, ops in enumerate(_BINARY_LEVELS, 1) for op in ops}
_TIGHTEST = len(_BINARY_LEVELS)

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
    return Span(t.byte_start, t.byte_end, t.line_start, t.line_end)


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
        if not tokens or tokens[-1].kind != _K.EOF:
            last_line = tokens[-1].line_end if tokens else 1
            tokens = tokens + [Token(_K.EOF, "", n, n, last_line, last_line, ())]
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

    def expect(self, kind: TokenKind, what: str) -> Token:
        if self.cur.kind != kind:
            raise _Fail(f"expected {what}", _tok_span(self.cur))
        return self.advance()

    def at_word(self, text: str) -> bool:
        t = self.cur
        return t.kind == _K.IDENT and t.text == text

    def expect_word(self, text: str) -> Token:
        if not self.at_word(text):
            raise _Fail(f"expected '{text}'", _tok_span(self.cur))
        return self.advance()

    @property
    def prev(self) -> Token:
        return self.toks[self.pos - 1] if self.pos > 0 else self.toks[0]

    def span_from(self, start: Token) -> Span:
        end = self.prev
        return Span(start.byte_start, end.byte_end, start.line_start, end.line_end)

    def diag(self, message: str, span: Span) -> None:
        self.diagnostics.append(ast.Diagnostic(message, span))

    # ── compilation unit ────────────────────────────────────────────────

    def parse(self) -> ast.SourceUnit:
        types: list[ast.TypeDecl] = []
        if self.at_word("package"):
            self._skip_to_semi()
        while self.at_word("import"):
            self._skip_to_semi()
        while self.cur.kind != _K.EOF:
            if self.cur.kind == _K.SEMI:
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
        while self.cur.kind == _K.IDENT and self.cur.text in MODIFIERS:
            self.advance()
        if not (self.cur.kind == _K.IDENT and self.cur.text in _TYPE_KEYWORDS):
            raise _Fail("expected class, interface or enum", _tok_span(self.cur))
        kind = self.advance().text
        name = self.expect(_K.IDENT, "type name").text
        if self.cur.kind == _K.LT:
            self._skip_generics()
        while self.cur.kind != _K.LBRACE and self.cur.kind != _K.EOF:
            self.advance()  # extends / implements clauses are not analyzed
        self.expect(_K.LBRACE, "'{'")

        enum_constants: tuple[ast.EnumConstant, ...] = ()
        if kind == "enum":
            enum_constants = self._parse_enum_constants()

        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        nested: list[ast.TypeDecl] = []
        while self.cur.kind != _K.RBRACE and self.cur.kind != _K.EOF:
            self._parse_member(fields, methods, nested)
        self.expect(_K.RBRACE, "'}'")
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
        while self.cur.kind not in (_K.SEMI, _K.RBRACE, _K.EOF):
            self._parse_annotations()
            start = self.cur
            if self.cur.kind != _K.IDENT:
                break
            name = self.advance().text
            args: tuple[ast.Expr, ...] = ()
            if self.cur.kind == _K.LPAREN:
                args = self._parse_call_args()
            if self.cur.kind == _K.LBRACE:
                self.diag("enum constant body is not analyzed", _tok_span(self.cur))
                self._skip_balanced(_K.LBRACE, _K.RBRACE)
            constants.append(ast.EnumConstant(name, args, self.span_from(start)))
            if self.cur.kind == _K.COMMA:
                self.advance()
            else:
                break
        if self.cur.kind == _K.SEMI:
            self.advance()
        return tuple(constants)

    # ── members ─────────────────────────────────────────────────────────

    def _parse_member(
        self,
        fields: list[ast.FieldDecl],
        methods: list[ast.MethodDecl],
        nested: list[ast.TypeDecl],
    ) -> None:
        if self.cur.kind == _K.SEMI:
            self.advance()
            return
        start = self.cur
        try:
            annotations = self._parse_annotations()
            if self.cur.kind == _K.IDENT and self.cur.text in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            while self.cur.kind == _K.IDENT and self.cur.text in MODIFIERS:
                self.advance()
                annotations += self._parse_annotations()  # interleaved @Anno
            if self.cur.kind == _K.IDENT and self.cur.text in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            if self.cur.kind == _K.LBRACE:
                self.diag("initializer block is not analyzed", _tok_span(self.cur))
                self._skip_balanced(_K.LBRACE, _K.RBRACE)
                return
            if self.cur.kind == _K.LT:
                self._skip_generics()  # generic method type parameters
            if (
                self.cur.kind == _K.IDENT
                and self.peek().kind == _K.LPAREN
                and self.cur.text not in _NON_TYPE_WORDS
            ):
                methods.append(self._parse_method(start, annotations, None))
                return
            return_type: Optional[ast.TypeRef] = None
            if self.at_word("void"):
                self.advance()
            else:
                return_type = self._parse_type()
            name_tok = self.expect(_K.IDENT, "member name")
            if self.cur.kind == _K.LPAREN:
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
            name_tok = self.expect(_K.IDENT, "constructor name")
        params = self._parse_params()
        if self.at_word("throws"):
            self.advance()
            while self.cur.kind not in (_K.LBRACE, _K.SEMI, _K.EOF):
                self.advance()
        body: Optional[ast.Block] = None
        if self.cur.kind == _K.LBRACE:
            body = self._parse_block()
        else:
            self.expect(_K.SEMI, "method body or ';'")
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
        self.expect(_K.LPAREN, "'('")
        params: list[ast.Param] = []
        while self.cur.kind != _K.RPAREN and self.cur.kind != _K.EOF:
            start = self.cur
            anns = self._parse_annotations()
            if self.at_word("final"):
                self.advance()
                anns += self._parse_annotations()
            ptype = self._parse_type()
            if self.cur.kind == _K.ELLIPSIS:
                self.advance()  # varargs behave like the element type
            name = self.expect(_K.IDENT, "parameter name").text
            self._skip_array_suffix()
            params.append(ast.Param(name, ptype, anns, self.span_from(start)))
            if self.cur.kind == _K.COMMA:
                self.advance()
            else:
                break
        self.expect(_K.RPAREN, "')'")
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
            if self.cur.kind == _K.ASSIGN:
                self.advance()
                init = self._parse_initializer_value()
            names.append((name, init))
            if self.cur.kind != _K.COMMA:
                break
            self.advance()
            name = self.expect(_K.IDENT, what).text
        self.expect(_K.SEMI, "';'")
        return names

    def _parse_initializer_value(self) -> ast.Expr:
        if self.cur.kind == _K.LBRACE:
            return self._parse_initializer_list()
        return self._parse_expr()

    def _parse_initializer_list(self) -> ast.Expr:
        start = self.cur
        self.expect(_K.LBRACE, "'{'")
        items: list[ast.Expr] = []
        while self.cur.kind != _K.RBRACE and self.cur.kind != _K.EOF:
            items.append(self._parse_initializer_value())
            if self.cur.kind == _K.COMMA:
                self.advance()
            else:
                break
        self.expect(_K.RBRACE, "'}'")
        return ast.InitializerList(tuple(items), self.span_from(start))

    # ── annotations and types ───────────────────────────────────────────

    def _parse_annotations(self) -> tuple[ast.AnnotationUse, ...]:
        uses: list[ast.AnnotationUse] = []
        while self.cur.kind == _K.AT:
            start = self.advance()
            name = self.expect(_K.IDENT, "annotation name").text
            while self.cur.kind == _K.DOT and self.peek().kind == _K.IDENT:
                self.advance()
                name += "." + self.advance().text
            numeric: Optional[Fraction] = None
            if self.cur.kind == _K.LPAREN:
                if (
                    self.peek().kind == _K.NUMBER
                    and self.peek(2).kind == _K.RPAREN
                ):
                    self.advance()
                    # stays None for non-decimal literals such as hex
                    numeric = _parse_decimal(self.advance().text)
                    self.advance()
                else:
                    self._skip_balanced(_K.LPAREN, _K.RPAREN)
            uses.append(ast.AnnotationUse(name, numeric, self.span_from(start)))
        return tuple(uses)

    def _parse_type(self) -> ast.TypeRef:
        start = self.cur
        if self.cur.kind != _K.IDENT or self.cur.text in _NON_TYPE_WORDS:
            raise _Fail("expected type", _tok_span(self.cur))
        name = self.advance().text
        if name not in PRIMITIVES:
            while (
                self.cur.kind == _K.DOT
                and self.peek().kind == _K.IDENT
                and self.peek().text not in _NON_TYPE_WORDS
            ):
                self.advance()
                name += "." + self.advance().text
        args: tuple[ast.TypeRef, ...] = ()
        if self.cur.kind == _K.LT:
            args = self._parse_type_args()
        self._skip_array_suffix()
        return ast.TypeRef(name, args, self.span_from(start))

    def _parse_type_args(self) -> tuple[ast.TypeRef, ...]:
        self.expect(_K.LT, "'<'")
        args: list[ast.TypeRef] = []
        if self.cur.kind == _K.GT:  # diamond
            self.advance()
            return ()
        while True:
            if self.cur.kind == _K.QUESTION:  # wildcard, accepted and ignored
                self.advance()
                if self.at_word("extends") or self.at_word("super"):
                    self.advance()
                    args.append(self._parse_type())
            else:
                args.append(self._parse_type())
            if self.cur.kind == _K.COMMA:
                self.advance()
                continue
            self.expect(_K.GT, "'>'")
            return tuple(args)

    def _skip_array_suffix(self) -> None:
        while self.cur.kind == _K.LBRACKET and self.peek().kind == _K.RBRACKET:
            self.advance()
            self.advance()

    def _skip_generics(self) -> None:
        depth = 0
        while self.cur.kind != _K.EOF:
            k = self.cur.kind
            if k == _K.LT:
                depth += 1
            elif k == _K.GT:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            elif k in (_K.LBRACE, _K.RBRACE, _K.SEMI):
                return  # malformed; bail without consuming
            self.advance()

    # ── statements ──────────────────────────────────────────────────────

    def _parse_block(self) -> ast.Block:
        start = self.cur
        self.expect(_K.LBRACE, "'{'")
        stmts: list[ast.Stmt] = []
        while self.cur.kind != _K.RBRACE and self.cur.kind != _K.EOF:
            stmts.extend(self._parse_statement_recovering())
        self.expect(_K.RBRACE, "'}'")
        return ast.Block(tuple(stmts), self.span_from(start))

    def _parse_statement_recovering(self) -> list[ast.Stmt]:
        start = self.cur
        start_pos = self.pos
        try:
            return self._parse_statement()
        except _Fail as exc:
            self.diag(exc.message, exc.span)
            self._recover_statement()
            span = self.span_from(start) if self.pos > start_pos else _tok_span(start)
            return [ast.ExprStmt(ast.Opaque((), span), span)]

    def _parse_statement(self) -> list[ast.Stmt]:
        start = self.cur
        markers = _markers_from_trivia(start)
        annotations = self._parse_annotations()

        if self.cur.kind == _K.SEMI:
            self.advance()
            return [ast.Block((), self.span_from(start), annotations, markers)]
        if self.cur.kind == _K.LBRACE:
            block = self._parse_block()
            return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]

        if self.cur.kind == _K.IDENT:
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
                if self.cur.kind != _K.SEMI:
                    expr = self._parse_expr()
                self.expect(_K.SEMI, "';'")
                return [ast.Return(expr, self.span_from(start), annotations, markers)]
            if word == "throw":
                self.advance()
                expr = self._parse_expr()
                self.expect(_K.SEMI, "';'")
                return [ast.Throw(expr, self.span_from(start), annotations, markers)]
            if word in ("break", "continue"):
                self.advance()
                if self.cur.kind == _K.IDENT:  # label
                    self.advance()
                self.expect(_K.SEMI, "';'")
                return [ast.Jump(word, self.span_from(start), annotations, markers)]
            if word == "synchronized" and self.peek().kind == _K.LPAREN:
                self.diag("synchronized statement is analyzed as a plain block",
                          _tok_span(self.cur))
                self.advance()
                self.expect(_K.LPAREN, "'('")
                self._parse_expr()
                self.expect(_K.RPAREN, "')'")
                block = self._parse_block()
                return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]
            if word in ("assert", "yield"):
                self.diag(f"{word} statement is not analyzed", _tok_span(self.cur))
                self._skip_to_semi()
                span = self.span_from(start)
                return [ast.ExprStmt(ast.Opaque((), span), span, annotations, markers)]
            if self.peek().kind == _K.COLON and word not in ("case", "default"):
                self.diag("labeled statement: label ignored", _tok_span(self.cur))
                self.advance()
                self.advance()
                return self._parse_statement()

        decls = self._try_parse_local_decl(start, annotations, markers)
        if decls is not None:
            return decls

        expr = self._parse_expr()
        self.expect(_K.SEMI, "';'")
        return [ast.ExprStmt(expr, self.span_from(start), annotations, markers)]

    def _parse_if(self, start, annotations, markers) -> ast.If:
        if_kw = _tok_span(self.expect_word("if"))
        self.expect(_K.LPAREN, "'('")
        cond = self._parse_expr()
        self.expect(_K.RPAREN, "')'")
        then = self._parse_substatement()
        else_kw = None
        else_branch = None
        if self.at_word("else"):
            else_kw = _tok_span(self.advance())
            else_branch = self._parse_substatement()
        return ast.If(cond, then, else_branch, if_kw, else_kw,
                      self.span_from(start), annotations, markers)

    def _parse_substatement(self) -> ast.Stmt:
        stmts = self._parse_statement_recovering()
        if len(stmts) == 1:
            return stmts[0]
        # multi-declarator local statement as a loop/if body: wrap
        span = Span(stmts[0].span.byte_start, stmts[-1].span.byte_end,
                    stmts[0].span.line_start, stmts[-1].span.line_end)
        return ast.Block(tuple(stmts), span)

    def _parse_while(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect_word("while"))
        self.expect(_K.LPAREN, "'('")
        cond = self._parse_expr()
        self.expect(_K.RPAREN, "')'")
        body = self._parse_substatement()
        return ast.Loop("while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_do_while(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect_word("do"))
        body = self._parse_substatement()
        self.expect_word("while")
        self.expect(_K.LPAREN, "'('")
        cond = self._parse_expr()
        self.expect(_K.RPAREN, "')'")
        self.expect(_K.SEMI, "';'")
        return ast.Loop("do_while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_for(self, start, annotations, markers) -> ast.Loop:
        kw = _tok_span(self.expect_word("for"))
        self.expect(_K.LPAREN, "'('")

        enhanced = self._try_parse_for_each_header()
        if enhanced is not None:
            var, iterable = enhanced
            self.expect(_K.RPAREN, "')'")
            body = self._parse_substatement()
            return ast.Loop("for_each", None, body, kw, self.span_from(start),
                            var=var, iterable=iterable,
                            annotations=annotations, markers=markers)

        init: list[ast.Stmt] = []
        if self.cur.kind != _K.SEMI:
            decl_start = self.cur
            decls = self._try_parse_local_decl(decl_start, (), ())
            if decls is not None:
                init.extend(decls)
            else:
                init.append(self._parse_expr_list_stmt())
                self.expect(_K.SEMI, "';'")
        else:
            self.advance()
        cond = None
        if self.cur.kind != _K.SEMI:
            cond = self._parse_expr()
        self.expect(_K.SEMI, "';'")
        update: list[ast.Expr] = []
        if self.cur.kind != _K.RPAREN:
            update.append(self._parse_expr())
            while self.cur.kind == _K.COMMA:
                self.advance()
                update.append(self._parse_expr())
        self.expect(_K.RPAREN, "')'")
        body = self._parse_substatement()
        return ast.Loop("for", cond, body, kw, self.span_from(start),
                        init=tuple(init), update=tuple(update),
                        annotations=annotations, markers=markers)

    def _parse_expr_list_stmt(self) -> ast.Stmt:
        start = self.cur
        exprs = [self._parse_expr()]
        while self.cur.kind == _K.COMMA:
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
            anns = self._parse_annotations()
            declared = self._parse_local_type()
            name = self.expect(_K.IDENT, "loop variable").text
            if self.cur.kind != _K.COLON:
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
            declared = self._parse_local_type()
            if self.cur.kind != _K.IDENT:
                raise _Fail("not a declaration", _tok_span(self.cur))
            name_tok = self.cur
            after = self.peek().kind
            if after not in (_K.ASSIGN, _K.SEMI, _K.COMMA, _K.LBRACKET):
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
        """The head of a local variable, loop variable or try resource: an
        optional `final`, then `var` before a name (None: no type is
        inferred) or a type."""
        if self.at_word("final"):
            self.advance()
        if self.at_word("var") and self.peek().kind == _K.IDENT:
            self.advance()
            return None
        return self._parse_type()

    def _parse_switch(self, start, annotations, markers) -> ast.Switch:
        kw = _tok_span(self.expect_word("switch"))
        self.expect(_K.LPAREN, "'('")
        scrutinee = self._parse_expr()
        self.expect(_K.RPAREN, "')'")
        self.expect(_K.LBRACE, "'{'")
        cases: list[ast.SwitchCase] = []
        while self.cur.kind != _K.RBRACE and self.cur.kind != _K.EOF:
            case_start = self.cur
            labels: list[ast.CaseLabel] = []
            while self.at_word("case") or self.at_word("default"):
                lbl_start = self.cur
                if self.at_word("default"):
                    self.advance()
                    labels.append(ast.CaseLabel(None, self.span_from(lbl_start)))
                else:
                    self.advance()
                    expr = self._parse_ternary_free_expr()
                    while self.cur.kind == _K.COMMA:  # case A, B:
                        self.advance()
                        labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                        lbl_start = self.cur
                        expr = self._parse_ternary_free_expr()
                    labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                if self.cur.kind == _K.ARROW:
                    self.diag("arrow switch case analyzed as labeled case",
                              _tok_span(self.cur))
                    self.advance()
                    break
                self.expect(_K.COLON, "':'")
            if not labels:
                raise _Fail("expected 'case' or 'default'", _tok_span(self.cur))
            stmts: list[ast.Stmt] = []
            while (
                self.cur.kind not in (_K.RBRACE, _K.EOF)
                and not self.at_word("case")
                and not self.at_word("default")
            ):
                stmts.extend(self._parse_statement_recovering())
            cases.append(ast.SwitchCase(tuple(labels), tuple(stmts),
                                        self.span_from(case_start)))
        self.expect(_K.RBRACE, "'}'")
        return ast.Switch(scrutinee, tuple(cases), kw, self.span_from(start),
                          annotations, markers)

    def _parse_try(self, start, annotations, markers) -> ast.Try:
        kw = _tok_span(self.expect_word("try"))
        resources: list[ast.LocalDecl] = []
        if self.cur.kind == _K.LPAREN:
            self.advance()
            while self.cur.kind != _K.RPAREN and self.cur.kind != _K.EOF:
                res_start = self.cur
                anns = self._parse_annotations()
                declared = self._parse_local_type()
                name = self.expect(_K.IDENT, "resource name").text
                self.expect(_K.ASSIGN, "'='")
                init = self._parse_expr()
                resources.append(
                    ast.LocalDecl(name, declared, init, self.span_from(res_start), anns, ())
                )
                if self.cur.kind == _K.SEMI:
                    self.advance()
                else:
                    break
            self.expect(_K.RPAREN, "')'")
        body = self._parse_block()
        catches: list[ast.CatchClause] = []
        while self.at_word("catch"):
            c_start = self.cur
            c_kw = _tok_span(self.advance())
            self.expect(_K.LPAREN, "'('")
            self._parse_annotations()
            if self.at_word("final"):
                self.advance()
            types = [self._parse_type()]
            while self.cur.kind == _K.BAR:  # multi-catch: one clause
                self.advance()
                types.append(self._parse_type())
            pname = self.expect(_K.IDENT, "catch parameter").text
            self.expect(_K.RPAREN, "')'")
            c_body = self._parse_block()
            catches.append(ast.CatchClause(pname, tuple(types), c_body, c_kw,
                                           self.span_from(c_start)))
        finally_block = None
        finally_kw = None
        if self.at_word("finally"):
            finally_kw = _tok_span(self.advance())
            finally_block = self._parse_block()
        return ast.Try(tuple(resources), body, tuple(catches), finally_block,
                       kw, finally_kw, self.span_from(start), annotations, markers)

    # ── expressions ─────────────────────────────────────────────────────

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_ternary_free_expr(self) -> ast.Expr:
        return self._parse_binary()

    def _parse_assignment(self) -> ast.Expr:
        start = self.cur
        lhs = self._parse_ternary()
        k = self.cur.kind
        if k in (_K.ASSIGN, _K.PLUS_ASSIGN, _K.MINUS_ASSIGN, _K.STAR_ASSIGN,
                 _K.SLASH_ASSIGN, _K.PERCENT_ASSIGN, _K.AMP_ASSIGN, _K.BAR_ASSIGN,
                 _K.CARET_ASSIGN, _K.SHL_ASSIGN, _K.SHR_ASSIGN, _K.USHR_ASSIGN):
            op = self.advance().text
            value = self._parse_assignment()
            return ast.Assign(op, lhs, value, self.span_from(start))
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        start = self.cur
        cond = self._parse_binary()
        if self.cur.kind == _K.QUESTION:
            q_span = _tok_span(self.advance())
            then_expr = self._parse_ternary()
            self.expect(_K.COLON, "':'")
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
            if op_tok.kind == _K.GT:
                for _ in op[1:]:  # the adjacent GTs of a '>>' or '>>>'
                    self.advance()
            op_span = self.span_from(op_tok)
            if op == "instanceof":
                ty = self._parse_type()
                if self.cur.kind == _K.IDENT:  # pattern variable (accepted, unused)
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
        if t.kind == _K.GT:
            nxt, third = self.peek(), self.peek(2)
            if nxt.kind == _K.GT and t.byte_end == nxt.byte_start:
                adjacent = third.kind == _K.GT and nxt.byte_end == third.byte_start
                op = ">>>" if adjacent else ">>"
        return op, _BINARY_PREC.get(op, 0)

    def _parse_unary(self) -> ast.Expr:
        start = self.cur
        k = self.cur.kind
        if k in (_K.NOT, _K.PLUS, _K.MINUS, _K.TILDE, _K.PLUSPLUS, _K.MINUSMINUS):
            op = self.advance().text
            return ast.Unary(op, self._parse_unary(), self.span_from(start))
        if k == _K.LPAREN:
            cast = self._try_parse_cast(start)
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _try_parse_cast(self, start: Token) -> Optional[ast.Expr]:
        saved = self.pos
        try:
            self.expect(_K.LPAREN, "'('")
            ty = self._parse_type()
            self.expect(_K.RPAREN, "')'")
            k = self.cur.kind
            castable = k in (_K.IDENT, _K.NUMBER, _K.STRING, _K.CHAR, _K.LPAREN,
                             _K.NOT, _K.TILDE)
            if castable and not (self.cur.kind == _K.IDENT
                                 and self.cur.text == "instanceof"):
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
            k = self.cur.kind
            if k == _K.DOT:
                if self.peek().kind == _K.LT:  # obj.<T>call()
                    self.advance()
                    self._skip_generics()
                    name_tok = self.expect(_K.IDENT, "member name")
                elif self.peek().kind == _K.IDENT:
                    self.advance()
                    name_tok = self.advance()
                else:
                    raise _Fail("expected member name after '.'", _tok_span(self.peek()))
                if self.cur.kind == _K.LPAREN:
                    args = self._parse_call_args()
                    expr = ast.Call(expr, name_tok.text, args, self.span_from(start))
                else:
                    expr = ast.FieldAccess(expr, name_tok.text, self.span_from(start))
            elif k == _K.LPAREN and isinstance(expr, ast.NameRef):
                args = self._parse_call_args()
                expr = ast.Call(None, expr.name, args, self.span_from(start))
            elif k == _K.LBRACKET:
                self.advance()
                idx = self._parse_expr()
                self.expect(_K.RBRACKET, "']'")
                expr = ast.IndexAccess(expr, idx, self.span_from(start))
            elif k == _K.COLONCOLON:
                self.advance()
                if self.at_word("new") or self.cur.kind == _K.IDENT:
                    name = self.advance().text
                else:
                    raise _Fail("expected method reference name", _tok_span(self.cur))
                expr = ast.MethodRef(expr, name, self.span_from(start))
            elif k in (_K.PLUSPLUS, _K.MINUSMINUS):
                op = self.advance().text
                expr = ast.Unary(op, expr, self.span_from(start))
            else:
                return expr

    def _parse_call_args(self) -> tuple[ast.Expr, ...]:
        self.expect(_K.LPAREN, "'('")
        args: list[ast.Expr] = []
        while self.cur.kind != _K.RPAREN and self.cur.kind != _K.EOF:
            args.append(self._parse_expr())
            if self.cur.kind == _K.COMMA:
                self.advance()
            else:
                break
        self.expect(_K.RPAREN, "')'")
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        start = self.cur
        k = self.cur.kind

        if k in (_K.NUMBER, _K.STRING, _K.CHAR) or (
                k == _K.IDENT and self.cur.text in ("true", "false", "null")):
            t = self.advance()
            return ast.Literal(t.text, _tok_span(t))

        if k == _K.IDENT:
            word = self.cur.text
            if word == "new":
                return self._parse_new(start)
            if word == "switch":
                self.diag("switch expression is not analyzed", _tok_span(self.cur))
                self.advance()
                self.expect(_K.LPAREN, "'('")
                scrutinee = self._parse_expr()
                self.expect(_K.RPAREN, "')'")
                self._skip_balanced(_K.LBRACE, _K.RBRACE)
                return ast.Opaque((scrutinee,), self.span_from(start))
            if self.peek().kind == _K.ARROW:  # single-param lambda
                name = self.advance().text
                self.advance()
                body = self._parse_lambda_body()
                return ast.Lambda((name,), body, self.span_from(start))
            t = self.advance()
            return ast.NameRef(t.text, _tok_span(t))

        if k == _K.LPAREN:
            if self._lparen_starts_lambda():
                return self._parse_paren_lambda(start)
            self.advance()
            inner = self._parse_expr()
            self.expect(_K.RPAREN, "')'")
            return inner

        if k == _K.LBRACE:
            return self._parse_initializer_list()

        raise _Fail("expected expression", _tok_span(self.cur))

    def _parse_new(self, start: Token) -> ast.Expr:
        self.expect_word("new")
        ty = self._parse_type()
        if self.cur.kind == _K.LBRACKET:
            dims: list[ast.Expr] = []
            while self.cur.kind == _K.LBRACKET:
                self.advance()
                if self.cur.kind != _K.RBRACKET:
                    dims.append(self._parse_expr())
                self.expect(_K.RBRACKET, "']'")
            init = None
            if self.cur.kind == _K.LBRACE:
                init = self._parse_initializer_list()
            return ast.ArrayNew(ty, tuple(dims), init, self.span_from(start))
        args: tuple[ast.Expr, ...] = ()
        if self.cur.kind == _K.LPAREN:
            args = self._parse_call_args()
        if self.cur.kind == _K.LBRACE:
            self.diag("anonymous class body is not analyzed", _tok_span(self.cur))
            self._skip_balanced(_K.LBRACE, _K.RBRACE)
            return ast.Opaque(args, self.span_from(start))
        return ast.New(ty, args, self.span_from(start))

    def _lparen_starts_lambda(self) -> bool:
        # scan to the matching ')' and check for '->'
        depth = 0
        i = self.pos
        while i < len(self.toks):
            k = self.toks[i].kind
            if k == _K.LPAREN:
                depth += 1
            elif k == _K.RPAREN:
                depth -= 1
                if depth == 0:
                    nxt = self.toks[i + 1] if i + 1 < len(self.toks) else None
                    return nxt is not None and nxt.kind == _K.ARROW
            elif k in (_K.SEMI, _K.LBRACE, _K.EOF):
                return False
            i += 1
        return False

    def _parse_paren_lambda(self, start: Token) -> ast.Expr:
        self.expect(_K.LPAREN, "'('")
        params: list[str] = []
        while self.cur.kind != _K.RPAREN and self.cur.kind != _K.EOF:
            self._parse_annotations()
            if self.at_word("final"):
                self.advance()
            last_name = None
            while self.cur.kind not in (_K.COMMA, _K.RPAREN, _K.EOF):
                if self.cur.kind == _K.IDENT:
                    last_name = self.cur.text
                if self.cur.kind == _K.LT:
                    self._skip_generics()
                else:
                    self.advance()
            if last_name:
                params.append(last_name)
            if self.cur.kind == _K.COMMA:
                self.advance()
        self.expect(_K.RPAREN, "')'")
        self.expect(_K.ARROW, "'->'")
        body = self._parse_lambda_body()
        return ast.Lambda(tuple(params), body, self.span_from(start))

    def _parse_lambda_body(self):
        if self.cur.kind == _K.LBRACE:
            return self._parse_block()
        return self._parse_assignment()

    # ── recovery and skipping ───────────────────────────────────────────

    def _skip_to_semi(self) -> None:
        depth = 0
        while self.cur.kind != _K.EOF:
            k = self.cur.kind
            if k == _K.SEMI and depth == 0:
                self.advance()
                return
            if k == _K.LBRACE:
                depth += 1
            elif k == _K.RBRACE:
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def _skip_balanced(self, open_kind: TokenKind, close_kind: TokenKind) -> None:
        depth = 0
        while self.cur.kind != _K.EOF:
            k = self.cur.kind
            if k == open_kind:
                depth += 1
            elif k == close_kind:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _recover_member(self) -> None:
        depth = 0
        while self.cur.kind != _K.EOF:
            k = self.cur.kind
            if k == _K.SEMI and depth == 0:
                self.advance()
                return
            if k == _K.LBRACE:
                depth += 1
            elif k == _K.RBRACE:
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
            span = Span(tr.byte_start, tr.byte_end, tr.line_start, tr.line_end)
            markers.append(ast.Marker(Fraction(m.group(1)), span))
    return tuple(markers)
