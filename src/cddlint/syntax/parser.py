"""Recursive-descent parser for the analyzed Java subset.

Produces a spanned SourceUnit suitable for ICP counting, annotation
extraction and line accounting. Error tolerance is member-level: an
unparseable statement becomes an Opaque expression, an unparseable member is
skipped, both with a recorded Diagnostic; an unparseable type header raises
ParseError.

Tokens are read by index from the scanner's TokenStream: ``_Parser.pos`` is
the number of the current token, and spans are built from its lists.

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
from .tokens import InvalidCharacter, TokenKind, TokenStream

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
    """Lookahead needs no bounds check, as the stream's lists run two EOF
    entries past its last token; ``advance`` is only called on a token its
    caller has tested, so never on EOF."""

    def __init__(self, tokens: TokenStream, data: bytes, path: str):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.lines = tokens.lines
        self.comments = tokens.comments
        self.pos = 0
        self.data = data
        self.path = path
        self.diagnostics: list[ast.Diagnostic] = []

    # ── token access ────────────────────────────────────────────────────

    def advance(self) -> int:
        i = self.pos
        self.pos = i + 1
        return i

    def expect(self, text: str, what: str = "") -> int:
        """Consume the token spelled `text`, a word or a punctuation mark."""
        if self.texts[self.pos] != text:
            raise _Fail(f"expected {what or repr(text)}", self.tok_span(self.pos))
        return self.advance()

    def expect_ident(self, what: str) -> int:
        if self.kinds[self.pos] != _IDENT:
            raise _Fail(f"expected {what}", self.tok_span(self.pos))
        return self.advance()

    def tok_span(self, i: int) -> Span:
        line = self.lines[i]
        return Span(self.starts[i], self.ends[i], line, line)

    def span_from(self, start: int) -> Span:
        """From token `start` through the last token consumed."""
        end = self.pos - 1 if self.pos else 0
        return Span(self.starts[start], self.ends[end], self.lines[start], self.lines[end])

    def markers_before(self, i: int) -> tuple[ast.Marker, ...]:
        """The `// @ICP(n)` marker comments before token i."""
        markers: list[ast.Marker] = []
        for text, start, end, line in self.comments.get(i, ()):
            m = MARKER_COMMENT_RE.match(text)
            if m:
                markers.append(ast.Marker(Fraction(m.group(1)), Span(start, end, line, line)))
        return tuple(markers)

    def diag(self, message: str, span: Span) -> None:
        self.diagnostics.append(ast.Diagnostic(message, span))

    # ── compilation unit ────────────────────────────────────────────────

    def parse(self) -> ast.SourceUnit:
        types: list[ast.TypeDecl] = []
        if self.texts[self.pos] == "package":
            self._skip_to_semi()
        while self.texts[self.pos] == "import":
            self._skip_to_semi()
        while self.kinds[self.pos] != _EOF:
            if self.texts[self.pos] == ";":
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
        start: Optional[int] = None,
        annotations: Optional[tuple[ast.AnnotationUse, ...]] = None,
    ) -> ast.TypeDecl:
        if start is None:
            start = self.pos
            annotations = self._parse_annotations()
        header_tok = self.pos
        while self.texts[self.pos] in MODIFIERS:
            self.advance()
        if self.texts[self.pos] not in _TYPE_KEYWORDS:
            raise _Fail("expected class, interface or enum", self.tok_span(self.pos))
        kind = self.texts[self.advance()]
        name = self.texts[self.expect_ident("type name")]
        if self.texts[self.pos] == "<":
            self._skip_generics()
        while self.texts[self.pos] != "{" and self.kinds[self.pos] != _EOF:
            self.advance()  # extends / implements clauses are not analyzed
        self.expect("{")

        enum_constants: tuple[ast.EnumConstant, ...] = ()
        if kind == "enum":
            enum_constants = self._parse_enum_constants()

        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        nested: list[ast.TypeDecl] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
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
            header_start=self.starts[header_tok],
            enum_constants=enum_constants,
        )

    def _parse_enum_constants(self) -> tuple[ast.EnumConstant, ...]:
        constants: list[ast.EnumConstant] = []
        while self.texts[self.pos] not in (";", "}") and self.kinds[self.pos] != _EOF:
            self._parse_annotations()
            start = self.pos
            if self.kinds[self.pos] != _IDENT:
                break
            name = self.texts[self.advance()]
            args: tuple[ast.Expr, ...] = ()
            if self.texts[self.pos] == "(":
                args = self._parse_call_args()
            if self.texts[self.pos] == "{":
                self.diag("enum constant body is not analyzed", self.tok_span(self.pos))
                self._skip_balanced("{", "}")
            constants.append(ast.EnumConstant(name, args, self.span_from(start)))
            if self.texts[self.pos] == ",":
                self.advance()
            else:
                break
        if self.texts[self.pos] == ";":
            self.advance()
        return tuple(constants)

    # ── members ─────────────────────────────────────────────────────────

    def _parse_member(
        self,
        fields: list[ast.FieldDecl],
        methods: list[ast.MethodDecl],
        nested: list[ast.TypeDecl],
    ) -> None:
        if self.texts[self.pos] == ";":
            self.advance()
            return
        start = self.pos
        try:
            annotations = self._parse_annotations()
            if self.texts[self.pos] in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            while self.texts[self.pos] in MODIFIERS:
                self.advance()
                annotations += self._parse_annotations()  # interleaved @Anno
            if self.texts[self.pos] in _TYPE_KEYWORDS:
                nested.append(self._parse_type_decl_hard(start, annotations))
                return
            if self.texts[self.pos] == "{":
                self.diag("initializer block is not analyzed", self.tok_span(self.pos))
                self._skip_balanced("{", "}")
                return
            if self.texts[self.pos] == "<":
                self._skip_generics()  # generic method type parameters
            i = self.pos
            if (self.kinds[i] == _IDENT and self.texts[i + 1] == "("
                    and self.texts[i] not in _NON_TYPE_WORDS):
                methods.append(self._parse_method(start, annotations, None))
                return
            return_type: Optional[ast.TypeRef] = None
            if self.texts[self.pos] == "void":
                self.advance()
            else:
                return_type = self._parse_type()
            name_tok = self.expect_ident("member name")
            if self.texts[self.pos] == "(":
                methods.append(self._parse_method(start, annotations, return_type, name_tok))
            else:
                if return_type is None:
                    raise _Fail("field cannot be void", self.tok_span(name_tok))
                names = self._parse_declarators(self.texts[name_tok], "field name")
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
        start: int,
        annotations: tuple[ast.AnnotationUse, ...],
        return_type: Optional[ast.TypeRef],
        name_tok: Optional[int] = None,
    ) -> ast.MethodDecl:
        if name_tok is None:
            name_tok = self.expect_ident("constructor name")
        params = self._parse_params()
        if self.texts[self.pos] == "throws":
            self.advance()
            while self.texts[self.pos] not in ("{", ";") and self.kinds[self.pos] != _EOF:
                self.advance()
        body: Optional[ast.Block] = None
        if self.texts[self.pos] == "{":
            body = self._parse_block()
        else:
            self.expect(";", "method body or ';'")
        body_lines = 0
        if body is not None:
            body_lines = body.span.line_end - body.span.line_start + 1
        return ast.MethodDecl(
            name=self.texts[name_tok],
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
        while self.texts[self.pos] != ")" and self.kinds[self.pos] != _EOF:
            start = self.pos
            anns = self._parse_variable_modifiers()
            ptype = self._parse_type()
            if self._at_annotated("..."):
                self.advance()  # varargs behave like the element type
            name = self.texts[self.expect_ident("parameter name")]
            self._skip_array_suffix()
            params.append(ast.Param(name, ptype, anns, self.span_from(start)))
            if self.texts[self.pos] == ",":
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
            if self.texts[self.pos] == "=":
                self.advance()
                init = self._parse_initializer_value()
            names.append((name, init))
            if self.texts[self.pos] != ",":
                break
            self.advance()
            name = self.texts[self.expect_ident(what)]
        self.expect(";")
        return names

    def _parse_initializer_value(self) -> ast.Expr:
        if self.texts[self.pos] == "{":
            return self._parse_initializer_list()
        return self._parse_expr()

    def _parse_initializer_list(self) -> ast.Expr:
        start = self.pos
        self.expect("{")
        items: list[ast.Expr] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            items.append(self._parse_initializer_value())
            if self.texts[self.pos] == ",":
                self.advance()
            else:
                break
        self.expect("}")
        return ast.InitializerList(tuple(items), self.span_from(start))

    # ── annotations and types ───────────────────────────────────────────

    def _parse_annotations(self) -> tuple[ast.AnnotationUse, ...]:
        uses: list[ast.AnnotationUse] = []
        while self.texts[self.pos] == "@":
            start = self.advance()
            name = self.texts[self.expect_ident("annotation name")]
            while self.texts[self.pos] == "." and self.kinds[self.pos + 1] == _IDENT:
                self.advance()
                name += "." + self.texts[self.advance()]
            numeric: Optional[Fraction] = None
            texts, i = self.texts, self.pos
            if texts[i] == "(" and self.kinds[i + 1] == _NUMBER and texts[i + 2] == ")":
                # stays None for non-decimal literals such as hex
                numeric = _parse_decimal(texts[i + 1])
                self.pos = i + 3
            elif texts[i] == "(":
                self._skip_balanced("(", ")")
            uses.append(ast.AnnotationUse(name, numeric, self.span_from(start)))
        return tuple(uses)

    def _parse_variable_modifiers(self) -> tuple[ast.AnnotationUse, ...]:
        """The annotations and `final` before a variable, in any order
        (JLS SE 17 §4.12.4); the annotations."""
        anns = self._parse_annotations()
        while self.texts[self.pos] == "final":
            self.advance()
            anns += self._parse_annotations()
        return anns

    def _parse_type(self) -> ast.TypeRef:
        start = self.pos
        if self.kinds[self.pos] != _IDENT or self.texts[self.pos] in _NON_TYPE_WORDS:
            raise _Fail("expected type", self.tok_span(self.pos))
        name = self.texts[self.advance()]
        if name not in PRIMITIVES:
            while self.texts[self.pos] == ".":
                dot = self.advance()
                if self.texts[self.pos] == "@":
                    self._parse_annotations()  # java.util.@A List
                if self.kinds[self.pos] != _IDENT or self.texts[self.pos] in _NON_TYPE_WORDS:
                    self.pos = dot
                    break
                name += "." + self.texts[self.advance()]
        args: tuple[ast.TypeRef, ...] = ()
        if self.texts[self.pos] == "<":
            args = self._parse_type_args()
        self._skip_array_suffix()
        return ast.TypeRef(name, args, self.span_from(start))

    def _parse_type_args(self) -> tuple[ast.TypeRef, ...]:
        self.expect("<")
        args: list[ast.TypeRef] = []
        if self.texts[self.pos] == ">":  # diamond
            self.advance()
            return ()
        while True:
            # type-use annotations (JLS SE 17 §4.11) are read and dropped
            self._parse_annotations()
            if self.texts[self.pos] == "?":  # wildcard, accepted and ignored
                self.advance()
                if self.texts[self.pos] in ("extends", "super"):
                    self.advance()
                    self._parse_annotations()
                    args.append(self._parse_type())
            else:
                args.append(self._parse_type())
            if self.texts[self.pos] == ",":
                self.advance()
                continue
            self.expect(">")
            return tuple(args)

    def _at_annotated(self, text: str) -> bool:
        """Whether `text` follows the type-use annotations, if any, at the
        cursor (JLS SE 17 §4.11); they are consumed only if it does."""
        saved = self.pos
        if self.texts[saved] == "@":
            self._parse_annotations()
        if self.texts[self.pos] == text:
            return True
        self.pos = saved
        return False

    def _skip_array_suffix(self) -> None:
        """Dimensions `[]`, each after any type-use annotations (`String @A []`);
        the annotations before a `[` that opens no `[]` are read too."""
        while self._at_annotated("[") and self.texts[self.pos + 1] == "]":
            self.pos += 2

    def _skip_generics(self) -> None:
        depth = 0
        while self.kinds[self.pos] != _EOF:
            k = self.texts[self.pos]
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
        start = self.pos
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            stmts.extend(self._parse_statement_recovering())
        self.expect("}")
        return ast.Block(tuple(stmts), self.span_from(start))

    def _parse_statement_recovering(self) -> list[ast.Stmt]:
        start = self.pos
        try:
            return self._parse_statement()
        except _Fail as exc:
            return [self._failed_statement(exc, start)]

    def _failed_statement(self, exc: _Fail, start: int) -> ast.Stmt:
        """Record the failure, skip the rest of the statement and stand an
        Opaque statement in its place."""
        self.diag(exc.message, exc.span)
        self._recover_statement()
        span = self.span_from(start) if self.pos > start else self.tok_span(start)
        return ast.ExprStmt(ast.Opaque((), span), span)

    def _parse_statement(self) -> list[ast.Stmt]:
        start = self.pos
        markers = self.markers_before(start)
        annotations = self._parse_annotations()

        if self.texts[self.pos] == ";":
            self.advance()
            return [ast.Block((), self.span_from(start), annotations, markers)]
        if self.texts[self.pos] == "{":
            block = self._parse_block()
            return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]

        if self.kinds[self.pos] == _IDENT:
            word = self.texts[self.pos]
            parse_compound = self._COMPOUND_STATEMENTS.get(word)
            if parse_compound is not None:
                return [parse_compound(self, start, annotations, markers)]
            if word == "return":
                self.advance()
                expr = None
                if self.texts[self.pos] != ";":
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
                if self.kinds[self.pos] == _IDENT:  # label
                    self.advance()
                self.expect(";")
                return [ast.Jump(word, self.span_from(start), annotations, markers)]
            if word == "synchronized" and self.texts[self.pos + 1] == "(":
                self.diag("synchronized statement is analyzed as a plain block",
                          self.tok_span(self.pos))
                self.advance()
                self.expect("(")
                self._parse_expr()
                self.expect(")")
                block = self._parse_block()
                return [ast.Block(block.stmts, self.span_from(start), annotations, markers)]
            if word in ("assert", "yield"):
                self.diag(f"{word} statement is not analyzed", self.tok_span(self.pos))
                self._skip_to_semi()
                span = self.span_from(start)
                return [ast.ExprStmt(ast.Opaque((), span), span, annotations, markers)]
            if self.texts[self.pos + 1] == ":" and word not in ("case", "default"):
                self.diag("labeled statement: label ignored", self.tok_span(self.pos))
                self.pos += 2
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
            try:
                if_kw = self.tok_span(self.expect("if"))
                self.expect("(")
                cond = self._parse_expr()
                self.expect(")")
            except _Fail as exc:
                if not links:
                    raise
                # a broken link is the failed statement of the else before it
                else_branch = self._failed_statement(exc, start)
                break
            then = self._parse_substatement()
            else_kw = self.tok_span(self.advance()) if self.texts[self.pos] == "else" else None
            links.append((start, annotations, markers, if_kw, cond, then, else_kw))
            if else_kw is None:
                break
            start = self.pos
            try:
                annotations = self._parse_annotations()
            except _Fail:
                annotations = None
            if annotations is None or self.texts[self.pos] != "if":
                self.pos = start  # not a link: the else branch is parsed whole
                else_branch = self._parse_substatement()
                break
            markers = self.markers_before(start)
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
        kw = self.tok_span(self.expect("while"))
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        body = self._parse_substatement()
        return ast.Loop("while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_do_while(self, start, annotations, markers) -> ast.Loop:
        kw = self.tok_span(self.expect("do"))
        body = self._parse_substatement()
        self.expect("while")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        self.expect(";")
        return ast.Loop("do_while", cond, body, kw, self.span_from(start),
                        annotations=annotations, markers=markers)

    def _parse_for(self, start, annotations, markers) -> ast.Loop:
        kw = self.tok_span(self.expect("for"))
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
        if self.texts[self.pos] != ";":
            decls = self._try_parse_local_decl(self.pos, (), ())
            if decls is not None:
                init.extend(decls)
            else:
                init.append(self._parse_expr_list_stmt())
                self.expect(";")
        else:
            self.advance()
        cond = None
        if self.texts[self.pos] != ";":
            cond = self._parse_expr()
        self.expect(";")
        update: list[ast.Expr] = []
        if self.texts[self.pos] != ")":
            update.append(self._parse_expr())
            while self.texts[self.pos] == ",":
                self.advance()
                update.append(self._parse_expr())
        self.expect(")")
        body = self._parse_substatement()
        return ast.Loop("for", cond, body, kw, self.span_from(start),
                        init=tuple(init), update=tuple(update),
                        annotations=annotations, markers=markers)

    def _parse_expr_list_stmt(self) -> ast.Stmt:
        start = self.pos
        exprs = [self._parse_expr()]
        while self.texts[self.pos] == ",":
            self.advance()
            exprs.append(self._parse_expr())
        span = self.span_from(start)
        if len(exprs) == 1:
            return ast.ExprStmt(exprs[0], span)
        return ast.Block(tuple(ast.ExprStmt(e, e.span) for e in exprs), span)

    def _try_parse_for_each_header(self) -> Optional[tuple[ast.LocalDecl, ast.Expr]]:
        start = self.pos
        try:
            anns = self._parse_variable_modifiers()
            declared = self._parse_local_type()
            name = self.texts[self.expect_ident("loop variable")]
            if self.texts[self.pos] != ":":
                raise _Fail("not an enhanced for", self.tok_span(self.pos))
            self.advance()
            iterable = self._parse_expr()
            var = ast.LocalDecl(name, declared, None, self.span_from(start), anns, ())
            return var, iterable
        except _Fail:
            self.pos = start
            return None

    def _try_parse_local_decl(
        self,
        start: int,
        annotations: tuple[ast.AnnotationUse, ...],
        markers: tuple[ast.Marker, ...],
    ) -> Optional[list[ast.Stmt]]:
        saved = self.pos
        saved_diags = len(self.diagnostics)
        try:
            annotations += self._parse_variable_modifiers()
            declared = self._parse_local_type()
            i = self.pos  # the name, if this is a declaration
            if self.kinds[i] != _IDENT or self.texts[i + 1] not in ("=", ";", ",", "[", "@"):
                raise _Fail("not a declaration", self.tok_span(i))
            names = self._parse_declarators(self.texts[self.advance()], "variable name")
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
        if self.texts[self.pos] == "var" and self.kinds[self.pos + 1] == _IDENT:
            self.advance()
            return None
        return self._parse_type()

    def _parse_switch(self, start, annotations, markers) -> ast.Switch:
        kw = self.tok_span(self.expect("switch"))
        self.expect("(")
        scrutinee = self._parse_expr()
        self.expect(")")
        self.expect("{")
        cases: list[ast.SwitchCase] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            case_start = self.pos
            labels: list[ast.CaseLabel] = []
            while self.texts[self.pos] in ("case", "default"):
                lbl_start = self.pos
                if self.texts[self.pos] == "default":
                    self.advance()
                    labels.append(ast.CaseLabel(None, self.span_from(lbl_start)))
                else:
                    self.advance()
                    expr = self._parse_binary()  # no ternary: ':' ends the label
                    while self.texts[self.pos] == ",":  # case A, B:
                        self.advance()
                        labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                        lbl_start = self.pos
                        expr = self._parse_binary()
                    labels.append(ast.CaseLabel(expr, self.span_from(lbl_start)))
                if self.texts[self.pos] == "->":
                    self.diag("arrow switch case analyzed as labeled case",
                              self.tok_span(self.pos))
                    self.advance()
                    break
                self.expect(":")
            if not labels:
                raise _Fail("expected 'case' or 'default'", self.tok_span(self.pos))
            stmts: list[ast.Stmt] = []
            while (self.texts[self.pos] not in ("}", "case", "default")
                   and self.kinds[self.pos] != _EOF):
                stmts.extend(self._parse_statement_recovering())
            cases.append(ast.SwitchCase(tuple(labels), tuple(stmts),
                                        self.span_from(case_start)))
        self.expect("}")
        return ast.Switch(scrutinee, tuple(cases), kw, self.span_from(start),
                          annotations, markers)

    def _parse_try(self, start, annotations, markers) -> ast.Try:
        kw = self.tok_span(self.expect("try"))
        resources: list[ast.LocalDecl] = []
        if self.texts[self.pos] == "(":
            self.advance()
            while self.texts[self.pos] != ")" and self.kinds[self.pos] != _EOF:
                res_start = self.pos
                anns = self._parse_variable_modifiers()
                declared = self._parse_local_type()
                name = self.texts[self.expect_ident("resource name")]
                self.expect("=")
                init = self._parse_expr()
                resources.append(
                    ast.LocalDecl(name, declared, init, self.span_from(res_start), anns, ())
                )
                if self.texts[self.pos] == ";":
                    self.advance()
                else:
                    break
            self.expect(")")
        body = self._parse_block()
        catches: list[ast.CatchClause] = []
        while self.texts[self.pos] == "catch":
            c_start = self.pos
            c_kw = self.tok_span(self.advance())
            self.expect("(")
            self._parse_variable_modifiers()
            types = [self._parse_type()]
            while self.texts[self.pos] == "|":  # multi-catch: one clause
                self.advance()
                types.append(self._parse_type())
            pname = self.texts[self.expect_ident("catch parameter")]
            self.expect(")")
            c_body = self._parse_block()
            catches.append(ast.CatchClause(pname, tuple(types), c_body, c_kw,
                                           self.span_from(c_start)))
        finally_block = None
        finally_kw = None
        if self.texts[self.pos] == "finally":
            finally_kw = self.tok_span(self.advance())
            finally_block = self._parse_block()
        return ast.Try(tuple(resources), body, tuple(catches), finally_block,
                       kw, finally_kw, self.span_from(start), annotations, markers)

    # ── expressions ─────────────────────────────────────────────────────

    def _parse_expr(self) -> ast.Expr:
        """An expression: an assignment, a ternary or a binary chain."""
        start = self.pos
        lhs = self._parse_ternary()
        if self.texts[self.pos] in _ASSIGN_OPS:
            op = self.texts[self.advance()]
            value = self._parse_expr()
            return ast.Assign(op, lhs, value, self.span_from(start))
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        start = self.pos
        cond = self._parse_binary()
        if self.texts[self.pos] == "?":
            q_span = self.tok_span(self.advance())
            then_expr = self._parse_ternary()
            self.expect(":")
            else_expr = self._parse_ternary()
            return ast.Ternary(cond, then_expr, else_expr, q_span, self.span_from(start))
        return cond

    def _parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: a chain of binary operators of level min_prec
        or tighter, left-associative; each node spans from the chain's start."""
        start = self.pos
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
            op_tok = self.pos
            # a '>>' or '>>>' is that many adjacent ">" tokens
            self.pos += len(op) if self.texts[op_tok] == ">" else 1
            op_span = self.span_from(op_tok)
            if op == "instanceof":
                ty = self._parse_type()
                if self.kinds[self.pos] == _IDENT:  # pattern variable (accepted, unused)
                    self.advance()
                rhs = ast.NameRef(ty.qualified_name, ty.span)
            else:
                rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(op, lhs, rhs, op_span, self.span_from(start))

    def _binary_op(self) -> tuple[str, int]:
        """The binary operator at the cursor and its level (0 if none); a
        '>' followed by an adjacent '>' is a shift."""
        i, texts = self.pos, self.texts
        op = texts[i]
        if op == ">" and texts[i + 1] == ">" and self.ends[i] == self.starts[i + 1]:
            adjacent = texts[i + 2] == ">" and self.ends[i + 1] == self.starts[i + 2]
            op = ">>>" if adjacent else ">>"
        return op, _BINARY_PREC.get(op, 0)

    def _parse_unary(self) -> ast.Expr:
        start = self.pos
        text = self.texts[start]
        if text in _PREFIX_OPS:
            self.advance()
            return ast.Unary(text, self._parse_unary(), self.span_from(start))
        if text == "(":
            cast = self._try_parse_cast(start)
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _try_parse_cast(self, start: int) -> Optional[ast.Expr]:
        try:
            self.expect("(")
            ty = self._parse_type()
            self.expect(")")
            kind, text = self.kinds[self.pos], self.texts[self.pos]
            castable = kind == _IDENT or kind in _LITERALS or text in ("(", "!", "~")
            if castable and text != "instanceof":
                inner = self._parse_unary()
                return ast.Cast(ty, inner, self.span_from(start))
            raise _Fail("not a cast", self.tok_span(self.pos))
        except _Fail:
            self.pos = start
            return None

    def _parse_postfix(self) -> ast.Expr:
        start = self.pos
        expr = self._parse_primary()
        while True:
            k = self.texts[self.pos]
            if k == ".":
                self.advance()
                if self.texts[self.pos] == "<":  # obj.<T>call()
                    self._skip_generics()
                elif self.kinds[self.pos] != _IDENT:
                    raise _Fail("expected member name after '.'", self.tok_span(self.pos))
                name_tok = self.expect_ident("member name")
                if self.texts[self.pos] == "(":
                    args = self._parse_call_args()
                    expr = ast.Call(expr, self.texts[name_tok], args, self.span_from(start))
                else:
                    expr = ast.FieldAccess(expr, self.texts[name_tok], self.span_from(start))
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
                if self.kinds[self.pos] == _IDENT:  # a method name or `new`
                    name = self.texts[self.advance()]
                else:
                    raise _Fail("expected method reference name", self.tok_span(self.pos))
                expr = ast.MethodRef(expr, name, self.span_from(start))
            elif k in ("++", "--"):
                op = self.texts[self.advance()]
                expr = ast.Unary(op, expr, self.span_from(start))
            else:
                return expr

    def _parse_call_args(self) -> tuple[ast.Expr, ...]:
        self.expect("(")
        args: list[ast.Expr] = []
        while self.texts[self.pos] != ")" and self.kinds[self.pos] != _EOF:
            args.append(self._parse_expr())
            if self.texts[self.pos] == ",":
                self.advance()
            else:
                break
        self.expect(")")
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        start = self.pos
        kind, word = self.kinds[start], self.texts[start]
        if kind in _LITERALS or word in ("true", "false", "null"):
            self.advance()
            return ast.Literal(word, self.tok_span(start))

        if kind == _IDENT:
            if word == "new":
                return self._parse_new(start)
            if word == "switch":
                self.diag("switch expression is not analyzed", self.tok_span(self.pos))
                self.advance()
                self.expect("(")
                scrutinee = self._parse_expr()
                self.expect(")")
                self._skip_balanced("{", "}")
                return ast.Opaque((scrutinee,), self.span_from(start))
            if self.texts[start + 1] == "->":  # single-param lambda
                self.pos = start + 2
                body = self._parse_lambda_body()
                return ast.Lambda((word,), body, self.span_from(start))
            self.advance()
            return ast.NameRef(word, self.tok_span(start))

        if word == "(":
            if self._lparen_starts_lambda():
                return self._parse_paren_lambda(start)
            self.advance()
            inner = self._parse_expr()
            self.expect(")")
            return inner

        if word == "{":
            return self._parse_initializer_list()

        raise _Fail("expected expression", self.tok_span(self.pos))

    def _parse_new(self, start: int) -> ast.Expr:
        self.expect("new")
        self._parse_annotations()  # type-use annotations, read and dropped
        ty = self._parse_type()
        if self.texts[self.pos] == "[":
            dims: list[ast.Expr] = []
            while self.texts[self.pos] == "[":
                self.advance()
                if self.texts[self.pos] != "]":
                    dims.append(self._parse_expr())
                self.expect("]")
            init = None
            if self.texts[self.pos] == "{":
                init = self._parse_initializer_list()
            return ast.ArrayNew(ty, tuple(dims), init, self.span_from(start))
        args: tuple[ast.Expr, ...] = ()
        if self.texts[self.pos] == "(":
            args = self._parse_call_args()
        if self.texts[self.pos] == "{":
            self.diag("anonymous class body is not analyzed", self.tok_span(self.pos))
            self._skip_balanced("{", "}")
            return ast.Opaque(args, self.span_from(start))
        return ast.New(ty, args, self.span_from(start))

    def _lparen_starts_lambda(self) -> bool:
        # scan to the matching ')' and check for '->'; the lists end in EOF
        # entries, so a ')' always has a next token
        texts = self.texts
        depth = 0
        for i in range(self.pos, len(texts)):
            k = texts[i]
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return texts[i + 1] == "->"
            elif k in (";", "{"):
                return False
        return False

    def _parse_paren_lambda(self, start: int) -> ast.Expr:
        self.expect("(")
        params: list[str] = []
        while self.texts[self.pos] != ")" and self.kinds[self.pos] != _EOF:
            self._parse_variable_modifiers()
            last_name = None
            while self.texts[self.pos] not in (",", ")") and self.kinds[self.pos] != _EOF:
                if self.kinds[self.pos] == _IDENT:
                    last_name = self.texts[self.pos]
                if self.texts[self.pos] == "<":
                    self._skip_generics()
                else:
                    self.advance()
            if last_name:
                params.append(last_name)
            if self.texts[self.pos] == ",":
                self.advance()
        self.expect(")")
        self.expect("->")
        body = self._parse_lambda_body()
        return ast.Lambda(tuple(params), body, self.span_from(start))

    def _parse_lambda_body(self):
        if self.texts[self.pos] == "{":
            return self._parse_block()
        return self._parse_expr()

    # ── recovery and skipping ───────────────────────────────────────────

    def _skip_to_semi(self) -> None:
        depth = 0
        while self.kinds[self.pos] != _EOF:
            k = self.texts[self.pos]
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
        while self.kinds[self.pos] != _EOF:
            k = self.texts[self.pos]
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
        while self.kinds[self.pos] != _EOF:
            k = self.texts[self.pos]
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

    # statements that start with a keyword and hold other statements or blocks
    _COMPOUND_STATEMENTS = {
        "if": _parse_if, "while": _parse_while, "do": _parse_do_while,
        "for": _parse_for, "switch": _parse_switch, "try": _parse_try,
    }


def _parse_decimal(text: str) -> Optional[Fraction]:
    t = text.rstrip(_NUMBER_SUFFIXES)
    if not re.fullmatch(r"\d+(?:\.\d+)?", t):
        return None
    return Fraction(t)

