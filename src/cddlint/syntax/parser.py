"""Recursive-descent parser for the analyzed Java subset.

Produces a spanned SourceUnit suitable for ICP counting and annotation
extraction. Every type, member and local ones included, is listed once in
``SourceUnit.types``, in the order its name is read (pre-order), under the
name ``_Parser.owner`` tracks: dotted for a member type (`A.B`), the binary
name for a local one (`A$1L`, JLS SE 17 §13.1). A type inside the Nth
anonymous class or enum-constant body of `A` is named under `A$N`, as javac
names the body (`A$1.In`, `A$2$1L`, `A.E$1.K`); the body itself is no type,
and what is read in it stays its owner's. Error tolerance is member-level:
``_recover`` skips an unparseable statement, an Opaque expression standing
in its place, or member, a member type whose header cannot be read
included, with a Diagnostic that names the fault where it is; no construct
is skipped with one. Only a fault at the top level raises ParseError: a
type header whose keyword, name or type parameters cannot be read, or a
missing `}`. A member or top-level type whose clauses cannot be read is
diagnosed `expected '{'` and read on from its next `{`.

Site-level ICPs are recorded as they are read: one ``SiteIcp`` per `@ICP` on
a field, a method, a parameter or record component, a catch parameter, an
`instanceof` pattern, a statement or a local variable, lambda and anonymous
class bodies included; a comment is never one. Each is appended when its
element ends, so it has the element's span, and the type being read is its
owner. Only ``_recover`` drops what was recorded: the sites and types of the
statement or member that failed.

One reader per rule: ``_parse_type_decl`` reads every type header JLS SE 17
allows (`class`, `interface`, `enum`, `record` and `@interface`), and
``_at_type_decl`` alone decides whether one starts at the cursor, at the top
level, among members and, after a statement's modifiers, as a local type;
``_parse_class_body`` reads every `{…}` class body: a named type's, an
anonymous class's and an enum constant's; ``_parse_member`` reads an
initializer block and a record's compact constructor as methods;
``_parse_modifiers`` reads the annotations and modifiers of a type, a member
and, given ``_VARIABLE_MODIFIERS``, a variable; ``_parse_switch`` reads a
switch statement and a switch expression, each case a colon group or a `->`
rule, whose body ``_parse_rule_body`` reads as a block, a `throw` or an
expression (a statement after that body, and a switch that mixes rules with
groups, get javac's diagnostic and are read on); ``_parse_par_expr`` reads
each `( Expression )` after a keyword; one head reader,
``_try_parse_local_head``, reads the modifiers and type of a local
declaration and of both kinds of `for` header, so a header is read once;
``_parse_list`` reads every bracketed, separated list, where a `,` before
the `)` of arguments or parameters fails as javac fails it, and
``_parse_separated`` every other one: the types of a header clause, a
`throws`, a multi-catch and an intersection cast, and the expressions of a
`for` header and an `assert`; ``_skip_generics`` reads every `<…>`: type
parameters, and the type arguments of a type and of a call, none of which
is kept; each item is read with ``_parse_type``, so a `<…>` that holds
anything else fails.

Where Java itself is ambiguous, a local variable's head (`List<T> x`
against `a < b`) and a cast (`(T) x` against `(a) - b`), the head or the
cast's bracketed type is read ahead with ``_parse_type``, which records
nothing, and the cursor is put back if it does not read; such a read fails
only on input that is not Java. A cast is decided by its type alone, as
javac decides one, and its operand is read once, so parsing is linear in
the tokens: `(a)(x, b)` is a cast that fails at the `,`, as javac reads
it. A sign, `++` or `--` after the `)` makes a cast only of one primitive
name (`(int) -x`, but `(a) - x`). A declaration commits once its head and
name are read, so a fault in a declarator, or in a cast's operand, fails
the statement where the fault is.

Tokens are read by index from the scanner's TokenStream: ``_Parser.pos`` is
the number of the current token, and spans are built from its lists. A skip
over a `(…)` or `{…}` jumps to the partner the stream's ``partners`` list
gives; no loop here counts bracket depth, and a `<…>`, whose `<` and `>`
are not paired, is read item by item.

Binary operators are parsed by one precedence-climbing loop,
``_Parser._parse_binary``, driven by ``_BINARY_LEVELS``: that table is the one
place operator precedence lives.

A helper that reads an optional part is called only when the token at the
cursor can start what it reads: ``_parse_annotations`` at an `@`,
``_skip_array_suffix`` at a `[` or `@`, an operand with no prefix operator
and no `(` goes straight to ``_parse_postfix``, which reads a plain name
itself, and ``record_icp`` is called only when there is an annotation to
record.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Optional

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
    "sealed",
})

PRIMITIVES = frozenset({
    "boolean", "byte", "short", "int", "long", "char", "float", "double",
})

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
# the words a local type's statement may start with, after its annotations
_LOCAL_TYPE_STARTS = MODIFIERS | _TYPE_KEYWORDS | {"record"}
# the clauses a type header may hold after its name, type parameters and,
# for a record, components (JLS SE 17 §8.1.4-8.1.6, §8.10, §9.1.3-9.1.4)
_HEADER_CLAUSES = frozenset({"extends", "implements", "permits"})

# the one modifier a variable may have (JLS SE 17 §4.12.4), and the tokens
# each optional part of a declaration can start with
_VARIABLE_MODIFIERS = frozenset({"final"})
_VARIABLE_MODIFIER_STARTS = _VARIABLE_MODIFIERS | {"@"}
_ARRAY_SUFFIX_STARTS = frozenset({"[", "@"})

# what may follow the words a local declaration starts with, a name aside
_DECLARATION_NEXT = frozenset({"<", "[", "@", "."})

# what may follow the name of a local variable, and of a `for` header's one
_DECLARATOR_NEXT = frozenset({"=", ";", ",", "[", "@"})
_FOR_HEAD_NEXT = _DECLARATOR_NEXT | {":"}

# a variable's head: its first token, its annotations, and its type (None: `var`)
_Head = tuple[int, tuple[ast.AnnotationUse, ...], Optional[ast.TypeRef]]

# words that can never start a type reference in a local declaration
_NON_TYPE_WORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "default", "try",
    "catch", "finally", "return", "throw", "throws", "new", "break",
    "continue", "this", "super", "true", "false", "null", "instanceof",
    "void", "assert", "synchronized",
}) | _TYPE_KEYWORDS

# the keywords (JLS SE 17 §3.9) and literals that never name a variable;
# `var`, `yield` and `record` are contextual and do, and so, since Java 22
# (JLS SE 22 §6.1), does `_`, which names an unnamed one
_RESERVED = frozenset({
    "abstract", "assert", "boolean", "break", "byte", "case", "catch", "char",
    "class", "const", "continue", "default", "do", "double", "else", "enum",
    "extends", "final", "finally", "float", "for", "goto", "if", "implements",
    "import", "instanceof", "int", "interface", "long", "native", "new",
    "package", "private", "protected", "public", "return", "short", "static",
    "strictfp", "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while", "true", "false", "null",
})

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
# the prefix operators a primitive cast's operand may start with, and a
# reference cast's may not (JLS SE 17 §15.16): `(int) -x`, but `(a) - x`
_SIGNS = frozenset({"+", "-", "++", "--"})
# what may follow a `yield` that names a variable, not a yield statement
_YIELD_NAME_NEXT = _ASSIGN_OPS | {".", "["}
# the tokens an operand `_parse_unary` reads, and not `_parse_postfix`, starts with
_UNARY_STARTS = _PREFIX_OPS | {"("}
# the words `_parse_primary` reads; `_parse_postfix` reads any other name
_PRIMARY_WORDS = frozenset({"true", "false", "null", "new", "switch"})

_NUMBER_SUFFIXES = "lLfFdD"


class ParseError(Exception):
    """Raised when type or member structure cannot be recovered; its
    message is that of its last diagnostic, the fault that raised it."""

    def __init__(self, diagnostics: list[ast.Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(self.diagnostics[-1].message)


class _Fail(Exception):
    """Internal: a parse attempt failed; caught at a recovery point."""

    def __init__(self, message: str, span: Span):
        self.message = message
        self.span = span
        super().__init__(message)


def parse_unit(data: bytes, path: str = "<memory>") -> ast.SourceUnit:
    """Parse a file's bytes into a SourceUnit; pure function of the input."""
    try:
        tokens = tokenize_bytes(data)
    except InvalidCharacter as exc:
        span = Span((exc.byte_start, exc.byte_end, exc.line, exc.line))
        raise ParseError([ast.Diagnostic((exc.message, span))]) from exc
    return _Parser(tokens, path).parse()


class _Parser:
    """Lookahead needs no bounds check, as the stream's lists run two EOF
    entries past its last token; ``advance`` is only called on a token its
    caller has tested, so never on EOF."""

    def __init__(self, tokens: TokenStream, path: str):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.lines = tokens.lines
        self.partners = tokens.partners
        self.pos = 0
        self.path = path
        self.diagnostics: list[ast.Diagnostic] = []
        self.site_icp: list[ast.SiteIcp] = []
        # every type in pre-order; a type's place holds its name until its
        # `}` is read
        self.types: list[ast.TypeDecl | str] = []
        self.taken: Counter[str] = Counter()  # how many listed types have each name
        # per enclosing and local type name, a number below which each binary name is taken
        self.numbered: dict[tuple[str, str], int] = {}
        self.owner = ""  # name of the type being read, which owns its sites
        # the name a type declared here is named under: the owner's, or
        # `Owner$N` in the owner's Nth anonymous body; and per such name,
        # the anonymous bodies read in it so far
        self.enclosing = ""
        self.anonymous: dict[str, int] = {}
        self.no_lambda = False  # in a case label, as javac reads one: `->` ends it

    # ── token access ────────────────────────────────────────────────────

    def advance(self) -> int:
        i = self.pos
        self.pos = i + 1
        return i

    def expect(self, text: str, what: str = "") -> int:
        """Consume the token spelled `text`, a word or a punctuation mark."""
        i = self.pos
        if self.texts[i] != text:
            raise _Fail(f"expected {what or repr(text)}", self.tok_span(i))
        self.pos = i + 1
        return i

    def expect_ident(self, what: str) -> int:
        i = self.pos
        if self.kinds[i] != _IDENT:
            raise _Fail(f"expected {what}", self.tok_span(i))
        self.pos = i + 1
        return i

    def tok_span(self, i: int) -> Span:
        line = self.lines[i]
        return Span((self.starts[i], self.ends[i], line, line))

    def span_from(self, start: int) -> Span:
        """From token `start` through the last token consumed."""
        end = self.pos - 1 if self.pos else 0
        return Span((self.starts[start], self.ends[end], self.lines[start], self.lines[end]))

    def record_icp(self, start: int, uses: tuple[ast.AnnotationUse, ...]) -> None:
        """Record each `@ICP` among the annotations `uses` as a site of the
        element from token `start` through the last token consumed; called
        only when there are annotations."""
        span = self.span_from(start)
        for use in uses:
            if use.simple_name() == "ICP":
                self.site_icp.append(ast.SiteIcp((self.owner, span, use.numeric_arg, use.span)))

    def diag(self, message: str, span: Span) -> None:
        self.diagnostics.append(ast.Diagnostic((message, span)))

    # ── compilation unit ────────────────────────────────────────────────

    def parse(self) -> ast.SourceUnit:
        if self.texts[self.pos] == "package":
            self._skip_statement()
        while self.texts[self.pos] == "import":
            self._skip_statement()
        while self.kinds[self.pos] != _EOF:
            if self.texts[self.pos] == ";":
                self.pos += 1
                continue
            try:
                self._parse_type_decl()
            except _Fail as exc:
                # a fault at the top level fails the file, so no type's
                # place is left empty in a unit that parses
                self.diag(exc.message, exc.span)
                raise ParseError(self.diagnostics) from exc
        return ast.SourceUnit((
            self.path, tuple(self.types), tuple(self.diagnostics), tuple(self.site_icp),
        ))

    def _parse_type_decl(
        self,
        start: Optional[int] = None,
        annotations: Optional[tuple[ast.AnnotationUse, ...]] = None,
        header_tok: Optional[int] = None,
        local: bool = False,
    ) -> None:
        """A type whose modifiers start at `start`; a top-level type reads
        them here, a member or `local` one is given what `_parse_member` or
        `_parse_local_type` read. It owns what is read from its name on, and
        its place in `types`, taken then, holds its name until its closing
        `}`, so it comes before the types declared in it. A record's
        components are its fields (JLS SE 17 §8.10.3). A fault in its
        keyword, name or type parameters raises `_Fail`, as does one in a
        local type's clauses; any other type's clauses are read on from its
        next `{`."""
        if start is None:
            start = self.pos
            annotations, header_tok = self._parse_modifiers()
        if not self._at_type_decl():
            raise _Fail("expected class, interface, enum, record or @interface",
                        self.tok_span(self.pos))
        kind = self.texts[self.advance()]
        if kind == "@":
            kind += self.texts[self.advance()]
        name = self.texts[self.expect_ident("type name")]
        if name in _RESERVED:  # JLS SE 17 §3.9
            raise _Fail("expected type name", self.tok_span(self.pos - 1))
        outer, enclosing = self.owner, self.enclosing
        if local:
            # the binary name (JLS SE 17 §13.1): the lowest number that no
            # type listed so far has with this name
            n = self.numbered.get((enclosing, name), 1)
            while self.taken[binary := f"{enclosing}${n}{name}"]:
                n += 1
            self.numbered[(enclosing, name)] = n + 1
            self.owner = binary
        else:
            self.owner = f"{enclosing}.{name}" if enclosing else name
        self.enclosing = self.owner
        place = len(self.types)
        self.types.append(self.owner)
        self.taken[self.owner] += 1
        try:
            if self.texts[self.pos] == "<":
                self._skip_generics()
            fields: list[ast.FieldDecl] = []
            try:
                if kind == "record":
                    if self.texts[self.pos] != "(":
                        raise _Fail("expected '('", self.tok_span(self.pos))
                    fields += [ast.FieldDecl((p.name, p.type, None, p.span))
                               for p in self._parse_list(self._parse_param)]
                while self.texts[self.pos] in _HEADER_CLAUSES:
                    self.pos += 1
                    self._parse_separated(self._parse_type)
                if self.texts[self.pos] != "{":
                    raise _Fail("expected '{'", self.tok_span(self.pos))
            except _Fail as exc:
                if local:
                    raise
                # the header is read on from its next `{`
                self.diag("expected '{'", exc.span)
                while self.texts[self.pos] != "{" and self.kinds[self.pos] != _EOF:
                    self.pos += 1
            enum_constants, body = self._parse_class_body(kind, fields)
            self.types[place] = ast.TypeDecl((
                self.owner, kind, annotations, body.fields, body.methods,
                self.span_from(start), self.starts[header_tok], enum_constants,
            ))
        finally:
            self.owner, self.enclosing = outer, enclosing

    def _parse_class_body(self, kind: str, fields: list[ast.FieldDecl]
                          ) -> tuple[tuple[ast.EnumConstant, ...], ast.ClassBody]:
        """The one reader of a `{…}` class body (JLS SE 17 §8.1.7): a named
        type's, of `kind`, whose record components `fields` holds, and an
        anonymous class's or an enum constant's (§15.9.5, §8.9.1), read as a
        class's. An enum's constants come first; they are returned beside
        the body."""
        start = self.expect("{")
        enum_constants: tuple[ast.EnumConstant, ...] = ()
        if kind == "enum":
            enum_constants = self._parse_enum_constants()
        methods: list[ast.MethodDecl] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            self._parse_member(fields, methods, kind)
        self.expect("}")
        return enum_constants, ast.ClassBody((tuple(fields), tuple(methods),
                                              self.span_from(start)))

    def _parse_anonymous_body(self) -> ast.ClassBody:
        """An anonymous class's or an enum constant's body (JLS SE 17
        §15.9.5, §8.9.1), read as a class's. It is no type: what is read in
        it stays its owner's, but a type declared in it is named under
        `Outer$N`, as javac names the body: N counts the bodies read so far
        whose nearest enclosing type or body is `Outer`, in source order."""
        outer = self.enclosing
        n = self.anonymous[outer] = self.anonymous.get(outer, 0) + 1
        self.enclosing = f"{outer}${n}"
        try:
            return self._parse_class_body("class", [])[1]
        finally:
            self.enclosing = outer

    def _at_type_decl(self) -> bool:
        """Whether a type's keyword is at the cursor: `class`, `interface`,
        `enum`, `@interface`, or `record`, a restricted identifier (JLS SE 17
        §3.9) that starts a type only as `record Name (` or `record Name <`."""
        i, texts = self.pos, self.texts
        word = texts[i]
        if word == "record":
            return self.kinds[i + 1] == _IDENT and texts[i + 2] in ("(", "<")
        return word in _TYPE_KEYWORDS or word == "@" and texts[i + 1] == "interface"

    def _parse_enum_constants(self) -> tuple[ast.EnumConstant, ...]:
        constants: list[ast.EnumConstant] = []
        while self.texts[self.pos] not in (";", "}") and self.kinds[self.pos] != _EOF:
            if self.texts[self.pos] == "@":
                self._parse_annotations()
            start = self.pos
            if self.kinds[self.pos] != _IDENT:
                break
            name = self.texts[self.advance()]
            args: tuple[ast.Expr, ...] = ()
            if self.texts[self.pos] == "(":
                args = self._parse_list(self._parse_expr)
            body = None
            if self.texts[self.pos] == "{":
                body = self._parse_anonymous_body()
            constants.append(ast.EnumConstant((name, args, body, self.span_from(start))))
            if self.texts[self.pos] == ",":
                self.pos += 1
            else:
                break
        if self.texts[self.pos] == ";":
            self.pos += 1
        return tuple(constants)

    # ── members ─────────────────────────────────────────────────────────

    def _parse_member(self, fields: list[ast.FieldDecl], methods: list[ast.MethodDecl],
                      kind: str) -> None:
        """A member of a body of `kind`: a member type, a field, a method, a
        constructor, or as a method, an initializer block (JLS SE 17 §8.6,
        §8.7) and, in a record, a compact constructor (§8.10.4). A member
        that fails, a member type whose header cannot be read included, is
        skipped by `_recover`."""
        if self.texts[self.pos] == ";":
            self.pos += 1
            return
        start, recorded, types = self.pos, len(self.site_icp), len(self.types)
        try:
            annotations, header_tok = self._parse_modifiers()
            if self._at_type_decl():
                self._parse_type_decl(start, annotations, header_tok)
                return
            if self.texts[self.pos] == "{":
                name = "<clinit>" if "static" in self.texts[start:self.pos] else "<init>"
                methods.append(ast.MethodDecl((name, (), None, self._parse_block(),
                                               self.span_from(start))))
                return
            if self.texts[self.pos] == "<":
                self._skip_generics()  # generic method type parameters
            i, texts = self.pos, self.texts
            if (self.kinds[i] == _IDENT and texts[i] not in _NON_TYPE_WORDS
                    and (texts[i + 1] == "(" or texts[i + 1] == "{" and kind == "record")):
                methods.append(self._parse_method(start, None))
                if annotations:
                    self.record_icp(start, annotations)
                return
            return_type: Optional[ast.TypeRef] = None
            if self.texts[self.pos] == "void":
                self.pos += 1
            else:
                return_type = self._parse_type()
            name_tok = self.expect_ident("member name")
            if self.texts[self.pos] == "(":
                methods.append(self._parse_method(start, return_type, name_tok,
                                                  kind == "@interface"))
            else:
                if return_type is None:
                    raise _Fail("field cannot be void", self.tok_span(name_tok))
                names = self._parse_declarators(self.texts[name_tok], "field name")
                span = self.span_from(start)
                fields.extend(ast.FieldDecl((nm, return_type, iv, span)) for nm, iv in names)
            if annotations:
                self.record_icp(start, annotations)
        except _Fail as exc:
            self._recover(exc, start, recorded, types)

    def _parse_method(
        self,
        start: int,
        return_type: Optional[ast.TypeRef],
        name_tok: Optional[int] = None,
        element: bool = False,
    ) -> ast.MethodDecl:
        """A method or constructor, a compact one (JLS SE 17 §8.10.4) with
        no parameter list; with `element`, an annotation type's element,
        whose default value (§9.6.2) is read and dropped."""
        if name_tok is None:
            name_tok = self.expect_ident("constructor name")
        params: tuple[ast.Param, ...] = ()
        if self.texts[self.pos] == "(":
            params = self._parse_list(self._parse_param)
        if self.texts[self.pos] == "throws":
            self.pos += 1
            self._parse_separated(self._parse_type)
        body: Optional[ast.Block] = None
        if self.texts[self.pos] == "{":
            body = self._parse_block()
        else:
            if element and self.texts[self.pos] == "default":
                self.pos += 1
                self._parse_element_value()
            self.expect(";", "method body or ';'")
        return ast.MethodDecl((
            self.texts[name_tok], params, return_type, body, self.span_from(start),
        ))

    def _parse_element_value(self) -> None:
        """An element value (JLS SE 17 §9.7.1): an annotation, a `{…}` of
        element values, or an expression; read and dropped."""
        if self.texts[self.pos] == "@":
            self._parse_annotations()
        elif self.texts[self.pos] == "{":
            self._parse_list(self._parse_element_value, "}")
        else:
            self._parse_expr()

    def _parse_param(self) -> ast.Param:
        """A parameter or record component; its `@ICP` annotations are its
        sites, as a field's are."""
        start, uses = self.pos, ()
        if self.texts[start] in _VARIABLE_MODIFIER_STARTS:
            uses = self._parse_modifiers(_VARIABLE_MODIFIERS)[0]
        ptype = self._parse_type()
        if self.texts[self.pos] in ("...", "@") and self._at_annotated("..."):
            self.pos += 1  # varargs behave like the element type
        name = self.texts[self.expect_ident("parameter name")]
        if self.texts[self.pos] in _ARRAY_SUFFIX_STARTS:
            self._skip_array_suffix()
        if uses:
            self.record_icp(start, uses)
        return ast.Param((name, ptype, self.span_from(start)))

    def _parse_declarators(
        self, name: str, what: str
    ) -> list[tuple[str, Optional[ast.Expr]]]:
        """The rest of a field or local declarator list after its first name,
        through the ';': one (name, initializer) pair per declarator."""
        names: list[tuple[str, Optional[ast.Expr]]] = []
        while True:
            if self.texts[self.pos] in _ARRAY_SUFFIX_STARTS:
                self._skip_array_suffix()
            init = None
            if self.texts[self.pos] == "=":
                self.pos += 1
                init = self._parse_expr()
            names.append((name, init))
            if self.texts[self.pos] != ",":
                break
            self.pos += 1
            name = self.texts[self.expect_ident(what)]
            if name in _RESERVED:  # JLS SE 17 §3.9
                raise _Fail(f"expected {what}", self.tok_span(self.pos - 1))
        self.expect(";")
        return names

    def _parse_initializer_list(self) -> ast.Expr:
        start = self.pos
        items = self._parse_list(self._parse_expr, "}")
        return ast.InitializerList((items, self.span_from(start)))

    def _parse_list(self, parse_item: Callable[[], Any], close: str = ")",
                    sep: str = ",") -> tuple:
        """The items of the bracketed list whose opener is at the cursor,
        through its `close`: each read by `parse_item` and left out if that
        gives None, with a `sep` between each two. A `sep` may end the list,
        as in `{1, 2, }` or a try resource list's `;)`, but in a
        `,`-separated `(…)` list, of arguments or parameters, an item is read
        after each `,`, so `g(a, )` fails at the `)`, as javac fails it (JLS
        SE 17 §8.4.1, §15.12)."""
        texts = self.texts
        self.pos += 1
        items = []
        strict = close == ")" and sep == ","
        while ((texts[self.pos] != close or (strict and items))
               and self.kinds[self.pos] != _EOF):
            item = parse_item()
            if item is not None:
                items.append(item)
            if texts[self.pos] != sep:
                break
            self.pos += 1
        self.expect(close)
        return tuple(items)

    def _parse_separated(self, parse_item: Callable[[], Any], sep: str = ",") -> list:
        """Items read by `parse_item`, with a `sep` between each two and no
        brackets: a header clause's or a `throws` list's types, a catch
        clause's and a cast's, and the expressions of a `for` header's init
        or update and of an `assert`."""
        items = [parse_item()]
        while self.texts[self.pos] == sep:
            self.pos += 1
            items.append(parse_item())
        return items

    # ── annotations and types ───────────────────────────────────────────

    def _parse_annotations(self) -> tuple[ast.AnnotationUse, ...]:
        """The annotations at the cursor, up to an `@interface`'s `@`."""
        uses: list[ast.AnnotationUse] = []
        while self.texts[self.pos] == "@" and self.texts[self.pos + 1] != "interface":
            start = self.advance()
            name = self.texts[self.expect_ident("annotation name")]
            while self.texts[self.pos] == "." and self.kinds[self.pos + 1] == _IDENT:
                self.pos += 1
                name += "." + self.texts[self.advance()]
            numeric: Optional[Fraction] = None
            i = self.pos
            if self.texts[i] == "(":
                if self.kinds[i + 1] == _NUMBER and self.partners[i] == i + 2:
                    # stays None for non-decimal literals such as hex
                    numeric = _parse_decimal(self.texts[i + 1])
                self._skip_balanced()
            uses.append(ast.AnnotationUse((name, numeric, self.span_from(start))))
        return tuple(uses)

    def _parse_modifiers(self, words: frozenset[str] = MODIFIERS
                         ) -> tuple[tuple[ast.AnnotationUse, ...], int]:
        """The annotations and modifier `words` before a member, a type or,
        with `_VARIABLE_MODIFIERS`, a variable, in any order; the
        annotations, and the header's first token: the first modifier, or
        the token after the annotations when there is none."""
        texts = self.texts
        anns = self._parse_annotations() if texts[self.pos] == "@" else ()
        header_tok = self.pos
        while texts[self.pos] in words or (
                texts[self.pos] == "non" and words is MODIFIERS and self._at_non_sealed()):
            self.pos += 3 if texts[self.pos] == "non" else 1
            if texts[self.pos] == "@":
                anns += self._parse_annotations()
        return anns, header_tok

    def _at_non_sealed(self) -> bool:
        """Whether the `non` at the cursor starts `non-sealed`, three adjacent
        tokens."""
        i, texts, ends, starts = self.pos, self.texts, self.ends, self.starts
        return (texts[i + 1] == "-" and texts[i + 2] == "sealed"
                and ends[i] == starts[i + 1] and ends[i + 1] == starts[i + 2])

    def _parse_type(self) -> ast.TypeRef:
        """A type after any type-use annotations (JLS SE 17 §4.11), which
        its span leaves out: its names joined by dots, each name's type
        arguments skipped (`Map<K, V>.Entry<K, V>` is `Map.Entry`, §4.3).
        It records nothing, so a caller may read ahead with it and put the
        cursor back."""
        if self.texts[self.pos] == "@":
            self._parse_annotations()
        kinds, texts, start = self.kinds, self.texts, self.pos
        name = texts[start]
        if kinds[start] != _IDENT or name in _NON_TYPE_WORDS:
            raise _Fail("expected type", self.tok_span(start))
        self.pos = start + 1
        while True:
            if texts[self.pos] == "<":
                self._skip_generics()
            dot = self.pos
            if texts[dot] != "." or name in PRIMITIVES:
                break
            self.pos = i = dot + 1
            if texts[i] == "@":
                self._parse_annotations()  # java.util.@A List
                i = self.pos
            if kinds[i] != _IDENT or texts[i] in _NON_TYPE_WORDS:
                self.pos = dot  # the `.` is not the type's
                break
            name += "." + texts[i]
            self.pos = i + 1
        if texts[self.pos] in _ARRAY_SUFFIX_STARTS:
            self._skip_array_suffix()
        return ast.TypeRef((name, self.span_from(start)))

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

    def _past_name(self, i: int) -> int:
        """The index past the `IDENT(.IDENT)*` from token `i`; `i` if none."""
        kinds, texts = self.kinds, self.texts
        if kinds[i] == _IDENT:
            i += 1
            while texts[i] == "." and kinds[i + 1] == _IDENT:
                i += 2
        return i

    def _skip_generics(self) -> None:
        """The `<…>` at the cursor, the one reader of type parameters and
        type arguments, which are read and dropped, as no site is counted
        from them; anything else between the brackets fails, with "expected
        '>'" or, where a type should start, "expected type"."""
        self._parse_list(self._skip_type_arg, ">")

    def _skip_type_arg(self) -> None:
        """One item of a `<…>`: a type argument (`@A T`, `?`, `? extends T`,
        `? super T`) or a type parameter (`@A T extends B & C`)."""
        if self.texts[self.pos] == "@":
            self._parse_annotations()
        if self.texts[self.pos] == "?":
            self.pos += 1
        else:
            self._parse_type()
        if self.texts[self.pos] in ("extends", "super", "&"):
            self.pos += 1
            self._skip_type_arg()  # a bound, or the next type of an `&` list

    # ── statements ──────────────────────────────────────────────────────

    def _parse_block(self) -> ast.Block:
        start = self.pos
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            stmts.extend(self._parse_statement_recovering())
        self.expect("}")
        return ast.Block((tuple(stmts), self.span_from(start)))

    def _parse_statement_recovering(self, parse: Optional[Callable] = None) -> list[ast.Stmt]:
        """A statement read by `parse`, `_parse_statement` if none, or the
        Opaque statement that stands in its place if it fails."""
        start, recorded, types = self.pos, len(self.site_icp), len(self.types)
        try:
            return (parse or self._parse_statement)()
        except _Fail as exc:
            return [self._recover(exc, start, recorded, types)]

    def _parse_statement(self) -> list[ast.Stmt]:
        """A statement; once it has ended, its `@ICP` annotations are
        recorded as its sites."""
        texts, start = self.texts, self.pos
        uses = self._parse_annotations() if texts[start] == "@" else ()
        i = self.pos
        word = texts[i] if self.kinds[i] == _IDENT else ""
        parse_compound = self._COMPOUND_STATEMENTS.get(word)
        if texts[i] == ";":
            self.pos += 1
            stmts = [ast.Block(((), self.span_from(start)))]
        elif texts[i] == "{":
            stmts = [ast.Block((self._parse_block().stmts, self.span_from(start)))]
        elif parse_compound is not None:
            stmts = [parse_compound(self, start)]
        elif word and texts[i + 1] == ":" and word not in ("case", "default"):
            self.pos += 2  # a label
            stmts = self._parse_statement()
        elif word in ("return", "throw") or word == "yield" and self._at_yield(i):
            # a yield gives its switch expression's value: a Return of it
            self.pos += 1
            expr = None if word == "return" and texts[self.pos] == ";" else self._parse_expr()
            self.expect(";")
            stmts = [(ast.Throw if word == "throw" else ast.Return)((expr, self.span_from(start)))]
        elif word in ("break", "continue"):
            self.pos += 1
            if self.kinds[self.pos] == _IDENT:  # label
                self.pos += 1
            self.expect(";")
            stmts = [ast.Jump((word, self.span_from(start)))]
        elif word == "synchronized" and texts[i + 1] == "(":
            self.pos += 1
            lock = self._parse_par_expr()
            stmts = [ast.ExprStmt((lock, lock.span)),
                     ast.Block((self._parse_block().stmts, self.span_from(start)))]
        elif word == "assert":  # its expressions are statements, and no branch
            self.pos += 1
            stmts = [self._parse_expr_list_stmt(":")]
            self.expect(";")
        elif word in _LOCAL_TYPE_STARTS and self._parse_local_type(start, uses):
            # the annotations are the type's; an empty statement stands in its place
            return [ast.Block(((), self.span_from(start)))]
        else:
            head = self._try_parse_local_head(_DECLARATOR_NEXT)
            if head is None:
                expr = self._parse_expr()
                self.expect(";")
                stmts = [ast.ExprStmt((expr, self.span_from(start)))]
            else:
                stmts = self._parse_local_decl(start, head)
        if uses:
            self.record_icp(start, uses)
        return stmts

    def _parse_rule_body(self) -> list[ast.Stmt]:
        """A `->` rule's body (JLS SE 17 §14.11.1): a block, a `throw` or an
        expression statement, never a declaration."""
        start = self.pos
        if self.texts[start] in ("{", "throw"):
            return self._parse_statement()
        expr = self._parse_expr()
        self.expect(";")
        return [ast.ExprStmt((expr, self.span_from(start)))]

    def _at_yield(self, i: int) -> bool:
        """Whether the `yield` at token `i` starts a yield statement (JLS SE 17
        §14.21): `yield = 2;`, `yield.f();`, `yield[0] = 1;` and `yield++;` do not."""
        after = self.texts[i + 1]
        return after not in _YIELD_NAME_NEXT and (
            after not in ("++", "--") or self.texts[i + 2] != ";")

    def _parse_local_type(self, start: int, uses: tuple[ast.AnnotationUse, ...]) -> bool:
        """A local class, interface, enum or record (JLS SE 17 §14.3) at the
        cursor, whose statement starts at token `start` with the annotations
        `uses`; False, with nothing consumed, if none starts here."""
        i = self.pos
        annotations, header_tok = self._parse_modifiers()
        if not self._at_type_decl():
            self.pos = i
            return False
        self._parse_type_decl(start, uses + annotations, header_tok, local=True)
        return True

    def _parse_if(self, start: int) -> ast.If:
        # an `else if` chain is read link by link in this loop, not by
        # recursion, so no chain length exhausts the stack; the nested If
        # nodes are built innermost first once the chain has ended, and the
        # sites of each link after the first are recorded then
        links = []
        uses: Optional[tuple[ast.AnnotationUse, ...]] = ()
        else_branch: Optional[ast.Stmt] = None
        while True:
            recorded, types = len(self.site_icp), len(self.types)
            try:
                if_kw = self.tok_span(self.expect("if"))
                cond = self._parse_par_expr()
            except _Fail as exc:
                if not links:
                    raise
                # a broken link is the failed statement of the else before it
                else_branch = self._recover(exc, start, recorded, types)
                break
            then = self._parse_substatement()
            else_kw = self.tok_span(self.advance()) if self.texts[self.pos] == "else" else None
            links.append((start, uses, if_kw, cond, then, else_kw))
            if else_kw is None:
                break
            start = self.pos
            uses = self._parse_annotations() if self.texts[start] == "@" else ()
            if self.texts[self.pos] != "if":
                self.pos = start  # not a link: the else branch is parsed whole
                else_branch = self._parse_substatement()
                break
        for start, uses, *_ in links[1:]:
            if uses:
                self.record_icp(start, uses)
        for start, _, if_kw, cond, then, else_kw in reversed(links):
            else_branch = ast.If((cond, then, else_branch, if_kw, else_kw, self.span_from(start)))
        return else_branch

    def _parse_substatement(self) -> ast.Stmt:
        stmts = self._parse_statement_recovering()
        if len(stmts) == 1:
            return stmts[0]
        # multi-declarator local statement as a loop/if body: wrap
        span = Span((stmts[0].span.byte_start, stmts[-1].span.byte_end,
                     stmts[0].span.line_start, stmts[-1].span.line_end))
        return ast.Block((tuple(stmts), span))

    def _parse_while(self, start: int) -> ast.Loop:
        kw = self.tok_span(self.expect("while"))
        cond = self._parse_par_expr()
        body = self._parse_substatement()
        return ast.Loop(("while", cond, body, kw, self.span_from(start), (), (), None, None))

    def _parse_do_while(self, start: int) -> ast.Loop:
        kw = self.tok_span(self.expect("do"))
        body = self._parse_substatement()
        self.expect("while")
        cond = self._parse_par_expr()
        self.expect(";")
        return ast.Loop(("do_while", cond, body, kw, self.span_from(start), (), (), None, None))

    def _parse_for(self, start: int) -> ast.Loop:
        kw = self.tok_span(self.expect("for"))
        self.expect("(")
        head = self._try_parse_local_head(_FOR_HEAD_NEXT)
        if head is not None and self.texts[self.pos + 1] == ":":
            # an enhanced `for`: a fault in its iterable fails the statement
            var_start, uses, declared = head
            name = self.texts[self.advance()]
            self.pos += 1
            iterable = self._parse_expr()
            if uses:
                self.record_icp(var_start, uses)
            var = ast.LocalDecl((name, declared, None, self.span_from(var_start)))
            self.expect(")")
            body = self._parse_substatement()
            return ast.Loop(("for_each", None, body, kw, self.span_from(start), (), (), var,
                             iterable))

        init: list[ast.Stmt] = []
        if head is not None:
            init.extend(self._parse_local_decl(head[0], head))
        elif self.texts[self.pos] == ";":
            self.pos += 1
        else:
            init.append(self._parse_expr_list_stmt())
            self.expect(";")
        cond = None
        if self.texts[self.pos] != ";":
            cond = self._parse_expr()
        self.expect(";")
        update = self._parse_separated(self._parse_expr) if self.texts[self.pos] != ")" else ()
        self.expect(")")
        body = self._parse_substatement()
        return ast.Loop(("for", cond, body, kw, self.span_from(start), tuple(init),
                         tuple(update), None, None))

    def _parse_expr_list_stmt(self, sep: str = ",") -> ast.Stmt:
        start = self.pos
        exprs = self._parse_separated(self._parse_expr, sep)
        span = self.span_from(start)
        if len(exprs) == 1:
            return ast.ExprStmt((exprs[0], span))
        return ast.Block((tuple(ast.ExprStmt((e, e.span)) for e in exprs), span))

    def _try_parse_local_head(self, follow: frozenset[str]) -> Optional[_Head]:
        """The head of a local or loop variable from the cursor, which is left
        at its name; None, with nothing consumed, unless a name that is not a
        reserved word, with a token in `follow` after it, follows the head.
        Only an `@`, or an `IDENT(.IDENT)*` whose first word may start a type
        and which a name, `<`, `[`, `@` or `.` follows, is tried, so `x = 1;`,
        `a.f();` and `new X().f();` are not."""
        kinds, texts, start = self.kinds, self.texts, self.pos
        if texts[start] in _NON_TYPE_WORDS:
            return None
        i = self._past_name(start)
        if kinds[i] != _IDENT and texts[i] not in _DECLARATION_NEXT:
            return None
        try:
            head = self._parse_local_head()
        except _Fail:  # input that is not Java
            self.pos = start
            return None
        i = self.pos
        if kinds[i] != _IDENT or texts[i + 1] not in follow or texts[i] in _RESERVED:
            self.pos = start
            return None
        return start, *head

    def _parse_local_head(self) -> tuple[tuple[ast.AnnotationUse, ...], Optional[ast.TypeRef]]:
        """The modifiers of a local variable, loop variable or try resource,
        and its type: `var` before a name (None: no type is inferred) or a
        type."""
        texts, uses = self.texts, ()
        if texts[self.pos] in _VARIABLE_MODIFIER_STARTS:
            uses = self._parse_modifiers(_VARIABLE_MODIFIERS)[0]
        if texts[self.pos] == "var" and self.kinds[self.pos + 1] == _IDENT:
            self.pos += 1
            return uses, None
        return uses, self._parse_type()

    def _parse_local_decl(self, start: int, head: _Head) -> list[ast.Stmt]:
        """The declarators of a local declaration whose first token is
        `start` and whose head has been read, through the `;`. The head and
        the name after it commit the statement to a declaration, so a fault
        in a declarator fails it where the fault is."""
        _, uses, declared = head
        names = self._parse_declarators(self.texts[self.advance()], "variable name")
        if uses:
            self.record_icp(start, uses)
        span = self.span_from(start)
        return [ast.LocalDecl((nm, declared, iv, span)) for nm, iv in names]

    def _parse_switch(self, start: int) -> ast.Switch:
        kw = self.tok_span(self.expect("switch"))
        scrutinee = self._parse_par_expr()
        self.expect("{")
        cases: list[ast.SwitchCase] = []
        rules: Optional[bool] = None  # whether the first label starts a rule
        mixed = False
        while self.texts[self.pos] != "}" and self.kinds[self.pos] != _EOF:
            case_start = self.pos
            labels: list[ast.CaseLabel] = []
            while self.texts[self.pos] in ("case", "default"):
                kw_pos = lbl_start = self.advance()
                if self.texts[lbl_start] == "default":
                    labels.append(ast.CaseLabel((None, self.span_from(lbl_start))))
                else:
                    self.no_lambda = True
                    try:
                        while True:  # case A, B:
                            expr = self._parse_binary()  # no ternary: ':' ends it
                            labels.append(ast.CaseLabel((expr, self.span_from(lbl_start))))
                            if self.texts[self.pos] != ",":
                                break
                            lbl_start = self.pos = self.pos + 1
                    finally:
                        self.no_lambda = False
                rule = self.texts[self.pos] == "->"
                if rules is None:
                    rules = rule
                elif rule != rules and not mixed:  # javac names the first label only
                    mixed = True
                    self.diag("different case kinds used in the switch", self.tok_span(kw_pos))
                if rule:  # its body follows
                    break
                self.expect(":")
            if not labels:
                raise _Fail("expected 'case' or 'default'", self.tok_span(self.pos))
            stmts: list[ast.Stmt] = []
            rule_end = -1
            if self.texts[self.pos] == "->":
                self.pos += 1
                stmts = self._parse_statement_recovering(self._parse_rule_body)
                rule_end = self.pos
            while (self.texts[self.pos] not in ("}", "case", "default")
                   and self.kinds[self.pos] != _EOF):
                if self.pos == rule_end:  # a rule is its body alone; read on
                    self.diag("case, default, or '}' expected", self.tok_span(self.pos))
                stmts.extend(self._parse_statement_recovering())
            cases.append(ast.SwitchCase((tuple(labels), tuple(stmts),
                                         self.span_from(case_start))))
        self.expect("}")
        return ast.Switch((scrutinee, tuple(cases), kw, self.span_from(start)))

    def _parse_try(self, start: int) -> ast.Try:
        kw = self.tok_span(self.expect("try"))
        resources: tuple[ast.LocalDecl, ...] = ()
        if self.texts[self.pos] == "(":
            resources = self._parse_list(self._parse_resource, sep=";")
        body = self._parse_block()
        catches: list[ast.CatchClause] = []
        while self.texts[self.pos] == "catch":
            c_start = self.pos
            c_kw = self.tok_span(self.advance())
            p_start = self.expect("(") + 1
            uses = self._parse_modifiers(_VARIABLE_MODIFIERS)[0]
            types = self._parse_separated(self._parse_type, "|")  # multi-catch: one clause
            pname = self.texts[self.expect_ident("catch parameter")]
            if uses:
                self.record_icp(p_start, uses)
            self.expect(")")
            c_body = self._parse_block()
            catches.append(ast.CatchClause((pname, tuple(types), c_body, c_kw,
                                            self.span_from(c_start))))
        finally_block = None
        finally_kw = None
        if self.texts[self.pos] == "finally":
            finally_kw = self.tok_span(self.advance())
            finally_block = self._parse_block()
        return ast.Try((resources, body, tuple(catches), finally_block,
                        kw, finally_kw, self.span_from(start)))

    def _parse_resource(self) -> Optional[ast.LocalDecl]:
        """A try resource: a variable declared with its initializer, or None
        for an `IDENT(.IDENT)*` that names one (JLS SE 17 §14.20.3)."""
        start = self.pos
        i = self._past_name(start)
        if i > start and self.texts[i] in (";", ")"):
            self.pos = i
            return None
        uses, declared = self._parse_local_head()
        name = self.texts[self.expect_ident("resource name")]
        self.expect("=")
        init = self._parse_expr()
        if uses:
            self.record_icp(start, uses)
        return ast.LocalDecl((name, declared, init, self.span_from(start)))

    # ── expressions ─────────────────────────────────────────────────────

    def _parse_expr(self) -> ast.Expr:
        """An expression: an assignment, a ternary or a binary chain."""
        start = self.pos
        lhs = self._parse_binary()
        if self.texts[self.pos] == "?":
            lhs = self._ternary_rest(start, lhs)
        if self.texts[self.pos] in _ASSIGN_OPS:
            op = self.texts[self.pos]
            self.pos += 1
            value = self._parse_expr()
            return ast.Assign((op, lhs, value, self.span_from(start)))
        return lhs

    def _parse_par_expr(self) -> ast.Expr:
        """`( Expression )`: the condition or operand of `if`, `while`, `do`,
        `switch` and `synchronized`."""
        self.expect("(")
        expr = self._parse_expr()
        self.expect(")")
        return expr

    def _ternary_rest(self, start: int, cond: ast.Expr) -> ast.Ternary:
        """The ternary whose condition `cond`, from token `start`, has been
        read: its `?` is at the cursor. Its operands are read by
        `_parse_expr`, so `c ? a = 1 : b` is one (JLS SE 17 §15.25)."""
        q_span = self.tok_span(self.pos)
        self.pos += 1
        then_expr = self._parse_expr()
        self.expect(":")
        else_expr = self._parse_expr()
        return ast.Ternary((cond, then_expr, else_expr, q_span, self.span_from(start)))

    def _parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: a chain of binary operators of level min_prec
        or tighter, left-associative; each node spans from the chain's start."""
        texts, start = self.texts, self.pos
        if texts[start] in _UNARY_STARTS:
            lhs = self._parse_unary()
        else:
            lhs = self._parse_postfix()
        # after combining at level p only level p or looser may follow, so
        # `x instanceof T - b`, whose type operand is no shift expression,
        # stops at the '-' as the level-by-level grammar does
        ceiling = _TIGHTEST
        while True:
            op_tok = self.pos
            op = texts[op_tok]
            if op == ">":
                op = self._binary_op()
            prec = _BINARY_PREC.get(op, 0)
            if not min_prec <= prec <= ceiling:
                return lhs
            ceiling = prec
            # a '>>' or '>>>' is that many adjacent ">" tokens
            self.pos += len(op) if texts[op_tok] == ">" else 1
            op_span = self.span_from(op_tok)
            if op == "instanceof":
                # `x instanceof final @A T t`, JLS SE 17 §4.11 and §14.30.1
                p_start, uses = self.pos, ()
                if texts[p_start] in _VARIABLE_MODIFIER_STARTS:
                    uses = self._parse_modifiers(_VARIABLE_MODIFIERS)[0]
                ty = self._parse_type()
                if self.kinds[self.pos] == _IDENT:  # pattern variable (accepted, unused)
                    self.pos += 1
                    if uses:
                        self.record_icp(p_start, uses)
                rhs = ast.NameRef((ty.qualified_name, ty.span))
            else:
                rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary((op, lhs, rhs, op_span, self.span_from(start)))

    def _binary_op(self) -> str:
        """The operator from the '>' at the cursor: with an adjacent '>'
        after it, a shift."""
        i, texts = self.pos, self.texts
        if texts[i + 1] == ">" and self.ends[i] == self.starts[i + 1]:
            adjacent = texts[i + 2] == ">" and self.ends[i + 1] == self.starts[i + 2]
            return ">>>" if adjacent else ">>"
        return ">"

    def _parse_unary(self) -> ast.Expr:
        start = self.pos
        text = self.texts[start]
        if text in _PREFIX_OPS:
            self.pos += 1
            return ast.Unary((text, self._parse_unary(), self.span_from(start)))
        if text == "(":
            cast = self._try_parse_cast(start)
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _try_parse_cast(self, start: int) -> Optional[ast.Expr]:
        """A cast from the `(` at `start`; None, with nothing consumed, if
        there is none. It is decided before its operand is read: the `(` has
        a partner, a token a cast applies to follows it (a sign, `++` or
        `--` only after one primitive name), and what lies between them
        reads as types joined by `&` (JLS SE 17 §15.16). The operand is then
        read once, so a fault in it fails its statement."""
        texts, close = self.texts, self.partners[start]
        kind, text = self.kinds[close + 1], texts[close + 1]
        castable = (kind == _IDENT or kind in _LITERALS or text in ("(", "!", "~")
                    or text in _SIGNS and close == start + 2 and texts[start + 1] in PRIMITIVES)
        if close < 0 or not castable or text == "instanceof":
            return None
        self.pos = start + 1
        try:
            ty = self._parse_separated(self._parse_type, "&")[0]  # `(A & B) x`
            self.expect(")")  # the partner, as a type holds no unpaired `(`
        except _Fail:
            self.pos = start
            return None
        return ast.Cast((ty, self._parse_unary(), self.span_from(start)))

    def _parse_postfix(self) -> ast.Expr:
        kinds, texts, start = self.kinds, self.texts, self.pos
        word = texts[start]
        if (kinds[start] == _IDENT and word not in _PRIMARY_WORDS
                and (texts[start + 1] != "->" or self.no_lambda)):
            self.pos = start + 1
            expr = ast.NameRef((word, self.tok_span(start)))
        else:
            expr = self._parse_primary()
        while True:
            k = texts[self.pos]
            if k == ".":
                self.pos += 1
                if self.texts[self.pos] == "<":  # obj.<T>call()
                    self._skip_generics()
                elif self.kinds[self.pos] != _IDENT:
                    raise _Fail("expected member name after '.'", self.tok_span(self.pos))
                name_tok = self.expect_ident("member name")
                if self.texts[self.pos] == "(":
                    args = self._parse_list(self._parse_expr)
                    expr = ast.Call((expr, self.texts[name_tok], args, self.span_from(start)))
                else:
                    expr = ast.FieldAccess((expr, self.texts[name_tok], self.span_from(start)))
            elif k == "(" and type(expr) is ast.NameRef:
                args = self._parse_list(self._parse_expr)
                expr = ast.Call((None, expr.name, args, self.span_from(start)))
            elif k == "[" and texts[self.pos + 1] == "]":
                # an array type's constructor reference, `int[][]::new`
                # (JLS SE 17 §15.13), or its class literal, `int[].class`
                # (§15.8.2): its dimensions, then the `::` or `.class`
                i = self.pos + 2
                while texts[i] == "[" and texts[i + 1] == "]":
                    i += 2
                if texts[i] != "::" and (texts[i] != "." or texts[i + 1] != "class"):
                    raise _Fail("expected expression", self.tok_span(self.pos + 1))
                self.pos = i
            elif k == "[":
                self.pos += 1
                idx = self._parse_expr()
                self.expect("]")
                expr = ast.IndexAccess((expr, idx, self.span_from(start)))
            elif k == "::":
                self.pos += 1
                if self.kinds[self.pos] == _IDENT:  # a method name or `new`
                    name = self.texts[self.advance()]
                else:
                    raise _Fail("expected method reference name", self.tok_span(self.pos))
                expr = ast.MethodRef((expr, name, self.span_from(start)))
            elif k in ("++", "--"):
                op = self.texts[self.advance()]
                expr = ast.Unary((op, expr, self.span_from(start)))
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        start = self.pos
        kind, word = self.kinds[start], self.texts[start]
        if kind in _LITERALS or word in ("true", "false", "null"):
            self.pos += 1
            return ast.Literal((word, self.tok_span(start)))

        if kind == _IDENT:
            if word == "new":
                return self._parse_new(start)
            if word == "switch":
                return self._parse_switch(start)
            return self._parse_lambda(start)  # `_parse_postfix` reads any other name

        if word == "(":
            # a `(` with no partner reads token 0, never a `->` in a file
            # whose parse reached an expression
            if self.texts[self.partners[start] + 1] == "->" and not self.no_lambda:
                return self._parse_lambda(start)
            self.pos += 1
            inner = self._parse_expr()
            self.expect(")")
            return inner

        if word == "{":
            return self._parse_initializer_list()

        raise _Fail("expected expression", self.tok_span(self.pos))

    def _parse_new(self, start: int) -> ast.Expr:
        self.expect("new")
        ty = self._parse_type()
        # `new T[n]`, or `new T[] {...}`, whose `[]` the type has taken
        if self.texts[self.pos] == "[" or self.texts[self.pos - 1] == "]":
            dims: list[ast.Expr] = []
            while self.texts[self.pos] == "[":
                self.pos += 1
                if self.texts[self.pos] != "]":
                    dims.append(self._parse_expr())
                self.expect("]")
            init = None
            if self.texts[self.pos] == "{":
                init = self._parse_initializer_list()
            return ast.ArrayNew((ty, tuple(dims), init, self.span_from(start)))
        args: tuple[ast.Expr, ...] = ()
        if self.texts[self.pos] == "(":
            args = self._parse_list(self._parse_expr)
        body = None
        if self.texts[self.pos] == "{":
            body = self._parse_anonymous_body()
        return ast.New((ty, args, body, self.span_from(start)))

    def _parse_lambda(self, start: int) -> ast.Lambda:
        """A lambda whose one parameter's name, or whose `(`, is at `start`."""
        if self.texts[start] == "(":
            params = self._parse_list(self._parse_lambda_param)
        else:
            params = (self.texts[self.advance()],)
        self.expect("->")
        body = self._parse_block() if self.texts[self.pos] == "{" else self._parse_expr()
        return ast.Lambda((params, body, self.span_from(start)))

    def _parse_lambda_param(self) -> str:
        """A lambda parameter's name: a name alone, or a parameter as a
        method declares it, whose type may be `var`."""
        if self.kinds[self.pos] == _IDENT and self.texts[self.pos + 1] in (",", ")"):
            return self.texts[self.advance()]
        return self._parse_param().name

    # ── recovery and skipping ───────────────────────────────────────────

    def _recover(self, exc: _Fail, start: int, recorded: int, types: int) -> ast.Stmt:
        """Recover from the failure of the statement or member from token
        `start`: diagnose its fault `exc`, drop the sites and types recorded
        since it began, when there were `recorded` and `types`, and skip the
        rest of it. The Opaque statement returned stands in a statement's
        place; a member has none."""
        self.diag(exc.message, exc.span)
        del self.site_icp[recorded:]
        self.taken.subtract(t if type(t) is str else t.name for t in self.types[types:])
        del self.types[types:]
        self.numbered.clear()
        self._skip_statement()
        span = self.span_from(start) if self.pos > start else self.tok_span(start)
        return ast.ExprStmt((ast.Opaque((span,)), span))

    def _skip_statement(self) -> None:
        """Skip through the next `;` or `{…}` (a method body, or a statement's
        last block), or to the `}` that closes the enclosing block."""
        while self.kinds[self.pos] != _EOF and self.texts[self.pos] != "}":
            if self.texts[self.pos] == "{":
                self._skip_balanced()
                return
            if self.texts[self.advance()] == ";":
                return

    def _skip_balanced(self) -> None:
        """Past the `(` or `{` at the cursor and its partner; from one with no
        partner, to EOF."""
        partner = self.partners[self.pos]
        self.pos = partner + 1 if partner >= 0 else self.kinds.index(_EOF)

    # statements that start with a keyword and hold other statements or blocks
    _COMPOUND_STATEMENTS = {
        "if": _parse_if, "while": _parse_while, "do": _parse_do_while,
        "for": _parse_for, "switch": _parse_switch, "try": _parse_try,
    }


@cache
def _parse_decimal(text: str) -> Optional[Fraction]:
    """The value of a decimal literal's text, made once per text."""
    t = text.rstrip(_NUMBER_SUFFIXES)
    if not re.fullmatch(r"\d+(?:\.\d+)?", t):
        return None
    return Fraction(t)
