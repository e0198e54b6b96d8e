"""Syntax tree for the analyzed Java subset.

All nodes are immutable and carry a byte Span, so parsed units can be shared
freely across threads and spans can be spliced back into the original bytes.

Nodes are `typing.NamedTuple`s: defining one costs far less at import than
a frozen dataclass, and a node is built as cheaply as a tuple. `==` is tuple
equality, so nodes of two types with equal fields compare equal; no reader
compares nodes, it tests their type with `isinstance`. `iter_children` walks
a node's fields in order and yields those that are nodes or hold nodes in a
tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union


class Span(NamedTuple):
    byte_start: int
    byte_end: int
    line_start: int
    line_end: int

    def contains(self, other: "Span") -> bool:
        return self.byte_start <= other.byte_start and other.byte_end <= self.byte_end


class Diagnostic(NamedTuple):
    message: str
    span: Span


class AnnotationUse(NamedTuple):
    name: str  # dotted; simple_name() gives the last segment
    numeric_arg: Optional[Fraction]  # set iff written as @Name(<decimal>)
    span: Span

    def simple_name(self) -> str:
        return self.name.rpartition(".")[2]


class Marker(NamedTuple):
    """A `// @ICP(<decimal>)` line comment preceding a statement."""

    value: Fraction
    span: Span


class TypeRef(NamedTuple):
    qualified_name: str  # array suffixes already normalized away
    type_args: tuple["TypeRef", ...]
    span: Span

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rpartition(".")[2]


class Param(NamedTuple):
    name: str
    type: TypeRef
    annotations: tuple[AnnotationUse, ...]
    span: Span


# ── Expressions ──────────────────────────────────────────────────────────

class Binary(NamedTuple):
    op: str  # || && | ^ & == != < > <= >= instanceof << >> >>> + - * / %
    lhs: "Expr"
    rhs: "Expr"
    op_span: Span
    span: Span


class Unary(NamedTuple):
    op: str  # prefix ! ~ + - ++ --, or postfix ++ --
    inner: "Expr"
    span: Span


class Assign(NamedTuple):
    op: str  # = += -= ...
    target: "Expr"
    value: "Expr"
    span: Span


class Ternary(NamedTuple):
    cond: "Expr"
    then_expr: "Expr"
    else_expr: "Expr"
    question_span: Span
    span: Span


class Call(NamedTuple):
    receiver: Optional["Expr"]
    name: str
    args: tuple["Expr", ...]
    span: Span


class NameRef(NamedTuple):
    name: str
    span: Span


class FieldAccess(NamedTuple):
    receiver: "Expr"
    name: str
    span: Span


class IndexAccess(NamedTuple):
    receiver: "Expr"
    index: "Expr"
    span: Span


class Lambda(NamedTuple):
    params: tuple[str, ...]
    body: Union["Expr", "Block"]
    span: Span


class New(NamedTuple):
    type: TypeRef
    args: tuple["Expr", ...]
    span: Span


class ArrayNew(NamedTuple):
    type: TypeRef
    dims: tuple["Expr", ...]
    init: Optional["Expr"]
    span: Span


class Cast(NamedTuple):
    type: TypeRef
    inner: "Expr"
    span: Span


class Literal(NamedTuple):
    text: str
    span: Span


class MethodRef(NamedTuple):
    receiver: "Expr"
    name: str
    span: Span


class InitializerList(NamedTuple):
    items: tuple["Expr", ...]
    span: Span


class Opaque(NamedTuple):
    """An expression outside the supported grammar; children keep any counted
    constructs that could be recovered from inside it visible to the engine."""

    children: tuple["Expr", ...]
    span: Span


Expr = Union[
    Binary, Unary, Assign, Ternary, Call, NameRef, FieldAccess, IndexAccess,
    Lambda, New, ArrayNew, Cast, Literal, MethodRef, InitializerList, Opaque,
]


# ── Statements ───────────────────────────────────────────────────────────

class Block(NamedTuple):
    stmts: tuple["Stmt", ...]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class If(NamedTuple):
    condition: Expr
    then: "Stmt"
    else_branch: Optional["Stmt"]
    if_kw: Span
    else_kw: Optional[Span]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class Loop(NamedTuple):
    kind: str  # for | while | do_while | for_each
    condition: Optional[Expr]
    body: "Stmt"
    kw: Span
    span: Span
    init: tuple["Stmt", ...] = ()         # classic for
    update: tuple[Expr, ...] = ()         # classic for
    var: Optional["LocalDecl"] = None     # enhanced for
    iterable: Optional[Expr] = None       # enhanced for
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class CaseLabel(NamedTuple):
    expr: Optional[Expr]  # None for `default`
    span: Span


class SwitchCase(NamedTuple):
    labels: tuple[CaseLabel, ...]
    stmts: tuple["Stmt", ...]
    span: Span


class Switch(NamedTuple):
    scrutinee: Expr
    cases: tuple[SwitchCase, ...]
    kw: Span
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class CatchClause(NamedTuple):
    param_name: str
    types: tuple[TypeRef, ...]  # multi-catch keeps one clause, many types
    body: Block
    kw: Span
    span: Span


class Try(NamedTuple):
    resources: tuple["LocalDecl", ...]
    body: Block
    catches: tuple[CatchClause, ...]
    finally_block: Optional[Block]
    kw: Span
    finally_kw: Optional[Span]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class LocalDecl(NamedTuple):
    name: str
    declared_type: Optional[TypeRef]  # None for `var` (no inference is done)
    initializer: Optional[Expr]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class ExprStmt(NamedTuple):
    expr: Expr
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class Return(NamedTuple):
    expr: Optional[Expr]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class Throw(NamedTuple):
    expr: Expr
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


class Jump(NamedTuple):
    kind: str  # break | continue; a label is skipped
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


Stmt = Union[
    Block, If, Loop, Switch, Try, LocalDecl, ExprStmt, Return, Throw, Jump,
]


# ── Declarations ─────────────────────────────────────────────────────────

class FieldDecl(NamedTuple):
    name: str
    declared_type: TypeRef  # fields always carry an explicit type
    annotations: tuple[AnnotationUse, ...]
    initializer: Optional[Expr]
    span: Span


class MethodDecl(NamedTuple):
    name: str
    params: tuple[Param, ...]
    return_type: Optional[TypeRef]  # None for void and constructors
    annotations: tuple[AnnotationUse, ...]
    body: Optional[Block]  # None for abstract / interface methods
    span: Span
    body_line_count: int  # body brace span height; 0 when body is absent


class EnumConstant(NamedTuple):
    name: str
    args: tuple[Expr, ...]
    span: Span


class TypeDecl(NamedTuple):
    name: str
    kind: str  # class | interface | enum
    annotations: tuple[AnnotationUse, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    nested: tuple["TypeDecl", ...]
    span: Span
    header_start: int  # byte offset of the first header token after annotations
    enum_constants: tuple[EnumConstant, ...] = ()


class SourceUnit(NamedTuple):
    path: str
    types: tuple[TypeDecl, ...]
    physical_lines: int  # LF count, as `wc -l` gives; a lone CR is not counted
    diagnostics: tuple[Diagnostic, ...] = ()


def iter_type_decls(unit: SourceUnit) -> Iterator[tuple[str, TypeDecl]]:
    """Yield (dotted_name, decl) for every top-level and nested type, in
    pre-order; a stack, as a recursive closure would be a reference cycle."""
    stack = [("", top) for top in reversed(unit.types)]
    while stack:
        prefix, decl = stack.pop()
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        yield dotted, decl
        stack += ((dotted, inner) for inner in reversed(decl.nested))


def iter_children(node: tuple) -> Iterator[tuple]:
    """Yield the direct child nodes of a node, in field order."""
    for value in node:
        if hasattr(value, "span"):  # a node; a Span has no `span`
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if hasattr(item, "span"):
                    yield item
