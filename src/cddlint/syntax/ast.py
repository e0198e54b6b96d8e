"""Syntax tree for the analyzed Java subset.

All nodes are immutable (frozen dataclasses over tuples) and carry a byte
Span, so parsed units can be shared freely across threads and spans can be
spliced back into the original bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union


class Span(NamedTuple):
    byte_start: int
    byte_end: int
    line_start: int
    line_end: int

    def contains(self, other: "Span") -> bool:
        return self.byte_start <= other.byte_start and other.byte_end <= self.byte_end


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span


@dataclass(frozen=True)
class AnnotationUse:
    name: str  # dotted; simple_name() gives the last segment
    numeric_arg: Optional[Fraction]  # set iff written as @Name(<decimal>)
    span: Span

    def simple_name(self) -> str:
        return self.name.rpartition(".")[2]


@dataclass(frozen=True)
class Marker:
    """A `// @ICP(<decimal>)` line comment preceding a statement."""

    value: Fraction
    span: Span


@dataclass(frozen=True)
class TypeRef:
    qualified_name: str  # array suffixes already normalized away
    type_args: tuple["TypeRef", ...]
    span: Span

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rpartition(".")[2]


@dataclass(frozen=True)
class Param:
    name: str
    type: TypeRef
    annotations: tuple[AnnotationUse, ...]
    span: Span


# ── Expressions ──────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Binary:
    op: str  # || && | ^ & == != < > <= >= instanceof << >> >>> + - * / %
    lhs: "Expr"
    rhs: "Expr"
    op_span: Span
    span: Span


@dataclass(frozen=True)
class Unary:
    op: str  # prefix ! ~ + - ++ --, or postfix ++ --
    inner: "Expr"
    span: Span


@dataclass(frozen=True)
class Assign:
    op: str  # = += -= ...
    target: "Expr"
    value: "Expr"
    span: Span


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then_expr: "Expr"
    else_expr: "Expr"
    question_span: Span
    span: Span


@dataclass(frozen=True)
class Call:
    receiver: Optional["Expr"]
    name: str
    args: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class NameRef:
    name: str
    span: Span


@dataclass(frozen=True)
class FieldAccess:
    receiver: "Expr"
    name: str
    span: Span


@dataclass(frozen=True)
class IndexAccess:
    receiver: "Expr"
    index: "Expr"
    span: Span


@dataclass(frozen=True)
class Lambda:
    params: tuple[str, ...]
    body: Union["Expr", "Block"]
    span: Span


@dataclass(frozen=True)
class New:
    type: TypeRef
    args: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class ArrayNew:
    type: TypeRef
    dims: tuple["Expr", ...]
    init: Optional["Expr"]
    span: Span


@dataclass(frozen=True)
class Cast:
    type: TypeRef
    inner: "Expr"
    span: Span


@dataclass(frozen=True)
class Literal:
    text: str
    span: Span


@dataclass(frozen=True)
class MethodRef:
    receiver: "Expr"
    name: str
    span: Span


@dataclass(frozen=True)
class InitializerList:
    items: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class Opaque:
    """An expression outside the supported grammar; children keep any counted
    constructs that could be recovered from inside it visible to the engine."""

    children: tuple["Expr", ...]
    span: Span


Expr = Union[
    Binary, Unary, Assign, Ternary, Call, NameRef, FieldAccess, IndexAccess,
    Lambda, New, ArrayNew, Cast, Literal, MethodRef, InitializerList, Opaque,
]


# ── Statements ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Block:
    stmts: tuple["Stmt", ...]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class If:
    condition: Expr
    then: "Stmt"
    else_branch: Optional["Stmt"]
    if_kw: Span
    else_kw: Optional[Span]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class Loop:
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


@dataclass(frozen=True)
class CaseLabel:
    expr: Optional[Expr]  # None for `default`
    span: Span


@dataclass(frozen=True)
class SwitchCase:
    labels: tuple[CaseLabel, ...]
    stmts: tuple["Stmt", ...]
    span: Span


@dataclass(frozen=True)
class Switch:
    scrutinee: Expr
    cases: tuple[SwitchCase, ...]
    kw: Span
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class CatchClause:
    param_name: str
    types: tuple[TypeRef, ...]  # multi-catch keeps one clause, many types
    body: Block
    kw: Span
    span: Span


@dataclass(frozen=True)
class Try:
    resources: tuple["LocalDecl", ...]
    body: Block
    catches: tuple[CatchClause, ...]
    finally_block: Optional[Block]
    kw: Span
    finally_kw: Optional[Span]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class LocalDecl:
    name: str
    declared_type: Optional[TypeRef]  # None for `var` (no inference is done)
    initializer: Optional[Expr]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class Return:
    expr: Optional[Expr]
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class Throw:
    expr: Expr
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


@dataclass(frozen=True)
class Jump:
    kind: str  # break | continue; a label is skipped
    span: Span
    annotations: tuple[AnnotationUse, ...] = ()
    markers: tuple[Marker, ...] = ()


Stmt = Union[
    Block, If, Loop, Switch, Try, LocalDecl, ExprStmt, Return, Throw, Jump,
]


# ── Declarations ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class FieldDecl:
    name: str
    declared_type: TypeRef  # fields always carry an explicit type
    annotations: tuple[AnnotationUse, ...]
    initializer: Optional[Expr]
    span: Span


@dataclass(frozen=True)
class MethodDecl:
    name: str
    params: tuple[Param, ...]
    return_type: Optional[TypeRef]  # None for void and constructors
    annotations: tuple[AnnotationUse, ...]
    body: Optional[Block]  # None for abstract / interface methods
    span: Span
    body_line_count: int  # body brace span height; 0 when body is absent


@dataclass(frozen=True)
class EnumConstant:
    name: str
    args: tuple[Expr, ...]
    span: Span


@dataclass(frozen=True)
class TypeDecl:
    name: str
    kind: str  # class | interface | enum
    annotations: tuple[AnnotationUse, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    nested: tuple["TypeDecl", ...]
    span: Span
    header_start: int  # byte offset of the first header token after annotations
    enum_constants: tuple[EnumConstant, ...] = ()


@dataclass(frozen=True)
class SourceUnit:
    path: str
    types: tuple[TypeDecl, ...]
    physical_lines: int
    raw_text_hash: str
    diagnostics: tuple[Diagnostic, ...] = ()


def iter_type_decls(unit: SourceUnit) -> Iterator[tuple[str, TypeDecl]]:
    """Yield (dotted_name, decl) for every top-level and nested type."""

    def walk(prefix: str, decl: TypeDecl) -> Iterator[tuple[str, TypeDecl]]:
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        yield dotted, decl
        for inner in decl.nested:
            yield from walk(dotted, inner)

    for top in unit.types:
        yield from walk("", top)


def iter_children(node: object) -> Iterator[object]:
    """Yield the direct spanned child nodes of a dataclass AST node."""
    for f in dataclasses.fields(node):  # type: ignore[arg-type]
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value) and hasattr(value, "span"):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if dataclasses.is_dataclass(item) and hasattr(item, "span"):
                    yield item
