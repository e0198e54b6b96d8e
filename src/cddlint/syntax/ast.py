"""Syntax tree for the analyzed Java subset.

All nodes are immutable and carry a byte Span, so parsed units can be shared
freely across threads and spans can be spliced back into the original bytes.

Nodes are records (see `cddlint.records`): tuples whose fields are listed in
`_fields`, built from one tuple of all their fields in that order, as
`Binary((op, lhs, rhs, op_span, span))`; no field has a default. `==` is
tuple equality, so nodes of two types with equal fields compare equal; no
reader compares nodes, it tests their type.

Each class names in `_children` its fields that hold nodes, or tuples of
them, and `iter_children` yields those nodes in field order, by the indices
the record metaclass made of the names: it reads no field by name and tests
no attribute, and it is the one statement of a node's shape that the engine
reads. A field that holds a node and is not named there is walked by no one.

`SourceUnit.types` lists every type of a file once, top-level, member and
local, in pre-order: an outer type before the types declared in it,
siblings in source order, so a type's span lies inside the span of each type
that holds it. A member type's `name` is dotted (`Outer.Inner`), a local
type's is its binary name (`Outer$1Local`, JLS SE 17 §13.1), and no type is
held by a field of another. An anonymous class body or an enum constant's
body is a `ClassBody`, held by its `New` or `EnumConstant`: it is no type.

The comments give a field's type where its name does not: an `Expr`, a
`Stmt` and the like are nodes, `(X, ...)` is a tuple of them, and `| None`
marks a field that may be absent.
"""

from __future__ import annotations

from typing import Iterator, Union

from ..records import Record


class Span(Record):
    _fields = ("byte_start", "byte_end", "line_start", "line_end")  # ints

    def contains(self, other: "Span") -> bool:
        return self.byte_start <= other.byte_start and other.byte_end <= self.byte_end


class Diagnostic(Record):
    _fields = ("message", "span")


class AnnotationUse(Record):
    _fields = (
        "name",  # dotted; simple_name() gives the last segment
        "numeric_arg",  # Fraction | None: set iff written as @Name(<decimal>)
        "span",
    )

    def simple_name(self) -> str:
        return self.name.rpartition(".")[2]


class SiteIcp(Record):
    """A site-level `@ICP(n)` annotation on a field, a method, a parameter
    or record component, a catch parameter, an `instanceof` pattern, a
    statement or a local variable."""

    _fields = (
        "owner",  # name of the type the element belongs to
        "span",  # span of the element
        "value",  # Fraction | None: None for an annotation with no decimal argument
        "use_span",  # span of the annotation
    )


class TypeRef(Record):
    _fields = ("qualified_name", "span")  # name: no type arguments, no []; span: both

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rpartition(".")[2]


class Param(Record):
    _fields = ("name", "type", "span")  # type: TypeRef
    _children = ("type",)


# ── Expressions ──────────────────────────────────────────────────────────

class Binary(Record):
    _fields = (
        "op",  # || && | ^ & == != < > <= >= instanceof << >> >>> + - * / %
        "lhs", "rhs",  # Expr
        "op_span", "span",
    )
    _children = ("lhs", "rhs")


class Unary(Record):
    _fields = ("op", "inner", "span")  # op: prefix ! ~ + - ++ --, or postfix ++ --
    _children = ("inner",)


class Assign(Record):
    _fields = ("op", "target", "value", "span")  # op: = += -= ...
    _children = ("target", "value")


class Ternary(Record):
    _fields = ("cond", "then_expr", "else_expr", "question_span", "span")
    _children = ("cond", "then_expr", "else_expr")


class Call(Record):
    _fields = ("receiver", "name", "args", "span")  # receiver: Expr | None
    _children = ("receiver", "args")


class NameRef(Record):
    _fields = ("name", "span")


class FieldAccess(Record):
    _fields = ("receiver", "name", "span")
    _children = ("receiver",)


class IndexAccess(Record):
    _fields = ("receiver", "index", "span")
    _children = ("receiver", "index")


class Lambda(Record):
    _fields = ("params", "body", "span")  # params: (str, ...); body: Expr | Block
    _children = ("body",)


class New(Record):
    _fields = ("type", "args", "body", "span")  # body: ClassBody | None
    _children = ("type", "args", "body")


class ArrayNew(Record):
    _fields = ("type", "dims", "init", "span")  # init: Expr | None
    _children = ("type", "dims", "init")


class Cast(Record):
    _fields = ("type", "inner", "span")
    _children = ("type", "inner")


class Literal(Record):
    _fields = ("text", "span")


class MethodRef(Record):
    _fields = ("receiver", "name", "span")
    _children = ("receiver",)


class InitializerList(Record):
    _fields = ("items", "span")
    _children = ("items",)


class Opaque(Record):
    """The expression of a failed statement, which is not Java: no count."""

    _fields = ("span",)


# a switch expression is a `Switch`, the statement's node, standing as an Expr
Expr = Union[
    Binary, Unary, Assign, Ternary, Call, NameRef, FieldAccess, IndexAccess,
    Lambda, New, ArrayNew, Cast, Literal, MethodRef, InitializerList, Opaque,
]


# ── Statements ───────────────────────────────────────────────────────────

class Block(Record):
    _fields = ("stmts", "span")
    _children = ("stmts",)


class If(Record):
    _fields = (
        "condition", "then",
        "else_branch",  # Stmt | None
        "if_kw",
        "else_kw",  # Span | None
        "span",
    )
    _children = ("condition", "then", "else_branch")


class Loop(Record):
    _fields = (
        "kind",  # for | while | do_while | for_each
        "condition",  # Expr | None
        "body", "kw", "span",
        "init", "update",  # classic for: (Stmt, ...), (Expr, ...); else ()
        "var", "iterable",  # enhanced for: LocalDecl, Expr; else None
    )
    _children = ("condition", "body", "init", "update", "var", "iterable")


class CaseLabel(Record):
    _fields = ("expr", "span")  # expr: None for `default`
    _children = ("expr",)


class SwitchCase(Record):
    _fields = ("labels", "stmts", "span")  # a `->` rule's stmts: its one statement
    _children = ("labels", "stmts")


class Switch(Record):
    _fields = ("scrutinee", "cases", "kw", "span")
    _children = ("scrutinee", "cases")


class CatchClause(Record):
    _fields = (
        "param_name",
        "types",  # (TypeRef, ...): multi-catch keeps one clause, many types
        "body", "kw", "span",
    )
    _children = ("types", "body")


class Try(Record):
    _fields = (
        "resources",  # (LocalDecl, ...)
        "body", "catches",
        "finally_block",  # Block | None
        "kw",
        "finally_kw",  # Span | None
        "span",
    )
    _children = ("resources", "body", "catches", "finally_block")


class LocalDecl(Record):
    _fields = (
        "name",
        "declared_type",  # None for `var` (no inference is done)
        "initializer",  # Expr | None
        "span",
    )
    _children = ("declared_type", "initializer")


class ExprStmt(Record):
    _fields = ("expr", "span")
    _children = ("expr",)


class Return(Record):
    _fields = ("expr", "span")  # expr: Expr | None; a `yield` is a Return too
    _children = ("expr",)


class Throw(Record):
    _fields = ("expr", "span")
    _children = ("expr",)


class Jump(Record):
    _fields = ("kind", "span")  # break | continue; a label is skipped


Stmt = Union[
    Block, If, Loop, Switch, Try, LocalDecl, ExprStmt, Return, Throw, Jump,
]


# ── Declarations ─────────────────────────────────────────────────────────

class FieldDecl(Record):
    _fields = (
        "name",
        "declared_type",  # fields always carry an explicit type
        "initializer",  # Expr | None
        "span",
    )
    _children = ("declared_type", "initializer")


class MethodDecl(Record):
    _fields = (
        "name",
        "params",  # () for an initializer and a compact constructor
        "return_type",  # None for void and constructors
        "body",  # None for abstract / interface methods
        "span",
    )
    _children = ("params", "return_type", "body")


class ClassBody(Record):
    """The body of an anonymous class or of an enum constant: its members
    are code of the type that holds it."""

    _fields = ("fields", "methods", "span")
    _children = ("fields", "methods")


class EnumConstant(Record):
    _fields = ("name", "args", "body", "span")  # body: ClassBody | None
    _children = ("args", "body")


class TypeDecl(Record):
    _fields = (
        "name",  # `Outer.Inner` for a member type, `Outer$1Local` for a local one
        "kind",  # class | interface | enum | record | @interface
        "annotations",
        "fields",  # a record's components first (JLS SE 17 §8.10.3)
        # an annotation type's elements are methods with no body; an
        # initializer is a method named `<clinit>` if static, else `<init>`
        "methods",
        "span",  # a nested or local type's lies inside its outer type's
        "header_start",  # byte offset of the first modifier, else of the keyword
        "enum_constants",  # (EnumConstant, ...), () unless an enum
    )
    _children = ("annotations", "fields", "methods", "enum_constants")


class SourceUnit(Record):
    _fields = (
        "path",
        "types",  # (TypeDecl, ...): every type, top-level, member and local, outer first
        "diagnostics",
        "site_icp",  # (SiteIcp, ...), in the order their elements end
    )
    _children = ("types", "diagnostics", "site_icp")


def iter_children(node: tuple) -> Iterator[tuple]:
    """Yield the direct child nodes of a node, in field order: the value of
    each field its class names in `_children`, or the items of a tuple there;
    a field holding None yields nothing. Its readers are the engine's
    expression walk (`_TypeWalker._walk_expr`) and its `&&`/`||` search
    (`_collect_bool_ops`); an expression kind added here is walked by both
    with no edit there."""
    for index in node._child_indices:
        value = node[index]
        if type(value) is tuple:  # a node is a tuple subclass, never a tuple
            yield from value
        elif value is not None:
            yield value
