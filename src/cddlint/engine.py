"""ICP counting engine.

Walks a parsed SourceUnit and produces one analysis per type declaration,
in the pre-order of `SourceUnit.types` (member and local types are
independent units; their sites never roll up into the enclosing class).
Each analysis carries its declaration's span, so what is known per
declaration, such as its line count, is read from the analyses without a
second walk.

The unit model: a unit is a type that a name is written for. Every class,
interface, enum, record and annotation type is one: a member type under its
dotted name (`Outer.Inner`), a local one under its binary name
(`Outer$1Local`, JLS SE 17 §13.1), which is its class file's name. A type
declared inside the Nth anonymous class or enum-constant body of `A` is
named under `A$N`, as javac names the body (`A$1.Inner`, `A$2$1Local`), so
its name with `$` for `.` is its class file's name too.
An anonymous class and an enum constant's body are no units, as no
class-level `@ICP` can be written on them: their members are code of the
unit that holds them, as a lambda body's is. An initializer block is a
method named `<clinit>` or `<init>`, and a record's compact constructor a
method with no parameters. A record's components are its fields, and an
annotation type's elements are methods with no body; a record's implicit
members (its canonical constructor and accessors) count nothing. The types
a header's `extends`, `implements` and `permits` and a method's `throws`
name are read by the parser, not scored.

Counting rules:

  branch      one point per `if`, per `else`, per loop of any kind, per
              ternary operator, one per `switch`, statement or expression,
              plus one per case/default label; `assert` adds nothing
  condition   per guard (if / loop / ternary / do-while): 1 + the number of
              `&&`/`||` operators reachable inside the guard without crossing
              a lambda, class body or switch expression, whose statements
              have their own guards; `!` adds nothing
  exception   one point per try block, per catch clause (multi-catch is one
              clause), per finally block
  internal    fields, method parameters and non-void return types whose type
              matches the configured project classes, plus statement-level
              uses: a `new` of a matching type, and a method-call receiver or
              bare initializer naming a variable whose statically visible
              declared type matches; at most one site per variable name and
              one per `new`'d type per statement
  external    explicit variable declarations (fields, params, typed locals,
              try resources) of configured library types; `var` and java.lang
              simple names never match

A lambda's body is walked under a scope that binds its parameters with no
declared type; an expression body `x -> e` is walked as its own statement,
just as `x -> { return e; }` is. With lambda counting on, a lambda is a
branch. With it off (the default) nothing inside a lambda body counts, in
ICP or in method statistics, an anonymous class in it included, and the
lambda itself costs nothing; its body is still walked, so a local type in
it starts from the same scope and scores the same in both settings.

A method the walk visits, in an anonymous or enum-constant body too, is as
long as its body's lines, braces included. One with no body, `equals`,
`hashCode`, an accessor (a `get`, `set` or `is` name whose body is one
return or one assignment) and every method of a test path are excluded.

The walk records and `analyze_unit` judges. `_TypeWalker` reads no rule.
It records each branch, condition and exception site as (category, span,
reason), each declaration's written type with the kinds its coupling
reasons name, each use (a `new`'s type, or a variable's declared type) and
each method's length, None where its shape excludes it, and keeps apart
what it records in a lambda body, the lambda's site included.
`analyze_unit` then applies the rules once: the lambda records with
`count_lambdas` on, the type matchers, each category's `enabled` and
`cost`, one sort into document order, and the test path rule.

A scope is a dict from each visible variable to its declared type (None
where none is written: `var`, a lambda parameter). A type's scope copies
its outer type's, the innermost type whose span holds its own, and binds
its fields; a local type's copies the scope at its statement, an empty one
that starts where the type does and whose scope the outer walk keeps by its
first byte, so it sees the locals declared before it. A method, block,
loop, switch case, catch clause, lambda and anonymous class body each copy
the scope they open in, and the body binds its fields. So a name bound in
one is not seen after it, an inner binding shadows an outer one, and a
local is seen from its declaration on. A receiver qualified by `this.`
(`this.x.f()`) is looked up among the fields of the type or class body it
is written in, so no parameter or local shadows it; it is keyed apart from
the bare name, and where the bare name in the same statement is that field
too, the two count once.

Expressions are walked by one descent: `_TypeWalker._walk_expr` scores a
node, then walks the children `ast.iter_children` yields; a TypeRef has
none, as the parser keeps no type argument. Only a lambda, a ternary, a
call (its receiver's root), `new`, a class body (its members, by the walk a
type's take), a switch expression (by the statement walk) and a binary
operator (its left spine walked in a loop) have a branch; any other kind,
one the parser adds included, is walked with no edit here. Every walk
branches on a node's exact type (`type(node) is ast.Call`): node classes
have no subclasses, so this is `isinstance` without a call per test.

Every site of a category costs that category's `cost`, so a subtotal is the
cost times an integer count of sites. `analyze_unit` writes each cost as an
integer over the costs' common denominator, whatever denominators the rule
set holds, and multiplies the counts by those integers; the total is their
sum over the same denominator. Each subtotal and the total is made by
`values.exact_value`, whose memo returns a value made before as the same
Fraction: no Fraction is built per site, and none for a value seen before.
"""

from __future__ import annotations

import math
from typing import Optional

from .records import Record
from .rules import IcpCategory, RuleSet, type_matcher
from .syntax import ast
from .syntax.ast import (
    Assign, Binary, Block, Call, ClassBody, ExprStmt, FieldAccess, If, Lambda, LocalDecl,
    Loop, NameRef, New, Return, Span, Switch, Ternary, Throw, Try, TypeRef, iter_children,
)
from .values import exact_value


_CATEGORIES = tuple(IcpCategory)
# a category's value by category: `Enum.value` is a Python call per read
_CATEGORY_VALUES = {cat: cat.value for cat in IcpCategory}
_LOOP_REASONS = {"for": "for loop", "for_each": "enhanced-for loop",
                 "while": "while loop", "do_while": "do-while loop"}


class IcpSite(Record):
    _fields = ("category", "cost", "span", "reason")  # cost: Fraction


class UnitAnalysis(Record):
    _fields = (
        "path",
        "type_name",  # `Outer.Inner` for a member type, `Outer$1Local` for a local one
        "span",  # the type declaration's
        "sites",  # (IcpSite, ...)
        "total",  # Fraction
        "subtotals",  # dict[IcpCategory, Fraction]
        "method_lengths", "excluded_methods",  # the counted ones, (int, ...); int
    )


class Verdict(Record):
    _fields = ("applicable_limit", "over_limit")  # Fraction, bool


def analyze_unit(unit: ast.SourceUnit, rules: RuleSet) -> list[UnitAnalysis]:
    """Analyze every type declaration of a unit, top-level, member and
    local: walk each, then apply the rules to what the walk recorded."""
    in_test_file = rules.is_test_path(unit.path)
    internal = type_matcher(rules.internal_types)
    external = type_matcher(rules.external_types, exclude_java_lang=True)
    enabled_costs = {cat: rule.cost for cat, rule in rules.categories.items() if rule.enabled}
    costs = [rules.categories[cat].cost.as_integer_ratio() for cat in _CATEGORIES]
    den = math.lcm(*[d for _, d in costs])
    scales = [n * (den // d) for n, d in costs]  # each cost is scale / den
    analyses: list[UnitAnalysis] = []
    # the span, scope and local scopes of each type that holds the next one,
    # outermost first: in pre-order, a type's span lies inside its outer types';
    # a local type starts from the scope at its statement
    enclosing: list[tuple[Span, _Bindings, dict[int, _Bindings]]] = []
    for decl in unit.types:
        while enclosing and not enclosing[-1][0].contains(decl.span):
            enclosing.pop()
        _, scope, local_scopes = enclosing[-1] if enclosing else (None, {}, {})
        walker = _TypeWalker(local_scopes.get(decl.span.byte_start, scope))
        enclosing.append((decl.span, walker.scope, walker.local_scopes))
        walker.walk(decl)
        if rules.count_lambdas:
            for outside, inside in zip(walker.outside_lambdas, walker.in_lambdas):
                outside += inside
        found = walker.sites
        for declared, internal_kind, external_kind in walker.declarations:
            name = declared.qualified_name
            if internal_kind is not None and internal(name):
                found.append((IcpCategory.INTERNAL_COUPLING, declared.span,
                              f"internal coupling: {declared.simple_name} {internal_kind}"))
            if external_kind is not None and external(name):
                found.append((IcpCategory.EXTERNAL_COUPLING, declared.span,
                              f"external coupling: {declared.simple_name} {external_kind}"))
        for span, variable, declared in walker.uses:
            if internal(declared.qualified_name):
                what = (f"new {declared.simple_name}" if variable is None
                        else f"use of {variable} ({declared.simple_name})")
                found.append((IcpCategory.INTERNAL_COUPLING, span,
                              f"internal coupling: {what}"))
        found.sort(key=lambda s: (s[1].byte_start, s[1].byte_end, _CATEGORY_VALUES[s[0]]))
        sites: list[IcpSite] = []
        counts = dict.fromkeys(_CATEGORIES, 0)
        for category, span, reason in found:
            if category in enabled_costs:
                sites.append(IcpSite((category, enabled_costs[category], span, reason)))
                counts[category] += 1
        scaled = [scale * count for scale, count in zip(scales, counts.values())]
        subtotals = {cat: exact_value(n, den) for cat, n in zip(_CATEGORIES, scaled)}
        total = exact_value(sum(scaled), den)
        lengths = () if in_test_file else tuple(n for n in walker.lengths if n is not None)
        analyses.append(UnitAnalysis((unit.path, decl.name, decl.span, tuple(sites), total,
                                      subtotals, lengths, len(walker.lengths) - len(lengths))))
    return analyses


def verdict(analysis: UnitAnalysis, rules: RuleSet) -> Verdict:
    """Limit check; limit overrides match the unit's path and type name."""
    limit = rules.limit_for(analysis.path, analysis.type_name)
    # strictly greater: a unit at the limit does not need refactoring
    return Verdict((limit, analysis.total > limit))


# a scope: each statically visible variable's declared type, by name
_Bindings = dict[str, Optional[TypeRef]]
# The coupling uses of one expression-bearing statement region, the first of
# each key kept: a variable's name, or `this.` and a field's name, -> (span,
# None), to be looked up in the scope; a `new`'s key, which no name equals,
# -> (span, its type)
_Uses = dict[str, tuple[Span, Optional[TypeRef]]]


class _TypeWalker:
    """Records one type's sites and coupling candidates; applies no rule."""

    def __init__(self, outer_scope: _Bindings):
        self.scope = dict(outer_scope)  # the type's, its fields bound by `walk`
        self.this_scope: _Bindings = {}  # the fields of the type or body walked
        self.local_scopes: dict[int, _Bindings] = {}  # at each empty statement, by byte
        self.sites: list[tuple[IcpCategory, Span, str]] = []  # (category, span, reason)
        # a declaration's written type, with the kind its internal and its
        # external coupling reason names (None: that coupling is not counted)
        self.declarations: list[tuple[TypeRef, Optional[str], Optional[str]]] = []
        # (span, the variable's name, its declared type), or for a `new`
        # (its type's span, None, its type)
        self.uses: list[tuple[Span, Optional[str], TypeRef]] = []
        # per method, its body's line count, or None when its shape excludes it
        self.lengths: list[Optional[int]] = []
        self.outside_lambdas = self.sites, self.declarations, self.uses, self.lengths
        # the same records made inside any lambda body, each lambda's own site included
        self.in_lambdas: tuple[list, list, list, list] = ([], [], [], [])

    # ── type body ───────────────────────────────────────────────────────

    def walk(self, decl: ast.TypeDecl) -> None:
        self._walk_members(decl, self.scope)
        for constant in decl.enum_constants:
            self._expr_region(constant, self.scope)  # its arguments and body

    def _walk_members(self, body: ast.TypeDecl | ast.ClassBody, scope: _Bindings) -> None:
        """The fields and methods of a type, or of an anonymous class or
        enum constant body, with the fields bound in `scope` and named by
        `this.`."""
        outer_this = self.this_scope
        self.this_scope = {f.name: f.declared_type for f in body.fields}
        scope.update(self.this_scope)
        for f in body.fields:
            self.declarations.append((f.declared_type, "field", "declaration"))
            if f.initializer is not None:
                self._walk_initializer(f.initializer, scope)
        for m in body.methods:
            self._walk_method(m, scope)
        self.this_scope = outer_this

    def _walk_method(self, m: ast.MethodDecl, outer: _Bindings) -> None:
        scope = dict(outer)
        for p in m.params:
            scope[p.name] = p.type
            self.declarations.append((p.type, "parameter", "declaration"))
        if m.return_type is not None:
            self.declarations.append((m.return_type, "return type", None))
        self.lengths.append(_method_length(m))
        if m.body is not None:
            self._walk_stmt(m.body, scope)

    # ── statements ──────────────────────────────────────────────────────

    def _walk_stmt(self, stmt: ast.Stmt, scope: _Bindings) -> None:
        kind = type(stmt)
        sites = self.sites
        if kind is Block:
            inner = dict(scope)
            if not stmt.stmts:
                self.local_scopes[stmt.span.byte_start] = inner
            for s in stmt.stmts:
                self._walk_stmt(s, inner)

        elif kind is LocalDecl:
            self._walk_local_decl(stmt, scope)

        elif kind is ExprStmt or kind is Return or kind is Throw:
            if stmt.expr is not None:  # a bare `return`
                self._expr_region(stmt.expr, scope)

        elif kind is If:
            while True:  # an `else if` chain is walked here, not by recursion
                sites.append((IcpCategory.BRANCH, stmt.if_kw, "if statement"))
                self._guard(stmt.condition, scope)
                self._walk_stmt(stmt.then, scope)
                if stmt.else_branch is None:
                    break
                assert stmt.else_kw is not None
                sites.append((IcpCategory.BRANCH, stmt.else_kw, "else branch"))
                if type(stmt.else_branch) is not If:
                    self._walk_stmt(stmt.else_branch, scope)
                    break
                stmt = stmt.else_branch

        elif kind is Loop:
            sites.append((IcpCategory.BRANCH, stmt.kw, _LOOP_REASONS[stmt.kind]))
            loop_scope = dict(scope)
            for init in stmt.init:
                self._walk_stmt(init, loop_scope)
            if stmt.var is not None:
                self._walk_local_decl(stmt.var, loop_scope)
            if stmt.iterable is not None:
                self._expr_region(stmt.iterable, loop_scope)
            if stmt.condition is not None:
                self._guard(stmt.condition, loop_scope)
            for upd in stmt.update:
                self._expr_region(upd, loop_scope)
            self._walk_stmt(stmt.body, loop_scope)

        elif kind is Switch:
            sites.append((IcpCategory.BRANCH, stmt.kw, "switch statement"))
            self._expr_region(stmt.scrutinee, scope)
            for case in stmt.cases:
                case_scope = dict(scope)
                for label in case.labels:
                    if label.expr is None:
                        sites.append((IcpCategory.BRANCH, label.span, "default label"))
                    else:
                        sites.append((IcpCategory.BRANCH, label.span, "case label"))
                        self._expr_region(label.expr, case_scope)
                for s in case.stmts:
                    self._walk_stmt(s, case_scope)

        elif kind is Try:
            sites.append((IcpCategory.EXCEPTION, stmt.kw, "try block"))
            try_scope = dict(scope)
            for res in stmt.resources:
                self._walk_local_decl(res, try_scope, what="resource")
            self._walk_stmt(stmt.body, try_scope)
            for clause in stmt.catches:
                sites.append((IcpCategory.EXCEPTION, clause.kw, "catch block"))
                catch_scope = dict(scope)
                catch_scope[clause.param_name] = clause.types[0] if clause.types else None
                self._walk_stmt(clause.body, catch_scope)
            if stmt.finally_block is not None:
                assert stmt.finally_kw is not None
                sites.append((IcpCategory.EXCEPTION, stmt.finally_kw, "finally block"))
                self._walk_stmt(stmt.finally_block, scope)

        # Jump (break / continue) contributes nothing

    def _walk_local_decl(self, stmt: ast.LocalDecl, scope: _Bindings,
                         what: str = "declaration") -> None:
        if stmt.declared_type is not None:
            self.declarations.append((stmt.declared_type, None, what))
        if stmt.initializer is not None:
            self._walk_initializer(stmt.initializer, scope)
        scope[stmt.name] = stmt.declared_type

    # ── expressions ─────────────────────────────────────────────────────

    def _expr_region(self, expr: ast.Expr, scope: _Bindings) -> None:
        region: _Uses = {}
        self._walk_expr(expr, scope, region)
        if region:
            self._flush_region(region, scope)

    def _walk_initializer(self, expr: ast.Expr, scope: _Bindings) -> None:
        region: _Uses = {}
        # a bare name used as the whole initializer is a coupling use
        if type(expr) is NameRef:
            region[expr.name] = (expr.span, None)
        self._walk_expr(expr, scope, region)
        self._flush_region(region, scope)

    def _flush_region(self, region: _Uses, scope: _Bindings) -> None:
        for key, (span, new_type) in region.items():
            if new_type is not None:
                self.uses.append((span, None, new_type))
                continue
            if key.startswith("this."):
                key = key[5:]
                declared = self.this_scope.get(key)
                if key in region and scope.get(key) is declared:
                    continue  # the bare name is the same field
            else:
                declared = scope.get(key)
            if declared is not None:
                self.uses.append((span, key, declared))

    def _guard(self, condition: ast.Expr, scope: _Bindings) -> None:
        """Condition sites for a guard, then the guard's own expression walk."""
        self._condition_sites(condition)
        self._expr_region(condition, scope)

    def _condition_sites(self, condition: ast.Expr) -> None:
        op_spans = sorted(_collect_bool_ops(condition), key=lambda s: s.byte_start)
        n = 1 + len(op_spans)
        self.sites.append((IcpCategory.CONDITION, condition.span,
                           f"boolean condition 1 of {n}"))
        for i, span in enumerate(op_spans, start=2):
            self.sites.append((IcpCategory.CONDITION, span, f"boolean condition {i} of {n}"))

    def _walk_expr(self, expr: ast.Expr, scope: _Bindings, region: _Uses) -> None:
        """Score the node itself, then walk its children; a kind that scores
        nothing has no branch here."""
        kind = type(expr)
        if kind is Binary:
            # down the left spine in a loop, so a long left-associative chain
            # costs no recursion; operands are still walked left to right
            rights: list[ast.Expr] = []
            while type(expr) is Binary:
                rights.append(expr.rhs)
                expr = expr.lhs
            self._walk_expr(expr, scope, region)
            for rhs in reversed(rights):
                self._walk_expr(rhs, scope, region)
            return
        if kind is Call:
            root = _receiver_root(expr.receiver)
            if root is not None:
                name, span = root
                region.setdefault(name, (span, None))
        elif kind is Lambda:
            outside = self.sites, self.declarations, self.uses, self.lengths
            self.sites, self.declarations, self.uses, self.lengths = self.in_lambdas
            self.sites.append((IcpCategory.BRANCH, expr.span, "lambda expression"))
            lam_scope = {**scope, **dict.fromkeys(expr.params)}
            if type(expr.body) is Block:
                self._walk_stmt(expr.body, lam_scope)
            else:  # as its own statement, as `{ return body; }` is
                self._expr_region(expr.body, lam_scope)
            self.sites, self.declarations, self.uses, self.lengths = outside
            return
        elif kind is Ternary:
            self.sites.append((IcpCategory.BRANCH, expr.question_span, "ternary operator"))
            self._condition_sites(expr.cond)
        elif kind is New:
            # keyed by `new T`, with a space no variable name holds
            region.setdefault("new " + expr.type.qualified_name, (expr.type.span, expr.type))
        elif kind is ClassBody:
            # its members are the enclosing unit's code, seeing the scope it opens in
            self._walk_members(expr, dict(scope))
            return
        elif kind is Switch:  # a switch expression: its arms are statements
            self._walk_stmt(expr, scope)
            return
        if expr._child_indices:  # a NameRef, Literal or TypeRef has none
            for child in iter_children(expr):
                self._walk_expr(child, scope, region)


def _method_length(m: ast.MethodDecl) -> Optional[int]:
    """A method's body length in lines, or None where its shape excludes it."""
    body = m.body
    if body is None or m.name in ("equals", "hashCode"):
        return None
    if m.name.startswith(("get", "set", "is")) and len(body.stmts) == 1:
        only = body.stmts[0]  # an accessor: one return or one assignment
        if type(only) is Return or (type(only) is ExprStmt and type(only.expr) is Assign):
            return None
    return body.span.line_end - body.span.line_start + 1


def _receiver_root(expr: Optional[ast.Expr]) -> Optional[tuple[str, Span]]:
    """The region key of the name a method call is invoked on: `x.f()` gives
    x and `this.x.f()` gives this.x; None for an unqualified call."""
    kind = type(expr)
    if kind is NameRef:
        if expr.name in ("this", "super"):
            return None
        return expr.name, expr.span
    if kind is FieldAccess:
        if type(expr.receiver) is NameRef and expr.receiver.name == "this":
            return "this." + expr.name, expr.span
    return None


def _collect_bool_ops(expr: ast.Expr) -> list[Span]:
    """Spans of every &&/|| operator reachable without crossing a lambda, a
    class body or a switch expression, whose guards are their own.

    The lambda boundary applies to condition counting unconditionally; with
    lambda counting on, an `if` inside a lambda body still gets its own guard.
    An explicit stack keeps a long operator chain from costing recursion.
    """
    out: list[Span] = []
    stack: list[object] = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Lambda or kind is ClassBody or kind is Switch:
            continue
        if kind is Binary and node.op in ("&&", "||"):
            out.append(node.op_span)
        if node._child_indices:
            stack.extend(iter_children(node))
    return out
