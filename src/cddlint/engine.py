"""ICP counting engine.

Walks a parsed SourceUnit and produces one analysis per type declaration,
in the pre-order of `SourceUnit.types` (nested types are independent units;
their sites never roll up into the enclosing class). Each analysis
carries its declaration's span, so what is known per declaration, such as
its line count, is read from the analyses without a second walk. Counting
rules:

  branch      one point per `if`, per `else`, per loop of any kind, per
              ternary operator, one for `switch` plus one per case/default
              label
  condition   per guard (if / loop / ternary / do-while): 1 + the number of
              `&&`/`||` operators reachable inside the guard without crossing
              a lambda boundary; `!` adds nothing
  exception   one point per try block, per catch clause (multi-catch is one
              clause), per finally block
  internal    fields, method parameters and non-void return types whose type
              matches the configured project classes, plus statement-level
              uses (method-call receiver, `new`, or bare initializer) of
              names whose statically visible declared type matches; at most
              one site per name per statement
  external    explicit variable declarations (fields, params, typed locals,
              try resources) of configured library types; `var` and java.lang
              simple names never match

With lambda counting off (the default) nothing inside a lambda body is
counted and the lambda itself costs nothing.

Expressions are walked by one descent: `_TypeWalker._walk_expr` scores a
node, then walks the children `ast.iter_children` yields; a TypeRef has
none, as the parser keeps no type argument.
Only a lambda, a ternary, a call (its receiver's root), `new` and a binary
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
    Binary, Block, Call, ExprStmt, FieldAccess, If, Lambda, LocalDecl, Loop, NameRef, New,
    Return, Span, Switch, Ternary, Throw, Try, TypeRef, iter_children,
)
from .values import exact_value


_CATEGORIES = tuple(IcpCategory)
# a category's value by category: `Enum.value` is a Python call per read
_CATEGORY_VALUES = {cat: cat.value for cat in IcpCategory}


class IcpSite(Record):
    _fields = ("category", "cost", "span", "reason")  # cost: Fraction


class UnitAnalysis(Record):
    _fields = (
        "path",
        "type_name",  # dotted path for nested declarations
        "span",  # the type declaration's
        "sites",  # (IcpSite, ...)
        "total",  # Fraction
        "subtotals",  # dict[IcpCategory, Fraction]
    )


class Verdict(Record):
    _fields = ("applicable_limit", "over_limit")  # Fraction, bool


def analyze_unit(unit: ast.SourceUnit, rules: RuleSet) -> list[UnitAnalysis]:
    """Analyze every top-level and nested type declaration of a unit."""
    costs = [rules.categories[cat].cost.as_integer_ratio() for cat in _CATEGORIES]
    den = math.lcm(*[d for _, d in costs])
    scales = [n * (den // d) for n, d in costs]  # each cost is scale / den
    analyses: list[UnitAnalysis] = []
    scopes: dict[str, _Scope] = {}  # by dotted name; an outer type comes first
    for decl in unit.types:
        walker = _TypeWalker(rules, scopes.get(decl.name.rpartition(".")[0]))
        scopes[decl.name] = walker.type_scope
        sites = walker.analyze(decl)
        counts = dict.fromkeys(_CATEGORIES, 0)
        for site in sites:
            counts[site.category] += 1
        scaled = [scale * count for scale, count in zip(scales, counts.values())]
        subtotals = {cat: exact_value(n, den) for cat, n in zip(_CATEGORIES, scaled)}
        total = exact_value(sum(scaled), den)
        analyses.append(
            UnitAnalysis((unit.path, decl.name, decl.span, tuple(sites), total, subtotals))
        )
    return analyses


def verdict(analysis: UnitAnalysis, rules: RuleSet) -> Verdict:
    """Limit check; limit overrides match the unit's path and type name."""
    limit = rules.limit_for(analysis.path, analysis.type_name)
    # strictly greater: a unit at the limit does not need refactoring
    return Verdict((limit, analysis.total > limit))


class _Scope:
    """Statically visible declared types: fields, params, then locals."""

    __slots__ = ("parent", "table")

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.table: dict[str, Optional[ast.TypeRef]] = {}

    def bind(self, name: str, declared: Optional[ast.TypeRef]) -> None:
        self.table[name] = declared

    def lookup(self, name: str) -> Optional[ast.TypeRef]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.table:
                return scope.table[name]
            scope = scope.parent
        return None


# The coupling uses of one expression-bearing statement region, the first of
# each name kept: name -> (span, the type of a `new` or None); a `new` of a
# matching type is a use by itself, any other name needs a scope lookup.
_Uses = dict[str, tuple[Span, Optional[TypeRef]]]


class _TypeWalker:
    def __init__(self, rules: RuleSet, outer_scope: Optional[_Scope]):
        self.rules = rules
        self._internal = type_matcher(rules.internal_types).matches
        self._external = type_matcher(rules.external_types, exclude_java_lang=True).matches
        self.sites: list[IcpSite] = []
        self.type_scope = _Scope(outer_scope)

    # ── site emission ───────────────────────────────────────────────────

    def _emit(self, category: IcpCategory, span: Span, reason: str) -> None:
        rule = self.rules.categories[category]
        if rule.enabled:
            self.sites.append(IcpSite((category, rule.cost, span, reason)))

    def _couple(self, declared: ast.TypeRef, internal_kind: Optional[str],
                external_kind: Optional[str]) -> None:
        """The coupling sites of a declaration's written type: internal, given
        an `internal_kind`, for a project class, and external, given an
        `external_kind`, for a library class. The one statement of that rule."""
        name = declared.qualified_name
        if internal_kind is not None and self._internal(name):
            self._emit(IcpCategory.INTERNAL_COUPLING, declared.span,
                       f"internal coupling: {declared.simple_name} {internal_kind}")
        if external_kind is not None and self._external(name):
            self._emit(IcpCategory.EXTERNAL_COUPLING, declared.span,
                       f"external coupling: {declared.simple_name} {external_kind}")

    # ── type body ───────────────────────────────────────────────────────

    def analyze(self, decl: ast.TypeDecl) -> list[IcpSite]:
        for f in decl.fields:
            self.type_scope.bind(f.name, f.declared_type)

        for constant in decl.enum_constants:
            region: _Uses = {}
            for arg in constant.args:
                self._walk_expr(arg, self.type_scope, region)
            self._flush_region(region, self.type_scope)

        for f in decl.fields:
            self._couple(f.declared_type, "field", "declaration")
            if f.initializer is not None:
                self._walk_initializer(f.initializer, self.type_scope)

        for m in decl.methods:
            self._walk_method(m)

        self.sites.sort(key=lambda s: (s.span.byte_start, s.span.byte_end,
                                       _CATEGORY_VALUES[s.category]))
        return self.sites

    def _walk_method(self, m: ast.MethodDecl) -> None:
        scope = _Scope(self.type_scope)
        for p in m.params:
            scope.bind(p.name, p.type)
            self._couple(p.type, "parameter", "declaration")
        if m.return_type is not None:
            self._couple(m.return_type, "return type", None)
        if m.body is not None:
            self._walk_stmt(m.body, scope)

    # ── statements ──────────────────────────────────────────────────────

    def _walk_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        kind = type(stmt)
        if kind is Block:
            inner = _Scope(scope)
            for s in stmt.stmts:
                self._walk_stmt(s, inner)

        elif kind is LocalDecl:
            self._walk_local_decl(stmt, scope)

        elif kind is ExprStmt or kind is Return or kind is Throw:
            if stmt.expr is not None:  # a bare `return`
                self._expr_region(stmt.expr, scope)

        elif kind is If:
            while True:  # an `else if` chain is walked here, not by recursion
                self._emit(IcpCategory.BRANCH, stmt.if_kw, "if statement")
                self._guard(stmt.condition, scope)
                self._walk_stmt(stmt.then, scope)
                if stmt.else_branch is None:
                    break
                assert stmt.else_kw is not None
                self._emit(IcpCategory.BRANCH, stmt.else_kw, "else branch")
                if type(stmt.else_branch) is not If:
                    self._walk_stmt(stmt.else_branch, scope)
                    break
                stmt = stmt.else_branch

        elif kind is Loop:
            reason = {
                "for": "for loop",
                "for_each": "enhanced-for loop",
                "while": "while loop",
                "do_while": "do-while loop",
            }[stmt.kind]
            self._emit(IcpCategory.BRANCH, stmt.kw, reason)
            loop_scope = _Scope(scope)
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
            self._emit(IcpCategory.BRANCH, stmt.kw, "switch statement")
            self._expr_region(stmt.scrutinee, scope)
            for case in stmt.cases:
                case_scope = _Scope(scope)
                for label in case.labels:
                    name = "case label" if label.expr is not None else "default label"
                    self._emit(IcpCategory.BRANCH, label.span, name)
                    if label.expr is not None:
                        self._expr_region(label.expr, case_scope)
                for s in case.stmts:
                    self._walk_stmt(s, case_scope)

        elif kind is Try:
            self._emit(IcpCategory.EXCEPTION, stmt.kw, "try block")
            try_scope = _Scope(scope)
            for res in stmt.resources:
                self._walk_local_decl(res, try_scope, what="resource")
            self._walk_stmt(stmt.body, try_scope)
            for clause in stmt.catches:
                self._emit(IcpCategory.EXCEPTION, clause.kw, "catch block")
                catch_scope = _Scope(scope)
                catch_scope.bind(clause.param_name,
                                 clause.types[0] if clause.types else None)
                self._walk_stmt(clause.body, catch_scope)
            if stmt.finally_block is not None:
                assert stmt.finally_kw is not None
                self._emit(IcpCategory.EXCEPTION, stmt.finally_kw, "finally block")
                self._walk_stmt(stmt.finally_block, scope)

        # Jump (break / continue) contributes nothing

    def _walk_local_decl(self, stmt: ast.LocalDecl, scope: _Scope,
                         what: str = "declaration") -> None:
        if stmt.declared_type is not None:
            self._couple(stmt.declared_type, None, what)
        if stmt.initializer is not None:
            self._walk_initializer(stmt.initializer, scope)
        scope.bind(stmt.name, stmt.declared_type)

    # ── expressions ─────────────────────────────────────────────────────

    def _expr_region(self, expr: ast.Expr, scope: _Scope) -> None:
        region: _Uses = {}
        self._walk_expr(expr, scope, region)
        if region:
            self._flush_region(region, scope)

    def _walk_initializer(self, expr: ast.Expr, scope: _Scope) -> None:
        region: _Uses = {}
        # a bare name used as the whole initializer is a coupling use
        if type(expr) is NameRef:
            region[expr.name] = (expr.span, None)
        self._walk_expr(expr, scope, region)
        self._flush_region(region, scope)

    def _flush_region(self, region: _Uses, scope: _Scope) -> None:
        for name, (span, new_type) in region.items():
            if new_type is not None:
                self._emit(IcpCategory.INTERNAL_COUPLING, span,
                           f"internal coupling: new {new_type.simple_name}")
                continue
            declared = scope.lookup(name)
            if declared is not None and self._internal(declared.qualified_name):
                self._emit(
                    IcpCategory.INTERNAL_COUPLING, span,
                    f"internal coupling: use of {name} ({declared.simple_name})",
                )

    def _guard(self, condition: ast.Expr, scope: _Scope) -> None:
        """Condition sites for a guard, then the guard's own expression walk."""
        self._condition_sites(condition)
        self._expr_region(condition, scope)

    def _condition_sites(self, condition: ast.Expr) -> None:
        op_spans = sorted(_collect_bool_ops(condition), key=lambda s: s.byte_start)
        n = 1 + len(op_spans)
        self._emit(IcpCategory.CONDITION, condition.span,
                   f"boolean condition 1 of {n}")
        for i, span in enumerate(op_spans, start=2):
            self._emit(IcpCategory.CONDITION, span, f"boolean condition {i} of {n}")

    def _walk_expr(self, expr: ast.Expr, scope: _Scope, region: _Uses) -> None:
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
            if not self.rules.count_lambdas:
                return  # nothing inside a lambda is counted
            self._emit(IcpCategory.BRANCH, expr.span, "lambda expression")
            if type(expr.body) is Block:
                lam_scope = _Scope(scope)
                for p in expr.params:
                    lam_scope.bind(p, None)
                self._walk_stmt(expr.body, lam_scope)
                return
        elif kind is Ternary:
            self._emit(IcpCategory.BRANCH, expr.question_span, "ternary operator")
            self._condition_sites(expr.cond)
        elif kind is New:
            if self._internal(expr.type.qualified_name):
                region.setdefault(expr.type.qualified_name, (expr.type.span, expr.type))
        if expr._child_indices:  # a NameRef, Literal or TypeRef has none
            for child in iter_children(expr):
                self._walk_expr(child, scope, region)


def _receiver_root(expr: Optional[ast.Expr]) -> Optional[tuple[str, Span]]:
    """The name a method call is invoked on: `x.f()` and `this.x.f()` give x;
    None for an unqualified call."""
    kind = type(expr)
    if kind is NameRef:
        if expr.name in ("this", "super"):
            return None
        return expr.name, expr.span
    if kind is FieldAccess:
        if type(expr.receiver) is NameRef and expr.receiver.name == "this":
            return expr.name, expr.span
    return None


def _collect_bool_ops(expr: ast.Expr) -> list[Span]:
    """Spans of every &&/|| operator reachable without crossing a lambda.

    The lambda boundary applies to condition counting unconditionally; with
    lambda counting on, an `if` inside a lambda body still gets its own guard.
    An explicit stack keeps a long operator chain from costing recursion.
    """
    out: list[Span] = []
    stack: list[object] = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Lambda:
            continue
        if kind is Binary and node.op in ("&&", "||"):
            out.append(node.op_span)
        if node._child_indices:
            stack.extend(iter_children(node))
    return out
