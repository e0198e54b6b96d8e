"""ICP counting engine.

Walks a parsed SourceUnit and produces one analysis per type declaration,
in the pre-order of `ast.iter_type_decls` (nested types are independent
units; their sites never roll up into the enclosing class). Each analysis
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rules import IcpCategory, RuleSet
from .syntax import ast
from .syntax.ast import Span

_ZERO = Fraction(0)


@dataclass(frozen=True)
class IcpSite:
    category: IcpCategory
    cost: Fraction
    span: Span
    reason: str


@dataclass(frozen=True)
class UnitAnalysis:
    path: str
    type_name: str  # dotted path for nested declarations
    span: Span  # the type declaration's
    sites: tuple[IcpSite, ...]
    total: Fraction
    subtotals: dict[IcpCategory, Fraction]


@dataclass(frozen=True)
class Verdict:
    applicable_limit: Fraction
    over_limit: bool


def analyze_unit(unit: ast.SourceUnit, rules: RuleSet) -> list[UnitAnalysis]:
    """Analyze every top-level and nested type declaration of a unit."""
    analyses: list[UnitAnalysis] = []

    def walk(prefix: str, decl: ast.TypeDecl, outer: Optional["_Scope"]) -> None:
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        walker = _TypeWalker(rules, outer)
        sites = walker.analyze(decl)
        subtotals = {cat: _ZERO for cat in IcpCategory}
        for site in sites:
            subtotals[site.category] += site.cost
        total = sum(subtotals.values(), _ZERO)
        analyses.append(
            UnitAnalysis(unit.path, dotted, decl.span, tuple(sites), total, subtotals)
        )
        for inner in decl.nested:
            walk(dotted, inner, walker.type_scope)

    for top in unit.types:
        walk("", top, None)
    return analyses


def verdict(
    analysis: UnitAnalysis, rules: RuleSet, rule_path: Optional[str] = None
) -> Verdict:
    """Limit check; limit overrides match `rule_path`, by default the unit's path."""
    limit = rules.limit_for(rule_path or analysis.path, analysis.type_name)
    # strictly greater: a unit at the limit does not need refactoring
    return Verdict(limit, analysis.total > limit)


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


class _Region:
    """One expression-bearing statement region; deduplicates coupling uses."""

    __slots__ = ("uses",)

    def __init__(self):
        # name -> (span, reason, direct); direct uses (constructor calls of a
        # matching type) need no scope lookup
        self.uses: dict[str, tuple[Span, str, bool]] = {}

    def add(self, name: str, span: Span, reason: str, direct: bool = False) -> None:
        if name not in self.uses:
            self.uses[name] = (span, reason, direct)


class _TypeWalker:
    def __init__(self, rules: RuleSet, outer_scope: Optional[_Scope]):
        self.rules = rules
        self.sites: list[IcpSite] = []
        self.type_scope = _Scope(outer_scope)

    # ── site emission ───────────────────────────────────────────────────

    def _emit(self, category: IcpCategory, span: Span, reason: str) -> None:
        rule = self.rules.categories[category]
        if rule.enabled:
            self.sites.append(IcpSite(category, rule.cost, span, reason))

    def _internal(self, name: str) -> bool:
        return self.rules.internal_matcher.matches(name)

    def _external(self, name: str) -> bool:
        return self.rules.external_matcher.matches(name)

    # ── type body ───────────────────────────────────────────────────────

    def analyze(self, decl: ast.TypeDecl) -> list[IcpSite]:
        for f in decl.fields:
            self.type_scope.bind(f.name, f.declared_type)

        for constant in decl.enum_constants:
            region = _Region()
            for arg in constant.args:
                self._walk_expr(arg, self.type_scope, region)
            self._flush_region(region, self.type_scope)

        for f in decl.fields:
            if self._internal(f.declared_type.qualified_name):
                self._emit(IcpCategory.INTERNAL_COUPLING, f.declared_type.span,
                           f"internal coupling: {f.declared_type.simple_name} field")
            if self._external(f.declared_type.qualified_name):
                self._emit(IcpCategory.EXTERNAL_COUPLING, f.declared_type.span,
                           f"external coupling: {f.declared_type.simple_name} declaration")
            if f.initializer is not None:
                region = _Region()
                self._walk_initializer(f.initializer, self.type_scope, region)
                self._flush_region(region, self.type_scope)

        for m in decl.methods:
            self._walk_method(m)

        self.sites.sort(key=lambda s: (s.span.byte_start, s.span.byte_end,
                                       s.category.value))
        return self.sites

    def _walk_method(self, m: ast.MethodDecl) -> None:
        scope = _Scope(self.type_scope)
        for p in m.params:
            scope.bind(p.name, p.type)
            if self._internal(p.type.qualified_name):
                self._emit(IcpCategory.INTERNAL_COUPLING, p.type.span,
                           f"internal coupling: {p.type.simple_name} parameter")
            if self._external(p.type.qualified_name):
                self._emit(IcpCategory.EXTERNAL_COUPLING, p.type.span,
                           f"external coupling: {p.type.simple_name} declaration")
        if m.return_type is not None and self._internal(m.return_type.qualified_name):
            self._emit(IcpCategory.INTERNAL_COUPLING, m.return_type.span,
                       f"internal coupling: {m.return_type.simple_name} return type")
        if m.body is not None:
            self._walk_stmt(m.body, scope)

    # ── statements ──────────────────────────────────────────────────────

    def _walk_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for s in stmt.stmts:
                self._walk_stmt(s, inner)

        elif isinstance(stmt, ast.LocalDecl):
            self._walk_local_decl(stmt, scope)

        elif isinstance(stmt, ast.ExprStmt):
            self._expr_region(stmt.expr, scope)

        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                self._expr_region(stmt.expr, scope)

        elif isinstance(stmt, ast.Throw):
            self._expr_region(stmt.expr, scope)

        elif isinstance(stmt, ast.If):
            while True:  # an `else if` chain is walked here, not by recursion
                self._emit(IcpCategory.BRANCH, stmt.if_kw, "if statement")
                self._guard(stmt.condition, scope)
                self._walk_stmt(stmt.then, scope)
                if stmt.else_branch is None:
                    break
                assert stmt.else_kw is not None
                self._emit(IcpCategory.BRANCH, stmt.else_kw, "else branch")
                if not isinstance(stmt.else_branch, ast.If):
                    self._walk_stmt(stmt.else_branch, scope)
                    break
                stmt = stmt.else_branch

        elif isinstance(stmt, ast.Loop):
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

        elif isinstance(stmt, ast.Switch):
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

        elif isinstance(stmt, ast.Try):
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
        if stmt.declared_type is not None and self._external(
                stmt.declared_type.qualified_name):
            self._emit(IcpCategory.EXTERNAL_COUPLING, stmt.declared_type.span,
                       f"external coupling: {stmt.declared_type.simple_name} {what}")
        if stmt.initializer is not None:
            region = _Region()
            self._walk_initializer(stmt.initializer, scope, region)
            self._flush_region(region, scope)
        scope.bind(stmt.name, stmt.declared_type)

    # ── expressions ─────────────────────────────────────────────────────

    def _expr_region(self, expr: ast.Expr, scope: _Scope) -> None:
        region = _Region()
        self._walk_expr(expr, scope, region)
        self._flush_region(region, scope)

    def _walk_initializer(self, expr: ast.Expr, scope: _Scope, region: _Region) -> None:
        # a bare name used as the whole initializer is a coupling use
        if isinstance(expr, ast.NameRef):
            region.add(expr.name, expr.span, f"internal coupling: use of {expr.name}")
        self._walk_expr(expr, scope, region)

    def _flush_region(self, region: _Region, scope: _Scope) -> None:
        for name, (span, reason, direct) in region.uses.items():
            if direct:
                self._emit(IcpCategory.INTERNAL_COUPLING, span, reason)
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

    def _walk_expr(self, expr: ast.Expr, scope: _Scope, region: _Region) -> None:
        if isinstance(expr, ast.Lambda):
            if not self.rules.count_lambdas:
                return  # nothing inside a lambda is counted
            self._emit(IcpCategory.BRANCH, expr.span, "lambda expression")
            if isinstance(expr.body, ast.Block):
                lam_scope = _Scope(scope)
                for p in expr.params:
                    lam_scope.bind(p, None)
                self._walk_stmt(expr.body, lam_scope)
            else:
                self._walk_expr(expr.body, scope, region)
            return

        if isinstance(expr, ast.Ternary):
            self._emit(IcpCategory.BRANCH, expr.question_span, "ternary operator")
            self._condition_sites(expr.cond)
            self._walk_expr(expr.cond, scope, region)
            self._walk_expr(expr.then_expr, scope, region)
            self._walk_expr(expr.else_expr, scope, region)
            return

        if isinstance(expr, ast.Call):
            if expr.receiver is not None:
                root = _receiver_root(expr.receiver)
                if root is not None:
                    name, span = root
                    region.add(name, span, f"internal coupling: use of {name}")
                self._walk_expr(expr.receiver, scope, region)
            for arg in expr.args:
                self._walk_expr(arg, scope, region)
            return

        if isinstance(expr, ast.New):
            if self._internal(expr.type.qualified_name):
                region.add(expr.type.qualified_name, expr.type.span,
                           f"internal coupling: new {expr.type.simple_name}",
                           direct=True)
            for arg in expr.args:
                self._walk_expr(arg, scope, region)
            return

        if isinstance(expr, ast.Binary):
            # down the left spine in a loop, so a long left-associative chain
            # costs no recursion; operands are still walked left to right
            rights: list[ast.Expr] = []
            while isinstance(expr, ast.Binary):
                rights.append(expr.rhs)
                expr = expr.lhs
            self._walk_expr(expr, scope, region)
            for rhs in reversed(rights):
                self._walk_expr(rhs, scope, region)
        elif isinstance(expr, ast.Unary):
            self._walk_expr(expr.inner, scope, region)
        elif isinstance(expr, ast.Assign):
            self._walk_expr(expr.target, scope, region)
            self._walk_expr(expr.value, scope, region)
        elif isinstance(expr, ast.FieldAccess):
            self._walk_expr(expr.receiver, scope, region)
        elif isinstance(expr, ast.IndexAccess):
            self._walk_expr(expr.receiver, scope, region)
            self._walk_expr(expr.index, scope, region)
        elif isinstance(expr, ast.Cast):
            self._walk_expr(expr.inner, scope, region)
        elif isinstance(expr, ast.ArrayNew):
            for d in expr.dims:
                self._walk_expr(d, scope, region)
            if expr.init is not None:
                self._walk_expr(expr.init, scope, region)
        elif isinstance(expr, ast.MethodRef):
            self._walk_expr(expr.receiver, scope, region)
        elif isinstance(expr, (ast.InitializerList, ast.Opaque)):
            children = expr.items if isinstance(expr, ast.InitializerList) else expr.children
            for child in children:
                self._walk_expr(child, scope, region)
        # NameRef / Literal: leaves


def _receiver_root(expr: ast.Expr) -> Optional[tuple[str, Span]]:
    """The name a method call is invoked on: `x.f()` and `this.x.f()` give x."""
    if isinstance(expr, ast.NameRef):
        if expr.name in ("this", "super"):
            return None
        return expr.name, expr.span
    if isinstance(expr, ast.FieldAccess):
        if isinstance(expr.receiver, ast.NameRef) and expr.receiver.name == "this":
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
        if isinstance(node, (ast.Lambda, ast.TypeRef)):
            continue
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            out.append(node.op_span)
        stack.extend(ast.iter_children(node))
    return out
