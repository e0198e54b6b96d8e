"""Method-length statistics and the accessor/equals/test filters."""

from __future__ import annotations

import math
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cddlint.history.series import analyze_file
from cddlint.methods import SLOC_THRESHOLD, MethodStats, method_stats, stats_from_lengths
from cddlint.rules import default_rules
from cddlint.syntax import ast, parse_unit

from conftest import FIXTURES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from cddbench.corpus import Corpus  # noqa: E402

RULES = default_rules()


def unit_of(source: str, path: str = "M.java"):
    return parse_unit(source.encode(), path)


FOUR_LINE = """\
class M {
  int f() {
    int a = 1;
    return a;
  }
}
"""


def big_method_source(body_lines: int) -> str:
    # body spans its braces: opening line + fillers + closing line
    fillers = ["    int x0 = 0;"] + [
        f"    x0 = x0 + {i};" for i in range(1, body_lines - 2 + 1)
    ]
    return "class Big {\n  void run() {\n" + "\n".join(fillers[:body_lines - 2]) + "\n  }\n}\n"


class TestDistribution:
    def test_single_four_line_method(self):
        stats = method_stats([unit_of(FOUR_LINE)], RULES)
        assert stats.counted_methods == 1
        assert stats.mean_loc == 4
        assert stats.median_loc == 4
        assert stats.percent_at_or_under_24 == 100

    def test_seventy_line_method_dominates_max(self):
        units = [unit_of(FOUR_LINE), unit_of(big_method_source(70), "Big.java")]
        big = units[1].types[0].methods[0]
        assert big.body.span.line_end - big.body.span.line_start + 1 == 70  # fixture self-check
        stats = method_stats(units, RULES)
        assert stats.counted_methods == 2
        assert stats.max_loc == 70
        assert stats.min_loc == 4
        assert stats.mean_loc == 37
        assert stats.median_loc == 37
        assert stats.stddev_loc == 33.0  # population stddev of {4, 70}
        assert stats.percent_at_or_under_24 == 50

    def test_empty_corpus_reports_absent(self):
        stats = method_stats([], RULES)
        assert stats.counted_methods == 0
        assert stats.mean_loc is None and stats.max_loc is None


ACCESSORS = """\
class A {
  private int x;

  int getX() {
    return x;
  }

  void setX(int v) {
    x = v;
  }

  boolean isReady() {
    return x > 0;
  }

  int getComputed() {
    int a = x + 1;
    int b = a * 2;
    if (b > 4) {
      return b;
    }
    return a;
  }

  public boolean equals(Object o) {
    return false;
  }

  public int hashCode() {
    return x;
  }
}
"""


class TestFilters:
    def test_getters_setters_equals_hashcode_excluded(self):
        stats = method_stats([unit_of(ACCESSORS)], RULES)
        assert stats.counted_methods == 1  # only getComputed
        assert stats.excluded_methods == 5

    def test_get_prefix_with_real_body_is_counted(self):
        stats = method_stats([unit_of(ACCESSORS)], RULES)
        assert stats.mean_loc == 8  # getComputed body: braces span 8 lines

    def test_test_glob_excludes_whole_file(self):
        stats = method_stats(
            [unit_of(FOUR_LINE, "src/test/MTest.java")], RULES
        )
        assert stats.counted_methods == 0
        assert stats.excluded_methods == 1

    def test_bodiless_methods_excluded(self):
        stats = method_stats(
            [unit_of("interface I { int size(); }", "I.java")], RULES
        )
        assert stats.counted_methods == 0
        assert stats.excluded_methods == 1

    def test_exact_percentage_arithmetic(self):
        units = [unit_of(FOUR_LINE), unit_of(big_method_source(30), "B.java"),
                 unit_of(big_method_source(25, ).replace("Big", "Big2"), "B2.java")]
        stats = method_stats(units, RULES)
        assert stats.counted_methods == 3
        assert stats.percent_at_or_under_24 == Fraction(100, 3)


def _length_lists():
    rng = random.Random(12)
    yield [7]
    yield [3, 1_000_000]
    yield [24] * 9
    yield [1_000_000] * 4
    for _ in range(200):
        top = rng.choice((30, 1000, 1_000_000))
        yield [rng.randint(1, top) for _ in range(rng.randint(1, 60))]


class TestExactness:
    def test_stats_equal_the_fraction_definitions(self):
        """Every field equals its definition in exact Fraction arithmetic; the
        standard deviation is the float square root of the exact population
        variance."""
        for lengths in _length_lists():
            n, ordered = len(lengths), sorted(lengths)
            mean = sum(Fraction(x) for x in lengths) / n
            middle = ordered[(n - 1) // 2: n // 2 + 1]
            variance = statistics.pvariance([Fraction(x) for x in lengths])
            assert variance == sum((Fraction(x) - mean) ** 2 for x in lengths) / n
            small = sum(1 for x in lengths if x <= SLOC_THRESHOLD)
            stats = stats_from_lengths(lengths, 3)
            assert stats == MethodStats((
                n, 3, ordered[0], mean, Fraction(sum(middle), len(middle)), ordered[-1],
                math.sqrt(float(variance)), Fraction(100 * small) / n,
            )), lengths
            exact = (stats.mean_loc, stats.median_loc, stats.percent_at_or_under_24)
            assert {type(v) for v in exact} == {Fraction}


# a class initializer, a 4-line `run()` in an anonymous class and `g()`
ANONYMOUS = b"""\
class A {
  static {
    init();
  }

  Runnable task = new Runnable() {
    public void run() {
      int a = 1;
      use(a);
    }
  };

  void g() {}
}
"""
# a 4-line `apply` in an enum constant's body, beside the enum's own
ENUM_BODY = b"""\
enum E {
  ONE {
    int apply(int x) {
      int y = x + 1;
      return y;
    }
  };

  int apply(int x) {
    return x;
  }
}
"""
# a 3-line `toString` in an anonymous class inside a lambda
LAMBDA_BODY = b"""\
class L {
  Runnable task = () -> {
    Object o = new Object() {
      public String toString() {
        return "x" + 1;
      }
    };
  };
}
"""


class TestWalkedMethods:
    """Every method whose code the engine charges to a unit has a length:
    one in an anonymous class or an enum constant's body too, and one inside
    a lambda body only with lambda counting on."""

    def test_an_anonymous_class_method_counts(self):
        result = analyze_file("A.java", ANONYMOUS, RULES)
        assert sorted(result.method_lengths) == [1, 3, 4]
        assert result.excluded_methods == 0

    def test_an_enum_constant_body_method_counts(self):
        result = analyze_file("E.java", ENUM_BODY, RULES)
        assert sorted(result.method_lengths) == [3, 4]

    @pytest.mark.parametrize("lambdas, lengths", [(False, ()), (True, (3,))])
    def test_a_method_inside_a_lambda_counts_with_lambda_counting(self, lambdas, lengths):
        result = analyze_file("L.java", LAMBDA_BODY, RULES._replace(count_lambdas=lambdas))
        assert result.method_lengths == lengths
        assert result.excluded_methods == 0

    def test_a_test_path_counts_no_anonymous_class_method(self):
        result = analyze_file("src/test/A.java", ANONYMOUS, RULES)
        assert (result.method_lengths, result.excluded_methods) == ((), 3)


def reference_method_lengths(unit: ast.SourceUnit, rules) -> tuple[tuple[int, ...], int]:
    """The traversal the engine's walk replaced: each type's own methods,
    `TypeDecl.methods`, with the shape and test-path filters; it sees no
    method of an anonymous class or an enum constant's body."""
    counted: list[int] = []
    excluded = 0
    for decl in unit.types:
        for method in decl.methods:
            body = method.body
            accessor = (method.name.startswith(("get", "set", "is"))
                        and body is not None and len(body.stmts) == 1
                        and (isinstance(body.stmts[0], ast.Return)
                             or (isinstance(body.stmts[0], ast.ExprStmt)
                                 and isinstance(body.stmts[0].expr, ast.Assign))))
            if (rules.is_test_path(unit.path) or body is None
                    or method.name in ("equals", "hashCode") or accessor):
                excluded += 1
            else:
                counted.append(body.span.line_end - body.span.line_start + 1)
    return tuple(counted), excluded


class TestReferenceTraversal:
    """On input with no anonymous class or enum constant body, the walk's
    lengths are the reference traversal's, in its order."""

    @staticmethod
    def assert_matches(path: str, data: bytes) -> None:
        result = analyze_file(path, data, RULES)
        assert result.failure is None, path
        expected = reference_method_lengths(parse_unit(data, path), RULES)
        assert (result.method_lengths, result.excluded_methods) == expected, path

    def test_the_fixtures(self):
        for p in sorted(FIXTURES.rglob("*.java")):
            self.assert_matches(p.relative_to(FIXTURES).as_posix(), p.read_bytes())

    def test_a_corpus_tree(self):
        for f in Corpus(5).tree(700):
            self.assert_matches(f.path, f.text.encode())
