"""Type headers and class bodies of every kind JLS SE 17 allows: records,
`@interface`, sealed and `non-sealed` types, `extends`, `implements`,
`permits` and `throws` lists, initializer blocks, compact constructors, and
local, anonymous and enum-constant bodies; and switch expressions, `->`
rules, `yield`, `assert`, `synchronized` and labels. Each case is scored by
hand under the oracle manifest's config, and compiled by javac when a JDK 17
or later is on PATH, which also checks that the unit names are the names of
javac's class files. The cases are kept here, not under tests/fixtures, where they
would change the texts `_mutants` draws from and the files the benchmark
corpus copies."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from fractions import Fraction

import pytest

from cddlint.cli import main
from cddlint.engine import analyze_unit
from cddlint.rules import IcpCategory, default_rules
from cddlint.syntax import ParseError, parse_unit

from test_oracle_corpus import corpus_rules

# name -> (source, {unit: {category: subtotal}}); a category not named is 0
TYPE_HEADER_CASES = {
    # components are fields: `repo` internal, `client` external; the `if`
    # is a branch, its guard a condition plus one for `&&`, and `repo`'s
    # use in the return statement is internal coupling
    "Rec": ("""\
record Rec(InternalRepo repo, ExternalClient client, int n) {
  int count(boolean b) {
    if (b && n > 0) {
      return repo.count();
    }
    return 0;
  }
}
""", {"Rec": {"branch": 1, "condition": 2, "internal_coupling": 2,
              "external_coupling": Fraction(1, 2)}}),
    # the nested record is its own unit, not a method of NestRec
    "NestRec": ("""\
class NestRec {
  void f(boolean b) {
    if (b) {
      g();
    }
  }

  record P(InternalRepo r, InternalDao d) {}

  void g() {}
}
""", {"NestRec": {"branch": 1, "condition": 1}, "NestRec.P": {"internal_coupling": 2}}),
    # a try and its catch; the types a header names are read, not scored
    "Shape": ("""\
sealed interface Shape permits Circle, Square {}

final class Circle implements Shape {}

non-sealed class Square implements Shape {
  void f() {
    try {
      g();
    } catch (RuntimeException e) {
      g();
    }
  }

  void g() {}
}
""", {"Shape": {}, "Circle": {}, "Square": {"exception": 2}}),
    # elements are bodiless methods; their defaults are dropped
    "Ann": ("""\
@interface Ann {
  int size() default 1;

  String[] tags() default {};

  Class<?> type() default Object.class;
}
""", {"Ann": {}}),
    # an `if` and its guard; bounds, superclass, interfaces and `throws`
    # are read, not scored
    "Gen": ("""\
class Gen<T extends Comparable<T>> extends java.util.ArrayList<T>
    implements java.io.Serializable, Cloneable {
  void f(int x) throws java.io.IOException, IllegalStateException {
    if (x > 0) {
      throw new java.io.IOException();
    }
  }
}
""", {"Gen": {"branch": 1, "condition": 1}}),
    # each initializer is read as a method: the `if` and its guard, and
    # the try and its catch
    "Init": ("""\
class Init {
  static int count;
  int size;

  static {
    if (count > 0) {
      count = 1;
    }
  }

  {
    try {
      size = count;
    } catch (RuntimeException e) {
      size = 0;
    }
  }
}
""", {"Init": {"branch": 1, "condition": 1, "exception": 2}}),
    # an anonymous class is no unit: its `if`, its guard and its use of
    # `repo` count in Anon, beside the field
    "Anon": ("""\
class Anon {
  InternalRepo repo;

  Runnable task(boolean b) {
    return new Runnable() {
      public void run() {
        if (b) {
          repo.count();
        }
      }
    };
  }
}
""", {"Anon": {"branch": 1, "condition": 1, "internal_coupling": 2}}),
    # a type in an anonymous or enum-constant body is named under the body,
    # as javac names it (`Names$1$In`, `Names$2$1L`, `Names$Kind$1$Nested`):
    # the first In has a parameter and its use, the second body's `if` and
    # its guard are Names', L's are L's, and the ternary and its guard are
    # Nested's
    "Names": ("""\
class Names {
  Object first = new Object() {
    class In {
      int size(InternalRepo repo) {
        return repo.count();
      }
    }
  };
  Object second = new Object() {
    class In {}

    void run(boolean b) {
      class L {
        void go(boolean c) {
          if (c) {
            go(!c);
          }
        }
      }
      if (b) {
        new L().go(b);
      }
    }
  };

  enum Kind {
    ONE {
      class Nested {
        int abs(int x) {
          return x > 0 ? x : -x;
        }
      }
    }
  }
}
""", {"Names": {"branch": 1, "condition": 1}, "Names$1.In": {"internal_coupling": 2},
      "Names$2.In": {}, "Names$2$1L": {"branch": 1, "condition": 1}, "Names.Kind": {},
      "Names.Kind$1.Nested": {"branch": 1, "condition": 1}}),
    # local types are units under their binary names: the `while` and its
    # guard are Counter's, the component is Pair's field, and the second
    # Counter takes the next number
    "Local": ("""\
class Local {
  int f(int n) {
    class Counter {
      int next(int i) {
        while (i < n) {
          i++;
        }
        return i;
      }
    }
    record Pair(InternalRepo repo, int n) {}
    return new Counter().next(0);
  }

  void g() {
    class Counter {}
  }
}
""", {"Local": {}, "Local$1Counter": {"branch": 1, "condition": 1},
      "Local$1Pair": {"internal_coupling": 1}, "Local$2Counter": {}}),
    # an enum constant's body counts in its enum: the ternary and its guard
    "Op": ("""\
enum Op {
  PLUS {
    int apply(int a, int b) {
      return a > b ? a - b : b - a;
    }
  },
  MINUS {
    int apply(int a, int b) {
      return a - b;
    }
  };

  abstract int apply(int a, int b);
}
""", {"Op": {"branch": 1, "condition": 1}}),
    # a compact constructor is a method with no parameters: the `if` and
    # its guard; a `throw` is no site
    "Range": ("""\
record Range(int lo, int hi) {
  Range {
    if (lo > hi) {
      throw new IllegalArgumentException();
    }
  }
}
""", {"Range": {"branch": 1, "condition": 1}}),
    # a switch, statement or expression, is a branch and each label one
    # more: 5 + 3 + 3; the `if` in an arm, the two ternaries and the loop
    # and `if` are a branch and a condition each; `assert` and
    # `synchronized` are none, and a label is none; `repo` is a parameter
    # and its use in an arm
    "Switch": ("""\
class Switch {
  int size(InternalRepo repo, int day, boolean c, boolean t) {
    int n = switch (day) {
      case 1 -> repo.count();
      case 2, 3 -> {
        if (c) {
          yield 4;
        }
        yield 5;
      }
      default -> throw new IllegalArgumentException();
    };
    int m = switch (n) {
      case 0:
        yield t ? 1 : 2;
      default:
        yield n;
    };
    switch (m) {
      case 1 -> n++;
      default -> m++;
    }
    assert c : t ? "a" : "b";
    synchronized (this) {
      n += m;
    }
    outer:
    for (int i = 0; i < n; i++) {
      if (i > m) {
        break outer;
      }
    }
    return n + m;
  }
}
""", {"Switch": {"branch": 16, "condition": 5, "internal_coupling": 2}}),
}

# what javac needs besides the cases, `ICP` only once `reconcile --fix` has
# annotated them
STUBS = {
    "InternalRepo": "interface InternalRepo { int count(); }\n",
    "InternalDao": "interface InternalDao {}\n",
    "ExternalClient": "interface ExternalClient {}\n",
    "ICP": "@interface ICP { double value(); }\n",
}


@pytest.fixture()
def case_dir(tmp_path, monkeypatch, oracle_manifest):
    cases = tmp_path / "cases"
    cases.mkdir()
    monkeypatch.chdir(cases)
    for name, (source, _) in TYPE_HEADER_CASES.items():
        (cases / f"{name}.java").write_text(source, encoding="utf-8")
    (cases / "cdd.json").write_text(json.dumps(oracle_manifest["config"]), encoding="utf-8")
    return cases


@pytest.mark.parametrize("name", TYPE_HEADER_CASES)
def test_hand_scored_totals(name, oracle_manifest):
    source, expected = TYPE_HEADER_CASES[name]
    unit = parse_unit(source.encode(), f"{name}.java")
    assert unit.diagnostics == ()
    analyses = analyze_unit(unit, corpus_rules(oracle_manifest))
    assert [a.type_name for a in analyses] == list(expected)
    for analysis in analyses:
        subtotals = expected[analysis.type_name]
        assert {cat.value: total for cat, total in analysis.subtotals.items()} == {
            cat.value: Fraction(subtotals.get(cat.value, 0)) for cat in IcpCategory}
        assert analysis.total == sum(subtotals.values(), Fraction(0))


def test_reconcile_fix_converges(case_dir, capsys):
    assert main(["reconcile", ".", "--fix"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert f"{len(TYPE_HEADER_CASES)} files changed" in out
    assert main(["reconcile", ".", "--fix"]) == 0
    out, err = capsys.readouterr()
    assert (err, out.splitlines()[-1]) == ("", "0 files changed")


def _javac_17() -> bool:
    javac = shutil.which("javac")
    if javac is None:
        return False
    proc = subprocess.run([javac, "-version"], capture_output=True, text=True, check=False)
    found = re.search(r"javac (\d+)", proc.stdout + proc.stderr)
    return found is not None and int(found.group(1)) >= 17


@pytest.mark.skipif(not _javac_17(), reason="javac 17 or later not on PATH")
def test_javac_compiles_the_cases(case_dir, capsys):
    # the stubs lie beside the cases' folder, where `reconcile` does not look
    stubs = case_dir.parent / "stubs"
    stubs.mkdir()
    for name, source in STUBS.items():
        (stubs / f"{name}.java").write_text(source, encoding="utf-8")
    files = [*map(str, stubs.iterdir()), *(f"{name}.java" for name in TYPE_HEADER_CASES)]

    def javac() -> None:
        proc = subprocess.run(
            ["javac", "--release", "17", "-encoding", "UTF-8", "-d", str(case_dir.parent / "out"),
             *files], capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr

    javac()
    # javac's class files, the stubs' and the anonymous classes' (`Op$1`,
    # whose last `$` segment is a number) aside, are the units, named with
    # `$` for `.`
    classes = {path.stem for path in (case_dir.parent / "out").iterdir()} - set(STUBS)
    assert {name for name in classes if not name.rsplit("$", 1)[-1].isdigit()} == {
        decl.name.replace(".", "$") for source, _ in TYPE_HEADER_CASES.values()
        for decl in parse_unit(source.encode()).types}
    assert main(["reconcile", ".", "--fix"]) == 0
    capsys.readouterr()
    assert "@ICP(5.5)" in (case_dir / "Rec.java").read_text(encoding="utf-8")
    javac()


class TestHeaderReader:
    @pytest.mark.parametrize("source", [
        b"class A extends @B C implements @D E, F {}",
        b"record R<T extends Comparable<T>>(T t, int... rest) implements Cloneable {}",
        b"public sealed abstract class A permits A.B { static final class B extends A {} }",
        b"@A @interface B { @C int x() default 1 + 2; D d() default @D(1);"
        b" D[] ds() default {@D, @D(2),}; }",
        b"interface I extends J, K<L> { void f() throws @A E, F; }",
    ], ids=["annotated-types", "generic-record", "nested-permits", "element-defaults",
            "interface-throws"])
    def test_headers_read_with_no_diagnostic(self, source):
        assert parse_unit(source).diagnostics == ()

    def test_an_unexpected_token_is_diagnosed_and_the_body_read(self):
        source = b"class Hdr } { void f(boolean b) { if (b) g(); } }"
        unit = parse_unit(source)
        assert [(d.message, d.span.byte_start) for d in unit.diagnostics] == [
            ("expected '{'", source.index(b"}"))]
        [analysis] = analyze_unit(unit, default_rules())
        assert analysis.total == 2

    def test_a_member_type_whose_header_fails_fails_only_its_member(self):
        # a reserved word (JLS SE 17 §3.9) names no type; a top-level type's
        # header fault fails the file
        source = b"class A { static class if Helper {} void f(boolean b) { if (b) g(); } }"
        unit = parse_unit(source)
        assert [(d.message, d.span.byte_start) for d in unit.diagnostics] == [
            ("expected type name", source.index(b"if"))]
        assert [t.name for t in unit.types] == ["A"]
        assert [m.name for m in unit.types[0].methods] == ["f"]
        with pytest.raises(ParseError) as exc:
            parse_unit(b"class if {}")
        assert str(exc.value) == "expected type name"

    def test_a_default_value_is_read_only_in_an_annotation_type(self):
        source = b"interface I { int size() default 1; }"
        unit = parse_unit(source)
        assert [(d.message, d.span.byte_start) for d in unit.diagnostics] == [
            ("expected method body or ';'", source.index(b"default"))]
        assert unit.types[0].methods == ()

    def test_record_starts_a_type_only_before_a_name_and_a_bracket(self):
        # `record` is a restricted identifier (JLS SE 17 §3.9)
        unit = parse_unit(b"class A { record r; int record; void f() { record = record; } }")
        assert unit.diagnostics == ()
        assert [t.name for t in unit.types] == ["A"]
        assert [(f.name, f.declared_type.qualified_name) for f in unit.types[0].fields] == [
            ("r", "record"), ("record", "int")]
        assert [m.name for m in unit.types[0].methods] == ["f"]

    def test_non_sealed_is_one_modifier_only_when_its_tokens_touch(self):
        assert parse_unit(b"non-sealed class A {}").types[0].name == "A"
        with pytest.raises(ParseError) as exc:
            parse_unit(b"non - sealed class A {}")
        assert str(exc.value) == "expected class, interface, enum, record or @interface"
