"""End-to-end CLI contract: subcommands, formats, exit codes 0/1/2, schema
validation of JSON outputs, and format agreement on numeric values."""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import cddlint
import cddlint.annotations
from cddlint.cli import _build_parser, main
from cddlint.rules import load_rules

from conftest import (
    DEEP_SOURCE, ELSE_IF_SOURCE, FIXTURES, LISTING_PATH, LONG_GUARD_SOURCE, LONG_SUM_SOURCE,
    ORACLE_DIR, commit_tree,
)

# `cddlint.history.series` the attribute is the series() function
series_module = importlib.import_module("cddlint.history.series")

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "cddlint" / "schemas"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

SUBCOMMANDS = ("init", "check", "reconcile", "history")

CORPUS_CONFIG = json.dumps({
    "internal_types": ["Internal*"],
    "external_types": ["External*", "Optional"],
})

LISTING_CONFIG = json.dumps({
    "internal_types": [
        "CertificateRepository", "TrainingCompleted", "Student",
        "CertificateResponse", "Training",
    ],
})


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_dir(tmp_path, monkeypatch) -> Path:
    target = tmp_path / "corpus"
    shutil.copytree(ORACLE_DIR, target)
    (target / "manifest.json").unlink()
    monkeypatch.chdir(target)
    return target


def validate(document: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(document, schema)


def assert_help_lists_subcommands(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    # Each subcommand has its own indented row in the help; the description
    # also mentions "reconcile" and "history", so a bare substring is not enough.
    for name in SUBCOMMANDS:
        assert re.search(rf"^ +{name}\b", proc.stdout, re.MULTILINE), (name, proc.stdout)


class TestInit:
    def test_creates_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "init", ".")
        assert code == 0
        assert (tmp_path / "cdd.json").is_file()

    def test_refuses_to_clobber(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "init", ".")[0] == 0
        code, _, err = run(capsys, "init", ".")
        assert code == 2
        assert "already exists" in err

    def test_force_overwrites(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "init", ".")
        assert run(capsys, "init", ".", "--force")[0] == 0

    def test_round_trip_on_oracle_corpus(self, corpus_dir, capsys):
        assert run(capsys, "init", ".")[0] == 0
        code, out, err = run(capsys, "check", ".")
        assert code == 0, err


class TestCheck:
    def test_under_limit_corpus_exits_zero(self, corpus_dir, capsys):
        # default rules: no coupling patterns configured, everything <= 10
        code, out, _ = run(capsys, "check", ".")
        assert code == 0
        assert "0 over limit" in out

    def test_over_limit_unit_exits_one_and_is_listed(self, corpus_dir, capsys):
        (corpus_dir / "cdd.json").write_text(CORPUS_CONFIG)
        code, out, _ = run(capsys, "check", ".")
        assert code == 1
        assert "dto/BigDto.java:BigDto: 20 ICPs (limit 10)" in out
        assert "internal_coupling 10" in out

    def test_fail_on_never(self, corpus_dir, capsys):
        (corpus_dir / "cdd.json").write_text(CORPUS_CONFIG)
        assert run(capsys, "check", ".", "--fail-on", "never")[0] == 0

    def test_dto_override_flips_verdict(self, corpus_dir, capsys):
        config = json.loads(CORPUS_CONFIG)
        config["limit_overrides"] = [{"pattern": "**/dto/**", "limit": 20}]
        (corpus_dir / "cdd.json").write_text(json.dumps(config))
        code, out, _ = run(capsys, "check", ".")
        assert code == 0
        assert "0 over limit" in out

    def test_listing_json_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(LISTING_PATH, tmp_path / "CertificateDetailsController.java")
        (tmp_path / "cdd.json").write_text(LISTING_CONFIG)
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "check_report.schema.json")
        [unit] = doc["units"]
        assert unit["total"] == 8
        assert unit["over_limit"] is False
        assert unit["subtotals"]["internal_coupling"] == 6
        assert unit["drift_status"] == "in_sync"

    def test_malformed_icp_leaves_the_file_unannotated(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Bad.java").write_text(
            "class Bad {\n  @ICP(x)\n  static class In {}\n}\n")
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "check_report.schema.json")
        assert [(u["type"], u["drift_status"], u["declared_total"])
                for u in doc["units"]] == [
            ("Bad", "unannotated", None), ("Bad.In", "unannotated", None),
        ]
        assert doc["summary"]["unannotated_count"] == 2
        assert doc["diagnostics"] == [
            {"path": "Bad.java", "message": "@ICP needs a decimal argument (line 2)"}
        ]

    def test_formats_agree_on_numbers(self, corpus_dir, capsys):
        (corpus_dir / "cdd.json").write_text(CORPUS_CONFIG)
        _, json_out, _ = run(capsys, "check", ".", "--format", "json")
        _, csv_out, _ = run(capsys, "check", ".", "--format", "csv")
        _, text_out, _ = run(capsys, "check", ".", "--format", "text")
        doc = json.loads(json_out)
        by_type = {u["type"]: u for u in doc["units"]}
        for row in csv.DictReader(io.StringIO(csv_out)):
            unit = by_type[row["type"]]
            assert Fraction(row["total"]) == Fraction(unit["total"])
            assert Fraction(row["limit"]) == Fraction(unit["limit"])
            assert (row["over_limit"] == "true") == unit["over_limit"]
        assert "BigDto: 20 ICPs (limit 10)" in text_out
        assert doc["summary"]["over_limit_count"] == 1

    def test_half_point_over_limit_listed(self, tmp_path, capsys, monkeypatch):
        # 5 ifs (10.0) + one external declaration (0.5) = 10.5 > 10
        monkeypatch.chdir(tmp_path)
        guards = "\n".join(f"    if (x{i} > 0) {{}}" for i in range(5))
        params = ", ".join(f"int x{i}" for i in range(5))
        (tmp_path / "Edge.java").write_text(
            f"class Edge {{\n  void f({params}) {{\n"
            f"    ExternalBox b = make();\n{guards}\n  }}\n}}\n"
        )
        (tmp_path / "cdd.json").write_text('{"external_types": ["External*"]}')
        code, out, _ = run(capsys, "check", ".")
        assert code == 1
        assert "Edge.java:Edge: 10.5 ICPs (limit 10)" in out

    def test_parse_failure_reported_non_fatal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Bad.java").write_text("not a compilation unit")
        (tmp_path / "Ok.java").write_text("class Ok {}")
        code, out, _ = run(capsys, "check", ".")
        assert code == 0
        assert "1 parse failures" in out

    def test_too_deep_nesting_is_one_parse_failure(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Deep.java").write_text(DEEP_SOURCE)
        (tmp_path / "Ok.java").write_text("class Ok {}")
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "check_report.schema.json")
        assert [(u["path"], u["type"]) for u in doc["units"]] == [("Ok.java", "Ok")]
        assert doc["summary"]["parse_failures"] == 1
        assert doc["diagnostics"] == [
            {"path": "Deep.java", "message": "parse failed: nesting too deep"}
        ]

    def test_long_operator_chains_are_analysed(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Guard.java").write_text(LONG_GUARD_SOURCE)
        (tmp_path / "Sum.java").write_text(LONG_SUM_SOURCE)
        (tmp_path / "cdd.json").write_text('{"internal_types": ["Repo"]}')
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        assert code == 1  # Guard is far over the limit
        doc = json.loads(out)
        assert [(u["path"], u["type"], u["total"]) for u in doc["units"]] == [
            ("Guard.java", "Guard", 5001), ("Sum.java", "Sum", 2),
        ]
        assert doc["summary"]["parse_failures"] == 0

    def test_long_else_if_chain_is_analysed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Chain.java").write_text(ELSE_IF_SOURCE)
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        doc = json.loads(out)
        assert [(u["path"], u["type"], u["total"]) for u in doc["units"]] == [
            ("Chain.java", "Chain", 3000),
        ]
        assert (code, doc["diagnostics"]) == (1, [])

    def test_absolute_directory_matches_relative(self, corpus_dir, capsys):
        config = json.loads(CORPUS_CONFIG)
        config["exclude_globs"] = ["dto/**"]
        (corpus_dir / "cdd.json").write_text(json.dumps(config))

        def units(arg: str) -> list[tuple]:
            code, out, _ = run(capsys, "check", arg, "--format", "json")
            assert code == 0
            prefix = "" if arg == "." else arg + "/"
            rows = []
            for u in json.loads(out)["units"]:
                assert u["path"].startswith(prefix)  # recorded as given
                rows.append((u["path"].removeprefix(prefix), u["type"], u["total"]))
            return rows

        relative = units(".")
        assert relative and all(not path.startswith("dto/") for path, _, _ in relative)
        assert units(corpus_dir.as_posix()) == relative

    def test_absolute_directory_keeps_limit_overrides(self, corpus_dir, capsys):
        config = json.loads(CORPUS_CONFIG)
        config["limit_overrides"] = [{"pattern": "dto/**", "limit": 20}]
        (corpus_dir / "cdd.json").write_text(json.dumps(config))

        def outcome(arg: str) -> tuple[int, int]:
            code, out, _ = run(capsys, "check", arg, "--format", "json")
            return code, json.loads(out)["summary"]["over_limit_count"]

        assert outcome(".") == (0, 0)  # dto/BigDto.java: 20 ICPs, limit 20
        assert outcome(corpus_dir.as_posix()) == outcome(".")

    @pytest.mark.parametrize("args", [
        ["."], ["./"], ["src"], ["src/"], ["absolute"], ["src", "src/a/A.java"],
    ], ids=["dot", "dot-slash", "src", "src-slash", "absolute", "dir-then-file"])
    def test_discovery_keeps_rglob_rules(self, tmp_path, capsys, monkeypatch, args):
        """Hidden directories are walked and a link to a file is listed under
        its own name; a link to a directory is not entered, a broken link is
        skipped, and the first path given names a file."""
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "src"
        (src / "a").mkdir(parents=True)
        (src / ".hidden").mkdir()
        (src / "a" / "A.java").write_text("class A { }")
        (src / ".hidden" / "H.java").write_text("class H { }")
        (src / "notes.txt").write_text("class N { }")
        expected = [".hidden/H.java", "a/A.java"]
        try:
            os.symlink(src / "a", src / "link", target_is_directory=True)
            os.symlink(src / "a" / "A.java", src / "L.java")
            os.symlink(src / "absent.java", src / "broken.java")
        except (OSError, NotImplementedError):
            pass  # no links on this file system
        else:
            expected.insert(1, "L.java")
        args = [src.as_posix() if arg == "absolute" else arg for arg in args]
        code, out, _ = run(capsys, "check", *args, "--format", "json")
        prefix = "src/" if args[0] in (".", "./", "src", "src/") else args[0] + "/"
        assert code == 0
        assert [u["path"] for u in json.loads(out)["units"]] == [
            prefix + path for path in expected]

    def test_missing_path_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "check", "nope/")
        assert code == 2

    def test_bad_config_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cdd.json").write_text('{"bogus_key": 1}')
        (tmp_path / "A.java").write_text("class A {}")
        code, _, err = run(capsys, "check", ".")
        assert code == 2
        assert "bogus_key" in err

    def test_missing_explicit_config_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "check", ".", "--config", "absent.json")
        assert code == 2

    def test_env_config_fallback(self, corpus_dir, capsys, monkeypatch):
        cfg = corpus_dir / "env-config.json"
        cfg.write_text(CORPUS_CONFIG)
        monkeypatch.setenv("CDD_CONFIG", str(cfg))
        code, out, _ = run(capsys, "check", ".")
        assert code == 1  # BigDto goes over the limit under the env config


class TestReconcile:
    def test_in_sync_corpus_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(LISTING_PATH, tmp_path / "C.java")
        (tmp_path / "cdd.json").write_text(LISTING_CONFIG)
        code, out, _ = run(capsys, "reconcile", ".", "--fail-on", "drift")
        assert code == 0
        assert "0 drifted" in out

    def test_drift_detected_and_fixed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        drifted = LISTING_PATH.read_text().replace("@ICP(8)", "@ICP(7)")
        (tmp_path / "C.java").write_text(drifted)
        (tmp_path / "cdd.json").write_text(LISTING_CONFIG)

        code, out, _ = run(capsys, "reconcile", ".", "--fail-on", "drift")
        assert code == 1
        assert "drifted: declared 7, computed 8 (delta +1)" in out

        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert code == 0
        assert "1 files changed" in out
        assert "@ICP(8)" in (tmp_path / "C.java").read_text()

        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert code == 0
        assert "0 files changed" in out

    def test_drift_json_validates(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "A.java").write_text("class A { void f(boolean x) { if (x) {} } }")
        code, out, _ = run(capsys, "reconcile", ".", "--format", "json")
        doc = json.loads(out)
        validate(doc, "drift_report.schema.json")
        assert doc["units"][0]["status"] == "unannotated"

    def test_drift_json_keeps_the_file_diagnostics(self, tmp_path, capsys, monkeypatch):
        # a malformed @ICP and a parse failure show in every rendering
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Bad.java").write_text("@ICP(two) class Bad {}\n")
        (tmp_path / "E.java").write_text("class E {\n")
        diagnostics = [
            {"path": "Bad.java", "message": "@ICP needs a decimal argument (line 1)"},
            {"path": "E.java", "message": "parse failed: line 2: expected '}'"},
        ]
        code, out, _ = run(capsys, "reconcile", ".", "--format", "json")
        doc = json.loads(out)
        validate(doc, "drift_report.schema.json")
        assert doc["diagnostics"] == diagnostics
        assert doc["summary"]["parse_failures"] == 1
        code, out, _ = run(capsys, "reconcile", ".")
        assert [f"{d['path']}: {d['message']}" for d in diagnostics] == out.splitlines()[1:3]

    @pytest.fixture()
    def drift_tree(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in {
            "A.java": "@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n",
            "B.java": "@ICP(5)\nclass B { void g() { try {} finally {} } }\n",
            "C.java": "class C { void h(int y) { while (y > 0) { y--; } } }\n",
            "D.java": "@ICP(0.5)\nclass D { int k; }\n",
            "E.java": "class E {\n",
        }.items():
            (tmp_path / name).write_text(text)

    def test_text_lists_each_drift(self, drift_tree, capsys):
        code, out, _ = run(capsys, "reconcile", ".")
        assert code == 0
        assert out.splitlines() == [
            "B.java:B: drifted: declared 5, computed 2 (delta -3)",
            "C.java:C: unannotated: declared -, computed 2",
            "D.java:D: drifted: declared 0.5, computed 0 (delta -0.5)",
            "E.java: parse failed: line 2: expected '}'",
            "4 units, 2 drifted, 1 unannotated",
        ]

    def test_csv_has_a_row_per_unit(self, drift_tree, capsys):
        code, out, _ = run(capsys, "reconcile", ".", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "path,type,declared,computed,delta,status",
            "A.java,A,2,2,0,in_sync",
            "B.java,B,5,2,-3,drifted",
            "C.java,C,,2,,unannotated",
            "D.java,D,0.5,0,-0.5,drifted",
        ]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_fix_keeps_line_endings(self, tmp_path, capsys, monkeypatch, ending):
        # a stale class-level @ICP is rewritten and a nested class gets one;
        # every other byte, each line terminator included, stays as it was
        monkeypatch.chdir(tmp_path)
        source = ("@ICP(9)\npublic class Outer {\n  void f(boolean x) { if (x) {} }\n\n"
                  "  static class Inner {\n    void g(int y) { while (y > 0) { y--; } }\n"
                  "  }\n}\n")
        fixed = ("@ICP(2)\npublic class Outer {\n  void f(boolean x) { if (x) {} }\n\n"
                 "  @ICP(2)\n  static class Inner {\n"
                 "    void g(int y) { while (y > 0) { y--; } }\n  }\n}\n")
        target = tmp_path / "Outer.java"
        target.write_bytes(source.replace("\n", ending).encode("utf-8"))
        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert (code, out) == (0, "fixed Outer.java\n1 files changed\n")
        assert target.read_bytes() == fixed.replace("\n", ending).encode("utf-8")
        code, out, _ = run(capsys, "reconcile", ".", "--fail-on", "drift")
        assert code == 0 and "0 drifted, 0 unannotated" in out

    def test_fix_puts_a_nested_icp_above_its_modifiers(self, tmp_path, capsys,
                                                       monkeypatch):
        # modifiers on a line of their own stay together below the @ICP, for
        # a nested type as for a top-level one
        monkeypatch.chdir(tmp_path)
        source = ("public\nclass Outer {\n  private static\n    class Inner {\n"
                  "    void g(int y) { while (y > 0) { y--; } }\n  }\n}\n")
        fixed = ("@ICP(0)\npublic\nclass Outer {\n  @ICP(2)\n  private static\n"
                 "    class Inner {\n    void g(int y) { while (y > 0) { y--; } }\n  }\n}\n")
        target = tmp_path / "Outer.java"
        target.write_text(source)
        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert (code, out) == (0, "fixed Outer.java\n1 files changed\n")
        assert target.read_text() == fixed

    @pytest.mark.parametrize("source, fixed", [
        ("class A { static class B { void f(boolean x) { if (x) {} } } }\n",
         "@ICP(0)\nclass A { @ICP(2) static class B { void f(boolean x) { if (x) {} } } }\n"),
        ("@ICP(0) class A {} class B { void f(boolean x) { if (x) {} } }\n",
         "@ICP(0) class A {} @ICP(2) class B { void f(boolean x) { if (x) {} } }\n"),
    ], ids=["nested", "second-type"])
    def test_fix_puts_an_icp_after_code_on_the_header_line(self, tmp_path, capsys,
                                                           monkeypatch, source, fixed):
        # an @ICP inserted above the line would annotate the code before the
        # header, which then drifts, and a second --fix conflicts
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "A.java"
        target.write_text(source)
        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert (code, out) == (0, "fixed A.java\n1 files changed\n")
        assert target.read_text() == fixed
        code, out, _ = run(capsys, "reconcile", ".", "--fail-on", "drift")
        assert code == 0 and "0 drifted, 0 unannotated" in out
        code, out, _ = run(capsys, "reconcile", ".", "--fix")
        assert (code, out) == (0, "0 files changed\n")

    def test_rewrite_conflict_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "A.java").write_text(
            "@ICP(1)\n@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
        )
        code, _, err = run(capsys, "reconcile", ".", "--fix")
        assert code == 1
        assert "duplicate @ICP" in err


# two statements that are not Java: each fails alone, with a parser
# diagnostic, and the switch expression after them scores 3
BROKEN_STATEMENTS_SOURCE = """\
class Probe {
    static int count;

    void check() {
        int x = ;
    }

    int size(int day) {
        count = day +;
        return switch (day) {
            case 1 -> 3;
            default -> 0;
        };
    }
}
"""


class TestPerFileResult:
    """check, reconcile and reconcile --fix read `series.analyze_file`."""

    @pytest.mark.parametrize("command, schema", [
        ("check", "check_report.schema.json"),
        ("reconcile", "drift_report.schema.json"),
    ])
    def test_parser_diagnostics_are_shown(self, tmp_path, capsys, monkeypatch,
                                          command, schema):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Probe.java").write_text(BROKEN_STATEMENTS_SOURCE)
        (tmp_path / "Ok.java").write_text("class Ok {}\n")
        code, out, _ = run(capsys, command, ".")
        assert code == 0
        assert out.splitlines()[-3:-1] == [
            "Probe.java:5: expected expression",
            "Probe.java:9: expected expression",
        ]
        code, out, _ = run(capsys, command, ".", "--format", "json")
        doc = json.loads(out)
        validate(doc, schema)
        assert doc["diagnostics"] == [
            {"path": "Probe.java", "message": "line 5: expected expression"},
            {"path": "Probe.java", "message": "line 9: expected expression"},
        ]
        assert doc["summary"]["parse_failures"] == 0

    def test_a_failure_names_its_fatal_cause_and_line(self, tmp_path, capsys,
                                                      monkeypatch):
        # the bad member on line 2 is skipped; the bad type header on line 5
        # is what fails the file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F.java").write_text(
            "class A {\n  int x y;\n  void f() {}\n}\nclass {\n}\n")
        code, out, _ = run(capsys, "check", ".", "--format", "json")
        doc = json.loads(out)
        assert doc["diagnostics"] == [
            {"path": "F.java", "message": "parse failed: line 5: expected type name"}]
        assert doc["summary"]["parse_failures"] == 1

    def test_fix_names_what_it_could_not_analyse(self, tmp_path, capsys, monkeypatch):
        # a file that fails to parse is left as it is, and one with parser
        # diagnostics is rewritten; stderr names both, as check's text does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "E.java").write_text("class E {\n")
        (tmp_path / "Probe.java").write_text("@ICP(5)\n" + BROKEN_STATEMENTS_SOURCE)
        code, out, err = run(capsys, "reconcile", "--fix", ".")
        assert (code, out) == (0, "fixed Probe.java\n1 files changed\n")
        assert err.splitlines() == [
            "E.java: parse failed: line 2: expected '}'",
            "Probe.java:6: expected expression",
            "Probe.java:10: expected expression",
        ]
        assert (tmp_path / "Probe.java").read_text() == "@ICP(3)\n" + BROKEN_STATEMENTS_SOURCE
        assert (tmp_path / "E.java").read_text() == "class E {\n"

    def test_fix_on_a_malformed_icp(self, tmp_path, capsys, monkeypatch):
        # a malformed class-level @ICP is rewritten in place; a malformed
        # site-level one changes no class's value, so the @ICP inserted in
        # the unannotated class brings it in sync, and a second fix is a no-op
        monkeypatch.chdir(tmp_path)
        (tmp_path / "M.java").write_text("@ICP(x)\nclass M { void f(boolean b) { if (b) {} } }\n")
        site = "class N {\n  void f(boolean b) {\n    @ICP(y) int k = b ? 1 : 2;\n  }\n}\n"
        (tmp_path / "N.java").write_text(site)
        code, out, err = run(capsys, "reconcile", "--fix", ".")
        assert (code, out) == (0, "fixed M.java\nfixed N.java\n2 files changed\n")
        assert err.splitlines() == [
            "M.java: @ICP needs a decimal argument (line 1)",
            "N.java: @ICP needs a decimal argument (line 3)",
        ]
        assert (tmp_path / "M.java").read_text() == (
            "@ICP(2)\nclass M { void f(boolean b) { if (b) {} } }\n")
        assert (tmp_path / "N.java").read_text() == "@ICP(2)\n" + site
        code, out, _ = run(capsys, "reconcile", "--fail-on", "drift", ".")
        assert code == 0
        assert "N.java: @ICP needs a decimal argument (line 4)" in out.splitlines()
        code, out, _ = run(capsys, "reconcile", "--fix", ".")
        assert (code, out) == (0, "0 files changed\n")

    @pytest.mark.parametrize("argv", [
        ["check", "."], ["reconcile", "."], ["reconcile", "--fix", "."],
    ], ids=["check", "reconcile", "fix"])
    def test_each_file_is_parsed_once(self, tmp_path, capsys, monkeypatch, argv):
        # three stale files, one in sync and one that fails: --fix rewrites
        # from the results, with no second parse
        monkeypatch.chdir(tmp_path)
        shutil.copy(LISTING_PATH, tmp_path / "C.java")
        (tmp_path / "cdd.json").write_text(LISTING_CONFIG)
        sources = {
            "A.java": "@ICP(5)\nclass A { void f(boolean x) { if (x) {} } }\n",
            "B.java": "class B {\n  static class In { int k; }\n}\n",
            "D.java": "@ICP(0.5)\nclass D { int k; }\n",
            "E.java": "class E {\n",
        }
        for name, text in sources.items():
            (tmp_path / name).write_text(text)
        parsed = []
        real = series_module.parse_unit

        def counting(text, path="<memory>"):
            parsed.append(path)
            return real(text, path)

        monkeypatch.setattr(series_module, "parse_unit", counting)
        monkeypatch.setattr(cddlint.annotations, "parse_unit", counting)
        code, out, _ = run(capsys, *argv)
        assert sorted(parsed) == ["A.java", "B.java", "C.java", "D.java", "E.java"]
        if "--fix" in argv:
            assert (code, out.splitlines()[-1]) == (0, "3 files changed")
            assert (tmp_path / "B.java").read_text() == (
                "@ICP(0)\nclass B {\n  @ICP(0)\n  static class In { int k; }\n}\n")


class TestUndecodableFile:
    """A file that is not UTF-8 fails as a whole, with the same message and
    count in check, reconcile --fix and history, git and snapshot folders
    alike; its byte 0xff is on line 3."""

    FAILURE = "A.java: parse failed: line 3: invalid character 0xff"

    @pytest.fixture(params=[
        b"class A {\n  int x;\n  int \xffy;\n}\n",
        b"class A {\n  /* one\n  two \xff */\n  int x;\n}\n",
        b"class A {\r  int x;\r  int \xffy;\r}\r",
    ], ids=["token", "block-comment", "lone-cr"])
    def tree(self, request, tmp_path, monkeypatch) -> Path:
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "A.java").write_bytes(request.param)
        (tree / "Ok.java").write_text("@ICP(1)\nclass Ok {}\n")
        return tree

    def test_check_and_fix(self, tree, capsys):
        code, out, _ = run(capsys, "check", "tree")
        assert code == 0
        assert f"tree/{self.FAILURE}" in out.splitlines()
        assert "1 parse failures" in out
        code, out, _ = run(capsys, "check", "tree", "--format", "json")
        doc = json.loads(out)
        assert [f"{d['path']}: {d['message']}" for d in doc["diagnostics"]] == [
            f"tree/{self.FAILURE}"]
        assert doc["summary"]["parse_failures"] == 1
        before = (tree / "A.java").read_bytes()
        code, out, err = run(capsys, "reconcile", "--fix", "tree")
        assert (code, out) == (0, "fixed tree/Ok.java\n1 files changed\n")
        assert err.splitlines() == [f"tree/{self.FAILURE}"]
        assert (tree / "A.java").read_bytes() == before

    def test_history(self, tree, tmp_path, capsys):
        from test_history import export_snapshots

        repo = tmp_path / "repo"
        commit_tree(repo, {path.name: path.read_bytes() for path in tree.iterdir()},
                    "c0", "2021-12-01T00:00:00Z")
        folders = export_snapshots(repo, tmp_path / "snapshots")
        for mode in ([str(repo)], ["--snapshots", str(folders)]):
            code, _, err = run(capsys, "history", *mode, "--output-dir", "out")
            assert code == 0, err
            [snap] = json.loads((tmp_path / "out" / "cdd_series.json").read_text())[
                "snapshots"]
            assert (snap["parse_failures"], snap["diagnostics"]) == (1, [self.FAILURE])
            assert snap["class_count"] == 1


class TestHistory:
    def test_repo_mode_writes_golden_csv(self, history_repo, tmp_path, capsys,
                                         monkeypatch):
        from test_history import expected_csv

        repo, ids = history_repo
        out_dir = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"internal_types": ["Internal*"]}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "history", str(repo), "--config", str(cfg),
            "--output-dir", str(out_dir),
        )
        assert code == 0, err
        got = (out_dir / "cdd_series.csv").read_text()
        assert got == expected_csv(ids)
        doc = json.loads((out_dir / "cdd_series.json").read_text())
        validate(doc, "series_report.schema.json")
        assert len(doc["snapshots"]) == 5

    def test_snapshot_mode_matches_repo_mode(self, history_repo,
                                             history_snapshot_dir, tmp_path,
                                             capsys, monkeypatch):
        repo, _ = history_repo
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"internal_types": ["Internal*"]}))
        monkeypatch.chdir(tmp_path)
        run(capsys, "history", str(repo), "--config", str(cfg),
            "--output-dir", "a")
        code, _, err = run(
            capsys, "history", "--snapshots", str(history_snapshot_dir),
            "--config", str(cfg), "--output-dir", "b",
        )
        assert code == 0, err
        assert (tmp_path / "a" / "cdd_series.csv").read_text() == \
            (tmp_path / "b" / "cdd_series.csv").read_text()

    def test_json_carries_the_sha256_rules_digest(self, history_repo, tmp_path,
                                                  capsys, monkeypatch):
        repo, _ = history_repo
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"internal_types": ["Internal*"], "default_limit": 9}))
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "history", str(repo), "--config", str(cfg),
                           "--output-dir", "out")
        assert code == 0, err
        doc = json.loads((tmp_path / "out" / "cdd_series.json").read_text())
        mapping = load_rules(cfg.read_text()).to_config_mapping()
        canonical = json.dumps(mapping, sort_keys=True).encode()
        assert doc["rules_digest"] == hashlib.sha256(canonical).hexdigest()

    def test_range_limits_rows(self, history_repo, tmp_path, capsys, monkeypatch):
        repo, _ = history_repo
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "history", str(repo), "--range", "2",
                         "--output-dir", "out")
        assert code == 0
        rows = (tmp_path / "out" / "cdd_series.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 data rows

    def test_missing_repo_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "history", "missing-repo")
        assert code == 2
        assert "missing-repo" in err


def fresh_interpreter_env() -> dict:
    """The environment of a child interpreter that imports this cddlint."""
    package_root = str(Path(cddlint.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


class TestOptions:
    """Each subcommand accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["init", ".", "--config", "cdd.json"],
        ["init", ".", "--format", "json"],
        ["init", ".", "--fail-on", "never"],
        ["history", ".", "--format", "json"],
        ["history", ".", "--fail-on", "never"],
        ["reconcile", ".", "--fail-on", "over-limit"],
    ])
    def test_an_option_the_subcommand_ignores_exits_two(self, argv, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert argv[2] in capsys.readouterr().err  # the option is named
        assert not list(tmp_path.iterdir())  # nothing was written

    @pytest.mark.parametrize("given", [
        ["--format", "json"], ["--format", "text"],
        ["--fail-on", "drift"], ["--fail-on", "never"],
        ["--fail-on", "drift", "--format", "json"],
    ])
    def test_fix_takes_no_report_option(self, given, tmp_path, capsys, monkeypatch):
        # --fix writes files and reports what it wrote, so it reads neither
        monkeypatch.chdir(tmp_path)
        source = "@ICP(9)\nclass A { void f(boolean x) { if (x) {} } }\n"
        (tmp_path / "A.java").write_text(source)
        code, out, err = run(capsys, "reconcile", ".", "--fix", *given)
        assert (code, out) == (2, "")
        assert f"{given[0]} cannot be used with --fix" in err
        assert (tmp_path / "A.java").read_text() == source
        assert [p.name for p in tmp_path.iterdir()] == ["A.java"]

    @pytest.mark.parametrize("argv, option, value", [
        (["init", ".", "--force"], "force", True),
        *((["check", ".", "--fail-on", v], "fail_on", v) for v in ("over-limit", "drift", "never")),
        *((["check", ".", "--format", v], "format", v) for v in ("text", "json", "csv")),
        (["check", ".", "--config", "c.json"], "config", "c.json"),
        (["check", "."], "fail_on", "over-limit"),
        *((["reconcile", ".", "--fail-on", v], "fail_on", v) for v in ("drift", "never")),
        *((["reconcile", ".", "--format", v], "format", v) for v in ("text", "json", "csv")),
        (["reconcile", ".", "--config", "c.json"], "config", "c.json"),
        (["reconcile", ".", "--fix"], "fix", True),
        (["reconcile", "."], "fail_on", "never"),
        (["history", ".", "--config", "c.json"], "config", "c.json"),
        (["history", ".", "--range", "3"], "range", "3"),
        (["history", ".", "--snapshots", "s"], "snapshots", "s"),
        (["history", ".", "--output-dir", "o"], "output_dir", "o"),
    ])
    def test_every_option_a_subcommand_reads_is_accepted(self, argv, option, value):
        assert getattr(_build_parser().parse_args(argv), option) == value


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
        target = project["scripts"]["cddlint"]
        # Load and call the entry point the way pip's generated wrapper does.
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "ep = EntryPoint('cddlint', sys.argv[1], 'console_scripts')\n"
            "sys.argv = ['cddlint', *sys.argv[2:]]\n"
            "sys.exit(ep.load()())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, target, "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=fresh_interpreter_env(),
        )
        assert_help_lists_subcommands(proc)

    def test_module_entry_point(self, tmp_path, oracle_manifest):
        proc = subprocess.run(
            [sys.executable, "-m", "cddlint", "check", str(ORACLE_DIR)],
            capture_output=True, text=True, cwd=tmp_path, env=fresh_interpreter_env(),
        )
        assert proc.returncode == 0, proc.stderr
        units = sum(len(f["units"]) for f in oracle_manifest["files"].values())
        assert proc.stdout.splitlines()[-1].startswith(f"{units} units, ")

    @pytest.mark.skipif(shutil.which("cddlint") is None,
                        reason="cddlint console script not installed on PATH")
    def test_script_on_path(self):
        proc = subprocess.run(["cddlint", "--help"], capture_output=True, text=True)
        assert_help_lists_subcommands(proc)



# modules that only `history` (processes, digests, dates) and CSV output use
HISTORY_AND_CSV_MODULES = {"hashlib", "_hashlib", "subprocess", "datetime", "csv"}

FOOTPRINT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import cddlint.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        cddlint.cli.main(argv)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


class TestFootprint:
    """What a command loads, in a fresh interpreter: `check`, `reconcile` and
    `init` run on every save and every commit, so they load no module that
    only `history` or CSV output needs (`hashlib` loads OpenSSL)."""

    @staticmethod
    def added_modules(tmp_path, argv: list[str]) -> set[str]:
        # -S: no site-packages `.pth` file can import a module first
        proc = subprocess.run(
            [sys.executable, "-S", "-c", FOOTPRINT_PROBE, json.dumps(argv)],
            capture_output=True, text=True, cwd=tmp_path, env=fresh_interpreter_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout))

    @pytest.mark.parametrize("argv", [
        [],
        ["check", "--fail-on", "never", str(ORACLE_DIR)],
        ["reconcile", str(ORACLE_DIR)],
        ["init", "."],
    ], ids=["import", "check", "reconcile", "init"])
    def test_loads_no_history_or_csv_module(self, tmp_path, argv):
        added = self.added_modules(tmp_path, argv)
        assert "cddlint.cli" in added
        assert not added & HISTORY_AND_CSV_MODULES

    def test_csv_output_loads_csv_alone(self, tmp_path):
        added = self.added_modules(
            tmp_path, ["check", "--fail-on", "never", "--format", "csv", str(ORACLE_DIR)])
        assert added & HISTORY_AND_CSV_MODULES == {"csv"}


TRACER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
print(json.dumps(tracer.install()))
"""


class TestTracerHooks:
    def test_every_hook_resolves(self, tmp_path):
        # a name that cddbench/tracer.py hooks and the program renamed
        # would leave its layer's counters silently at zero
        bench = Path(__file__).parent.parent / "cddbench"
        proc = subprocess.run(
            [sys.executable, "-c", TRACER_PROBE, str(bench)],
            capture_output=True, text=True, cwd=tmp_path, env=fresh_interpreter_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
