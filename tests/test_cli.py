"""End-to-end CLI contract: subcommands, formats, exit codes 0/1/2, schema
validation of JSON outputs, and format agreement on numeric values."""

from __future__ import annotations

import csv
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
from cddlint.cli import main

from conftest import (
    DEEP_SOURCE, ELSE_IF_SOURCE, FIXTURES, LISTING_PATH, LONG_GUARD_SOURCE, LONG_SUM_SOURCE,
    ORACLE_DIR,
)

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
            "E.java: parse failed: expected '}'",
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

    def test_rewrite_conflict_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "A.java").write_text(
            "@ICP(1)\n@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
        )
        code, _, err = run(capsys, "reconcile", ".", "--fix")
        assert code == 1
        assert "duplicate @ICP" in err


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

