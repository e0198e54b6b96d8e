"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are exact (half-point arithmetic) unless a runtime bound is
stated. Run with -s to see the line per criterion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from cddlint.annotations import DriftStatus, apply_fix, extract_declared, reconcile
from cddlint.cli import main as cli_main
from cddlint.engine import UnitAnalysis, analyze_unit, verdict
from cddlint.history import GitProvider, SnapshotDirProvider, render_csv, series
from cddlint.methods import method_stats
from cddlint.rules import CategoryRule, IcpCategory, LimitOverride, default_rules
from cddlint.syntax import parse_unit, physical_loc

from conftest import LISTING_INTERNAL_TYPES, LISTING_PATH, ORACLE_DIR

B, C, E = IcpCategory.BRANCH, IcpCategory.CONDITION, IcpCategory.EXCEPTION
I, X = IcpCategory.INTERNAL_COUPLING, IcpCategory.EXTERNAL_COUPLING

LISTING_RULES = default_rules(internal_types=LISTING_INTERNAL_TYPES)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def analyze_single(source: str, rules):
    [analysis] = analyze_unit(parse_unit(source, "T.java"), rules)
    return analysis


def test_c1_listing_golden(listing_source):
    with criterion("C1 annotated-controller golden (total 8.0, exact, <1s)"):
        started = time.perf_counter()
        unit = parse_unit(listing_source, "CertificateDetailsController.java")
        [analysis] = analyze_unit(unit, LISTING_RULES)
        elapsed = time.perf_counter() - started
        assert analysis.total == Fraction(8)
        assert analysis.subtotals[B] == Fraction(1)
        assert analysis.subtotals[C] == Fraction(1)
        assert analysis.subtotals[I] == Fraction(6)
        assert analysis.subtotals[E] == 0 and analysis.subtotals[X] == 0
        assert elapsed < 1.0


def test_c2_rule_micro_goldens():
    with criterion("C2 rule micro-goldens, exact"):
        branch_only = default_rules(categories={
            cat: CategoryRule(cat is B, rule.cost)
            for cat, rule in default_rules().categories.items()
        })
        wrap = "class T {{ void m(int a, int b, int c, int d, boolean x) {{ {0} }} }}"

        assert analyze_single(wrap.format("if (x) {}"), branch_only).total == 1
        assert analyze_single(wrap.format("if (x) {} else {}"), branch_only).total == 2
        assert analyze_single(
            wrap.format("if (a > b && c < d) {}"), default_rules()
        ).total == 3
        assert analyze_single(
            wrap.format("try {} catch (Exception e) {} finally {}"), default_rules()
        ).total == 3
        assert analyze_single(
            "class T { void m() { Optional<Foo> v = find(); } }",
            default_rules(external_types=("Optional",)),
        ).total == Fraction(1, 2)
        bare = analyze_single(wrap.format("pick(1);"), default_rules()).total
        wrapped = analyze_single(
            wrap.format("pick(() -> 1);"), default_rules()
        ).total
        inner_constructs = analyze_single(
            wrap.format("pick(() -> choose(x ? 1 : 2));"), default_rules()
        ).total
        assert wrapped == bare == inner_constructs == 0


def test_c3_oracle_corpus(oracle_manifest):
    with criterion("C3 hand-scored oracle corpus, exact"):
        files = oracle_manifest["files"]
        assert len(files) >= 20
        rules = default_rules(
            internal_types=tuple(oracle_manifest["config"]["internal_types"]),
            external_types=tuple(oracle_manifest["config"]["external_types"]),
        )
        for rel, entry in files.items():
            unit = parse_unit((ORACLE_DIR / rel).read_text(), rel)
            analyses = {a.type_name: a for a in analyze_unit(unit, rules)}
            assert set(analyses) == set(entry["units"]), rel
            for type_name, expected in entry["units"].items():
                analysis = analyses[type_name]
                assert analysis.total == Fraction(expected["total"]), (rel, type_name)
                for cat in IcpCategory:
                    assert analysis.subtotals[cat] == Fraction(expected[cat.value])


def test_c4_verdict_boundary():
    with criterion("C4 verdict boundary and override flip, exact"):
        rules = default_rules()
        probe = analyze_single("class T {}", rules)

        def with_total(total, path="src/T.java", name="T") -> UnitAnalysis:
            return UnitAnalysis(path, name, probe.span, (), total, probe.subtotals)

        for total in (Fraction(19, 2), Fraction(10)):
            assert not verdict(with_total(total), rules).over_limit
        for total in (Fraction(21, 2), Fraction(11)):
            assert verdict(with_total(total), rules).over_limit

        dto_rules = default_rules(
            internal_types=("Internal*",),
            limit_overrides=(LimitOverride("**/dto/**", Fraction(20)),),
        )
        text = (ORACLE_DIR / "dto" / "BigDto.java").read_text()
        [dto] = analyze_unit(parse_unit(text, "dto/BigDto.java"), dto_rules)
        assert dto.total == 20
        assert verdict(dto, default_rules(internal_types=("Internal*",))).over_limit
        assert not verdict(dto, dto_rules).over_limit  # the override flips it


def test_c5_property_suites():
    with criterion("C5 property suites (5 x 200 cases, fixed seed, <60s)"):
        import test_properties as props

        started = time.perf_counter()
        props.test_additivity()
        props.test_cost_linearity_with_limit_coscaling()
        props.test_monotonicity_appended_if()
        props.test_parallel_determinism()
        props.test_fix_idempotence_and_soundness()
        assert time.perf_counter() - started < 60.0


def test_c6_history_golden(history_repo, history_snapshot_dir):
    with criterion("C6 5-commit history CSV byte-for-byte, both modes, <10s"):
        from test_history import RULES as HIST_RULES, expected_csv

        started = time.perf_counter()
        repo, ids = history_repo
        want = expected_csv(ids)
        assert render_csv(series(GitProvider(repo), None, HIST_RULES)) == want
        assert render_csv(
            series(SnapshotDirProvider(history_snapshot_dir), None, HIST_RULES)
        ) == want
        report = series(GitProvider(repo), None, HIST_RULES)
        flagged = [s for s in report.snapshots if s.cdd_commit]
        assert len(flagged) == 1 and flagged[0].cdd_commit[0] == "Big"
        assert time.perf_counter() - started < 10.0


def test_c7_method_stats_fixture():
    with criterion("C7 method stats with filters and wc-agreement, exact"):
        from test_methods import ACCESSORS, FOUR_LINE, big_method_source

        rules = default_rules()
        units = [
            parse_unit(FOUR_LINE, "M.java"),
            parse_unit(big_method_source(70), "Big.java"),
            parse_unit(ACCESSORS, "A.java"),
            parse_unit(FOUR_LINE, "src/test/MTest.java"),
        ]
        stats = method_stats(units, rules)
        # counted: M.f (4 lines), Big.run (70), A.getComputed (8)
        # excluded: getX, setX, isReady, equals, hashCode, and the test file's
        # method = 6
        assert stats.counted_methods == 3
        assert stats.excluded_methods == 6
        assert stats.max_loc == 70
        assert stats.min_loc == 4
        assert stats.percent_at_or_under_24 == Fraction(200, 3)  # 2 of 3
        assert stats.mean_loc == Fraction(82, 3)
        assert stats.median_loc == 8

        for path in [*sorted(ORACLE_DIR.rglob("*.java")), LISTING_PATH]:
            out = subprocess.run(
                ["wc", "-l", str(path)], capture_output=True, text=True, check=True
            )
            assert physical_loc(path.read_text()) == int(out.stdout.split()[0]), path


def test_c8_cli_contract(tmp_path, monkeypatch, capsys, history_repo):
    with criterion("C8 CLI exit codes 0/1/2 and init->check round-trip"):
        corpus = tmp_path / "corpus"
        shutil.copytree(ORACLE_DIR, corpus)
        (corpus / "manifest.json").unlink()
        monkeypatch.chdir(corpus)

        # init -> check round-trip on the corpus (defaults keep all units <= 10)
        assert cli_main(["init", "."]) == 0
        assert cli_main(["check", "."]) == 0

        # fail-on=over-limit trips once coupling patterns push BigDto to 20
        (corpus / "cdd.json").write_text(json.dumps(
            {"internal_types": ["Internal*"], "external_types": ["External*"]}
        ))
        assert cli_main(["check", "."]) == 1
        out = capsys.readouterr().out
        assert "BigDto" in out

        # exit 2: config and path errors
        assert cli_main(["check", ".", "--config", "missing.json"]) == 2
        (corpus / "bad.json").write_text('{"nope": 1}')
        assert cli_main(["check", ".", "--config", "bad.json"]) == 2
        assert cli_main(["check", "no-such-dir/"]) == 2
        assert cli_main(["history", "no-such-repo"]) == 2

        # reconcile drift and fix on the annotated controller
        work = tmp_path / "drift"
        work.mkdir()
        drifted = LISTING_PATH.read_text().replace("@ICP(8)", "@ICP(7)")
        (work / "C.java").write_text(drifted)
        (work / "cdd.json").write_text(json.dumps(
            {"internal_types": list(LISTING_INTERNAL_TYPES)}
        ))
        monkeypatch.chdir(work)
        assert cli_main(["reconcile", ".", "--fail-on", "drift"]) == 1
        assert cli_main(["reconcile", ".", "--fix"]) == 0
        assert "@ICP(8)" in (work / "C.java").read_text()
        assert cli_main(["reconcile", ".", "--fail-on", "drift"]) == 0

        # history end-to-end exits 0 and writes both outputs
        repo, _ = history_repo
        out_dir = tmp_path / "series-out"
        assert cli_main(["history", str(repo), "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "cdd_series.csv").is_file()
        assert (out_dir / "cdd_series.json").is_file()
        capsys.readouterr()
