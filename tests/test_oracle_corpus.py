"""The analyzer must reproduce every hand-derived score in the corpus
manifest exactly; the scores there were worked out by hand from the counting
rules, never generated by the analyzer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cddlint.annotations import extract_declared
from cddlint.engine import analyze_unit
from cddlint.history.series import analyze_file
from cddlint.rules import IcpCategory, default_rules
from cddlint.syntax import parse_unit

from conftest import ORACLE_DIR


def corpus_rules(manifest):
    cfg = manifest["config"]
    return default_rules(
        internal_types=tuple(cfg["internal_types"]),
        external_types=tuple(cfg["external_types"]),
    )


def corpus_cases(manifest):
    for rel, entry in manifest["files"].items():
        yield rel, entry


def test_corpus_is_large_enough(oracle_manifest):
    assert len(oracle_manifest["files"]) >= 20


def test_every_fixture_is_listed(oracle_manifest):
    on_disk = {
        p.relative_to(ORACLE_DIR).as_posix() for p in ORACLE_DIR.rglob("*.java")
    }
    assert on_disk == set(oracle_manifest["files"])


@pytest.fixture(scope="module")
def manifest(oracle_manifest):
    return oracle_manifest


def pytest_generate_tests(metafunc):
    if "rel_path" in metafunc.fixturenames:
        import json

        manifest = json.loads((ORACLE_DIR / "manifest.json").read_text())
        metafunc.parametrize("rel_path", sorted(manifest["files"]))


def test_exact_match(rel_path, manifest):
    entry = manifest["files"][rel_path]
    rules = corpus_rules(manifest)
    unit = parse_unit((ORACLE_DIR / rel_path).read_bytes(), rel_path)
    analyses = {a.type_name: a for a in analyze_unit(unit, rules)}
    assert set(analyses) == set(entry["units"])
    for type_name, expected in entry["units"].items():
        analysis = analyses[type_name]
        assert analysis.total == Fraction(expected["total"]), type_name
        for cat in IcpCategory:
            assert analysis.subtotals[cat] == Fraction(expected[cat.value]), (
                type_name, cat.value,
            )
        assert sum(analysis.subtotals.values()) == analysis.total
        assert analysis.total == sum((s.cost for s in analysis.sites), Fraction(0))


def _line_shape(unit, rules):
    """Each unit's total and span lines, each site's category, cost, lines
    and reason, and each declared @ICP with its lines."""
    units = [
        (a.type_name, a.total, a.span.line_start, a.span.line_end,
         [(s.category, s.cost, s.span.line_start, s.span.line_end, s.reason)
          for s in a.sites])
        for a in analyze_unit(unit, rules)
    ]
    declared, malformed = extract_declared(unit)
    class_level = [(value, [s.line_start for s in spans]) for value, spans in declared]
    sites = [(s.owner, s.value, s.span.line_start, s.span.line_end)
             for s in unit.site_icp]
    diagnostics = [(d.message, d.span.line_start) for d in unit.diagnostics]
    return units, class_level, malformed, sites, diagnostics


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_agree(rel_path, ending, manifest):
    """A lone CR and a CR LF each end a line (JLS SE 17 §3.4): the CR and
    CR LF forms of a fixture score, place everything and count each unit's
    lines as its LF form."""
    rules = corpus_rules(manifest)
    lf = (ORACLE_DIR / rel_path).read_bytes()
    assert b"\r" not in lf
    other = lf.replace(b"\n", ending.encode())
    assert _line_shape(parse_unit(other, rel_path), rules) == \
        _line_shape(parse_unit(lf, rel_path), rules)
    assert [u.loc for u in analyze_file(rel_path, other, rules).units] == \
        [u.loc for u in analyze_file(rel_path, lf, rules).units]
