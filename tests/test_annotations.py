"""Declared-value extraction, drift reconciliation, and fix-mode rewriting."""

from __future__ import annotations

import difflib
from fractions import Fraction

import pytest

from cddlint.annotations import (
    DriftStatus,
    MalformedIcp,
    RewriteConflict,
    apply_fix,
    apply_fixes,
    extract_declared,
    reconcile,
)
from cddlint.engine import analyze_unit
from cddlint.rules import default_rules
from cddlint.syntax import parse_unit

from conftest import LISTING_INTERNAL_TYPES

LISTING_RULES = default_rules(internal_types=LISTING_INTERNAL_TYPES)


def analyses_of(text: str, rules=LISTING_RULES):
    return analyze_unit(parse_unit(text, "T.java"), rules)


class TestExtract:
    def test_listing_declarations(self, listing_source):
        declared = extract_declared(parse_unit(listing_source))
        assert declared.class_level == {"CertificateDetailsController": Fraction(8)}
        assert len(declared.site_level) == 6
        assert sum(e.value for e in declared.site_level) == 8

    def test_no_annotations_is_empty(self):
        declared = extract_declared(parse_unit("class A { void f() {} }"))
        assert declared.is_empty()

    def test_marker_comments_collected(self):
        declared = extract_declared(parse_unit(
            "class A { void f(boolean x) {\n  // @ICP(2)\n  if (x) {}\n} }"
        ))
        assert [e.value for e in declared.site_level] == [2]

    def test_non_decimal_argument_is_malformed(self):
        with pytest.raises(MalformedIcp):
            extract_declared(parse_unit("@ICP(two) class A {}"))

    def test_missing_argument_is_malformed(self):
        with pytest.raises(MalformedIcp):
            extract_declared(parse_unit("@ICP class A {}"))

    def test_site_annotation_after_final(self):
        declared = extract_declared(parse_unit(
            "class A { void f(boolean c) { final @ICP(2) int x = c ? 1 : 2; } }"
        ))
        assert [(e.owner, e.value) for e in declared.site_level] == [("A", 2)]

    def test_other_annotations_ignored(self):
        declared = extract_declared(parse_unit("@Entity class A { @Id int x; }"))
        assert declared.is_empty()


class TestReconcile:
    def test_in_sync(self, listing_source):
        unit = parse_unit(listing_source)
        [analysis] = analyze_unit(unit, LISTING_RULES)
        report = reconcile(analysis, extract_declared(unit))
        assert report.status is DriftStatus.IN_SYNC
        assert report.delta == 0

    def test_unannotated(self):
        text = "class A { void f() { try {} catch (Exception e) {} finally {} } }"
        unit = parse_unit(text)
        [analysis] = analyze_unit(unit, default_rules())
        report = reconcile(analysis, extract_declared(unit))
        assert report.status is DriftStatus.UNANNOTATED
        assert report.declared_total is None
        assert report.delta is None
        assert analysis.total == 3

    def test_drifted_by_one(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        unit = parse_unit(text)
        [analysis] = analyze_unit(unit, LISTING_RULES)
        report = reconcile(analysis, extract_declared(unit))
        assert report.status is DriftStatus.DRIFTED
        assert report.delta == 1

    def test_site_mismatches_are_informational(self, listing_source):
        unit = parse_unit(listing_source)
        [analysis] = analyze_unit(unit, LISTING_RULES)
        report = reconcile(analysis, extract_declared(unit))
        assert report.status is DriftStatus.IN_SYNC
        # the method-level @ICP(2) understates its 6 in-span sites, and the
        # training declaration claims 1 where nothing is counted
        pairs = sorted((m.declared, m.computed) for m in report.site_mismatches)
        assert pairs == [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(6))]


class TestApplyFix:
    def test_rewrites_drifted_class_annotation(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        [analysis] = analyses_of(text)
        fixed = apply_fix(text, analysis)
        assert fixed == listing_source

    def test_in_sync_text_is_byte_identical(self, listing_source):
        [analysis] = analyses_of(listing_source)
        assert apply_fix(listing_source, analysis) == listing_source

    def test_idempotent(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(3)")
        [analysis] = analyses_of(text)
        once = apply_fix(text, analysis)
        [analysis2] = analyses_of(once)
        assert apply_fix(once, analysis2) == once

    def test_inserts_annotation_when_missing(self):
        text = "class A {\n  private InternalDep dep;\n}\n"
        rules = default_rules(internal_types=("Internal*",))
        [analysis] = analyses_of(text, rules)
        fixed = apply_fix(text, analysis)
        assert fixed == "@ICP(1)\nclass A {\n  private InternalDep dep;\n}\n"

    def test_insert_respects_indentation(self):
        text = "class Out {\n  static class In {\n    void f(boolean x) { if (x) {} }\n  }\n}\n"
        analyses = analyses_of(text, default_rules())
        inner = next(a for a in analyses if a.type_name == "Out.In")
        fixed = apply_fix(text, inner)
        assert "\n  @ICP(2)\n  static class In {" in fixed

    def test_locality_only_one_line_changes(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        [analysis] = analyses_of(text)
        fixed = apply_fix(text, analysis)
        changed = [
            line for line in difflib.unified_diff(
                text.splitlines(), fixed.splitlines(), lineterm="", n=0
            )
            if line.startswith(("+", "-")) and not line.startswith(("+++", "---"))
        ]
        assert changed == ["-@ICP(7)", "+@ICP(8)"]

    def test_half_point_rendering(self):
        text = "class A { void f(ExternalFoo e, ExternalBar b, ExternalBaz z) {} }"
        rules = default_rules(external_types=("External*",))
        [analysis] = analyses_of(text, rules)
        assert analysis.total == Fraction(3, 2)
        fixed = apply_fix(text, analysis)
        assert fixed.startswith("@ICP(1.5)\n")

    def test_fix_soundness_reparse_in_sync(self, listing_source):
        text = listing_source.replace("@ICP(8)", "@ICP(7)")
        [analysis] = analyses_of(text)
        fixed = apply_fix(text, analysis)
        unit = parse_unit(fixed)
        [analysis2] = analyze_unit(unit, LISTING_RULES)
        report = reconcile(analysis2, extract_declared(unit))
        assert report.status is DriftStatus.IN_SYNC

    def test_duplicate_class_annotation_conflicts(self):
        text = "@ICP(1)\n@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
        [analysis] = analyses_of(text, default_rules())
        with pytest.raises(RewriteConflict):
            apply_fix(text, analysis)

    def test_multi_type_file_fixed_in_one_pass(self):
        text = (
            "@ICP(9)\nclass A { void f(boolean x) { if (x) {} } }\n"
            "class B { void g() { try {} finally {} } }\n"
        )
        unit = parse_unit(text, "T.java")
        fixed = apply_fixes(text, analyze_unit(unit, default_rules()), unit)
        assert fixed == (
            "@ICP(2)\nclass A { void f(boolean x) { if (x) {} } }\n"
            "@ICP(2)\nclass B { void g() { try {} finally {} } }\n"
        )
