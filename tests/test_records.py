"""The record contract: syntax nodes and result records are immutable tuples
built by `tuple.__new__` from one tuple of all their fields, importing the
CLI generates no dataclass code, and a node's fields are what
`ast.iter_children` walks."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import cddlint
from cddlint import records
from cddlint.engine import analyze_unit
from cddlint.rules import default_rules
from cddlint.syntax import ast, parse_unit

from conftest import FIXTURES, LISTING_PATH, ORACLE_DIR
from test_properties import class_bodies, render_class

SYNTAX_TYPES = [cls for cls in vars(ast).values()
                if isinstance(cls, type) and issubclass(cls, records.Record)
                and cls is not records.Record]
NODE_TYPES = tuple(cls for cls in SYNTAX_TYPES if "span" in cls._fields)


def _record_classes() -> list[type]:
    """Every class of a cddlint module that is a tuple with named fields, the
    base class `Record` aside."""
    found = []
    for info in pkgutil.walk_packages(cddlint.__path__, "cddlint."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        found += [cls for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, tuple)
                  and cls.__module__ == module.__name__ and hasattr(cls, "_fields")
                  and cls is not records.Record]
    return found


RECORD_CLASSES = _record_classes()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages `.pth` file can import either module first
    package_root = str(Path(cddlint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = ("import sys, cddlint.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_record_class_is_found():
    # the 40 syntax records and the 16 per-file and per-run results
    assert len(RECORD_CLASSES) >= 56
    assert set(SYNTAX_TYPES) <= set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_is_built_by_tuple_new(cls):
    assert cls.__new__ is tuple.__new__
    assert cls.__slots__ == ()
    values = tuple(range(len(cls._fields)))
    record = cls(values)
    assert record == values
    assert [getattr(record, name) for name in cls._fields] == list(values)


class TestImmutable:
    @pytest.mark.parametrize("cls", SYNTAX_TYPES, ids=lambda cls: cls.__name__)
    def test_syntax_node(self, cls):
        node = cls((None,) * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(node, cls._fields[0], 0)

    def test_unit_analysis(self):
        unit = parse_unit(LISTING_PATH.read_bytes(), "L.java")
        [analysis] = analyze_unit(unit, default_rules())
        with pytest.raises(AttributeError):
            analysis.total = 0

    def test_rule_set(self):
        rules = default_rules()
        with pytest.raises(AttributeError):
            rules.internal_types = ("Repo",)

    def test_no_attribute_outside_the_fields(self):
        span = ast.Span((0, 1, 1, 1))
        with pytest.raises(AttributeError):
            span.extra = 0


def _records_in(value) -> list[records.Record]:
    """Every record inside `value`, at any depth."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, records.Record):
            found.append(item)
        if isinstance(item, (tuple, list)):
            stack += item
        elif isinstance(item, dict):
            stack += item.values()
    return found


def _short(found: list[records.Record]) -> list[records.Record]:
    return [record for record in found if len(record) != len(type(record)._fields)]


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda path: path.name)
def test_every_node_of_a_fixture_has_all_its_fields(path):
    unit = parse_unit(path.read_bytes(), path.name)
    found = _records_in(unit)
    assert len(found) > len(unit.types)
    assert _short(found) == []


def test_every_analysis_of_the_oracle_corpus_has_all_its_fields():
    manifest = json.loads((ORACLE_DIR / "manifest.json").read_text(encoding="utf-8"))
    rules = default_rules(internal_types=tuple(manifest["config"]["internal_types"]),
                          external_types=tuple(manifest["config"]["external_types"]))
    found = []
    for rel in manifest["files"]:
        data = (ORACLE_DIR / rel).read_bytes()
        found += _records_in(analyze_unit(parse_unit(data, rel), rules))
    kinds = {type(record).__name__ for record in found}
    assert {"UnitAnalysis", "IcpSite", "Span"} <= kinds
    assert _short(found) == []


def test_repr_names_the_fields():
    site = ast.SiteIcp(("A", ast.Span((0, 9, 1, 2)), Fraction(3, 2), None))
    assert repr(site) == ("SiteIcp(owner='A', span=Span(byte_start=0, byte_end=9, "
                          "line_start=1, line_end=2), value=Fraction(3, 2), use_span=None)")
    assert repr(ast.Block(((), ast.Span((0, 2, 1, 1))))).startswith(
        "Block(stmts=(), span=Span(")


def test_replace_changes_only_the_named_fields():
    span = ast.Span((0, 5, 1, 2))
    moved = span._replace(byte_end=7, line_end=3)
    assert type(moved) is ast.Span and moved == (0, 7, 1, 3)
    assert span == (0, 5, 1, 2)
    with pytest.raises(ValueError):
        span._replace(width=3)


def _nodes_in(value) -> list[tuple]:
    """`value` if it is a node of `ast`, the nodes it holds if it is a tuple."""
    if isinstance(value, NODE_TYPES):
        return [value]
    if isinstance(value, tuple):
        return [item for item in value if isinstance(item, NODE_TYPES)]
    return []


def _reflected_children(node: tuple) -> list[tuple]:
    """The reference walk: each field read by name, kept when it is a node of
    `ast` or a tuple holding nodes."""
    return [child for name in type(node)._fields for child in _nodes_in(getattr(node, name))]


def _assert_children_match(unit: ast.SourceUnit) -> dict[type, set[str]]:
    """Walk `unit` by `ast.iter_children`, checking each node's children
    against the reflection walk; the fields seen to hold nodes, by class."""
    holding: dict[type, set[str]] = {}
    stack, count = [unit], 0
    while stack:
        node = stack.pop()
        count += 1
        children = list(ast.iter_children(node))
        assert [id(c) for c in children] == [id(c) for c in _reflected_children(node)]
        names = {name for name in type(node)._fields if _nodes_in(getattr(node, name))}
        holding.setdefault(type(node), set()).update(names)
        stack += children
    assert count > len(unit.types)
    return holding


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda path: path.name)
def test_iter_children_matches_the_reflection_walk(path):
    _assert_children_match(parse_unit(path.read_bytes(), path.name))


@given(class_bodies)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_iter_children_matches_the_reflection_walk_on_generated_classes(bodies):
    _assert_children_match(parse_unit(render_class(bodies).encode(), "G.java"))


# the node kinds, and the fields holding nodes, that no fixture has
_RARE_KINDS = b"""class A {
  Object f(int[] a) {
    int[] b = new int[] {1, 2};
    Object o = (Object) a[0];
    Runnable r = A::g;
    Thread t = new Thread(r) { int n; };
    int k = switch (a[0]) { default -> 1; };
    return o;
  }
}
"""


def test_every_class_that_holds_nodes_names_those_fields():
    for cls in SYNTAX_TYPES:
        assert set(cls._children) <= set(cls._fields), cls.__name__
        assert cls._child_indices == tuple(sorted(map(cls._fields.index, cls._children)))
    holding: dict[type, set[str]] = {}
    sources = [path.read_bytes() for path in sorted(FIXTURES.rglob("*.java"))]
    for data in [*sources, _RARE_KINDS]:
        for cls, names in _assert_children_match(parse_unit(data)).items():
            holding.setdefault(cls, set()).update(names)
    # each class that names fields was seen holding nodes, and each that was
    # names every field seen holding one
    assert {cls for cls in SYNTAX_TYPES if cls._children} == {
        cls for cls, names in holding.items() if names}
    for cls, names in holding.items():
        assert names <= set(cls._children), cls.__name__
