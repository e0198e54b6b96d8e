"""The record contract: syntax nodes and result records are immutable
`NamedTuple`s, importing the CLI generates no dataclass code, and a node's
fields are what `ast.iter_children` walks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cddlint
from cddlint.engine import analyze_unit
from cddlint.rules import default_rules
from cddlint.syntax import ast, parse_unit

from conftest import FIXTURES, LISTING_PATH

SYNTAX_TYPES = [cls for cls in vars(ast).values()
                if isinstance(cls, type) and hasattr(cls, "_fields")]
NODE_TYPES = tuple(cls for cls in SYNTAX_TYPES if "span" in cls._fields)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages `.pth` file can import either module first
    package_root = str(Path(cddlint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = ("import sys, cddlint.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


class TestImmutable:
    @pytest.mark.parametrize("cls", SYNTAX_TYPES, ids=lambda cls: cls.__name__)
    def test_syntax_node(self, cls):
        node = cls(*[None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(node, cls._fields[0], 0)

    def test_unit_analysis(self):
        unit = parse_unit(LISTING_PATH.read_text(encoding="utf-8"), "L.java")
        [analysis] = analyze_unit(unit, default_rules())
        with pytest.raises(AttributeError):
            analysis.total = 0

    def test_rule_set(self):
        rules = default_rules()
        with pytest.raises(AttributeError):
            rules.internal_types = ("Repo",)


def _reflected_children(node: tuple) -> list[tuple]:
    """The reference walk: each field read by name, kept when it is a node of
    `ast` or a tuple holding nodes."""
    children = []
    for name in type(node)._fields:
        value = getattr(node, name)
        if isinstance(value, NODE_TYPES):
            children.append(value)
        elif isinstance(value, tuple):
            children += [item for item in value if isinstance(item, NODE_TYPES)]
    return children


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda path: path.name)
def test_iter_children_matches_the_reflection_walk(path):
    unit = parse_unit(path.read_text(encoding="utf-8"), path.name)
    stack, count = [unit], 0
    while stack:
        node = stack.pop()
        count += 1
        children = list(ast.iter_children(node))
        assert [id(c) for c in children] == [id(c) for c in _reflected_children(node)]
        stack += children
    assert count > len(unit.types)
