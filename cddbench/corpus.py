"""Seeded Java corpus with expected ICP totals that never come from cddlint.

Two sources feed every tree, both driven by one `random.Random(seed)`:

* copies of the hand-scored fixtures under `tests/fixtures`, each with its
  type names renamed per copy; their expected totals come from
  `tests/fixtures/oracle/manifest.json`, and for the paper listing from the
  class-level `@ICP` its authors wrote by hand;
* generated classes built from the statement shapes of
  `tests/test_properties.py`; their expected totals come from the
  construction model below, which applies the counting rules of the
  `cddlint.engine` docstring to each shape as it is emitted.

Every file carries a unique type name, so no two files share bytes and a
content-addressed cache gets no free hits inside one tree.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
ORACLE_DIR = FIXTURES / "oracle"
LISTING_PATH = FIXTURES / "listing" / "CertificateDetailsController.java"

# The oracle manifest's config plus the listing's project classes (the
# listing's own config in tests/test_cli.py). Neither fixture set names a
# type of the other, so the union scores each set as its own config does.
LISTING_INTERNAL_TYPES = (
    "CertificateRepository", "TrainingCompleted", "Student",
    "CertificateResponse", "Training",
)

LIMIT = Fraction(10)  # the paper's per-class budget
FIXTURE_SHARE = 0.4  # the rest of every tree is generated classes
# A tree of n files is brought to within 0.5% of n * FILE_BYTES, so that
# every seed gives the same amount of work (time is close to linear in bytes).
FILE_BYTES = 400
SIZE_TOLERANCE = 0.005
SIZE_DRAWS = 8  # a file of a given size is the closest of this many draws

_HEADER_RE = re.compile(
    r"^(\s*)(?:(?:public|protected|private|static|final|abstract)\s+)*"
    r"(?:class|interface|enum)\s+(\w+)"
)
_CLASS_ICP_RE = re.compile(r"^\s*@ICP\(([0-9.]+)\)\s*$")


@dataclass
class JavaFile:
    path: str
    text: str
    expected: dict[str, Fraction]  # dotted type name -> hand/model total
    # dotted type name -> 0-based line of its class-level @ICP (annotated only)
    icp_lines: dict[str, int] = field(default_factory=dict)
    stale: bool = False  # some class-level @ICP disagrees with `expected`


def config_document() -> str:
    manifest = json.loads((ORACLE_DIR / "manifest.json").read_text("utf-8"))
    cfg = manifest["config"]
    return json.dumps({
        "internal_types": [*cfg["internal_types"], *LISTING_INTERNAL_TYPES],
        "external_types": list(cfg["external_types"]),
        "default_limit": int(LIMIT),
    }, indent=2) + "\n"


def format_value(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def class_level_icp(line: str) -> Fraction | None:
    m = _CLASS_ICP_RE.match(line)
    return Fraction(m.group(1)) if m else None


# ── fixture copies ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class _Fixture:
    rel: str  # path below its fixture folder
    text: str
    expected: dict[str, Fraction]  # dotted unit name -> hand-scored total
    name: str  # the one top-level type, renamed per copy


def load_fixtures() -> list[_Fixture]:
    manifest = json.loads((ORACLE_DIR / "manifest.json").read_text("utf-8"))
    fixtures = []
    for rel, entry in sorted(manifest["files"].items()):
        expected = {name: Fraction(u["total"]) for name, u in entry["units"].items()}
        [top] = {name.split(".")[0] for name in expected}
        fixtures.append(_Fixture(rel, (ORACLE_DIR / rel).read_text("utf-8"),
                                 expected, top))
    listing = LISTING_PATH.read_text("utf-8")
    lines = listing.splitlines()
    [(header, name)] = [(i, m.group(2)) for i, line in enumerate(lines)
                        if (m := _HEADER_RE.match(line))]
    declared = class_level_icp(lines[header - 1])
    if declared is None:
        raise ValueError(f"{LISTING_PATH.name}: no class-level @ICP above its header")
    fixtures.append(_Fixture(LISTING_PATH.name, listing, {name: declared}, name))
    return fixtures


def _copy_fixture(fx: _Fixture, tag: str, directory: str) -> JavaFile:
    renamed = fx.name + tag
    text = re.sub(rf"\b{fx.name}\b", renamed, fx.text)
    expected = {renamed + name[len(fx.name):]: total
                for name, total in fx.expected.items()}
    path = Path(directory) / Path(fx.rel).parent / f"{renamed}.java"
    return JavaFile(path.as_posix(), text, expected)


# ── generated classes ────────────────────────────────────────────────────

# guards, with their condition cost: 1 + the number of && / || operators
CONDS = (
    "x > 0",
    "x > 0 && y < 2",
    "flag || x == 1",
    "flag",
    "x != y",
    "x > 0 || y > 0 && flag",
    "!(flag && x > 0)",
)

# leaf statements with their cost; None marks the ternary, costed by its guard
LEAVES = (
    ("x = x + 1;", Fraction(0)),
    ("helper(x);", Fraction(0)),
    ("fld.use();", Fraction(1)),  # call on an internal-typed field
    ("int v# = x;", Fraction(0)),
    ("ExternalBox b# = make();", Fraction(1, 2)),  # external declaration
    ("x = {cond} ? 1 : 2;", None),
    ("fld.use(y);", Fraction(1)),
    ("throw new RuntimeException();", Fraction(0)),  # java.lang never couples
)

NODES = ("if", "while", "for", "foreach", "try", "switch", "lambda")


def _cond_cost(cond: str) -> Fraction:
    return Fraction(1 + cond.count("&&") + cond.count("||"))


class _ClassBuilder:
    """Emits one class and its expected total at the same time."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.total = Fraction(0)

    def fresh(self) -> str:
        self.counter += 1
        return str(self.counter)

    def block(self, indent: str, budget: list[int], depth: int) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(1, 3)):
            if budget[0] <= 0:
                break
            lines += self.stmt(indent, budget, depth)
        return lines or [indent + "x = x + 1;"]

    def stmt(self, indent: str, budget: list[int], depth: int) -> list[str]:
        rng = self.rng
        budget[0] -= 1
        if depth >= 3 or budget[0] <= 0 or rng.random() < 0.45:
            text, cost = rng.choice(LEAVES)
            cond = rng.choice(CONDS)
            if cost is None:
                cost = 1 + _cond_cost(cond)  # ternary: one branch + its guard
            self.total += cost
            return [indent + text.replace("#", self.fresh()).replace("{cond}", cond)]
        kind = rng.choice(NODES)
        inner = indent + "  "
        if kind == "if":
            cond = rng.choice(CONDS)
            self.total += 1 + _cond_cost(cond)
            lines = [f"{indent}if ({cond}) {{", *self.block(inner, budget, depth + 1)]
            if rng.random() < 0.5:
                self.total += 1  # the else
                lines += [indent + "} else {", *self.block(inner, budget, depth + 1)]
            return lines + [indent + "}"]
        if kind == "while":
            cond = rng.choice(CONDS)
            self.total += 1 + _cond_cost(cond)
            return [f"{indent}while ({cond}) {{",
                    *self.block(inner, budget, depth + 1), indent + "}"]
        if kind == "for":
            self.total += 2  # the loop and its `i < x` guard
            i = "i" + self.fresh()
            return [f"{indent}for (int {i} = 0; {i} < x; {i}++) {{",
                    *self.block(inner, budget, depth + 1), indent + "}"]
        if kind == "foreach":
            self.total += 1  # no guard
            v = "e" + self.fresh()
            return [f"{indent}for (var {v} : items()) {{",
                    *self.block(inner, budget, depth + 1), indent + "}"]
        if kind == "try":
            has_catch, has_finally = rng.choice(((True, False), (False, True),
                                                 (True, True)))
            self.total += 1 + has_catch + has_finally
            lines = [indent + "try {", *self.block(inner, budget, depth + 1)]
            if has_catch:
                lines.append(f"{indent}}} catch (Exception ex{self.fresh()}) {{")
            if has_finally:
                lines.append(indent + "} finally {")
            return lines + [indent + "}"]
        if kind == "switch":
            n_cases = rng.randint(1, 3)
            has_default = rng.random() < 0.5
            self.total += 1 + n_cases + has_default
            lines = [indent + "switch (x) {"]
            for i in range(n_cases):
                lines += [f"{inner}case {i}:", f"{inner}  break;"]
            if has_default:
                lines += [f"{inner}default:", f"{inner}  break;"]
            return lines + [indent + "}"]
        # a lambda costs nothing, and nothing inside it counts
        return [f"{indent}run(() -> {rng.choice(CONDS)});"]


def generate_class(rng: random.Random, name: str) -> tuple[list[str], Fraction]:
    """Class lines (header on line 0) and the model's expected total."""
    builder = _ClassBuilder(rng)
    builder.total += 1  # the InternalRepo field
    lines = [f"class {name} {{", "  private InternalRepo fld;", ""]
    for i in range(rng.randint(1, 4)):
        lines.append(f"  void m{i}(int x, int y, boolean flag) {{")
        budget = [rng.randint(1, 8)]
        while budget[0] > 0:
            lines += builder.stmt("    ", budget, 0)
        lines.append("  }")
    lines.append("}")
    return lines, builder.total


def _generated_file(rng: random.Random, tag: str, directory: str) -> JavaFile:
    name = f"Gen{tag}"
    lines, total = generate_class(rng, name)
    return JavaFile(f"{directory}/{name}.java", "\n".join(lines) + "\n",
                    {name: total})


# ── trees ────────────────────────────────────────────────────────────────

class Corpus:
    """Hands out files with fresh, unique type names from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fixtures = load_fixtures()
        self.serial = 0

    def _tag(self) -> str:
        self.serial += 1
        return f"_{self.serial:05d}"

    def _directory(self) -> str:
        return f"src/main/java/app/m{self.rng.randrange(24):02d}"

    def new_file(self) -> JavaFile:
        tag, directory = self._tag(), self._directory()
        if self.rng.random() < FIXTURE_SHARE:
            return _copy_fixture(self.rng.choice(self.fixtures), tag, directory)
        return _generated_file(self.rng, tag, directory)

    def new_file_of_size(self, size: int) -> JavaFile:
        draws = [self.new_file() for _ in range(SIZE_DRAWS)]
        return min(draws, key=lambda f: abs(len(f.text) - size))

    def regenerate(self, old: JavaFile) -> JavaFile:
        """Same path and type name, new body of about the old size: an edit
        to an existing file."""
        [name] = old.expected
        draws = [generate_class(self.rng, name) for _ in range(SIZE_DRAWS)]
        size = len(old.text)
        lines, total = min(draws, key=lambda d: abs(len("\n".join(d[0])) + 1 - size))
        return JavaFile(old.path, "\n".join(lines) + "\n", {name: total})

    def tree(self, n_files: int) -> list[JavaFile]:
        """n files of n * FILE_BYTES bytes in all, to within SIZE_TOLERANCE:
        seeded files are swapped in for others while that brings the total
        closer."""
        files = [self.new_file() for _ in range(n_files)]
        target = n_files * FILE_BYTES
        total = sum(len(f.text) for f in files)
        while abs(total - target) > SIZE_TOLERANCE * target:
            i, candidate = self.rng.randrange(n_files), self.new_file()
            swapped = total - len(files[i].text) + len(candidate.text)
            if abs(swapped - target) < abs(total - target):
                files[i], total = candidate, swapped
        return files

    def annotate(self, f: JavaFile, stale: bool) -> JavaFile:
        """Give every class a class-level @ICP; if `stale`, every one of them
        disagrees with the reference by a seeded amount.

        An existing class-level @ICP (the listing has one) is rewritten in
        place; elsewhere one line is inserted above the type header, so the
        file never carries two class-level annotations.
        """
        lines = f.text.split("\n")
        icp_lines: dict[str, int] = {}
        out: list[str] = []
        owners = _header_owners(lines, f.expected)
        for i, line in enumerate(lines):
            owner = owners.get(i)
            if owner is not None:
                value = f.expected[owner]
                if stale:
                    value += self.rng.choice((1, 2, 3, Fraction(1, 2)))
                if out and class_level_icp(out[-1]) is not None:
                    out[-1] = f"{_indent(out[-1])}@ICP({format_value(value)})"
                    icp_lines[owner] = len(out) - 1
                else:
                    icp_lines[owner] = len(out)
                    out.append(f"{_indent(line)}@ICP({format_value(value)})")
            out.append(line)
        return JavaFile(f.path, "\n".join(out), f.expected, icp_lines, stale)


def _indent(line: str) -> str:
    return line[:len(line) - len(line.lstrip())]


def _header_owners(lines: list[str], expected: dict[str, Fraction]) -> dict[int, str]:
    """Map each type-header line to the dotted unit name it declares."""
    owners: dict[int, str] = {}
    by_simple = {name.rsplit(".", 1)[-1]: name for name in expected}
    for i, line in enumerate(lines):
        m = _HEADER_RE.match(line)
        if m and m.group(2) in by_simple:
            owners[i] = by_simple[m.group(2)]
    return owners
