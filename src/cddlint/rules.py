"""Rule configuration: ICP categories, costs, type patterns, limits.

Every pattern list (the include, exclude and test globs, the internal and
external types, each limit override's pattern) is matched through
`glob_set`, one regex per tuple of globs, compiled once.

The config document is JSON (conventionally `cdd.json`). Full-line `//`
comments are tolerated so generated configs can carry explanations. Unknown
keys are rejected to catch typos.

`DEFAULT_CONFIG_DOCUMENT`, the document `cddlint init` writes, is the only
statement of the defaults: it is read once at import, a field that a config
leaves out (at the top or in a category) takes its value, and
`default_rules()` is the rule set it reads to.
"""

from __future__ import annotations

import enum
import json
import re
from fractions import Fraction
from functools import cache
from typing import Any, Callable

from .records import Record
from .syntax.parser import PRIMITIVES
from .values import is_half_step, json_number


class IcpCategory(enum.Enum):
    BRANCH = "branch"
    CONDITION = "condition"
    EXCEPTION = "exception"
    INTERNAL_COUPLING = "internal_coupling"
    EXTERNAL_COUPLING = "external_coupling"

    # Enum hashes a member by its name in Python; members are singletons, so
    # identity is the same equality, and a lookup by category stays in C
    __hash__ = object.__hash__


DEFAULT_CONFIG_DOCUMENT = """\
{
  // Per-category switches and costs (costs are multiples of 0.5).
  "categories": {
    "branch":            { "enabled": true, "cost": 1 },
    "condition":         { "enabled": true, "cost": 1 },
    "exception":         { "enabled": true, "cost": 1 },
    "internal_coupling": { "enabled": true, "cost": 1 },
    "external_coupling": { "enabled": true, "cost": 0.5 }
  },
  // Project classes whose use counts as internal coupling (glob patterns,
  // matched against simple and qualified type names).
  "internal_types": [],
  // Library/framework types whose declarations count as external coupling.
  // java.lang simple names and primitives never match.
  "external_types": [],
  // A unit whose total exceeds the limit must be refactored.
  "default_limit": 10,
  // First matching override wins; patterns match unit paths or type names.
  // Example: { "pattern": "**/dto/**", "limit": 20 }
  "limit_overrides": [],
  // Files to skip entirely.
  "exclude_globs": [],
  // Files whose classes and methods stay out of history and method metrics.
  "test_globs": ["**/src/test/**"],
  // Files to analyze.
  "include_globs": ["**/*.java"],
  // Count each lambda expression as a branch point and analyze its body.
  "count_lambdas": false,
  // First commit-message line marking a complexity-budget commit.
  "commit_pattern": "^cdd\\\\(([^)]+)\\\\):\\\\s*(.+)$"
}
"""


# simple names that never match an external pattern: implicitly imported
# java.lang types (e.g. Long in a method signature); nor do the primitives
JAVA_LANG_SIMPLE_NAMES = frozenset({
    "Object", "String", "CharSequence", "Boolean", "Byte", "Character",
    "Short", "Integer", "Long", "Float", "Double", "Number", "Void", "Math",
    "System", "Thread", "Runnable", "Iterable", "Comparable", "Class", "Enum",
    "StringBuilder", "StringBuffer", "Throwable", "Exception", "Error",
    "RuntimeException", "IllegalArgumentException", "IllegalStateException",
    "NullPointerException", "UnsupportedOperationException",
    "IndexOutOfBoundsException", "ArithmeticException", "ClassCastException",
    "NumberFormatException", "InterruptedException", "CloneNotSupportedException",
    "Override", "Deprecated", "SuppressWarnings", "FunctionalInterface",
    "SafeVarargs", "AutoCloseable", "Record",
})


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@cache
def glob_set(patterns: tuple[str, ...]) -> re.Pattern:
    """One regex that matches a path or a name when any of the globs does:
    `*` matches within a `/`-separated segment, `**` across segments and
    `?` one character but `/`. Read with `match`, so `$` also takes a name that
    ends in an LF; no name matches an empty tuple."""
    return re.compile("^(?:" + "|".join(map(_translate_glob, patterns)) + ")$"
                      if patterns else "(?!)")


def _translate_glob(pattern: str) -> str:
    parts = pattern.split("/")
    out: list[str] = []
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if part == "**":
            out.append(".*" if last else "(?:[^/]+/)*")
            continue
        seg: list[str] = []
        for ch in part:
            if ch == "*":
                seg.append("[^/]*")
            elif ch == "?":
                seg.append("[^/]")
            else:
                seg.append(re.escape(ch))
        out.append("".join(seg))
        if not last:
            out.append("/")
    return "".join(out)


class CategoryRule(Record):
    _fields = ("enabled", "cost")  # bool, Fraction


class LimitOverride(Record):
    _fields = (
        "pattern",  # matched against the unit path, then the type name
        "limit",  # Fraction
    )


@cache
def type_matcher(patterns: tuple[str, ...],
                 exclude_java_lang: bool = False) -> Callable[[str], bool]:
    """The one predicate for these patterns, which keeps each name's answer:
    rule sets with equal patterns share it, and a rule set made by
    `_replace` with new patterns gets its own.

    A pattern matches a type's qualified name or its simple (last-segment)
    name, so `CertificateRepository` matches both the bare and the
    package-qualified spelling; a pattern with a dot matches no simple name."""
    match = glob_set(patterns).match

    @cache
    def matches(qualified_name: str) -> bool:
        simple = qualified_name.rpartition(".")[2]
        if exclude_java_lang:
            if simple in PRIMITIVES:
                return False
            if qualified_name == simple and simple in JAVA_LANG_SIMPLE_NAMES:
                return False
            if qualified_name.startswith("java.lang."):
                return False
        return match(qualified_name) is not None or match(simple) is not None

    return matches


class RuleSet(Record):
    _fields = (
        "categories",  # dict[IcpCategory, CategoryRule]
        "internal_types", "external_types",  # (str, ...) of glob patterns
        "default_limit",  # Fraction
        "limit_overrides",  # (LimitOverride, ...)
        "exclude_globs", "test_globs", "include_globs",  # (str, ...)
        "count_lambdas",  # bool
        "commit_pattern",  # re.Pattern
    )

    def limit_for(self, path: str, type_name: str) -> Fraction:
        for override in self.limit_overrides:  # ordered, first match wins
            match = glob_set((override.pattern,)).match
            if match(path) or match(type_name):
                return override.limit
        return self.default_limit

    def is_test_path(self, path: str) -> bool:
        return glob_set(self.test_globs).match(path) is not None

    def is_wanted_path(self, path: str) -> bool:
        """Included by a glob and excluded by none."""
        return (glob_set(self.include_globs).match(path) is not None
                and glob_set(self.exclude_globs).match(path) is None)

    def to_config_mapping(self) -> dict:
        return {
            "categories": {
                cat.value: {"enabled": rule.enabled, "cost": json_number(rule.cost)}
                for cat, rule in self.categories.items()
            },
            "internal_types": list(self.internal_types),
            "external_types": list(self.external_types),
            "default_limit": json_number(self.default_limit),
            "limit_overrides": [
                {"pattern": o.pattern, "limit": json_number(o.limit)}
                for o in self.limit_overrides
            ],
            "exclude_globs": list(self.exclude_globs),
            "test_globs": list(self.test_globs),
            "include_globs": list(self.include_globs),
            "count_lambdas": self.count_lambdas,
            "commit_pattern": self.commit_pattern.pattern,
        }

    def digest(self) -> str:
        """The sha256 of the canonical config mapping, which `history`
        reports. `hashlib` is imported here, not at the top: it loads
        OpenSSL, and `check`, `reconcile` and `init` never need a digest."""
        import hashlib

        canonical = json.dumps(self.to_config_mapping(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_rules(**overrides: Any) -> RuleSet:
    """The rules of the `init` document; keyword overrides for tests and callers."""
    return _DEFAULT_RULES._replace(**overrides)


def _strip_comment_lines(text: str) -> str:
    kept = [line for line in text.splitlines() if not line.lstrip().startswith("//")]
    return "\n".join(kept)


def _read_document(config_document: str) -> Any:
    try:
        return json.loads(_strip_comment_lines(config_document), parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc


def load_rules(config_document: str) -> RuleSet:
    """Parse and validate a config document; unspecified fields default."""
    return rules_from_mapping(_read_document(config_document))


def rules_from_mapping(data: Any) -> RuleSet:
    """Validate a read config document; a field it leaves out, at the top or
    in a category, takes the `init` document's value."""
    if not isinstance(data, dict):
        raise ConfigError("", "config document must be a JSON object")
    unknown = set(data) - _DEFAULTS.keys()
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")

    raw_cats = data.get("categories", {})
    if not isinstance(raw_cats, dict):
        raise ConfigError("categories", "must be an object")
    default_cats = _DEFAULTS["categories"]
    categories: dict[IcpCategory, CategoryRule] = {}
    # the document's own entries first, in its order, so that an error names
    # its first bad entry; then the categories it leaves out
    for name, raw in [*raw_cats.items(),
                      *((name, {}) for name in default_cats if name not in raw_cats)]:
        if name not in default_cats:
            raise ConfigError(f"categories.{name}", "unknown category")
        if not isinstance(raw, dict):
            raise ConfigError(f"categories.{name}", "must be an object")
        bad = set(raw) - default_cats[name].keys()
        if bad:
            raise ConfigError(f"categories.{name}.{sorted(bad)[0]}", "unknown key")
        enabled = raw.get("enabled", default_cats[name]["enabled"])
        if not isinstance(enabled, bool):
            raise ConfigError(f"categories.{name}.enabled", "must be true or false")
        cost = _decimal_field(raw.get("cost", default_cats[name]["cost"]),
                              f"categories.{name}.cost")
        if cost < 0:
            raise ConfigError(f"categories.{name}.cost", "must be non-negative")
        if not is_half_step(cost):
            raise ConfigError(f"categories.{name}.cost", "must be a multiple of 0.5")
        categories[IcpCategory(name)] = CategoryRule((enabled, cost))

    default_limit = _decimal_field(data.get("default_limit", _DEFAULTS["default_limit"]),
                                   "default_limit")
    if default_limit <= 0:
        raise ConfigError("default_limit", "must be positive")

    overrides: list[LimitOverride] = []
    raw_overrides = data.get("limit_overrides", _DEFAULTS["limit_overrides"])
    if not isinstance(raw_overrides, list):
        raise ConfigError("limit_overrides", "must be a list")
    for i, raw in enumerate(raw_overrides):
        where = f"limit_overrides[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(where, "must be an object")
        bad = set(raw) - {"pattern", "limit"}
        if bad:
            raise ConfigError(f"{where}.{sorted(bad)[0]}", "unknown key")
        if "pattern" not in raw or not isinstance(raw["pattern"], str):
            raise ConfigError(f"{where}.pattern", "must be a string")
        limit = _decimal_field(raw.get("limit"), f"{where}.limit")
        if limit <= 0:
            raise ConfigError(f"{where}.limit", "must be positive")
        overrides.append(LimitOverride((raw["pattern"], limit)))

    pattern_text = data.get("commit_pattern", _DEFAULTS["commit_pattern"])
    if not isinstance(pattern_text, str):
        raise ConfigError("commit_pattern", "must be a string")
    try:
        commit_pattern = re.compile(pattern_text)
    except re.error as exc:
        raise ConfigError("commit_pattern", f"invalid regular expression: {exc}") from exc

    count_lambdas = data.get("count_lambdas", _DEFAULTS["count_lambdas"])
    if not isinstance(count_lambdas, bool):
        raise ConfigError("count_lambdas", "must be true or false")

    return RuleSet((
        {cat: categories[cat] for cat in IcpCategory},
        _string_list(data, "internal_types"),
        _string_list(data, "external_types"),
        default_limit,
        tuple(overrides),
        _string_list(data, "exclude_globs"),
        _string_list(data, "test_globs"),
        _string_list(data, "include_globs"),
        count_lambdas,
        commit_pattern,
    ))


def _decimal_field(value: Any, path: str) -> Fraction:
    # the document is read with parse_float=Fraction: a number is an int or a Fraction
    if value is None:
        raise ConfigError(path, "missing value")
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ConfigError(path, "must be a number")
    return Fraction(value)


def _string_list(data: dict, key: str) -> tuple[str, ...]:
    raw = data.get(key)
    if raw is None:
        raw = _DEFAULTS[key]
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ConfigError(key, "must be a list of strings")
    return tuple(raw)


# the `init` document is the defaults: read once, at import
_DEFAULTS = _read_document(DEFAULT_CONFIG_DOCUMENT)
_DEFAULT_RULES = rules_from_mapping(_DEFAULTS)
