"""Rule configuration: ICP categories, costs, type patterns, limits.

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
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .values import is_half_step, json_number


class IcpCategory(enum.Enum):
    BRANCH = "branch"
    CONDITION = "condition"
    EXCEPTION = "exception"
    INTERNAL_COUPLING = "internal_coupling"
    EXTERNAL_COUPLING = "external_coupling"


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


# simple names that never match a coupling pattern: implicitly imported
# java.lang types (e.g. Long in a method signature) and primitives
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

PRIMITIVE_NAMES = frozenset({
    "boolean", "byte", "short", "int", "long", "char", "float", "double", "void",
})


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@lru_cache(maxsize=1024)
def glob_to_regex(pattern: str) -> re.Pattern:
    """Translate a path glob (`*` within a segment, `**` across segments)."""
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
    return re.compile("^" + "".join(out) + "$")


def glob_match(pattern: str, path: str) -> bool:
    return glob_to_regex(pattern).match(path) is not None


def any_glob_match(patterns: tuple[str, ...], path: str) -> bool:
    return any(glob_match(p, path) for p in patterns)


@dataclass(frozen=True)
class CategoryRule:
    enabled: bool
    cost: Fraction


@dataclass(frozen=True)
class LimitOverride:
    pattern: str  # matched against the unit path, then the type name
    limit: Fraction

    def matches(self, path: str, type_name: str) -> bool:
        return glob_match(self.pattern, path) or glob_match(self.pattern, type_name)


class TypeMatcher:
    """Matches a type's qualified name against configured glob patterns.

    Patterns without a dot also match the simple (last-segment) name, so
    `CertificateRepository` matches both the bare and the package-qualified
    spelling.
    """

    def __init__(self, patterns: tuple[str, ...], exclude_java_lang: bool = False):
        self.patterns = patterns
        self._exclude_java_lang = exclude_java_lang

    def matches(self, qualified_name: str) -> bool:
        simple = qualified_name.rpartition(".")[2]
        if self._exclude_java_lang:
            if simple in PRIMITIVE_NAMES:
                return False
            if qualified_name == simple and simple in JAVA_LANG_SIMPLE_NAMES:
                return False
            if qualified_name.startswith("java.lang."):
                return False
        for pattern in self.patterns:
            if glob_match(pattern, qualified_name):
                return True
            if "." not in pattern and glob_match(pattern, simple):
                return True
        return False


@dataclass(frozen=True)
class RuleSet:
    categories: dict[IcpCategory, CategoryRule]
    internal_types: tuple[str, ...]
    external_types: tuple[str, ...]
    default_limit: Fraction
    limit_overrides: tuple[LimitOverride, ...]
    exclude_globs: tuple[str, ...]
    test_globs: tuple[str, ...]
    include_globs: tuple[str, ...]
    count_lambdas: bool
    commit_pattern: re.Pattern
    internal_matcher: TypeMatcher = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    external_matcher: TypeMatcher = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "internal_matcher", TypeMatcher(self.internal_types))
        object.__setattr__(
            self, "external_matcher",
            TypeMatcher(self.external_types, exclude_java_lang=True),
        )

    def limit_for(self, path: str, type_name: str) -> Fraction:
        for override in self.limit_overrides:  # ordered, first match wins
            if override.matches(path, type_name):
                return override.limit
        return self.default_limit

    def is_test_path(self, path: str) -> bool:
        return any_glob_match(self.test_globs, path)

    def is_wanted_path(self, path: str) -> bool:
        """Included by a glob and excluded by none."""
        return (any_glob_match(self.include_globs, path)
                and not any_glob_match(self.exclude_globs, path))

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
        canonical = json.dumps(self.to_config_mapping(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_rules(**overrides: Any) -> RuleSet:
    """The rules of the `init` document; keyword overrides for tests and callers."""
    return replace(_DEFAULT_RULES, **overrides)


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
        categories[IcpCategory(name)] = CategoryRule(enabled, cost)

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
        overrides.append(LimitOverride(raw["pattern"], limit))

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

    return RuleSet(
        categories={cat: categories[cat] for cat in IcpCategory},
        internal_types=_string_list(data, "internal_types"),
        external_types=_string_list(data, "external_types"),
        default_limit=default_limit,
        limit_overrides=tuple(overrides),
        exclude_globs=_string_list(data, "exclude_globs"),
        test_globs=_string_list(data, "test_globs"),
        include_globs=_string_list(data, "include_globs"),
        count_lambdas=count_lambdas,
        commit_pattern=commit_pattern,
    )


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
