"""Config loading: defaults, overrides, validation errors, glob semantics."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cddlint.rules import (
    DEFAULT_CONFIG_DOCUMENT,
    ConfigError,
    IcpCategory,
    default_rules,
    glob_set,
    load_rules,
    type_matcher,
)


class TestDefaults:
    def test_empty_document_gives_paper_defaults(self):
        rules = load_rules("{}")
        costs = {cat: rules.categories[cat].cost for cat in IcpCategory}
        assert costs == {
            IcpCategory.BRANCH: 1,
            IcpCategory.CONDITION: 1,
            IcpCategory.EXCEPTION: 1,
            IcpCategory.INTERNAL_COUPLING: 1,
            IcpCategory.EXTERNAL_COUPLING: Fraction(1, 2),
        }
        assert all(rules.categories[cat].enabled for cat in IcpCategory)
        assert rules.default_limit == 10
        assert rules.count_lambdas is False
        assert rules.test_globs == ("**/src/test/**",)
        assert rules.include_globs == ("**/*.java",)

    def test_init_document_round_trips_to_defaults(self):
        emitted = load_rules(DEFAULT_CONFIG_DOCUMENT)
        assert emitted.to_config_mapping() == default_rules().to_config_mapping()

    def test_default_commit_pattern(self):
        rules = load_rules("{}")
        m = rules.commit_pattern.match("cdd(Foo): tidy up")
        assert m.groups() == ("Foo", "tidy up")


class TestOverrides:
    def test_dto_override_limits(self):
        rules = load_rules(
            '{"limit_overrides": [{"pattern": "**/dto/**", "limit": 20}]}'
        )
        assert rules.limit_for("src/dto/X.java", "X") == 20
        assert rules.limit_for("src/core/Y.java", "Y") == 10

    def test_partial_category_override(self):
        rules = load_rules('{"categories": {"branch": {"cost": 2}}}')
        assert rules.categories[IcpCategory.BRANCH].cost == 2
        assert rules.categories[IcpCategory.EXTERNAL_COUPLING].cost == Fraction(1, 2)

    def test_half_point_cost_is_exact(self):
        rules = load_rules('{"categories": {"condition": {"cost": 0.5}}}')
        assert rules.categories[IcpCategory.CONDITION].cost == Fraction(1, 2)


class TestValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_rules('{"categories": {"branch": {"cost": -1}}}')
        assert "categories.branch.cost" in str(err.value)

    def test_non_half_step_cost_rejected(self):
        with pytest.raises(ConfigError):
            load_rules('{"categories": {"branch": {"cost": 0.3}}}')

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_rules('{"internal_typos": []}')
        assert "internal_typos" in str(err.value)

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigError):
            load_rules('{"categories": {"branchy": {}}}')

    def test_zero_limit_rejected(self):
        with pytest.raises(ConfigError):
            load_rules('{"default_limit": 0}')

    def test_bad_commit_pattern_rejected(self):
        with pytest.raises(ConfigError):
            load_rules('{"commit_pattern": "cdd("}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            load_rules("{nope}")

    def test_null_string_list_takes_the_default(self):
        assert load_rules('{"test_globs": null}').test_globs == ("**/src/test/**",)

    def test_null_cost_is_a_missing_value(self):
        with pytest.raises(ConfigError) as err:
            load_rules('{"categories": {"branch": {"cost": null}}}')
        assert str(err.value) == "categories.branch.cost: missing value"

    def test_first_bad_category_in_document_order_is_named(self):
        with pytest.raises(ConfigError) as err:
            load_rules('{"categories": {"condition": {"enabled": 1},'
                       ' "branch": {"cost": -1}}}')
        assert str(err.value) == "categories.condition.enabled: must be true or false"

    def test_override_needs_pattern_and_limit(self):
        with pytest.raises(ConfigError):
            load_rules('{"limit_overrides": [{"limit": 20}]}')


def _one_glob(pattern: str) -> re.Pattern:
    """The reference: one glob alone, translated piece by piece."""
    out = []
    parts = pattern.split("/")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if part == "**":
            out.append(".*" if last else "(?:[^/]+/)*")
            continue
        out.append("".join({"*": "[^/]*", "?": "[^/]"}.get(ch) or re.escape(ch)
                           for ch in part))
        if not last:
            out.append("/")
    return re.compile("^" + "".join(out) + "$")


# globs and names from the pieces that the translation treats differently
_GLOB_TEXT = st.lists(st.sampled_from(["a", "b", ".", "/", "?", "*", "**", "\n"]),
                      max_size=6).map("".join)


@st.composite
def _globs_and_name(draw):
    """Globs, and a name that is often one glob's own spelling, which it
    matches, with or without an LF at the end."""
    patterns = tuple(draw(st.lists(_GLOB_TEXT, max_size=3)))
    name = draw(st.sampled_from(patterns) if patterns and draw(st.booleans())
                else _GLOB_TEXT)
    return patterns, name + draw(st.sampled_from(["", "\n"]))


class TestGlobs:
    @pytest.mark.parametrize("pattern,path,expected", [
        ("**/*.java", "A.java", True),
        ("**/*.java", "src/main/A.java", True),
        ("**/*.java", "src/A.txt", False),
        ("**/src/test/**", "src/test/T.java", True),
        ("**/src/test/**", "app/src/test/T.java", True),
        ("**/src/test/**", "src/main/T.java", False),
        ("**/dto/**", "src/dto/X.java", True),
        ("**/dto/**", "dto/X.java", True),
        ("**/dto/**", "src/dtos/X.java", False),
        ("*.java", "A.java", True),
        ("*.java", "src/A.java", False),
        ("src/?.java", "src/A.java", True),
        ("src/?.java", "src/AB.java", False),
        ("**/*.java", "a.java\n", True),
        ("**/dto/**", "/dto/X.java", False),  # `**/` takes whole segments only
    ])
    def test_path_globs(self, pattern, path, expected):
        assert (glob_set((pattern,)).match(path) is not None) is expected

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_globs_and_name())
    def test_a_set_matches_when_one_of_its_globs_does(self, globs_and_name):
        patterns, name = globs_and_name
        assert ((glob_set(patterns).match(name) is not None)
                is any(_one_glob(p).match(name) is not None for p in patterns))


class TestTypeMatcher:
    def test_simple_name_pattern_matches_qualified_use(self):
        m = type_matcher(("CertificateRepository",))
        assert m("CertificateRepository")
        assert m("com.zup.CertificateRepository")

    def test_dotted_pattern_requires_qualified_name(self):
        m = type_matcher(("com.zup.*",))
        assert m("com.zup.Cert")
        assert not m("Cert")

    def test_star_patterns(self):
        m = type_matcher(("Internal*",))
        assert m("InternalRepo")
        assert not m("ExternalRepo")

    def test_java_lang_exclusion_only_for_external(self):
        external = type_matcher(("*",), exclude_java_lang=True)
        assert not external("Long")
        assert not external("java.lang.Long")
        assert not external("int")
        assert external("Optional")
        internal = type_matcher(("Long",))
        assert internal("Long")

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_globs_and_name())
    def test_a_pattern_without_a_dot_also_matches_the_simple_name(self, globs_and_name):
        patterns, name = globs_and_name
        simple = name.rpartition(".")[2]
        assert type_matcher(patterns)(name) is any(
            _one_glob(p).match(name) is not None
            or ("." not in p and _one_glob(p).match(simple) is not None) for p in patterns)

    def test_one_matcher_per_patterns(self):
        # one matcher, and so one set of answers, serves every rule set and
        # file with these patterns
        assert type_matcher(("Repo",)) is type_matcher(("Repo",))
        assert type_matcher(("Repo",)) is not type_matcher(("Repo", "Lib"))
