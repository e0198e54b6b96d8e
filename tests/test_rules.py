"""Config loading: defaults, overrides, validation errors, glob semantics."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cddlint.rules import (
    DEFAULT_CONFIG_DOCUMENT,
    ConfigError,
    IcpCategory,
    TypeMatcher,
    default_rules,
    glob_match,
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
    ])
    def test_path_globs(self, pattern, path, expected):
        assert glob_match(pattern, path) is expected


class TestTypeMatcher:
    def test_simple_name_pattern_matches_qualified_use(self):
        m = TypeMatcher(("CertificateRepository",))
        assert m.matches("CertificateRepository")
        assert m.matches("com.zup.CertificateRepository")

    def test_dotted_pattern_requires_qualified_name(self):
        m = TypeMatcher(("com.zup.*",))
        assert m.matches("com.zup.Cert")
        assert not m.matches("Cert")

    def test_star_patterns(self):
        m = TypeMatcher(("Internal*",))
        assert m.matches("InternalRepo")
        assert not m.matches("ExternalRepo")

    def test_java_lang_exclusion_only_for_external(self):
        external = TypeMatcher(("*",), exclude_java_lang=True)
        assert not external.matches("Long")
        assert not external.matches("java.lang.Long")
        assert not external.matches("int")
        assert external.matches("Optional")
        internal = TypeMatcher(("Long",))
        assert internal.matches("Long")

    def test_one_matcher_per_patterns(self):
        # one matcher, and so one set of answers, serves every rule set and
        # file with these patterns
        assert type_matcher(("Repo",)) is type_matcher(("Repo",))
        assert type_matcher(("Repo",)) is not type_matcher(("Repo", "Lib"))
