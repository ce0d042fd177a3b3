from dataclasses import fields
from fractions import Fraction

import pytest

from solosent.config import detector_config_from_mapping, read_config_file
from solosent.detectors import IMPLEMENTED_THEMES, ConfigError, DetectorConfig, Theme


def _verdict(build):
    """None if the weight is kept, else its error up to any ", got ..."."""
    try:
        build()
    except ConfigError as exc:
        return str(exc).partition(", got")[0]
    return None


class TestReadConfigFile:
    def test_pairs_comments_blanks(self, tmp_path):
        path = tmp_path / "solosent.conf"
        path.write_text(
            "# comment\nprofile = ud\n\nweight.PNAnaphora = 1/2  # inline\n",
            encoding="utf-8",
        )
        assert read_config_file(path) == {
            "profile": "ud",
            "weight.PNAnaphora": "1/2",
        }

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "solosent.conf"
        path.write_text("profile ud\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(path)

    def test_empty_value(self, tmp_path):
        path = tmp_path / "solosent.conf"
        path.write_text("profile =\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="empty"):
            read_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "solosent.conf"
        path.write_text("profile = ud\nprofile = suc-mamba\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config_file(path)


class TestDetectorConfigFromMapping:
    def test_empty_mapping_is_default(self):
        config = detector_config_from_mapping({})
        assert config.enabled == frozenset(IMPLEMENTED_THEMES)
        assert config.weights == {}
        # the profile and the lexicons are the CLI's to load, not the rules'
        assert [f.name for f in fields(DetectorConfig)] == ["enabled", "weights"]
        with pytest.raises(TypeError):
            DetectorConfig(profile_name="ud")

    def test_disable_and_weight(self):
        config = detector_config_from_mapping(
            {"enable.IncompSent": "false", "weight.PNAnaphora": "0.5"}
        )
        assert Theme.INCOMPLETE not in config.enabled
        assert config.weights[Theme.PRONOMINAL_ANAPHORA] == Fraction(1, 2)

    def test_rational_weight_syntax(self):
        config = detector_config_from_mapping({"weight.StructConn": "1/3"})
        assert config.weights[Theme.STRUCTURAL_CONNECTIVE] == Fraction(1, 3)

    def test_profile_and_lexicons_passed_through(self):
        """Both keys are accepted and left to the CLI, which loads them."""
        config = detector_config_from_mapping(
            {"profile": "ud", "lexicons": "/tmp/lex"}
        )
        assert config == DetectorConfig()
        assert [f.name for f in fields(DetectorConfig)] == ["enabled", "weights"]

    def test_fetch_namespace_ignored(self):
        config = detector_config_from_mapping({"fetch.endpoint": "https://x"})
        assert config.enabled == frozenset(IMPLEMENTED_THEMES)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            detector_config_from_mapping({"wieght.PNAnaphora": "2"})

    def test_unknown_theme_rejected(self):
        with pytest.raises(ConfigError, match="no known theme"):
            detector_config_from_mapping({"enable.NoSuchTheme": "true"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="true/false"):
            detector_config_from_mapping({"enable.IncompSent": "maybe"})

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigError, match="rational"):
            detector_config_from_mapping({"weight.IncompSent": "heavy"})

    def test_weight_beyond_the_float_range_rejected(self):
        assert detector_config_from_mapping({"weight.PNAnaphora": "1e308"})
        with pytest.raises(
            ConfigError, match="^weight for PNAnaphora is too large for a float$"
        ):
            detector_config_from_mapping({"weight.PNAnaphora": "1e400"})

    def test_weight_whose_half_is_no_float_rejected(self):
        # PNAnaphora halves its weight when the sentence offers antecedents
        assert detector_config_from_mapping({"weight.PNAnaphora": "1e-320"})
        with pytest.raises(
            ConfigError, match="^weight for PNAnaphora is too small for a float$"
        ):
            detector_config_from_mapping({"weight.PNAnaphora": "1e-400"})

    @pytest.mark.parametrize("significand", ["0", "1", "-1", "99.5", "0." + "0" * 40 + "7"])
    def test_weight_exponent_refused_as_its_value_is(self, significand):
        """On both sides of the exponent past which config reads a weight's
        verdict from its text alone, the verdict is the one its value gets."""
        for exponent in [*range(-450, -300), *range(300, 450)]:
            value = f"{significand}e{exponent}"
            assert _verdict(
                lambda: detector_config_from_mapping({"weight.PNAnaphora": value})
            ) == _verdict(
                lambda: DetectorConfig(weights={Theme.PRONOMINAL_ANAPHORA: Fraction(value)})
            )

    @pytest.mark.parametrize("value", ["1_0", "1_000/3", "0.5_0", "1/1_0", "1e1_0"])
    def test_weight_with_an_underscore_rejected(self, value):
        """Fraction reads digit separators from Python 3.11 on; the config
        grammar is the same on every version."""
        with pytest.raises(
            ConfigError,
            match=f"^config key 'weight.IncompSent': expected a rational number, got '{value}'$",
        ):
            detector_config_from_mapping({"weight.IncompSent": value})

    def test_reserved_theme_enable_rejected(self):
        with pytest.raises(ConfigError, match="CDPC"):
            detector_config_from_mapping({"enable.CDPC": "true"})


RESERVED = (
    "theme CDPC is a reserved identifier without an implementation "
    "(word co-occurrence scoring hook)"
)


class TestErrorsNameTheFile:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("weight.PNAnaphora = abc",
             "config key 'weight.PNAnaphora': expected a rational number, got 'abc'"),
            ("weight.PNAnaphora = 1e400", "weight for PNAnaphora is too large for a float"),
            ("enable.IncompSent = maybe",
             "config key 'enable.IncompSent': expected true/false, got 'maybe'"),
            ("enable.CDPC = yes", f"{RESERVED}; it cannot be enabled"),
            ("weight.CDPC = 2", f"{RESERVED}; it cannot be weighted"),
            ("wieght.PNAnaphora = 2",
             "unknown config key 'wieght.PNAnaphora' (expected lexicons, profile or one "
             "of the namespaces enable., weight., fetch.)"),
        ],
    )
    def test_value_error_names_the_file_and_the_line(self, tmp_path, line, message):
        path = tmp_path / "x.conf"
        path.write_text(f"profile = ud\n# weights\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            detector_config_from_mapping(read_config_file(path))
        assert str(info.value) == f"{path}: line 3: {message}"
        # the same pairs, not read from a file, name no file
        with pytest.raises(ConfigError) as info:
            detector_config_from_mapping(dict(read_config_file(path)))
        assert str(info.value) == message

    def test_file_keeps_each_key_line(self, tmp_path):
        path = tmp_path / "x.conf"
        path.write_text("\n# c\nprofile = ud\n\nlexicons = l\n", encoding="utf-8")
        mapping = read_config_file(path)
        assert (mapping.path, mapping.lines) == (path, {"profile": 3, "lexicons": 5})
