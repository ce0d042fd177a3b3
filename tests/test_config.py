from fractions import Fraction

import pytest

from solosent.config import detector_config_from_mapping, read_config_file
from solosent.detectors import IMPLEMENTED_THEMES, ConfigError, Theme


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
        assert config.profile_name == "suc-mamba"
        assert config.lexicon_dir is None

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
        config = detector_config_from_mapping(
            {"profile": "ud", "lexicons": "/tmp/lex"}
        )
        assert config.profile_name == "ud"
        assert config.lexicon_dir == "/tmp/lex"

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
