import pytest

from solosent.lexicons import (
    ANAPHORIC_ADVERBS_FILE,
    AdverbType,
    LexiconError,
    load_lexicon_set,
)


class TestBundledLexicons:
    def test_loads_without_warnings(self, lex):
        assert lex.warnings == ()

    def test_weather_verbs(self, lex):
        assert {"regna", "snöa", "blåsa", "hagla", "åska"} <= lex.weather_verbs
        assert len(lex.weather_verbs) >= 14
        assert "sova" not in lex.weather_verbs

    def test_anaphoric_pronouns_include_demonstratives(self, lex):
        assert {"den", "det"} <= lex.anaphoric_pronouns
        assert {"denna", "denne", "sådan", "densamma", "dylik"} <= lex.anaphoric_pronouns
        assert "denna" in lex.anaphoric_pronouns

    def test_nonanaphoric_person_pronouns(self, lex):
        assert not {"han", "hon"} & lex.anaphoric_pronouns
        assert not any("non-anaphoric" in w for w in lex.warnings)

    def test_adverbs_carry_types(self, lex):
        assert lex.anaphoric_adverbs["där"] is AdverbType.LOCATIVE
        assert lex.anaphoric_adverbs["då"] is AdverbType.TEMPORAL
        assert "sedan" not in lex.anaphoric_adverbs

    def test_paired_conjunctions_are_ordered_pairs(self, lex):
        assert ("antingen", "eller") in lex.paired_conjunctions
        assert ("både", "och") in lex.paired_conjunctions
        assert ("eller", "antingen") not in lex.paired_conjunctions

    def test_yes_no_interjections(self, lex):
        assert {"ja", "nej", "jo"} <= lex.yes_no_interjections

    def test_reload_compares_equal(self, lex):
        assert load_lexicon_set() == lex


class TestCustomDirectory:
    def write_minimal(self, directory):
        (directory / "weather_verbs.txt").write_text("regna\n", encoding="utf-8")
        (directory / "anaphoric_adverbs.txt").write_text(
            "där\tlocative\n", encoding="utf-8"
        )
        (directory / "anaphoric_pronouns.txt").write_text("den\n", encoding="utf-8")

    def test_missing_files_warn_and_default_empty(self, tmp_path):
        self.write_minimal(tmp_path)
        lexicons = load_lexicon_set(tmp_path)
        assert lexicons.weather_verbs == {"regna"}
        assert lexicons.yes_no_interjections == frozenset()
        assert any("yes_no_interjections" in w for w in lexicons.warnings)

    def test_entries_lowercased_and_comments_skipped(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "weather_verbs.txt").write_text(
            "# comment\nRegna\n\nSNÖA\n", encoding="utf-8"
        )
        lexicons = load_lexicon_set(tmp_path)
        assert lexicons.weather_verbs == {"regna", "snöa"}

    def test_unknown_adverb_type_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / ANAPHORIC_ADVERBS_FILE).write_text(
            "där\tspatial\n", encoding="utf-8"
        )
        with pytest.raises(LexiconError, match="spatial"):
            load_lexicon_set(tmp_path)

    def test_adverb_with_two_types_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        path = tmp_path / ANAPHORIC_ADVERBS_FILE
        path.write_text("där\tlocative\ndå\ttemporal\nDär\ttemporal\n", encoding="utf-8")
        with pytest.raises(LexiconError) as caught:
            load_lexicon_set(tmp_path)
        assert str(caught.value) == (
            f"{path}: line 3: 'där' listed as 'temporal', but earlier as 'locative'"
        )

    def test_adverb_listed_twice_with_one_type_loads(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / ANAPHORIC_ADVERBS_FILE).write_text(
            "där\tlocative\ndär\tlocative\n", encoding="utf-8"
        )
        assert load_lexicon_set(tmp_path).anaphoric_adverbs == {"där": AdverbType.LOCATIVE}

    def test_missing_adverb_type_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / ANAPHORIC_ADVERBS_FILE).write_text("där\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="lemma<TAB>type"):
            load_lexicon_set(tmp_path)

    def test_empty_field_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / ANAPHORIC_ADVERBS_FILE).write_text(
            "\ttemporal\n", encoding="utf-8"
        )
        with pytest.raises(LexiconError, match="empty field"):
            load_lexicon_set(tmp_path)

    def test_extra_column_in_simple_list_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "weather_verbs.txt").write_text(
            "regna\tväder\n", encoding="utf-8"
        )
        with pytest.raises(LexiconError, match="one lemma per line"):
            load_lexicon_set(tmp_path)

    def test_overlap_between_lists_warns(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "nonanaphoric_person_pronouns.txt").write_text(
            "den\n", encoding="utf-8"
        )
        lexicons = load_lexicon_set(tmp_path)
        assert any("den" in w and "both" in w for w in lexicons.warnings)


class TestDirectoryMustExist:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="does not exist"):
            load_lexicon_set(tmp_path / "missing")

    def test_file_is_not_a_directory(self, tmp_path):
        path = tmp_path / "weather_verbs.txt"
        path.write_text("regna\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="is not a directory"):
            load_lexicon_set(path)
