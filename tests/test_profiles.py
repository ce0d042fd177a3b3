from importlib.resources import files

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from helpers import annotate, parse_one
from solosent.cli import main
from solosent.model import (
    Category,
    Gender,
    MorphFeatures,
    Number,
    Relation,
    Sentence,
    Token,
    VerbForm,
)
from solosent.profiles import (
    BUNDLED_PROFILES,
    CoverageCounter,
    ProfileError,
    TagsetProfile,
    apply_profile,
    classify_delimiter_form,
    load_profile,
)

MINIMAL_PROFILE = """
name tiny
pos N noun
pos PM proper_noun
pos P pronoun
pos D determiner
pos V verb
pos A adverb
pos C conjunction
pos S subjunction
pos I interjection
pos IM infinitive_marker
pos PUNCT delimiter
deprel root root
deprel subj subject
deprel lsubj logical_subject
deprel expl expletive
deprel conj conjunct
deprel ca conjunctional_adverbial
deprel adv adverbial
deprel sub subordinator
feat V pres verb_form=finite_present
feat * utr gender=common
modal kunna
"""


class TestBundledProfiles:
    def test_both_load(self):
        for name in BUNDLED_PROFILES:
            profile = load_profile(name)
            assert profile.name == name

    def test_suc_category_mapping(self, suc):
        assert suc.category_for("NN", "hus") is Category.NOUN
        assert suc.category_for("PM", "Anna") is Category.PROPER_NOUN
        assert suc.category_for("VB", "kom") is Category.VERB
        assert suc.category_for("KN", "och") is Category.CONJUNCTION
        assert suc.category_for("SN", "att") is Category.SUBJUNCTION
        assert suc.category_for("IE", "att") is Category.INFINITIVE_MARKER
        assert suc.category_for("MAD", ".") is Category.MAJOR_DELIMITER
        assert suc.category_for("PAD", '"') is Category.MINOR_DELIMITER
        assert suc.category_for("XX", "x") is None

    def test_suc_relation_mapping(self, suc):
        assert suc.relation_for("SS") is Relation.SUBJECT
        assert suc.relation_for("ES") is Relation.LOGICAL_SUBJECT
        assert suc.relation_for("FS") is Relation.EXPLETIVE
        assert suc.relation_for("+A") is Relation.CONJUNCTIONAL_ADVERBIAL
        assert suc.relation_for("UK") is Relation.SUBORDINATOR
        assert suc.relation_for("CJ") is Relation.CONJUNCT
        # labels no rule reads are mapped, so they are not tallied unmapped
        for label in ("OO", "IO", "EO", "++", "IM"):
            assert suc.relation_for(label) is Relation.OTHER
        assert suc.relation_for("??") is None

    def test_suc_feature_decoding(self, suc):
        assert suc.decode_features("NN", "UTR|SIN|DEF") == MorphFeatures(
            gender=Gender.COMMON, number=Number.SINGULAR
        )
        assert suc.decode_features("VB", "PRS|AKT").verb_form is (
            VerbForm.FINITE_PRESENT
        )
        assert suc.decode_features("VB", "PRT|AKT").verb_form is VerbForm.FINITE_PAST
        assert suc.decode_features("VB", "IMP|AKT").verb_form is VerbForm.IMPERATIVE
        assert suc.decode_features("VB", "SUP|AKT").verb_form is VerbForm.SUPINE
        assert suc.decode_features("PC", "PRS|UTR|SIN|IND|NOM").verb_form is (
            VerbForm.PARTICIPLE
        )

    def test_verb_feats_do_not_leak_to_other_pos(self, suc):
        assert suc.decode_features("AB", "PRS").verb_form is VerbForm.UNSPECIFIED

    def test_unknown_atoms_tolerated(self, suc):
        f = suc.decode_features("DT", "UTR/NEU|PLU|IND")
        assert f.gender is Gender.UNSPECIFIED
        assert f.number is Number.PLURAL

    def test_ud_punct_classified_by_form(self, ud):
        assert ud.category_for("PUNCT", ".") is Category.MAJOR_DELIMITER
        assert ud.category_for("PUNCT", "!") is Category.MAJOR_DELIMITER
        assert ud.category_for("PUNCT", ",") is Category.MINOR_DELIMITER
        assert ud.category_for("PUNCT", "(") is Category.MINOR_DELIMITER

    def test_ud_mappings(self, ud):
        assert ud.category_for("AUX", "är") is Category.VERB
        assert ud.relation_for("expl") is Relation.EXPLETIVE
        assert ud.relation_for("discourse") is Relation.CONJUNCTIONAL_ADVERBIAL
        assert ud.relation_for("csubj") is Relation.SUBJECT
        for label in ("obj", "iobj", "cc"):
            assert ud.relation_for(label) is Relation.OTHER
        assert ud.decode_features("VERB", "Mood=Ind|Tense=Pres|VerbForm=Fin")
        f = ud.decode_features("VERB", "Mood=Imp|VerbForm=Fin")
        assert f.verb_form is VerbForm.IMPERATIVE

    def test_warnings_name_exactly_the_unreachable_relations(self, suc, ud):
        assert suc.warnings == (
            "profile 'suc-mamba' has no raw label for optional relation"
            " 'relative_clause_marker'",
        )
        assert ud.warnings == (
            "profile 'ud' has no raw label for optional relation 'logical_subject'",
            "profile 'ud' has no raw label for optional relation"
            " 'relative_clause_marker'",
        )

    def test_modal_lemmas(self, suc, ud):
        for profile in (suc, ud):
            assert {"kunna", "skola", "vilja"} <= profile.modal_lemmas


class TestClassifyDelimiterForm:
    def test_major(self):
        assert classify_delimiter_form("?") is Category.MAJOR_DELIMITER

    def test_minor_includes_paired_marks(self):
        for form in (",", ";", "–", '"', "(", "»"):
            assert classify_delimiter_form(form) is Category.MINOR_DELIMITER

    def test_unknown_form(self):
        assert classify_delimiter_form("word") is Category.OTHER


class TestProfileText:
    def test_minimal_profile_parses(self, tmp_path):
        path = tmp_path / "tiny.profile"
        path.write_text(MINIMAL_PROFILE, encoding="utf-8")
        profile = load_profile(path)
        assert profile.name == "tiny"
        assert profile.category_for("N", "hus") is Category.NOUN
        assert profile.modal_lemmas == {"kunna"}
        # optional relations missing from the file come back as warnings
        assert any("determiner" in w for w in profile.warnings)

    def test_missing_required_category_rejected(self, tmp_path):
        text = MINIMAL_PROFILE.replace("pos V verb\n", "")
        path = tmp_path / "broken.profile"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ProfileError, match="verb"):
            load_profile(path)

    def test_missing_required_relation_rejected(self, tmp_path):
        text = MINIMAL_PROFILE.replace("deprel subj subject\n", "")
        path = tmp_path / "broken.profile"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ProfileError, match="subject"):
            load_profile(path)

    def test_unknown_category_name_rejected(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("name bad\npos N nuon\n", encoding="utf-8")
        with pytest.raises(ProfileError, match="nuon"):
            load_profile(path)

    def test_unknown_directive_rejected(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("name bad\nfrobnicate N x\n", encoding="utf-8")
        with pytest.raises(ProfileError, match="frobnicate"):
            load_profile(path)

    def test_bad_feature_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text(
            MINIMAL_PROFILE + "feat V x verb_form=bogus\n", encoding="utf-8"
        )
        with pytest.raises(ProfileError, match="bogus"):
            load_profile(path)

    def test_nameless_profile_rejected(self, tmp_path):
        path = tmp_path / "anon.profile"
        path.write_text("pos N noun\n", encoding="utf-8")
        with pytest.raises(ProfileError, match="name"):
            load_profile(path)

    def test_unknown_profile_name(self):
        with pytest.raises(ProfileError, match="bundled"):
            load_profile("no-such-profile")

    def test_later_feature_rows_override(self, tmp_path):
        text = MINIMAL_PROFILE + (
            "feat V pres verb_form=supine\n"  # later row wins for same field
        )
        path = tmp_path / "override.profile"
        path.write_text(text, encoding="utf-8")
        profile = load_profile(path)
        assert profile.decode_features("V", "pres").verb_form is VerbForm.SUPINE


@pytest.mark.parametrize(
    "line, message",
    [
        ("name tiny again", "name takes exactly one value"),
        ("pos N", "pos takes a raw tag and a category"),
        ("deprel subj", "deprel takes a raw label and a relation"),
        ("deprel subj subjekt", "unknown relation 'subjekt'"),
        # relations and a feature field no rule reads, no longer in the grammar
        ("deprel OO object", "unknown relation 'object'"),
        ("deprel ++ coordinator", "unknown relation 'coordinator'"),
        ("deprel IM infinitive_marker", "unknown relation 'infinitive_marker'"),
        ("feat V pres", "feat takes a POS pattern, an atom and field=value"),
        ("feat V pres tense=present", "unknown feature field 'tense'"),
        ("feat * DEF definiteness=definite", "unknown feature field 'definiteness'"),
        ("name tiny", "duplicate name line (first on line 1)"),
        ("modal kunna vilja", "modal takes exactly one lemma"),
    ],
)
def test_grammar_error_names_file_and_line(capsys, tmp_path, line, message):
    path = tmp_path / "bad.profile"
    path.write_text(f"name tiny\n# the next line is wrong\n{line}\n", encoding="utf-8")
    corpus = str(FIXTURES.joinpath("sv_examples.conllu"))
    code = main(["--mode", "assess", "--input", corpus, "--profile", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: line 3: {message}\n"


@pytest.mark.parametrize(
    "line, first, message",
    [
        ("pos AB conjunction", "pos AB adverb", "duplicate pos line for 'AB'"),
        ("pos AB adverb", "pos AB adverb", "duplicate pos line for 'AB'"),
        ("deprel SS expletive", "deprel SS subject", "duplicate deprel line for 'SS'"),
    ],
)
def test_a_second_mapping_of_one_tag_is_refused(capsys, tmp_path, line, first, message):
    """Without the check, appending ``pos AB conjunction`` loaded, and the
    fixture's AdvAnaphora sentences t04 and t05 changed verdicts."""
    text = files("solosent").joinpath("data/profiles/suc-mamba.profile").read_text(
        encoding="utf-8"
    )
    first_number = text.splitlines().index(first) + 1
    path = tmp_path / "twice.profile"
    path.write_text(text + line + "\n", encoding="utf-8")
    last_number = text.count("\n") + 1
    corpus = str(FIXTURES.joinpath("sv_examples.conllu"))
    code = main(["--mode", "assess", "--input", corpus, "--profile", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: {path}: line {last_number}: {message} (first on line {first_number})\n"
    )


class TestApplyProfile:
    def test_fixture_annotations(self, suc):
        s = annotate(
            "Det det PN NEU|SIN|DEF 2 FS\n"
            "regnar regna VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        det, regnar, stop = s.tokens
        assert det.category is Category.PRONOUN
        assert det.relation is Relation.EXPLETIVE
        assert det.features.gender is Gender.NEUTER
        assert regnar.features.verb_form is VerbForm.FINITE_PRESENT
        assert stop.category is Category.MAJOR_DELIMITER
        assert s.profile == "suc-mamba"

    def test_unknown_tags_map_to_other_and_are_counted(self, suc):
        sentence = parse_one("x x ZZ _ 0 QQ")
        coverage = CoverageCounter()
        annotated = apply_profile(sentence, suc, coverage)
        token = annotated.token(1)
        assert token.category is Category.OTHER
        assert token.relation is Relation.OTHER
        assert coverage.unknown_pos["ZZ"] == 1
        assert coverage.unknown_deprel["QQ"] == 1
        assert coverage.total == 2
        assert "ZZ" in coverage.summary()

    def test_verb_form_zeroed_for_non_verbs(self, suc):
        # PRS only decodes for VB rows, but belt and braces: a non-verb
        # category never keeps a verb form
        s = annotate("boken bok NN UTR|SIN|DEF 0 ROOT")
        assert s.token(1).features.verb_form is VerbForm.UNSPECIFIED

    def test_is_modal_requires_verb_category(self, suc):
        s = annotate(
            "kunna kunna VB INF|AKT 0 ROOT\n"
            "kunna kunna NN UTR|SIN|IND 1 OO"
        )
        assert s.token(1).is_modal
        assert not s.token(2).is_modal

    def test_modal_lemma_case_insensitive(self, suc):
        s = annotate("Skulle Skola VB PRT|AKT 0 ROOT")
        assert s.token(1).is_modal


class TestCompiledProfile:
    def test_each_pos_feats_pair_decoded_once(self, monkeypatch, fixture_sentences):
        calls = []
        decode = TagsetProfile.decode_features

        def counting(self, pos, feats):
            calls.append((pos, feats))
            return decode(self, pos, feats)

        monkeypatch.setattr(TagsetProfile, "decode_features", counting)
        profile = load_profile("suc-mamba")
        for sentence in fixture_sentences:
            apply_profile(sentence, profile)
        pairs = {(t.pos, t.feats) for s in fixture_sentences for t in s.tokens}
        assert sorted(calls) == sorted(pairs)
        assert len(pairs) < sum(len(s.tokens) for s in fixture_sentences)

    @pytest.mark.parametrize("first", ["VERB", "ADJ"])
    def test_pos_is_part_of_the_decoded_pair(self, first):
        profile = load_profile("ud")
        expected = {"VERB": VerbForm.PARTICIPLE, "ADJ": VerbForm.UNSPECIFIED}
        order = [first, "ADJ" if first == "VERB" else "VERB"]
        for pos in order:
            token = apply_profile(
                parse_one(f"läsande läsa {pos} Tense=Pres|VerbForm=Part 0 root"),
                profile,
            ).token(1)
            assert token.features.verb_form is expected[pos]


_SHARED = {name: load_profile(name) for name in BUNDLED_PROFILES}


@st.composite
def _profile_and_sentences(draw):
    name = draw(st.sampled_from(BUNDLED_PROFILES))
    profile = _SHARED[name]
    atoms = sorted({atom for _, atom, _, _ in profile.feature_rules} - {"*"})
    pos = st.sampled_from(sorted(profile.category_of_pos) + ["ZZ", "x"])
    deprel = st.sampled_from(sorted(profile.relation_of_deprel) + ["QQ"])
    feats = st.lists(st.sampled_from(atoms + ["Odd=1"]), max_size=4).map("|".join)
    form = st.sampled_from([".", ",", "?", "(", "hus", "kan"])
    lemma = st.sampled_from(sorted(profile.modal_lemmas)[:3] + ["hus", "Kunna"])
    sentences = []
    for number in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        tokens = tuple(
            Token(
                index=i,
                form=draw(form),
                lemma=draw(lemma),
                pos=draw(pos),
                deprel=draw(deprel),
                head=0 if i == 1 else 1,
                feats=draw(feats),
            )
            for i in range(1, size + 1)
        )
        sentences.append(Sentence(id=f"s{number}", tokens=tokens))
    return name, sentences


@given(_profile_and_sentences())
def test_shared_profile_matches_a_fresh_one(case):
    name, sentences = case
    for sentence in sentences:
        shared_coverage, fresh_coverage = CoverageCounter(), CoverageCounter()
        shared = apply_profile(sentence, _SHARED[name], shared_coverage)
        fresh = apply_profile(sentence, load_profile(name), fresh_coverage)
        assert shared == fresh
        assert shared_coverage == fresh_coverage
        # category_for answers from the rule apply_profile applies
        answers = [_SHARED[name].category_for(*pair) for pair in zip(sentence.tags, sentence.forms)]
        assert shared.categories == tuple(a or Category.OTHER for a in answers)
        assert answers.count(None) == shared_coverage.unknown_pos.total()
