import dataclasses
import inspect
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rule_spec
from helpers import SUC, UD, annotate, parse_one
from solosent import detectors, model, profiles
from solosent.assessment import Assessment
from solosent.conllu import parse_conllu
from solosent.detectors import (
    IMPLEMENTED_THEMES,
    ConfigError,
    DetectorConfig,
    Theme,
    detect_all,
)
from solosent.model import (
    AnnotatedSentence,
    AnnotatedToken,
    Category,
    RAW_COLUMNS,
    Relation,
    Sentence,
    Token,
)
from solosent.profiles import apply_profile
from synthcorpus import single_theme_corpus

ONE = Fraction(1)
HALF = Fraction(1, 2)


def themes_of(detections):
    return {d.theme for d in detections}


def detected(theme, sentence, lex):
    """One theme's detections, reached as every caller reaches a rule:
    through detect_all with that theme alone enabled."""
    return list(detect_all(sentence, lex, DetectorConfig(enabled={theme})).detections)


def reported_count(detection):
    """The antecedent count a PNAnaphora rationale reports."""
    return int(detection.rationale.split(" with ")[1].split()[0])


def test_detectors_export_detect_all_and_its_types_only():
    assert sorted(detectors.__all__) == [
        "ConfigError", "DetectorConfig", "IMPLEMENTED_THEMES", "Theme", "ThemeDetection",
        "detect_all",
    ]
    assert [theme for theme, _ in detectors._RULES] == list(IMPLEMENTED_THEMES)


# --- fixture sentences, by id ------------------------------------------


@pytest.fixture(scope="module")
def by_id(fixture_sentences, suc):
    from solosent.profiles import apply_profile

    return {s.id: apply_profile(s, suc) for s in fixture_sentences}


class TestFixtureExactness:
    EXPECTED = {
        "t01": {Theme.INCOMPLETE},
        "t02": {Theme.IMPLICIT_ANAPHORA},
        "t03": {Theme.PRONOMINAL_ANAPHORA, Theme.STRUCTURAL_CONNECTIVE},
        "t04": {Theme.ADVERBIAL_ANAPHORA},
        "t05": {Theme.DISCOURSE_CONNECTIVE},
        "t06": {Theme.STRUCTURAL_CONNECTIVE},
        "t07": {Theme.CLOSED_QUESTION_ANSWER, Theme.PRONOMINAL_ANAPHORA},
        "t08": set(),
        "t09": set(),
        "t10": set(),
        "t11": set(),
        "t12": set(),
    }

    def test_theme_sets(self, by_id, lex):
        for sentence_id, expected in self.EXPECTED.items():
            assessment = detect_all(by_id[sentence_id], lex)
            assert assessment.themes == frozenset(expected), sentence_id

    def test_ud_fixture_theme_sets(self, ud_fixture_text, ud, lex):
        from solosent.conllu import parse_conllu
        from solosent.profiles import apply_profile

        expected = {
            "u02": {Theme.IMPLICIT_ANAPHORA},
            "u03": {Theme.PRONOMINAL_ANAPHORA, Theme.STRUCTURAL_CONNECTIVE},
            "u05": {Theme.DISCOURSE_CONNECTIVE},
            "u09": set(),
            "u11": set(),
        }
        for s in parse_conllu(ud_fixture_text):
            assessment = detect_all(apply_profile(s, ud), lex)
            assert assessment.themes == frozenset(expected[s.id]), s.id


# --- IncompSent ---------------------------------------------------------


class TestIncomplete:
    def test_lowercase_after_quote(self, by_id, lex):
        detections = detected(Theme.INCOMPLETE, by_id["t01"], lex)
        assert [d.theme for d in detections] == [Theme.INCOMPLETE]
        assert detections[0].token_indices == (2,)
        assert "lowercase" in detections[0].rationale

    def test_clean_sentence(self, by_id, lex):
        assert detected(Theme.INCOMPLETE, by_id["t12"], lex) == []

    def test_trailing_comma(self, lex):
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            ", , MID _ 2 IK"
        )
        detections = detected(Theme.INCOMPLETE, s, lex)
        assert len(detections) == 1
        assert detections[0].token_indices == ()
        assert "major delimiter" in detections[0].rationale

    @pytest.mark.parametrize("number", ["1996", "²"])
    def test_digit_start_is_fine(self, number, lex):
        # '²'.isdigit() holds too: the scan stops at it
        s = annotate(
            f"{number} {number} RG _ 2 TA\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            "hon hon PN UTR|SIN|DEF 2 SS\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.INCOMPLETE, s, lex) == []

    @pytest.mark.parametrize("number", ["½", "Ⅻ"])
    def test_numeric_sign_is_neither_letter_nor_digit(self, number, lex):
        # the scan passes over a form whose characters are numeric but
        # neither letters nor digits, and lands on the next word
        s = annotate(
            f"{number} {number} RG _ 2 DT\n"
            "kilo kilo NN NEU|SIN|IND|NOM 3 SS\n"
            "räcker räcka VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 3 IP"
        )
        detections = detected(Theme.INCOMPLETE, s, lex)
        assert [d.token_indices for d in detections] == [(2,)]
        assert detections[0].rationale == "sentence starts with lowercase 'kilo'"

    def test_single_wrapper_skipped(self, lex):
        s = annotate(
            "( ( PAD _ 3 IP\n"
            "Hon hon PN UTR|SIN|DEF 3 SS\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.INCOMPLETE, s, lex) == []

    def test_second_wrapper_not_skipped_but_alpha_scan_continues(self, lex):
        # only one wrapper may precede the first letter; a second symbol
        # token carries no letters, so the scan lands on the real word
        s = annotate(
            "( ( PAD _ 4 IP\n"
            "( ( PAD _ 4 IP\n"
            "hon hon PN UTR|SIN|DEF 4 SS\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            ". . MAD _ 4 IP"
        )
        detections = detected(Theme.INCOMPLETE, s, lex)
        assert [d.token_indices for d in detections] == [(3,)]

    def test_each_failed_check_is_a_separate_detection(self, lex):
        s = annotate(
            "hon hon PN UTR|SIN|DEF 2 SS\n"
            "kom komma VB PRT|AKT 0 ROOT"
        )
        assert len(detected(Theme.INCOMPLETE, s, lex)) == 2


# --- ImpAnaphora ---------------------------------------------------------


class TestImplicitAnaphora:
    def test_lone_modal(self, by_id, lex):
        detections = detected(Theme.IMPLICIT_ANAPHORA, by_id["t02"], lex)
        assert len(detections) == 1
        assert "skulle" in detections[0].rationale

    def test_modal_in_verb_group_counts_as_finite(self, by_id, lex):
        assert detected(Theme.IMPLICIT_ANAPHORA, by_id["t04"], lex) == []

    def test_modal_governing_verb(self, lex):
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "vill vilja VB PRS|AKT 0 ROOT\n"
            "sova sova VB INF|AKT 2 VG\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.IMPLICIT_ANAPHORA, s, lex) == []

    def test_imperative_needs_no_subject(self, lex):
        s = annotate("Spring springa VB IMP|AKT 0 ROOT\n! ! MAD _ 1 IP")
        assert detected(Theme.IMPLICIT_ANAPHORA, s, lex) == []

    def test_finite_verb_without_subject(self, lex):
        s = annotate(
            "Sover sova VB PRS|AKT 0 ROOT\n"
            "inte inte AB _ 1 NA\n"
            ". . MAD _ 1 IP"
        )
        detections = detected(Theme.IMPLICIT_ANAPHORA, s, lex)
        assert len(detections) == 1
        assert "subject" in detections[0].rationale

    def test_supine_alone_fails_both_checks(self, lex):
        s = annotate(
            "Sovit sova VB SUP|AKT 0 ROOT\n"
            "länge länge AB _ 1 TA\n"
            ". . MAD _ 1 IP"
        )
        assert len(detected(Theme.IMPLICIT_ANAPHORA, s, lex)) == 2

    def test_expletive_fills_the_subject_slot(self, by_id, lex):
        assert detected(Theme.IMPLICIT_ANAPHORA, by_id["t10"], lex) == []
        assert detected(Theme.IMPLICIT_ANAPHORA, by_id["t11"], lex) == []

    def test_copula_is_finite_despite_modal_like_position(self, by_id, lex):
        # vara is not a modal lemma, so a bare copula counts as finite
        assert detected(Theme.IMPLICIT_ANAPHORA, by_id["t07"], lex) == []


# --- PNAnaphora ----------------------------------------------------------


class TestPronominalAnaphora:
    def test_den_without_candidates(self, by_id, lex):
        detections = detected(Theme.PRONOMINAL_ANAPHORA, by_id["t03"], lex)
        assert len(detections) == 1
        assert detections[0].token_indices == (4,)
        assert detections[0].weight == ONE

    def test_weather_det_exempt(self, by_id, lex):
        assert detected(Theme.PRONOMINAL_ANAPHORA, by_id["t09"], lex) == []

    def test_weather_check_is_det_only(self, lex):
        s = annotate(
            "Den den PN UTR|SIN|DEF 2 SS\n"
            "regnar regna VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        assert len(detected(Theme.PRONOMINAL_ANAPHORA, s, lex)) == 1

    def test_weather_verb_found_through_ancestors(self, lex):
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "säger säga VB PRS|AKT 0 ROOT\n"
            "att att SN _ 5 UK\n"
            "det det PN NEU|SIN|DEF 5 SS\n"
            "regnar regna VB PRS|AKT 2 OO\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.PRONOMINAL_ANAPHORA, s, lex) == []

    def test_expletive_det_exempt(self, by_id, lex):
        assert detected(Theme.PRONOMINAL_ANAPHORA, by_id["t10"], lex) == []
        assert detected(Theme.PRONOMINAL_ANAPHORA, by_id["t11"], lex) == []

    def test_som_relative_next_token_exempts(self, lex):
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "såg se VB PRT|AKT 0 ROOT\n"
            "den den PN UTR|SIN|DEF 2 OO\n"
            "som som HP _ 5 SS\n"
            "försvann försvinna VB PRT|AKT 3 ET\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.PRONOMINAL_ANAPHORA, s, lex) == []

    def test_som_relative_inside_subtree_exempts(self, lex):
        # som not adjacent but a subordinator inside the pronoun's subtree
        s = annotate(
            "Den den PN UTR|SIN|DEF 4 SS\n"
            "inte inte AB _ 4 NA\n"
            "som som HP _ 1 UK\n"
            "vinner vinna VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 4 IP"
        )
        assert detected(Theme.PRONOMINAL_ANAPHORA, s, lex) == []

    def test_two_candidates_halve_the_weight(self, lex):
        s = annotate(
            "Flickan flicka NN UTR|SIN|DEF 2 SS\n"
            "matade mata VB PRT|AKT 0 ROOT\n"
            "hunden hund NN UTR|SIN|DEF 2 OO\n"
            "och och KN _ 2 ++\n"
            "sedan sedan AB _ 6 TA\n"
            "sprang springa VB PRT|AKT 4 CJ\n"
            "den den PN UTR|SIN|DEF 6 SS\n"
            ". . MAD _ 2 IP"
        )
        detections = detected(Theme.PRONOMINAL_ANAPHORA, s, lex)
        assert len(detections) == 1
        assert detections[0].weight == HALF
        assert rule_spec.antecedent_candidates(s, 7) == reported_count(detections[0]) == 2

    def test_determiner_den_not_a_pronoun(self, lex):
        s = annotate(
            "Det det DT NEU|SIN|DEF 3 DT\n"
            "där där AB _ 3 DT\n"
            "huset hus NN NEU|SIN|DEF 4 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "rött röd JJ POS|NEU|SIN|IND|NOM 4 SP\n"
            ". . MAD _ 4 IP"
        )
        assert detected(Theme.PRONOMINAL_ANAPHORA, s, lex) == []

    def test_demonstrative_fires(self, lex):
        s = annotate(
            "Denna denna PN UTR|SIN|DEF 2 SS\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        detections = detected(Theme.PRONOMINAL_ANAPHORA, s, lex)
        assert themes_of(detections) == {Theme.PRONOMINAL_ANAPHORA}


class TestCountAntecedentCandidates:
    """The spec's count of antecedent candidates, and the count the
    detection's rationale reports, on the same pronoun."""

    @staticmethod
    def assert_count(sentence, index, expected, lex):
        assert rule_spec.antecedent_candidates(sentence, index) == expected
        (detection,) = [
            d for d in detected(Theme.PRONOMINAL_ANAPHORA, sentence, lex)
            if d.token_indices == (index,)
        ]
        assert reported_count(detection) == expected
        assert detection.weight == (HALF if expected else ONE)

    def test_nothing_to_the_left(self, lex):
        s = annotate(
            "Den den PN UTR|SIN|DEF 2 SS\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        self.assert_count(s, 1, 0, lex)

    def test_gender_and_number_must_match(self, lex):
        s = annotate(
            "Huset hus NN NEU|SIN|DEF 2 SS\n"
            "skrämmer skrämma VB PRS|AKT 0 ROOT\n"
            "hundar hund NN UTR|PLU|IND 2 OO\n"
            "och och KN _ 2 ++\n"
            "den den PN UTR|SIN|DEF 6 SS\n"
            "skäller skälla VB PRS|AKT 4 CJ\n"
            ". . MAD _ 2 IP"
        )
        # huset is neuter, hundar plural: neither matches den (common sing)
        self.assert_count(s, 5, 0, lex)

    def test_unspecified_features_match_anything(self, lex):
        s = annotate(
            "folk folk NN _ 2 SS\n"
            "ser se VB PRS|AKT 0 ROOT\n"
            "den den PN UTR|SIN|DEF 2 OO\n"
            ". . MAD _ 2 IP"
        )
        self.assert_count(s, 3, 1, lex)

    def test_proper_nouns_count(self, lex):
        s = annotate(
            "Anna Anna PM UTR|SIN|IND 2 SS\n"
            "ser se VB PRS|AKT 0 ROOT\n"
            "den den PN UTR|SIN|DEF 2 OO\n"
            ". . MAD _ 2 IP"
        )
        self.assert_count(s, 3, 1, lex)

    def test_infinitive_marker_bonus_for_det(self, lex):
        rows = (
            "Att att IE _ 2 IM\n"
            "läsa läsa VB INF|AKT 3 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "roligt rolig JJ POS|NEU|SIN|IND|NOM 3 SP\n"
            "och och KN _ 3 ++\n"
            "{pron} {pron} PN NEU|SIN|DEF 7 SS\n"
            "vet veta VB PRS|AKT 5 CJ\n"
            ". . MAD _ 3 IP"
        )
        self.assert_count(annotate(rows.format(pron="det")), 6, 1, lex)

    def test_no_bonus_for_den(self, lex):
        s = annotate(
            "Att att IE _ 2 IM\n"
            "läsa läsa VB INF|AKT 3 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "roligt rolig JJ POS|NEU|SIN|IND|NOM 3 SP\n"
            "och och KN _ 3 ++\n"
            "den den PN UTR|SIN|DEF 7 SS\n"
            "vet veta VB PRS|AKT 5 CJ\n"
            ". . MAD _ 3 IP"
        )
        self.assert_count(s, 6, 0, lex)

    def test_non_pronoun_index_rejected(self, lex):
        s = annotate("Hon hon PN UTR|SIN|DEF 2 SS\nkom komma VB PRT|AKT 0 ROOT")
        with pytest.raises(ValueError, match="not a pronoun"):
            rule_spec.antecedent_candidates(s, 2)
        with pytest.raises(IndexError):
            rule_spec.antecedent_candidates(s, 9)
        assert detected(Theme.PRONOMINAL_ANAPHORA, s, lex) == []


# --- AdvAnaphora1 ---------------------------------------------------------


class TestAdverbialAnaphora:
    def test_unspecified_temporal_adverb(self, by_id, lex):
        detections = detected(Theme.ADVERBIAL_ANAPHORA, by_id["t04"], lex)
        assert [d.token_indices for d in detections] == [(1,)]
        assert "temporal" in detections[0].rationale

    def test_specifying_dependent_exempts(self, lex):
        # där heads an adverbial that spells the place out
        s = annotate(
            "Han han PN UTR|SIN|DEF 2 SS\n"
            "bor bo VB PRS|AKT 0 ROOT\n"
            "där där AB _ 2 RA\n"
            "på på PP _ 3 RA\n"
            "landet land NN NEU|SIN|DEF 4 PA\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.ADVERBIAL_ANAPHORA, s, lex) == []

    def test_dependent_of_other_listed_type_does_not_specify(self, lex):
        s = annotate(
            "Där där AB _ 2 RA\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            "hon hon PN UTR|SIN|DEF 2 SS\n"
            "då då AB _ 1 TA\n"
            ". . MAD _ 2 IP"
        )
        detections = detected(Theme.ADVERBIAL_ANAPHORA, s, lex)
        assert {d.token_indices for d in detections} == {(1,), (4,)}

    def test_non_adverbial_dependent_does_not_specify(self, lex):
        # a determiner child does not spell the place out
        s = annotate(
            "Där där AB _ 2 RA\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            "det det DT NEU|SIN|DEF 1 DT\n"
            ". . MAD _ 2 IP"
        )
        assert [d.token_indices for d in detected(Theme.ADVERBIAL_ANAPHORA, s, lex)] == [(1,)]

    def test_determiner_construction_exempts(self, lex):
        s = annotate(
            "Det det DT NEU|SIN|DEF 3 DT\n"
            "där där AB _ 3 DT\n"
            "huset hus NN NEU|SIN|DEF 4 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "rött röd JJ POS|NEU|SIN|IND|NOM 4 SP\n"
            ". . MAD _ 4 IP"
        )
        assert detected(Theme.ADVERBIAL_ANAPHORA, s, lex) == []

    def test_adjacent_determiner_exempts(self, lex):
        s = annotate(
            "Det det DT NEU|SIN|DEF 3 DT\n"
            "där där AB _ 3 RA\n"
            "huset hus NN NEU|SIN|DEF 4 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "rött röd JJ POS|NEU|SIN|IND|NOM 4 SP\n"
            ". . MAD _ 4 IP"
        )
        assert detected(Theme.ADVERBIAL_ANAPHORA, s, lex) == []

    def test_category_must_be_adverb(self, lex):
        # homographic noun "då" would not fire
        s = annotate(
            "då då NN NEU|SIN|IND 2 SS\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.ADVERBIAL_ANAPHORA, s, lex) == []


# --- AdvAnaphora2 ---------------------------------------------------------


class TestDiscourseConnective:
    def test_conjunctional_adverbial_fires(self, by_id, lex):
        detections = detected(Theme.DISCOURSE_CONNECTIVE, by_id["t05"], lex)
        assert [d.token_indices for d in detections] == [(6,)]

    def test_two_coordinate_clauses_exempt(self, lex):
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "var vara VB PRT|AKT 0 ROOT\n"
            "trött trött JJ POS|UTR|SIN|IND|NOM 2 SP\n"
            ", , MID _ 2 IK\n"
            "men men KN _ 2 ++\n"
            "hon hon PN UTR|SIN|DEF 7 SS\n"
            "sov sova VB PRT|AKT 5 CJ\n"
            "inte inte AB _ 7 NA\n"
            "heller heller AB _ 7 +A\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.DISCOURSE_CONNECTIVE, s, lex) == []

    def test_sibling_conjunction_exempts(self, lex):
        s = annotate(
            "Men men KN _ 3 ++\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            "sov sova VB PRT|AKT 0 ROOT\n"
            "inte inte AB _ 3 NA\n"
            "heller heller AB _ 3 +A\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.DISCOURSE_CONNECTIVE, s, lex) == []

    def test_subjunction_beside_head_exempts(self, lex):
        # heller's head (hon) has the subjunction om as sibling
        s = annotate(
            "Om om SN _ 3 UK\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            "heller heller AB _ 2 +A\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.DISCOURSE_CONNECTIVE, s, lex) == []

    def test_a_connective_is_not_beside_itself(self, lex):
        # men exempts heller, its sibling, but not itself; om, heller's
        # head, is a subjunction, but no sibling of its own
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            "men men KN _ 2 +A\n"
            "heller heller AB _ 2 +A\n"
            ". . MAD _ 2 IP"
        )
        assert [d.token_indices for d in detected(Theme.DISCOURSE_CONNECTIVE, s, lex)] == [(3,)]
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "sover sova VB PRS|AKT 0 ROOT\n"
            "om om SN _ 2 UK\n"
            "heller heller AB _ 3 +A\n"
            ". . MAD _ 2 IP"
        )
        assert [d.token_indices for d in detected(Theme.DISCOURSE_CONNECTIVE, s, lex)] == [(4,)]

    def test_no_conjunctional_adverbial_no_detection(self, by_id, lex):
        assert detected(Theme.DISCOURSE_CONNECTIVE, by_id["t12"], lex) == []

    def test_conjunct_count_proxies_clauses(self, lex):
        # one finite verb, but an overt conjunct implies two coordinated
        # units, which is enough
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 2 SS\n"
            "ville vilja VB PRT|AKT 0 ROOT\n"
            "sova sova VB INF|AKT 2 VG\n"
            "och och KN _ 2 ++\n"
            "vila vila VB INF|AKT 4 CJ\n"
            "dessutom dessutom AB _ 2 +A\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.DISCOURSE_CONNECTIVE, s, lex) == []


# --- StructConn ------------------------------------------------------------


class TestStructuralConnective:
    def test_sentence_initial_conjunction(self, by_id, lex):
        detections = detected(Theme.STRUCTURAL_CONNECTIVE, by_id["t06"], lex)
        assert [d.token_indices for d in detections] == [(1,)]
        assert "Men" in detections[0].rationale

    def test_two_finite_clauses_exempt(self, lex):
        s = annotate(
            "Men men KN _ 3 ++\n"
            "han han PN UTR|SIN|DEF 3 SS\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            "och och KN _ 3 ++\n"
            "hon hon PN UTR|SIN|DEF 6 SS\n"
            "gick gå VB PRT|AKT 4 CJ\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.STRUCTURAL_CONNECTIVE, s, lex) == []

    def test_conjunction_root_fires_once(self, lex):
        # root rule and initial rule hit the same token: one detection
        s = annotate(
            "Eller eller KN _ 0 ROOT\n"
            "går gå VB PRS|AKT 1 CJ\n"
            "hon hon PN UTR|SIN|DEF 2 SS\n"
            ". . MAD _ 1 IP"
        )
        detections = detected(Theme.STRUCTURAL_CONNECTIVE, s, lex)
        assert len(detections) == 1
        assert detections[0].token_indices == (1,)
        assert "root" in detections[0].rationale

    def test_completed_pair_exempts_root(self, lex):
        s = annotate(
            "Antingen antingen KN _ 0 ROOT\n"
            "stannar stanna VB PRS|AKT 1 CJ\n"
            "han han PN UTR|SIN|DEF 2 SS\n"
            "eller eller KN _ 1 ++\n"
            "går gå VB PRS|AKT 4 CJ\n"
            "han han PN UTR|SIN|DEF 5 SS\n"
            ". . MAD _ 1 IP"
        )
        assert detected(Theme.STRUCTURAL_CONNECTIVE, s, lex) == []

    def test_incomplete_pair_fires(self, lex):
        # antingen with no later eller is only half a pair
        s = annotate(
            "Antingen antingen KN _ 0 ROOT\n"
            "stannar stanna VB PRS|AKT 1 CJ\n"
            "han han PN UTR|SIN|DEF 2 SS\n"
            ". . MAD _ 1 IP"
        )
        assert len(detected(Theme.STRUCTURAL_CONNECTIVE, s, lex)) == 1

    def test_pair_order_matters(self, lex):
        # pair members in reverse order complete nothing: no eller is
        # found to the right of antingen
        s = annotate(
            "Eller eller KN _ 0 ROOT\n"
            "antingen antingen KN _ 1 ++\n"
            "går gå VB PRS|AKT 1 CJ\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            ". . MAD _ 1 IP"
        )
        assert len(detected(Theme.STRUCTURAL_CONNECTIVE, s, lex)) == 1

    def test_repeated_first_member_completes_pair(self, lex):
        # eller follows both antingen: the pair is complete once
        s = annotate(
            "Antingen antingen KN _ 0 ROOT\n"
            "stannar stanna VB PRS|AKT 1 CJ\n"
            "han han PN UTR|SIN|DEF 2 SS\n"
            "antingen antingen KN _ 6 ++\n"
            "eller eller KN _ 1 ++\n"
            "går gå VB PRS|AKT 5 CJ\n"
            ". . MAD _ 1 IP"
        )
        assert detected(Theme.STRUCTURAL_CONNECTIVE, s, lex) == []

    def test_second_member_before_repeated_first_fires(self, lex):
        # the only eller comes before every antingen: the root is half a pair
        s = annotate(
            "Hon hon PN UTR|SIN|DEF 5 SS\n"
            "eller eller KN _ 5 ++\n"
            "antingen antingen KN _ 5 ++\n"
            "stannar stanna VB PRS|AKT 5 CJ\n"
            "antingen antingen KN _ 0 ROOT\n"
            ". . MAD _ 5 IP"
        )
        detections = detected(Theme.STRUCTURAL_CONNECTIVE, s, lex)
        assert [d.token_indices for d in detections] == [(5,)]

    def test_initial_conjunction_with_two_conjuncts_exempt(self, lex):
        s = annotate(
            "Och och KN _ 3 ++\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            "ville vilja VB PRT|AKT 0 ROOT\n"
            "sova sova VB INF|AKT 3 VG\n"
            "och och KN _ 3 ++\n"
            "vila vila VB INF|AKT 5 CJ\n"
            "och och KN _ 3 ++\n"
            "äta äta VB INF|AKT 7 CJ\n"
            ". . MAD _ 3 IP"
        )
        # two conjunct tokens: enough material inside the sentence
        assert detected(Theme.STRUCTURAL_CONNECTIVE, s, lex) == []

    def test_wrappers_skipped_for_initial_position(self, lex):
        s = annotate(
            "– – MID _ 4 IK\n"
            "Men men KN _ 4 ++\n"
            "hon hon PN UTR|SIN|DEF 4 SS\n"
            "sov sova VB PRT|AKT 0 ROOT\n"
            ". . MAD _ 4 IP"
        )
        assert len(detected(Theme.STRUCTURAL_CONNECTIVE, s, lex)) == 1

    def test_verb_root_and_non_initial_conjunction_quiet(self, by_id, lex):
        assert detected(Theme.STRUCTURAL_CONNECTIVE, by_id["t01"], lex) == []


# --- CEQAnswer --------------------------------------------------------------


class TestCeqAnswer:
    def test_initial_interjection(self, by_id, lex):
        detections = detected(Theme.CLOSED_QUESTION_ANSWER, by_id["t07"], lex)
        assert [d.token_indices for d in detections] == [(1,)]

    def test_dash_then_interjection(self, lex):
        s = annotate(
            "– – MID _ 2 IK\n"
            "Nej nej IN _ 0 ROOT\n"
            ". . MAD _ 2 IP"
        )
        assert len(detected(Theme.CLOSED_QUESTION_ANSWER, s, lex)) == 1

    def test_adverb_between_minor_delimiters(self, lex):
        s = annotate(
            "– – MID _ 4 IK\n"
            "Gärna gärna AB _ 4 MA\n"
            ", , MID _ 4 IK\n"
            "sa säga VB PRT|AKT 0 ROOT\n"
            "hon hon PN UTR|SIN|DEF 4 SS\n"
            ". . MAD _ 4 IP"
        )
        assert len(detected(Theme.CLOSED_QUESTION_ANSWER, s, lex)) == 1

    def test_adverb_without_closing_delimiter(self, lex):
        s = annotate(
            "– – MID _ 3 IK\n"
            "Gärna gärna AB _ 3 MA\n"
            "sa säga VB PRT|AKT 0 ROOT\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.CLOSED_QUESTION_ANSWER, s, lex) == []

    def test_adverb_without_opening_delimiter(self, lex):
        s = annotate(
            "Gärna gärna AB _ 3 MA\n"
            ", , MID _ 3 IK\n"
            "sa säga VB PRT|AKT 0 ROOT\n"
            "hon hon PN UTR|SIN|DEF 3 SS\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.CLOSED_QUESTION_ANSWER, s, lex) == []

    def test_plain_statement(self, lex):
        s = annotate(
            "Jul jul NN UTR|SIN|IND 2 SS\n"
            "är vara VB PRS|AKT 0 ROOT\n"
            "roligt rolig JJ POS|NEU|SIN|IND|NOM 2 SP\n"
            ". . MAD _ 2 IP"
        )
        assert detected(Theme.CLOSED_QUESTION_ANSWER, s, lex) == []

    def test_unlisted_interjection(self, lex):
        s = annotate(
            "Hej hej IN _ 3 AA\n"
            ", , MID _ 3 IK\n"
            "kom komma VB PRT|AKT 0 ROOT\n"
            ". . MAD _ 3 IP"
        )
        assert detected(Theme.CLOSED_QUESTION_ANSWER, s, lex) == []


# --- detect_all and config ---------------------------------------------------


class TestDetectAll:
    def test_clean_sentence_is_context_independent(self, by_id, lex):
        assessment = detect_all(by_id["t09"], lex)
        assert assessment.detections == ()
        assert assessment.context_independent
        assert assessment.score == 0

    def test_single_theme_score(self, by_id, lex):
        assessment = detect_all(by_id["t06"], lex)
        assert assessment.themes == {Theme.STRUCTURAL_CONNECTIVE}
        assert assessment.score == ONE

    def test_detections_in_fixed_theme_order(self, by_id, lex):
        order = {theme: i for i, theme in enumerate(IMPLEMENTED_THEMES)}
        for sid, sentence in by_id.items():
            assessment = detect_all(sentence, lex)
            positions = [order[d.theme] for d in assessment.detections]
            assert positions == sorted(positions), sid
        # two-theme sentences pin the order concretely
        t03 = detect_all(by_id["t03"], lex)
        assert [d.theme for d in t03.detections] == [
            Theme.PRONOMINAL_ANAPHORA,
            Theme.STRUCTURAL_CONNECTIVE,
        ]
        t07 = detect_all(by_id["t07"], lex)
        assert [d.theme for d in t07.detections] == [
            Theme.PRONOMINAL_ANAPHORA,
            Theme.CLOSED_QUESTION_ANSWER,
        ]

    def test_all_disabled_detects_nothing(self, by_id, lex):
        config = DetectorConfig(enabled=frozenset())
        for sentence in by_id.values():
            assessment = detect_all(sentence, lex, config)
            assert assessment.detections == ()

    def test_disabling_one_theme_leaves_others_alone(self, by_id, lex):
        full = {
            sid: detect_all(sentence, lex) for sid, sentence in by_id.items()
        }
        for disabled in IMPLEMENTED_THEMES:
            config = DetectorConfig(
                enabled=frozenset(t for t in IMPLEMENTED_THEMES if t != disabled)
            )
            for sid, sentence in by_id.items():
                masked = detect_all(sentence, lex, config)
                expected = tuple(
                    d for d in full[sid].detections if d.theme != disabled
                )
                assert masked.detections == expected, (sid, disabled)

    def test_weight_override_scales(self, by_id, lex):
        config = DetectorConfig(
            weights={Theme.STRUCTURAL_CONNECTIVE: Fraction(2)}
        )
        assessment = detect_all(by_id["t06"], lex, config)
        assert assessment.score == Fraction(2)
        # overrides scale, so the halved pronoun weight keeps its ratio
        config = DetectorConfig(
            weights={Theme.PRONOMINAL_ANAPHORA: Fraction(1, 2)}
        )
        s = annotate(
            "Nu nu AB _ 2 TA\n"
            "sitter sitta VB PRS|AKT 0 ROOT\n"
            "den den PN UTR|SIN|DEF 2 SS\n"
            ". . MAD _ 2 IP"
        )
        assessment = detect_all(s, lex, config)
        assert assessment.score == HALF

    def test_determinism(self, by_id, lex):
        for sentence in by_id.values():
            assert detect_all(sentence, lex) == detect_all(sentence, lex)

    def test_weights_are_exact_fractions(self, lex):
        for sid, rows, _ in single_theme_corpus():
            assessment = detect_all(annotate(rows, sid), lex)
            for d in assessment.detections:
                assert isinstance(d.weight, Fraction)
                assert d.weight in (ONE, HALF)
            assert isinstance(assessment.score, Fraction)

    def test_token_indices_sorted_and_in_range(self, lex):
        for sid, rows, _ in single_theme_corpus():
            s = annotate(rows, sid)
            for d in detect_all(s, lex).detections:
                assert list(d.token_indices) == sorted(d.token_indices)
                assert all(1 <= i <= len(s) for i in d.token_indices)


# --- verdicts see the tree, never the sentence id -------------------------

_WORDS = [
    ("den", "den", "PN", "UTR|SIN|DEF"), ("det", "det", "PN", "NEU|SIN|DEF"),
    ("hon", "hon", "PN", "UTR|SIN|DEF"), ("där", "där", "AB", ""),
    ("då", "då", "AB", ""), ("dock", "dock", "AB", ""), ("Och", "och", "KN", ""),
    ("men", "men", "KN", ""), ("antingen", "antingen", "KN", ""),
    ("eller", "eller", "KN", ""), ("Ja", "ja", "IN", ""), ("att", "att", "IE", ""),
    ("som", "som", "HP", ""), ("regnar", "regna", "VB", "PRS|AKT"),
    ("kan", "kunna", "VB", "PRS|AKT"), ("sova", "sova", "VB", "INF|AKT"),
    ("hus", "hus", "NN", "NEU|SIN|IND"), ("Anna", "Anna", "PM", ""),
    (".", ".", "MAD", ""), (",", ",", "MID", ""),
]
_DEPRELS = ["SS", "OO", "TA", "RA", "++", "CJ", "+A", "DT", "VG", "IM", "ES", "IP"]


@st.composite
def _trees(
    draw,
    words=st.sampled_from(_WORDS),
    deprels=st.sampled_from(_DEPRELS),
    root_deprels=st.just("ROOT"),
):
    """Tokens of any tree shape: each token after the root, in a random
    order, hangs off one placed before it.  ``words`` gives (form, lemma,
    POS, FEATS) tuples."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k, index in enumerate(order[1:], start=1):
        heads[index] = order[draw(st.integers(min_value=0, max_value=k - 1))]
    tokens = []
    for index in range(1, n + 1):
        form, lemma, pos, feats = draw(words)
        deprel = draw(root_deprels if heads[index] == 0 else deprels)
        tokens.append(Token(index, form, lemma, pos, deprel, heads[index], feats))
    return tuple(tokens)


@settings(max_examples=300, deadline=None)
@given(_trees(), st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
def test_verdict_does_not_depend_on_sentence_id(lex, tokens, first_id, second_id):
    first, second = (
        detect_all(apply_profile(Sentence(id=sid, tokens=tokens), SUC), lex)
        for sid in (first_id, second_id)
    )
    assert (first.sentence_id, second.sentence_id) == (first_id, second_id)
    assert first.detections == second.detections
    assert first.score == second.score


def _known_or_any(known, min_size=0):
    """A value the profiles know, so the rules still fire, or any text."""
    return st.one_of(
        st.sampled_from(sorted(set(known))), st.text(min_size=min_size, max_size=8)
    )


_ANY_DEPRELS = _known_or_any([*_DEPRELS, "ROOT", "root", "nsubj", "cc"])
_ANY_TREES = _trees(
    words=st.tuples(*(
        _known_or_any((word[field] for word in _WORDS), min_size=int(field == 0))
        for field in range(4)
    )),
    deprels=_ANY_DEPRELS,
    root_deprels=_ANY_DEPRELS,
)


@settings(max_examples=500, deadline=None)
@given(
    _ANY_TREES,
    st.sampled_from([SUC, UD]),
    st.frozensets(
        st.sampled_from(IMPLEMENTED_THEMES), max_size=len(IMPLEMENTED_THEMES) - 1
    ),
)
def test_detect_all_is_total_on_any_valid_tree(lex, tokens, profile, enabled):
    """Whatever text the lemma, POS, FEATS and deprel columns hold, a tree
    gets an assessment, only the enabled themes fire, and the assessment
    is the one the executable spec gives."""
    sentence = apply_profile(Sentence(id="s", tokens=tokens), profile)
    assessment = detect_all(sentence, lex, DetectorConfig(enabled=enabled))
    assert isinstance(assessment, Assessment)
    assert {d.theme for d in assessment.detections} <= enabled
    for d in assessment.detections:
        assert all(1 <= i <= len(tokens) for i in d.token_indices)
    assert assessment.score == sum(d.weight for d in assessment.detections)
    _assert_assessment(assessment, rule_spec.assess(sentence, lex, enabled))


def _assert_assessment(assessment, expected):
    """The assessment holds the spec's findings, in order, and their sum."""
    total = sum((weight for _, _, weight, _ in expected), Fraction(0))
    assert [
        (d.theme, d.token_indices, d.weight, d.rationale) for d in assessment.detections
    ] == expected
    assert assessment.score == total
    assert type(assessment.score) is type(total) is Fraction
    assert assessment.context_independent is (not expected)


_WEIGHT_OVERRIDES = st.dictionaries(
    st.sampled_from(IMPLEMENTED_THEMES),
    st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16),
)

@settings(max_examples=2000, deadline=None)
@given(
    rule_spec.sentences([SUC, UD]),
    st.one_of(
        st.just(frozenset(IMPLEMENTED_THEMES)),
        st.frozensets(st.sampled_from(IMPLEMENTED_THEMES)),
    ),
    _WEIGHT_OVERRIDES,
    _WEIGHT_OVERRIDES,
)
def test_detect_all_equals_the_spec(lex, sentence, enabled, first, then):
    """detect_all finds what the executable spec of the seven rules finds,
    theme by theme, token by token, with the same weights and rationales;
    and a weights mapping changed after the config was made changes
    nothing."""
    weights = dict(first)
    config = DetectorConfig(enabled=enabled, weights=weights)
    assessment = detect_all(sentence, lex, config)
    expected = rule_spec.assess(sentence, lex, enabled, first)
    _assert_assessment(assessment, expected)
    weights.clear()
    weights.update(then)
    _assert_assessment(detect_all(sentence, lex, config), expected)


# --- the column layout ----------------------------------------------------

_COLUMNS = (
    *RAW_COLUMNS, "raw_tokens", "categories", "relations", "features", "modal_flags",
    "lower_lemmas", "dependents",
)


@settings(max_examples=300, deadline=None)
@given(_ANY_TREES, st.sampled_from([SUC, UD]))
def test_applied_sentence_equals_one_hand_built_from_its_views(lex, tokens, profile):
    """apply_profile's one loop and the constructor's derivation from
    AnnotatedTokens give the same sentence: columns, index, queries and
    verdict."""
    raw = Sentence(id="v", tokens=tokens)
    built = apply_profile(raw, profile)
    for column in RAW_COLUMNS:
        assert getattr(built, column) is getattr(raw, column), column
    assert built.dependents is raw.dependents
    assert built.raw_tokens == raw.tokens
    hand = AnnotatedSentence(id=built.id, tokens=built.tokens, profile=built.profile)
    assert built == hand and hash(built) == hash(hand)
    for column in _COLUMNS:
        assert getattr(built, column) == getattr(hand, column), column
    n = len(tokens)
    assert len(built) == len(hand) == n and built.text == hand.text
    assert built.root_tokens() == hand.root_tokens()
    for index in range(1, n + 1):
        assert built.token(index) == hand.token(index)
        assert built.head_token(index) == hand.head_token(index)
        assert built.siblings(index) == hand.siblings(index)
    for index in range(n + 3):
        assert built.children(index) == hand.children(index)
        assert built.descendants(index) == hand.descendants(index)
    assert detect_all(built, lex) == detect_all(hand, lex)


def test_detectors_build_no_annotated_token(monkeypatch, capsys, tmp_path, lex, fixture_sentences):
    """detect_all reads columns, and the CLI never reads ``tokens``: not
    one AnnotatedToken is built, --explain included."""
    from importlib.resources import files

    from solosent.cli import main

    views = Counter()
    init = AnnotatedToken.__init__

    def counting_init(token, *args, **kwargs):
        views["built"] += 1
        init(token, *args, **kwargs)

    monkeypatch.setattr(AnnotatedToken, "__init__", counting_init)
    sentences = [
        *fixture_sentences,
        parse_one(_flat_tree_rows(160), "flat160"),
        parse_one(_chain_tree_rows(40), "chain40"),
    ]
    for sentence in sentences:
        detect_all(apply_profile(sentence, SUC), lex)
    fixtures = files("solosent.data.fixtures")
    for name, profile in (("sv_examples.conllu", "suc-mamba"), ("sv_examples_ud.conllu", "ud")):
        source, out = fixtures.joinpath(name), tmp_path / f"{name}.jsonl"
        argv = ["--mode", "assess", "--explain", "--profile", profile,
                "--input", str(source), "--output", str(out)]
        assert main(argv) == 0
        records = out.read_text(encoding="utf-8").splitlines()
        assert len(records) == len(list(parse_conllu(source.read_text(encoding="utf-8"))))
    assert views["built"] == 0
    # the counter counts: the views are built on the first read of tokens
    sentence = apply_profile(sentences[0], SUC)
    assert sentence.tokens == sentence.tokens
    assert views["built"] == len(sentence)


def _verb_above_by_walk(s, index):
    current = s.head_token(index)
    while current is not None:
        if current.category is Category.VERB:
            return current.index
        current = s.head_token(current.index)
    return 0


def _som_below_by_walk(s, index):
    return any(
        t.lemma.lower() == "som"
        and t.relation in (Relation.RELATIVE_CLAUSE_MARKER, Relation.SUBORDINATOR)
        for t in s.descendants(index)
    )


@settings(max_examples=400, deadline=None)
@given(
    _trees(deprels=st.sampled_from([*_DEPRELS, "ROOT", "UK", "mark"])),
    st.sampled_from([SUC, UD]),
    st.data(),
)
def test_tree_walks_answer_as_the_public_walks_do(tokens, profile, data):
    """The walks up the heads answer the two tree questions as walks over
    the public queries do, every token asked in any order, with one memo
    shared by the whole sentence."""
    s = apply_profile(Sentence(id="h", tokens=tokens), profile)
    som_below = detectors._som_below(s)
    verbs_above = {}
    for index in data.draw(st.permutations(range(1, len(tokens) + 1))):
        assert detectors._verb_above(s, index, verbs_above) == _verb_above_by_walk(s, index)
        assert (index in som_below) == _som_below_by_walk(s, index)


# verbs, finite and not, three times as often as in _WORDS
_VERB_HEAVY_WORDS = _WORDS + [word for word in _WORDS if word[2] == "VB"] * 3


@settings(max_examples=300, deadline=None)
@given(_trees(words=st.sampled_from(_VERB_HEAVY_WORDS)), st.sampled_from([SUC, UD]))
def test_clause_counts_stop_at_two_finite_verbs(tokens, profile):
    """The finite verbs are counted up to two, all the rules ask about;
    the conjuncts are all counted."""
    s = apply_profile(Sentence(id="c", tokens=tokens), profile)
    finite = sum(
        category is Category.VERB and detectors._is_finite_verb(s, index)
        for index, category in enumerate(s.categories, start=1)
    )
    counts = detectors._clause_counts(s)
    assert counts.finite_verbs == min(2, finite)
    assert counts.conjuncts == s.relations.count(Relation.CONJUNCT)


_ANTECEDENT_WORDS = [
    ("den", "den", "PN", "UTR|SIN|DEF"), ("det", "det", "PN", "NEU|SIN|DEF"),
    ("detta", "denna", "PN", "NEU|SIN|DEF"), ("dessa", "denna", "PN", "UTR/NEU|PLU|DEF"),
    ("sådan", "sådan", "PN", "UTR|SIN|IND"), ("hon", "hon", "PN", "UTR|SIN|DEF"),
    ("hus", "hus", "NN", "NEU|SIN|IND"), ("barnen", "barn", "NN", "NEU|PLU|DEF"),
    ("bil", "bil", "NN", "UTR|SIN|IND"), ("bilar", "bil", "NN", "UTR|PLU|IND"),
    ("folk", "folk", "NN", ""), ("Anna", "Anna", "PM", "UTR|SIN|IND"),
    ("Stockholm", "Stockholm", "PM", ""), ("att", "att", "IE", ""),
    ("läsa", "läsa", "VB", "INF|AKT"), ("sover", "sova", "VB", "PRS|AKT"),
    ("ser", "se", "VB", "PRS|AKT"), ("och", "och", "KN", ""), (".", ".", "MAD", ""),
]
# det after an infinitive marker under a verb gets one more candidate:
# weight those words up so that the case comes up often
_ANTECEDENT_WORDS += [w for w in _ANTECEDENT_WORDS if w[0] in ("det", "att", "läsa", "sover", "ser")] * 2


@settings(max_examples=400, deadline=None)
@given(_trees(words=st.sampled_from(_ANTECEDENT_WORDS)))
def test_reported_antecedent_counts_match_the_spec_count(lex, tokens):
    """The detector's running tallies count what the spec counts, pronoun
    by pronoun."""
    sentence = apply_profile(Sentence(id="a", tokens=tokens), SUC)
    for d in detected(Theme.PRONOMINAL_ANAPHORA, sentence, lex):
        (index,) = d.token_indices
        count = rule_spec.antecedent_candidates(sentence, index)
        assert f" with {count} antecedent candidate(s) " in d.rationale
        assert d.weight == (HALF if count else ONE)


class TestDetectorConfig:
    def test_reserved_theme_rejected(self):
        with pytest.raises(ConfigError, match="CDPC"):
            DetectorConfig(
                enabled=frozenset({Theme.CONCEPT_PROPERTIES, Theme.INCOMPLETE})
            )

    def test_reserved_theme_weight_rejected(self):
        with pytest.raises(ConfigError, match="^theme CDPC is a reserved identifier"):
            DetectorConfig(weights={Theme.CONCEPT_PROPERTIES: Fraction(2)})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            DetectorConfig(weights={Theme.INCOMPLETE: Fraction(0)})
        with pytest.raises(ConfigError, match="positive"):
            DetectorConfig(weights={Theme.INCOMPLETE: Fraction(-1, 2)})

    def test_weight_whose_half_is_no_float_rejected(self):
        """A weight must stay above zero as a float once PNAnaphora halves
        it: the least subnormal is refused, twice it is kept."""
        least = Fraction(2) ** -1074
        assert DetectorConfig(weights={Theme.PRONOMINAL_ANAPHORA: 2 * least})
        for weight in (least, 5e-324):
            with pytest.raises(
                ConfigError, match="^weight for PNAnaphora is too small for a float$"
            ):
                DetectorConfig(weights={Theme.PRONOMINAL_ANAPHORA: weight})

    def test_weights_are_those_checked(self, by_id, lex):
        """The config keeps a copy of the weights it checked, so a weight
        the caller puts in its mapping afterwards, even one the check
        refuses, is never used."""
        weights = {}
        config = DetectorConfig(weights=weights)
        weights[Theme.PRONOMINAL_ANAPHORA] = Fraction(-5)
        assert detect_all(by_id["t03"], lex, config) == detect_all(by_id["t03"], lex)
        assert config.weights == {}

    def test_default_enables_all_implemented(self):
        assert DetectorConfig().enabled == frozenset(IMPLEMENTED_THEMES)

    def test_enabled_may_be_any_set(self, by_id, lex):
        """A plain set or a list enables the same themes as a frozenset."""
        themes = [Theme.INCOMPLETE, Theme.PRONOMINAL_ANAPHORA]
        expected = DetectorConfig(enabled=frozenset(themes))
        for enabled in (set(themes), themes):
            config = DetectorConfig(enabled=enabled)
            assert config.enabled == frozenset(themes)
            for sentence in by_id.values():
                assert detect_all(sentence, lex, config) == detect_all(
                    sentence, lex, expected
                )


class TestWeightRuleProperty:
    def test_randomized_pronoun_sentences(self, lex):
        from synthcorpus import pronoun_weight_sentence

        rng = random.Random(91)
        for i in range(100):
            rows, matching = pronoun_weight_sentence(rng)
            s = annotate(rows, f"w{i}")
            assessment = detect_all(s, lex)
            pronoun_detections = [
                d
                for d in assessment.detections
                if d.theme is Theme.PRONOMINAL_ANAPHORA
            ]
            assert len(pronoun_detections) == 1
            expected = HALF if matching > 0 else ONE
            assert pronoun_detections[0].weight == expected
            assert rule_spec.antecedent_candidates(s, len(s) - 1) == matching


# --- work per sentence, counted rather than timed --------------------------

_FLAT_PATTERN = [
    "den den PN UTR|SIN|DEF 2 SS",
    "där där AB _ 2 RA",
    "dock dock AB _ 2 +A",
    "springer springa VB PRS|AKT 2 CJ",
    "hus hus NN NEU|SIN|IND 2 OO",
]


def _flat_tree_rows(size):
    """A sentence-initial conjunction, a modal root and everything else
    hanging off that root, so every rule that asks about the tree asks."""
    rows = ["Och och KN _ 2 ++", "Kan kunna VB PRS|AKT 0 ROOT"]
    while len(rows) < size - 1:
        rows.append(_FLAT_PATTERN[len(rows) % len(_FLAT_PATTERN)])
    rows.append(". . MAD _ 2 IP")
    return "\n".join(rows)


def _chain_tree_rows(size):
    """A weather-verb root, then det and den in turn, each heading the
    next, and a som at the bottom: every pronoun asks for the verb above
    it and for a som-relative below it, over the whole chain."""
    rows = ["Regnar regna VB PRS|AKT 0 ROOT"]
    while len(rows) < size - 2:
        word = "det det PN NEU|SIN|DEF" if len(rows) % 2 else "den den PN UTR|SIN|DEF"
        rows.append(f"{word} {len(rows)} SS")
    rows.append(f"som som AB _ {len(rows)} AA")
    rows.append(". . MAD _ 1 IP")
    return "\n".join(rows)


def _som_chain_tree_rows(size):
    """A weather-verb root, then det and den in turn, each heading the
    next, with a som-relative hanging off the chain at every index that is
    a multiple of 4 in the sentence's middle half: the walks up from the
    som-relatives overlap, and only the pronouns below the last of them
    have none below."""
    rows = ["Regnar regna VB PRS|AKT 0 ROOT"]
    chain = 1  # the last token of the chain so far
    while len(rows) < size - 1:
        index = len(rows) + 1
        if size // 4 < index <= 3 * size // 4 and index % 4 == 0:
            rows.append(f"som som HP _ {chain} UK")
            continue
        word = "det det PN NEU|SIN|DEF" if index % 2 else "den den PN UTR|SIN|DEF"
        rows.append(f"{word} {chain} SS")
        chain = index
    rows.append(". . MAD _ 1 IP")
    return "\n".join(rows)


class _CountingDict(dict):
    """A dependents index that counts the lookups made in it."""

    def __init__(self, items, counts):
        super().__init__(items)
        self.counts = counts

    def get(self, key, default=None):
        self.counts["lookups"] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.counts["lookups"] += 1
        return super().__getitem__(key)


class _CountingTuple(tuple):
    """A column that counts the reads made in it by index, under its name in
    ``counts``.  A read past ``limit`` fails at once, so a walk that is not
    linear fails without running to its end."""

    def __new__(cls, items, name, counts, limit=float("inf")):
        column = super().__new__(cls, items)
        column.name, column.counts, column.limit = name, counts, limit
        return column

    def __getitem__(self, key):
        self.counts[self.name] += 1
        if self.counts[self.name] > self.limit:
            raise AssertionError(f"more than {self.limit} reads of {self.name}")
        return super().__getitem__(key)


class TestWorkPerSentence:
    """One apply_profile + detect_all asks the finite-verb test at most once
    per token, builds the annotated sentence exactly once, inside
    apply_profile, which shares the tree index the reader built,
    ``dependents``, and tests antecedent features at most once per token,
    whatever its size."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"finite": Counter(), "index": 0, "init": 0, "compatible": 0}
        is_finite = detectors._is_finite_verb
        from_columns = model.AnnotatedSentence._from_columns.__func__
        init = model.AnnotatedSentence.__init__
        compatible = detectors._features_compatible

        def counting_is_finite(sentence, index):
            counts["finite"][index] += 1
            return is_finite(sentence, index)

        def counting_from_columns(cls, *columns):
            counts["index"] += 1
            return from_columns(cls, *columns)

        def counting_init(sentence, *args, **kwargs):
            counts["init"] += 1
            init(sentence, *args, **kwargs)

        def counting_compatible(pronoun, noun):
            counts["compatible"] += 1
            return compatible(pronoun, noun)

        monkeypatch.setattr(detectors, "_is_finite_verb", counting_is_finite)
        monkeypatch.setattr(
            model.AnnotatedSentence, "_from_columns", classmethod(counting_from_columns)
        )
        monkeypatch.setattr(model.AnnotatedSentence, "__init__", counting_init)
        monkeypatch.setattr(detectors, "_features_compatible", counting_compatible)
        return counts

    def assert_one_pass(self, work, sentence, lex, profile=SUC):
        work["finite"].clear()
        work["index"] = work["init"] = work["compatible"] = 0
        detect_all(apply_profile(sentence, profile), lex)
        assert max(work["finite"].values(), default=0) <= 1, sentence.id
        assert (work["index"], work["init"]) == (1, 0), sentence.id
        assert work["compatible"] <= len(sentence), sentence.id

    def count_tree_reads(self, annotated, lex):
        """The assessment, and the reads of the heads column and the index
        lookups it made, counted."""
        visits = Counter()
        annotated.__dict__["dependents"] = _CountingDict(annotated.dependents, visits)
        annotated.__dict__["heads"] = _CountingTuple(annotated.heads, "heads", visits)
        assessment = detect_all(annotated, lex)
        return assessment, visits

    def test_flat_160_token_tree(self, work, lex):
        sentence = parse_one(_flat_tree_rows(160), "flat160")
        assert len(sentence) == 160
        self.assert_one_pass(work, sentence, lex)
        assert len(work["finite"]) > 1

    def test_flat_640_token_tree_counts_antecedents_in_one_pass(self, work, lex):
        sentence = parse_one(_flat_tree_rows(640), "flat640")
        assert len(sentence) == 640
        self.assert_one_pass(work, sentence, lex)
        assert work["compatible"] > 0

    def test_fixture_sentences(self, work, fixture_sentences, suc, lex):
        for s in fixture_sentences:
            self.assert_one_pass(work, s, lex, suc)

    @pytest.mark.parametrize("size", [10, 40, 160, 640])
    def test_chain_tree_visits_each_node_a_bounded_number_of_times(
        self, work, lex, size
    ):
        """Reads of the heads column and index lookups, the steps of any
        walk up or down the tree, stay within a fixed multiple of the token
        count."""
        sentence = parse_one(_chain_tree_rows(size), f"chain{size}")
        assert len(sentence) == size
        self.assert_one_pass(work, sentence, lex)
        assessment, visits = self.count_tree_reads(apply_profile(sentence, SUC), lex)
        assert 0 < visits["heads"] and visits["heads"] + visits["lookups"] <= 4 * size
        # det under the weather verb is exempt; den is not, and has no
        # antecedent candidate to its left
        fired = [d for d in assessment.detections if d.theme is Theme.PRONOMINAL_ANAPHORA]
        assert [d.token_indices for d in fired] == [(i,) for i in range(3, size - 2, 2)]
        assert all(d.weight == ONE for d in fired)

    @pytest.mark.parametrize("size", [10, 40, 160, 640])
    def test_overlapping_som_walks_visit_each_node_a_bounded_number_of_times(
        self, work, lex, size
    ):
        sentence = parse_one(_som_chain_tree_rows(size), f"somchain{size}")
        assert len(sentence) == size
        self.assert_one_pass(work, sentence, lex)
        assessment, visits = self.count_tree_reads(apply_profile(sentence, SUC), lex)
        assert 0 < visits["heads"] and visits["heads"] + visits["lookups"] <= 4 * size
        # every det is under the weather verb; a den fires only below the
        # last som-relative's head, where no som-relative is below it
        last_som = 3 * size // 4 // 4 * 4
        fired = [d for d in assessment.detections if d.theme is Theme.PRONOMINAL_ANAPHORA]
        assert [d.token_indices for d in fired] == [
            (i,) for i in range(last_som + 2, size, 2)
        ]
        assert all(d.weight == ONE for d in fired)

    def test_adverbials_under_one_head_read_each_category_a_bounded_number_of_times(
        self, lex
    ):
        """One finite verb with every other token a conjunctional adverbial
        under it: each adverbial asks whether a conjunction stands beside
        it, or beside its head, and the categories column is read a fixed
        number of times per token, not once per adverbial and sibling."""
        size = 20_000
        rows = ["Kommer komma VB PRS|AKT 0 ROOT", *["dock dock AB _ 1 +A"] * (size - 1)]
        annotated = apply_profile(parse_one("\n".join(rows), "star"), SUC)
        visits = Counter()
        annotated.__dict__["categories"] = _CountingTuple(
            annotated.categories, "categories", visits, limit=4 * size
        )
        assessment = detect_all(annotated, lex)
        fired = [
            d.token_indices
            for d in assessment.detections
            if d.theme is Theme.DISCOURSE_CONNECTIVE
        ]
        assert fired == [(i,) for i in range(2, size + 1)]
        assert visits["categories"] > 0

    def test_finite_verbs_are_counted_up_to_the_second(self, work, lex):
        sentence = parse_one(
            "\n".join([
                "Anna Anna PM _ 2 SS",
                "sover sova VB PRS|AKT 0 ROOT",
                *(f"{verb} 2 CJ" for verb in [
                    "springer springa VB PRS|AKT", "regnar regna VB PRS|AKT",
                    "kan kunna VB PRS|AKT", "ser se VB PRT|AKT",
                ]),
                ". . MAD _ 2 IP",
            ]),
            "five",
        )
        self.assert_one_pass(work, sentence, lex)
        assert max(work["finite"]) == 3
        annotated = apply_profile(sentence, SUC)
        assert all(detectors._is_finite_verb(annotated, index) for index in range(2, 7))


_ENUM_CLASSES = {"Category", "Relation", "VerbForm", "Gender", "Number", "Theme"}


def _with_nested(code):
    """The code object and every code object compiled inside it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _with_nested(const)


def test_per_sentence_code_reads_no_enum_class():
    """The rules, apply_profile, classify_delimiter_form, AnnotatedSentence's
    constructor and _first_root, the root the rules read, use enum members
    bound once at import: on Python 3.10 and 3.11 each read through the
    class (Category.VERB) pays the enum metaclass's __getattr__, and these
    run per token."""
    module = compile(inspect.getsource(detectors), detectors.__file__, "exec")
    # every function, method, lambda and generator of the module but
    # DetectorConfig.__post_init__, which runs once per config; class
    # bodies and the module's own code run once, at import
    functions = [
        code
        for code in _with_nested(module)
        if code.co_flags & inspect.CO_NEWLOCALS and code.co_name != "__post_init__"
    ]
    rules = {rule.__name__ for _, rule in detectors._RULES}
    assert len(rules) == len(IMPLEMENTED_THEMES)
    assert {"detect_all", "_clause_counts", "<genexpr>", *rules} <= {
        code.co_name for code in functions
    }
    for function in (
        profiles.apply_profile,
        profiles.classify_delimiter_form,
        AnnotatedSentence.__init__,
        model._first_root,
    ):
        functions.extend(_with_nested(function.__code__))
    reads = {
        f"{code.co_name} (line {code.co_firstlineno})": sorted(
            _ENUM_CLASSES.intersection(code.co_names)
        )
        for code in functions
        if _ENUM_CLASSES.intersection(code.co_names)
    }
    assert reads == {}


def _rule_reads():
    """What the rule code reads: the values of the globals it names, and
    all the names, attributes included.  The rule code is every function
    of detectors.py and model._first_root, the root the rules read."""
    module = compile(inspect.getsource(detectors), detectors.__file__, "exec")
    codes = [
        (code, vars(detectors))
        for code in _with_nested(module)
        if code.co_flags & inspect.CO_NEWLOCALS
    ] + [(model._first_root.__code__, vars(model))]
    values = [space[name] for code, space in codes for name in code.co_names if name in space]
    return values, {name for code, _ in codes for name in code.co_names}


def test_every_relation_is_read_by_a_rule():
    """A relation no rule reads is vocabulary a profile decodes for
    nothing; such labels map to other."""
    values, _ = _rule_reads()
    read = set()
    for value in values:
        members = value if isinstance(value, (frozenset, tuple)) else (value,)
        read.update(member for member in members if isinstance(member, Relation))
    assert set(Relation) - read == {Relation.OTHER}


def test_every_feature_field_is_read_by_a_rule():
    _, names = _rule_reads()
    assert {f.name for f in dataclasses.fields(model.MorphFeatures)} - names == set()
