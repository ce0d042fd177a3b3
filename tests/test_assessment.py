from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from solosent.assessment import (
    filter_assessments,
    make_assessment,
    rank_assessments,
    score,
)
from solosent.detectors import Theme, ThemeDetection

ONE = Fraction(1)
HALF = Fraction(1, 2)


def detection(weight, theme=Theme.INCOMPLETE):
    return ThemeDetection(
        theme=theme, token_indices=(), weight=weight, rationale="synthetic"
    )


class TestScore:
    def test_empty(self):
        assert score([]) == Fraction(0)

    def test_single(self):
        assert score([detection(ONE)]) == ONE

    def test_sum_is_exact(self):
        total = score([detection(HALF), detection(ONE)])
        assert total == Fraction(3, 2)
        assert isinstance(total, Fraction)

    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16),
            max_size=5,
        )
    )
    def test_equals_the_plain_sum(self, weights):
        """Any number of detections, given as a list or a generator."""
        expected = sum(weights, Fraction(0))
        for detections in (
            [detection(w) for w in weights],
            (detection(w) for w in weights),
        ):
            total = score(detections)
            assert total == expected
            assert type(total) is Fraction


class TestMakeAssessment:
    def test_independent_iff_no_detections(self):
        clean = make_assessment("a", [])
        assert clean.context_independent
        assert clean.score == 0
        flagged = make_assessment("b", [detection(HALF)])
        assert not flagged.context_independent
        assert flagged.score == HALF

    def test_zero_weight_still_counts_as_dependent(self):
        # the verdict follows the detections, not the score
        a = make_assessment("c", [detection(Fraction(0))])
        assert a.score == 0
        assert not a.context_independent

    def test_themes_property(self):
        a = make_assessment(
            "d",
            [detection(ONE), detection(ONE, Theme.CLOSED_QUESTION_ANSWER)],
        )
        assert a.themes == {Theme.INCOMPLETE, Theme.CLOSED_QUESTION_ANSWER}


class TestFilter:
    def test_keeps_clean_in_order(self):
        items = [
            make_assessment("s1", []),
            make_assessment("s2", [detection(ONE)]),
            make_assessment("s3", []),
        ]
        kept = filter_assessments(items)
        assert [a.sentence_id for a in kept] == ["s1", "s3"]

    def test_all_dependent(self):
        items = [make_assessment("s1", [detection(HALF)])]
        assert filter_assessments(items) == []


class TestRank:
    def test_orders_by_score(self):
        items = [
            make_assessment("high", [detection(ONE)]),
            make_assessment("clean", []),
            make_assessment("mid", [detection(HALF)]),
        ]
        ranked = rank_assessments(items)
        assert [a.sentence_id for a in ranked] == ["clean", "mid", "high"]

    def test_equal_scores_fewer_detections_first(self):
        one_hit = make_assessment("one", [detection(HALF)])
        two_hits = make_assessment(
            "two",
            [
                detection(Fraction(1, 4)),
                detection(Fraction(1, 4), Theme.PRONOMINAL_ANAPHORA),
            ],
        )
        assert one_hit.score == two_hits.score
        ranked = rank_assessments([two_hits, one_hit])
        assert [a.sentence_id for a in ranked] == ["one", "two"]

    def test_full_ties_keep_input_order(self):
        items = [make_assessment(f"s{i}", [detection(ONE)]) for i in range(5)]
        ranked = rank_assessments(items)
        assert [a.sentence_id for a in ranked] == [a.sentence_id for a in items]

    def test_input_not_mutated(self):
        items = [
            make_assessment("b", [detection(ONE)]),
            make_assessment("a", []),
        ]
        rank_assessments(items)
        assert [a.sentence_id for a in items] == ["b", "a"]


# --- generated inputs -------------------------------------------------------

weights = st.fractions(min_value=0, max_value=4)

detections_list = st.lists(
    st.builds(
        detection,
        weight=weights,
        theme=st.sampled_from(list(Theme)),
    ),
    max_size=4,
)


@st.composite
def assessment_lists(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    return [
        make_assessment(f"s{i}", draw(detections_list)) for i in range(n)
    ]


@given(assessment_lists())
def test_filter_returns_clean_subset(items):
    kept = filter_assessments(items)
    assert all(a.context_independent for a in kept)
    assert all(a.score == 0 for a in kept)
    # subset, in original order
    it = iter(items)
    assert all(a in it for a in kept)


@given(assessment_lists())
def test_rank_is_a_permutation(items):
    ranked = rank_assessments(items)
    assert sorted(a.sentence_id for a in ranked) == sorted(
        a.sentence_id for a in items
    )


@given(assessment_lists())
def test_rank_scores_non_decreasing(items):
    ranked = rank_assessments(items)
    scores = [a.score for a in ranked]
    assert scores == sorted(scores)


@given(assessment_lists())
def test_rank_ties_stay_stable(items):
    position = {a.sentence_id: i for i, a in enumerate(items)}
    ranked = rank_assessments(items)
    for left, right in zip(ranked, ranked[1:]):
        if (left.score, len(left.detections)) == (
            right.score,
            len(right.detections),
        ):
            assert position[left.sentence_id] < position[right.sentence_id]
