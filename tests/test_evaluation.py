from fractions import Fraction
from importlib.resources import as_file, files

import pytest
from hypothesis import example, given, settings, strategies as st

from solosent.assessment import make_assessment
from solosent.detectors import IMPLEMENTED_THEMES, Theme, ThemeDetection
from solosent.evaluation import (
    EvalReport,
    GoldDataError,
    MetricAverages,
    ThemeMetrics,
    ThemeRateReport,
    evaluate,
    read_gold_file,
    render_eval_table,
    theme_rates,
)

PN = Theme.PRONOMINAL_ANAPHORA
SC = Theme.STRUCTURAL_CONNECTIVE


def gold(*pairs):
    return {i: frozenset(ts) for i, ts in pairs}


def assessed(sentence_id, *themes):
    detections = tuple(
        ThemeDetection(theme=t, token_indices=(), weight=Fraction(1), rationale="")
        for t in themes
    )
    return make_assessment(sentence_id, detections)


class TestReadGoldFile:
    def test_bundled_fixture_gold(self):
        with as_file(
            files("solosent.data.fixtures") / "sv_examples.gold"
        ) as path:
            by_id = read_gold_file(path)
        assert len(by_id) == 12
        assert by_id["t03"] == {PN, SC}
        assert by_id["t08"] == frozenset()

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "# header\n\ns1\tPNAnaphora\n  # indented comment\ns2\t-\n",
            encoding="utf-8",
        )
        records = read_gold_file(path)
        assert list(records) == ["s1", "s2"]
        assert records["s1"] == {PN}
        assert records["s2"] == frozenset()

    def test_equal_theme_sets_share_one_frozenset(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "s1\tPNAnaphora,StructConn\ns2\t-\ns3\tStructConn, PNAnaphora\ns4\t-\n",
            encoding="utf-8",
        )
        records = read_gold_file(path)
        assert records["s1"] is records["s3"]
        assert records["s2"] is records["s4"]

    def test_multiple_themes_per_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("s1\tPNAnaphora, StructConn\n", encoding="utf-8")
        assert read_gold_file(path)["s1"] == {PN, SC}

    def test_unknown_theme(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("s1\tNoSuchTheme\n", encoding="utf-8")
        with pytest.raises(GoldDataError, match="unknown theme"):
            read_gold_file(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("s1\t-\ns1\tPNAnaphora\n", encoding="utf-8")
        with pytest.raises(GoldDataError, match="duplicate"):
            read_gold_file(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("s1 PNAnaphora\n", encoding="utf-8")
        with pytest.raises(GoldDataError, match="id<TAB>themes"):
            read_gold_file(path)

    def test_read_line_by_line(self, tmp_path):
        """A line's error comes before bytes that are not UTF-8 further on,
        once those lie past what the first read decodes (8 KiB)."""
        path = tmp_path / "g.tsv"
        path.write_bytes(b"s1\tNoSuchTheme\n" + b"# padding\n" * 2000 + b"\xff\n")
        with pytest.raises(GoldDataError, match="line 1: unknown theme"):
            read_gold_file(path)


class TestEvaluate:
    def test_false_positive_halves_precision(self):
        records = gold(("s1", {PN}), ("s2", set()))
        report = evaluate({"s1": {PN}, "s2": {PN}}, records)
        m = report.per_theme[PN]
        assert m.precision == Fraction(1, 2)
        assert m.recall == Fraction(1)
        assert m.f1 == Fraction(2, 3)
        assert (m.true_positives, m.false_positives, m.false_negatives) == (1, 1, 0)

    def test_missing_prediction_is_empty(self):
        records = gold(("s1", {PN}))
        report = evaluate({}, records)
        m = report.per_theme[PN]
        assert m.recall == Fraction(0)
        assert m.precision is None
        assert m.false_negatives == 1

    def test_ids_outside_gold_ignored(self):
        records = gold(("s1", {PN}))
        with_extra = evaluate({"s1": {PN}, "ghost": {PN, SC}}, records)
        without = evaluate({"s1": {PN}}, records)
        assert with_extra == without

    def test_gold_order_irrelevant(self):
        records = gold(("s1", {PN}), ("s2", {SC}), ("s3", set()))
        predictions = {"s1": {PN}, "s3": {SC}}
        assert evaluate(predictions, records) == evaluate(
            predictions, dict(reversed(records.items()))
        )

    def test_swapping_roles_swaps_precision_and_recall(self):
        records = gold(("s1", {PN}), ("s2", set()), ("s3", {PN}))
        predictions = {"s1": {PN}}
        forward = evaluate(predictions, records)
        swapped = evaluate(
            records,
            gold(*((i, predictions.get(i, set())) for i in ("s1", "s2", "s3"))),
        )
        assert forward.per_theme[PN].precision == Fraction(1)
        assert forward.per_theme[PN].recall == Fraction(1, 2)
        assert swapped.per_theme[PN].precision == Fraction(1, 2)
        assert swapped.per_theme[PN].recall == Fraction(1)

    def test_pairs_read_as_the_mapping(self):
        records = gold(("s1", {PN}), ("s2", {SC}), ("s3", set()))
        predictions = {"s1": [PN, PN], "s3": {SC}, "ghost": {PN}}
        assert evaluate(iter(predictions.items()), records) == evaluate(
            predictions, records
        )

    def test_gold_table_left_as_it_was(self):
        records = gold(("s1", {PN}), ("s2", set()))
        evaluate({"s1": {PN}}, records)
        assert records == {"s1": {PN}, "s2": frozenset()}

    @pytest.mark.parametrize("repeated", ["s1", "ghost"])
    def test_repeated_id_raises_at_the_end_of_the_stream(self, repeated):
        records = gold(("s1", {PN}), ("s2", set()))
        read = []

        def stream():
            yield repeated, {PN}
            yield "s2", set()
            yield repeated, set()
            yield "other", {SC}
            read.append("to the end")

        with pytest.raises(GoldDataError, match=f"^duplicate sentence id '{repeated}'$"):
            evaluate(stream(), records)
        assert read == ["to the end"]

    def test_macro_ignores_undefined_themes(self):
        records = gold(("s1", {PN}), ("s2", {SC}))
        report = evaluate({"s1": {PN}}, records)
        # PN: P=1 R=1; SC: P undefined, R=0; everything else untouched
        assert report.macro.precision == Fraction(1)
        assert report.macro.precision_themes == 1
        assert report.macro.recall == Fraction(1, 2)
        assert report.macro.recall_themes == 2
        assert report.macro.f1 == Fraction(1)
        assert report.macro.f1_themes == 1

    def test_micro_pools_counts(self):
        records = gold(("s1", {PN, SC}), ("s2", set()))
        report = evaluate({"s1": {PN}, "s2": {SC}}, records)
        assert report.micro.true_positives == 1
        assert report.micro.false_positives == 1
        assert report.micro.false_negatives == 1
        assert report.micro.precision == Fraction(1, 2)
        assert report.micro.recall == Fraction(1, 2)

    def test_multi_theme_rate_counts_predictions(self):
        records = gold(("s1", set()), ("s2", set()), ("s3", set()), ("s4", set()))
        report = evaluate({"s1": {PN, SC}, "s2": {PN}}, records)
        assert report.multi_theme_rate == Fraction(1, 4)

    def test_empty_gold(self):
        report = evaluate({"s1": {PN}}, [])
        assert report.sentence_count == 0
        assert report.multi_theme_rate is None
        assert report.macro.precision is None
        assert all(
            m == ThemeMetrics(0, 0, 0) for m in report.per_theme.values()
        )

    def test_all_themes_present_in_report(self):
        report = evaluate({}, gold(("s1", set())))
        assert set(report.per_theme) == set(IMPLEMENTED_THEMES)


# ids inside and outside the gold, and theme sets drawn from a few shared
# frozensets or built fresh for each id
_IDS = st.sampled_from(["s1", "s2", "s3", "s4", "x1", "x2"])
_SHARED = [frozenset(), frozenset({PN}), frozenset({PN, SC}), frozenset(IMPLEMENTED_THEMES)]
_THEME_SETS = st.one_of(
    st.sampled_from(_SHARED), st.frozensets(st.sampled_from(list(Theme)), max_size=4)
)
_GOLD = st.dictionaries(st.sampled_from(["s1", "s2", "s3", "s4"]), _THEME_SETS)
_PAIRS = st.lists(
    st.tuples(_IDS, st.lists(st.sampled_from(list(Theme)), max_size=4)), max_size=8
)


def _oracle(predictions, gold):
    """The report by the documented definitions: the gold is the universe,
    a gold id never predicted counts as empty, ids outside the gold are
    ignored, and the multi-theme rate is taken over the gold ids."""
    predicted = {i: frozenset(predictions.get(i, ())) for i in gold}
    per_theme = {}
    for theme in IMPLEMENTED_THEMES:
        pairs = [(theme in predicted[i], theme in actual) for i, actual in gold.items()]
        per_theme[theme] = ThemeMetrics(
            pairs.count((True, True)), pairs.count((True, False)), pairs.count((False, True))
        )

    def mean(values):
        values = [v for v in values if v is not None]
        return (sum(values) / len(values) if values else None), len(values)

    (precision, p_n), (recall, r_n), (f1, f_n) = (
        mean(getattr(m, name) for m in per_theme.values())
        for name in ("precision", "recall", "f1")
    )
    return EvalReport(
        per_theme=per_theme,
        macro=MetricAverages(precision, recall, f1, p_n, r_n, f_n),
        micro=ThemeMetrics(
            sum(m.true_positives for m in per_theme.values()),
            sum(m.false_positives for m in per_theme.values()),
            sum(m.false_negatives for m in per_theme.values()),
        ),
        multi_theme_rate=(
            Fraction(sum(len(s) >= 2 for s in predicted.values()), len(gold))
            if gold else None
        ),
        sentence_count=len(gold),
    )


@settings(max_examples=300, deadline=None)
@given(_GOLD, _PAIRS)
@example({"s1": frozenset({PN})}, [("x1", [PN]), ("s2", []), ("x1", [SC])])
@example({"s1": frozenset({PN}), "s2": frozenset()}, [("s1", [PN, SC]), ("x1", [SC])])
def test_evaluate_equals_the_definitions(gold, pairs):
    """evaluate reads a mapping and a one-pass stream of the same pairs
    alike, equal to the oracle, and leaves the gold as it was.  A stream
    that repeats an id, inside the gold or outside it, raises only once it
    has been read to its end, naming the first id that came again."""
    before = dict(gold)
    read = []

    def stream():
        yield from pairs
        read.append("to the end")

    ids = [i for i, _ in pairs]
    repeats = [i for n, i in enumerate(ids) if i in ids[:n]]
    if repeats:
        with pytest.raises(GoldDataError) as raised:
            evaluate(stream(), gold)
        assert str(raised.value) == f"duplicate sentence id {repeats[0]!r}"
        assert read == ["to the end"]
    else:
        want = _oracle(dict(pairs), gold)
        assert evaluate(stream(), gold) == want
        assert read == ["to the end"]
        assert evaluate(dict(pairs), gold) == want
    assert gold == before


class TestThemeMetrics:
    def test_undefined_precision(self):
        assert ThemeMetrics(0, 0, 3).precision is None

    def test_undefined_recall(self):
        assert ThemeMetrics(0, 2, 0).recall is None

    def test_f1_undefined_when_both_zero(self):
        assert ThemeMetrics(0, 1, 1).f1 is None

    def test_exact_f1(self):
        m = ThemeMetrics(3, 1, 2)
        assert m.precision == Fraction(3, 4)
        assert m.recall == Fraction(3, 5)
        assert m.f1 == Fraction(2, 3)


class TestThemeRates:
    def test_simple_percentages(self):
        items = [assessed("s1", PN), assessed("s2", PN), assessed("s3", PN)]
        items += [assessed(f"c{i}") for i in range(7)]
        report = theme_rates(items)
        assert report.sentence_count == 10
        assert report.per_theme[PN] == Fraction(30)
        assert report.per_theme[SC] == Fraction(0)
        assert report.any_theme == Fraction(30)

    def test_multi_theme_sentence_counts_once_per_theme(self):
        report = theme_rates([assessed("s1", PN, SC)])
        assert report.per_theme[PN] == Fraction(100)
        assert report.per_theme[SC] == Fraction(100)
        assert report.any_theme == Fraction(100)

    def test_any_theme_counts_sentences_not_detections(self):
        items = [assessed("s1", PN, SC), assessed("s2"), assessed("s3")]
        report = theme_rates(items)
        assert report.any_theme == Fraction(100, 3)

    def test_empty_input(self):
        report = theme_rates([])
        assert report.sentence_count == 0
        assert report.per_theme == {}
        assert report.any_theme is None

    def test_rates_are_exact(self):
        items = [assessed("s1", PN), assessed("s2"), assessed("s3")]
        assert theme_rates(items).per_theme[PN] == Fraction(100, 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(list(Theme)), max_size=4), max_size=12))
@example([[Theme.CONCEPT_PROPERTIES], [PN, PN, SC], [], [SC]])
def test_theme_rates_of_a_stream_equal_a_per_theme_recount(theme_lists):
    """theme_rates reads a one-shot iterator as it reads a list.  Each
    implemented theme counts once per sentence however often it fired
    there; CDPC, which has no implementation, gets no rate but flags its
    sentence."""
    items = [assessed(f"s{i}", *themes) for i, themes in enumerate(theme_lists)]
    streamed = theme_rates(iter(items))
    assert streamed == theme_rates(items)
    total = len(items)
    if not total:
        assert streamed == ThemeRateReport(sentence_count=0, per_theme={}, any_theme=None)
        return
    assert streamed.sentence_count == total
    assert list(streamed.per_theme) == list(IMPLEMENTED_THEMES)
    for theme in IMPLEMENTED_THEMES:
        hits = sum(theme in themes for themes in theme_lists)
        assert streamed.per_theme[theme] == Fraction(100 * hits, total)
    flagged = sum(bool(themes) for themes in theme_lists)
    assert streamed.any_theme == Fraction(100 * flagged, total)


class TestRenderEvalTable:
    def test_absent_metrics_render_as_dash(self):
        report = evaluate({}, gold(("s1", set())))
        table = render_eval_table(report)
        assert "-" in table
        assert "PNAnaphora" in table
        assert "macro avg" in table
        assert "micro avg" in table
        assert "multi-theme" in table

    def test_empty_gold_omits_rate_line(self):
        table = render_eval_table(evaluate({}, []))
        assert "multi-theme" not in table

    def test_values_formatted(self):
        records = gold(("s1", {PN}), ("s2", set()))
        table = render_eval_table(evaluate({"s1": {PN}, "s2": {PN}}, records))
        assert "0.50" in table
        assert "1.00" in table
