"""Evaluating detector output against labeled data, and rate reports.

Two complementary views: sentence-level precision/recall/F1 per theme
against a gold table, and plain theme-rate percentages over an
unlabeled (or positively labeled) sentence set.  The gold table is one
id -> themes mapping; predictions and verdicts are read once, as streams,
and each is counted as it arrives, so what is held grows with the gold
table alone.  All arithmetic is exact rational; undefined metrics are
reported as absent (None), never as zero, so an unseen theme cannot
masquerade as a badly detected one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from ._text import open_lines
from .assessment import Assessment
from .detectors import IMPLEMENTED_THEMES, Theme


class GoldDataError(Exception):
    """A gold file cannot be used, or predictions name one id twice."""


def read_gold_file(path: Union[str, os.PathLike[str]]) -> dict[str, frozenset[Theme]]:
    """Read a gold file into one table, sentence id -> frozenset of themes.

    Each line is ``sentence_id<TAB>theme[,theme...]``, or ``-`` for no
    theme, and the file is read line by line.  ``#`` comments and blank
    lines are skipped.  Unknown theme names and repeated sentence ids are
    errors at their line.  Ids with equal theme sets share one frozenset.
    """
    gold: dict[str, frozenset[Theme]] = {}
    shared: dict[frozenset[Theme], frozenset[Theme]] = {}
    names = {t.value: t for t in Theme}
    with open_lines(path, GoldDataError) as lines:
        for line_number, raw_line in enumerate(lines, start=1):
            raw_line = raw_line.rstrip("\n")
            line = raw_line.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise GoldDataError(
                    f"{path}: line {line_number}: expected id<TAB>themes, got {raw_line!r}"
                )
            sentence_id, theme_field = fields[0].strip(), fields[1].strip()
            if sentence_id in gold:
                raise GoldDataError(
                    f"{path}: line {line_number}: duplicate sentence id {sentence_id!r}"
                )
            themes: set[Theme] = set()
            if theme_field != "-":
                for name in theme_field.split(","):
                    name = name.strip()
                    if name not in names:
                        raise GoldDataError(
                            f"{path}: line {line_number}: unknown theme {name!r}"
                        )
                    themes.add(names[name])
            frozen = frozenset(themes)
            gold[sentence_id] = shared.setdefault(frozen, frozen)
    return gold


@dataclass(frozen=True)
class ThemeMetrics:
    """Confusion counts and derived metrics for one theme."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> Optional[Fraction]:
        denominator = self.true_positives + self.false_positives
        if denominator == 0:
            return None
        return Fraction(self.true_positives, denominator)

    @property
    def recall(self) -> Optional[Fraction]:
        denominator = self.true_positives + self.false_negatives
        if denominator == 0:
            return None
        return Fraction(self.true_positives, denominator)

    @property
    def f1(self) -> Optional[Fraction]:
        precision, recall = self.precision, self.recall
        if precision is None or recall is None or precision + recall == 0:
            return None
        return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricAverages:
    """Unweighted means over the themes where a metric was defined."""

    precision: Optional[Fraction]
    recall: Optional[Fraction]
    f1: Optional[Fraction]
    precision_themes: int
    recall_themes: int
    f1_themes: int


@dataclass(frozen=True)
class EvalReport:
    """Everything evaluate() derives from predictions and gold."""

    per_theme: dict[Theme, ThemeMetrics]
    macro: MetricAverages
    micro: ThemeMetrics
    multi_theme_rate: Optional[Fraction]
    sentence_count: int


def _mean(values: list[Fraction]) -> Optional[Fraction]:
    if not values:
        return None
    return sum(values, Fraction(0)) / len(values)


def evaluate(
    predictions: Union[
        Mapping[str, Iterable[Theme]], Iterable[tuple[str, Iterable[Theme]]]
    ],
    gold: Mapping[str, frozenset[Theme]],
) -> EvalReport:
    """Sentence-level evaluation of predicted theme sets against a gold table.

    ``predictions`` is read once, as ``(sentence_id, themes)`` pairs, so it
    may be a stream; a mapping is read through ``items()``.  Each pair is
    scored as it arrives, and only the ids outside the gold are kept.  The
    gold table is the universe: a gold id never predicted counts as an
    empty prediction, and predicted ids outside the gold are ignored.  The
    caller's gold mapping is not changed.  An id that comes twice in the
    predictions raises GoldDataError once the predictions are read to
    their end, so an error that the stream raises after the repeat wins.

    The macro averages (headline numbers) are unweighted means over themes
    with defined values, with the number of contributing themes recorded;
    the micro counterpart pools the confusion counts over all themes.  The
    multi-theme rate is the share of gold ids predicted with two or more
    themes.
    """
    pairs = predictions.items() if isinstance(predictions, Mapping) else predictions
    unscored = dict(gold)
    outside: set[str] = set()
    repeated: Optional[str] = None
    tp = dict.fromkeys(IMPLEMENTED_THEMES, 0)
    fp = dict.fromkeys(IMPLEMENTED_THEMES, 0)
    fn = dict.fromkeys(IMPLEMENTED_THEMES, 0)
    multi = 0
    for sentence_id, themes in pairs:
        actual = unscored.pop(sentence_id, None)
        if actual is None:
            if sentence_id in gold or sentence_id in outside:
                if repeated is None:
                    repeated = sentence_id
            else:
                outside.add(sentence_id)
            continue
        predicted = frozenset(themes)
        if len(predicted) >= 2:
            multi += 1
        for theme in predicted:
            if theme in tp:
                if theme in actual:
                    tp[theme] += 1
                else:
                    fp[theme] += 1
        for theme in actual:
            if theme in fn and theme not in predicted:
                fn[theme] += 1
    if repeated is not None:
        raise GoldDataError(f"duplicate sentence id {repeated!r}")
    for actual in unscored.values():
        for theme in actual:
            if theme in fn:
                fn[theme] += 1

    per_theme = {
        theme: ThemeMetrics(tp[theme], fp[theme], fn[theme])
        for theme in IMPLEMENTED_THEMES
    }
    precisions = [m.precision for m in per_theme.values() if m.precision is not None]
    recalls = [m.recall for m in per_theme.values() if m.recall is not None]
    f1s = [m.f1 for m in per_theme.values() if m.f1 is not None]
    macro = MetricAverages(
        precision=_mean(precisions),
        recall=_mean(recalls),
        f1=_mean(f1s),
        precision_themes=len(precisions),
        recall_themes=len(recalls),
        f1_themes=len(f1s),
    )
    micro = ThemeMetrics(
        true_positives=sum(tp.values()),
        false_positives=sum(fp.values()),
        false_negatives=sum(fn.values()),
    )
    return EvalReport(
        per_theme=per_theme,
        macro=macro,
        micro=micro,
        multi_theme_rate=Fraction(multi, len(gold)) if gold else None,
        sentence_count=len(gold),
    )


@dataclass(frozen=True)
class ThemeRateReport:
    """How often each theme fires over a sentence set, in percent.

    ``any_theme`` is the percentage of sentences with at least one
    detection of any theme; with no sentences every rate is absent.
    """

    sentence_count: int
    per_theme: dict[Theme, Fraction]
    any_theme: Optional[Fraction]


class ThemeTally:
    """A running count of sentences and of the themes that fired on them.

    ``add`` counts one verdict and returns its theme set, so a loop that
    scores the verdicts can count their rates in the same pass; ``report``
    gives the rates of the verdicts counted so far.
    """

    __slots__ = ("sentences", "flagged", "hits")

    def __init__(self) -> None:
        self.sentences = self.flagged = 0
        self.hits = dict.fromkeys(IMPLEMENTED_THEMES, 0)

    def add(self, assessment: Assessment) -> frozenset[Theme]:
        self.sentences += 1
        themes = assessment.themes
        if themes:
            self.flagged += 1
            hits = self.hits
            for theme in themes:
                if theme in hits:
                    hits[theme] += 1
        return themes

    def report(self) -> ThemeRateReport:
        total = self.sentences
        if not total:
            return ThemeRateReport(sentence_count=0, per_theme={}, any_theme=None)
        return ThemeRateReport(
            sentence_count=total,
            per_theme={theme: Fraction(100 * n, total) for theme, n in self.hits.items()},
            any_theme=Fraction(100 * self.flagged, total),
        )


def theme_rates(assessments: Iterable[Assessment]) -> ThemeRateReport:
    """Percentage of sentences on which each theme fired at least once.

    ``assessments`` is read once, so it may be a stream.  A theme counts
    once per sentence however often it fired there; a theme without an
    implementation (CDPC) has no rate but still flags its sentence.
    """
    tally = ThemeTally()
    for assessment in assessments:
        tally.add(assessment)
    return tally.report()


def render_eval_table(report: EvalReport) -> str:
    """Plain-text table of an EvalReport, absent metrics shown as '-'."""

    def cell(value: Optional[Fraction]) -> str:
        return f"{float(value):.2f}" if value is not None else "-"

    rows = [f"{'theme':<14} {'prec':>6} {'rec':>6} {'f1':>6} {'tp':>4} {'fp':>4} {'fn':>4}"]
    for theme, m in report.per_theme.items():
        rows.append(
            f"{theme.value:<14} {cell(m.precision):>6} {cell(m.recall):>6} "
            f"{cell(m.f1):>6} {m.true_positives:>4} {m.false_positives:>4} "
            f"{m.false_negatives:>4}"
        )
    rows.append(
        f"{'macro avg':<14} {cell(report.macro.precision):>6} "
        f"{cell(report.macro.recall):>6} {cell(report.macro.f1):>6}"
    )
    rows.append(
        f"{'micro avg':<14} {cell(report.micro.precision):>6} "
        f"{cell(report.micro.recall):>6} {cell(report.micro.f1):>6}"
    )
    if report.multi_theme_rate is not None:
        rows.append(
            f"multi-theme sentences: {float(100 * report.multi_theme_rate):.2f}% "
            f"of {report.sentence_count}"
        )
    return "\n".join(rows)


__all__ = [
    "EvalReport",
    "GoldDataError",
    "MetricAverages",
    "ThemeMetrics",
    "ThemeRateReport",
    "ThemeTally",
    "evaluate",
    "read_gold_file",
    "render_eval_table",
    "theme_rates",
]
