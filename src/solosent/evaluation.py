"""Evaluating detector output against labeled data, and rate reports.

Two complementary views: sentence-level precision/recall/F1 per theme
against a gold standard, and plain theme-rate percentages over an
unlabeled (or positively labeled) sentence set.  All arithmetic is exact
rational; undefined metrics are reported as absent (None), never as zero,
so an unseen theme cannot masquerade as a badly detected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ._text import read_lines
from .assessment import Assessment
from .detectors import IMPLEMENTED_THEMES, Theme


class GoldDataError(Exception):
    """A gold-standard file or record set cannot be used."""


@dataclass(frozen=True, slots=True)
class GoldRecord:
    """The gold annotation for one sentence: which themes apply."""

    sentence_id: str
    themes: frozenset[Theme]


def read_gold_file(path: Union[str, Path]) -> list[GoldRecord]:
    """Read gold records: ``sentence_id<TAB>theme[,theme...]`` or ``-``.

    ``#`` comments and blank lines are skipped.  Unknown theme names and
    repeated sentence ids are errors.  Records with equal theme sets share
    one frozenset.
    """
    records: list[GoldRecord] = []
    seen: set[str] = set()
    shared: dict[frozenset[Theme], frozenset[Theme]] = {}
    names = {t.value: t for t in Theme}
    for line_number, raw_line in enumerate(read_lines(path, GoldDataError), start=1):
        line = raw_line.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise GoldDataError(
                f"{path}: line {line_number}: expected id<TAB>themes, got {raw_line!r}"
            )
        sentence_id, theme_field = fields[0].strip(), fields[1].strip()
        if sentence_id in seen:
            raise GoldDataError(
                f"{path}: line {line_number}: duplicate sentence id {sentence_id!r}"
            )
        seen.add(sentence_id)
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
        records.append(
            GoldRecord(sentence_id=sentence_id, themes=shared.setdefault(frozen, frozen))
        )
    return records


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
    predictions: Mapping[str, Iterable[Theme]],
    gold: Sequence[GoldRecord],
) -> EvalReport:
    """Sentence-level evaluation of predicted theme sets against gold.

    The evaluation universe is the gold records: a gold sentence missing
    from ``predictions`` counts as an empty prediction, and predicted ids
    outside the gold set are ignored.  The result is invariant under
    reordering of the gold records.  Duplicate gold ids are an error.

    The macro averages (headline numbers) are unweighted means over themes
    with defined values, with the number of contributing themes recorded;
    the micro counterpart pools the confusion counts over all themes.
    """
    seen: set[str] = set()
    for record in gold:
        if record.sentence_id in seen:
            raise GoldDataError(f"duplicate sentence id {record.sentence_id!r}")
        seen.add(record.sentence_id)

    predicted_sets: dict[str, frozenset[Theme]] = {}
    for record in gold:
        predicted_sets[record.sentence_id] = frozenset(
            predictions.get(record.sentence_id, ())
        )

    per_theme: dict[Theme, ThemeMetrics] = {}
    for theme in IMPLEMENTED_THEMES:
        tp = fp = fn = 0
        for record in gold:
            predicted = theme in predicted_sets[record.sentence_id]
            actual = theme in record.themes
            if predicted and actual:
                tp += 1
            elif predicted:
                fp += 1
            elif actual:
                fn += 1
        per_theme[theme] = ThemeMetrics(tp, fp, fn)

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
        true_positives=sum(m.true_positives for m in per_theme.values()),
        false_positives=sum(m.false_positives for m in per_theme.values()),
        false_negatives=sum(m.false_negatives for m in per_theme.values()),
    )
    if gold:
        multi = sum(1 for s in predicted_sets.values() if len(s) >= 2)
        multi_rate: Optional[Fraction] = Fraction(multi, len(gold))
    else:
        multi_rate = None
    return EvalReport(
        per_theme=per_theme,
        macro=macro,
        micro=micro,
        multi_theme_rate=multi_rate,
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


def theme_rates(assessments: Iterable[Assessment]) -> ThemeRateReport:
    """Percentage of sentences on which each theme fired at least once.

    ``assessments`` is read once, so it may be a stream.  A theme counts
    once per sentence however often it fired there; a theme without an
    implementation (CDPC) has no rate but still flags its sentence.
    """
    hits = dict.fromkeys(IMPLEMENTED_THEMES, 0)
    total = flagged = 0
    for a in assessments:
        total += 1
        if a.detections:
            flagged += 1
            for theme in a.themes:
                if theme in hits:
                    hits[theme] += 1
    if not total:
        return ThemeRateReport(sentence_count=0, per_theme={}, any_theme=None)
    return ThemeRateReport(
        sentence_count=total,
        per_theme={theme: Fraction(100 * n, total) for theme, n in hits.items()},
        any_theme=Fraction(100 * flagged, total),
    )


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
    "GoldRecord",
    "MetricAverages",
    "ThemeMetrics",
    "ThemeRateReport",
    "evaluate",
    "read_gold_file",
    "render_eval_table",
    "theme_rates",
]
