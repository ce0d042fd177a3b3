"""Scoring, filtering and ranking of assessed sentences.

A sentence's score is the exact rational sum of its detection weights;
zero means nothing indicated context dependence.  Candidate lists are
always processed stably, so callers can rely on input order as the final
tie-breaker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .detectors import ThemeDetection


@dataclass(frozen=True)
class Assessment:
    """The verdict for one sentence: its detections and their total."""

    sentence_id: str
    detections: tuple["ThemeDetection", ...]
    score: Fraction
    context_independent: bool

    @property
    def themes(self) -> frozenset:
        return frozenset(d.theme for d in self.detections)


_ZERO = Fraction(0)


def score(detections: Iterable["ThemeDetection"]) -> Fraction:
    """Sum of detection weights, as an exact rational.

    Most sentences have no detection or one: no detection scores a shared
    zero and one scores its own weight, so only two or more detections pay
    for Fraction additions.
    """
    total = None
    for detection in detections:
        total = detection.weight if total is None else total + detection.weight
    return _ZERO if total is None else total


def make_assessment(
    sentence_id: str, detections: Sequence["ThemeDetection"]
) -> Assessment:
    detections = tuple(detections)
    return Assessment(sentence_id, detections, score(detections), not detections)


def filter_assessments(assessments: Sequence[Assessment]) -> list[Assessment]:
    """Keep only sentences with no detections at all, preserving order."""
    return [a for a in assessments if a.context_independent]


def rank_assessments(assessments: Sequence[Assessment]) -> list[Assessment]:
    """Most context-independent first.

    Stable ascending sort by score, then by number of detections, then by
    input position: of two equally scored sentences the one with fewer
    separate indications ranks higher, and full ties keep input order.
    """
    return sorted(assessments, key=lambda a: (a.score, len(a.detections)))


__all__ = [
    "Assessment",
    "filter_assessments",
    "make_assessment",
    "rank_assessments",
    "score",
]
