"""Closed word lists the detection rules consult.

Each list lives in its own file inside a lexicon directory: one entry per
line, an optional tab-separated attribute, ``#`` comments and blank lines
ignored.  A bundled Swedish directory provides defaults; the word lists in
it are reconstructions assembled from standard grammar descriptions, not
copies of any particular resource (see the data files for notes).

Absent files degrade to empty sets and are recorded as warnings on the
loaded LexiconSet, so a partial directory still loads; a directory that
does not exist, and a file in it that cannot be read, are errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from importlib import resources
from pathlib import Path
from typing import Union

from ._text import read_lines


@unique
class AdverbType(str, Enum):
    """Semantic slot an anaphoric adverb fills."""

    TEMPORAL = "temporal"
    LOCATIVE = "locative"


class LexiconError(Exception):
    """A lexicon directory is missing, or a file in it cannot be interpreted."""


WEATHER_VERBS_FILE = "weather_verbs.txt"
ANAPHORIC_ADVERBS_FILE = "anaphoric_adverbs.txt"
PAIRED_CONJUNCTIONS_FILE = "paired_conjunctions.txt"
YES_NO_INTERJECTIONS_FILE = "yes_no_interjections.txt"
DEMONSTRATIVE_PRONOUNS_FILE = "demonstrative_pronouns.txt"
NONANAPHORIC_PERSON_PRONOUNS_FILE = "nonanaphoric_person_pronouns.txt"
ANAPHORIC_PRONOUNS_FILE = "anaphoric_pronouns.txt"

_LIST_FAILURES = {FileNotFoundError: "does not exist", NotADirectoryError: "is not a directory"}


@dataclass(frozen=True)
class LexiconSet:
    """Everything lexical the detection rules need, loaded and validated.

    ``anaphoric_pronouns`` is the effective set: the pronoun file plus all
    demonstratives.  The non-anaphoric person pronouns are only checked
    against it: lemmas on both lists add a warning.  ``warnings`` carries
    load-time degradations and is excluded from equality.
    """

    weather_verbs: frozenset[str]
    anaphoric_adverbs: dict[str, AdverbType]
    paired_conjunctions: frozenset[tuple[str, str]]
    yes_no_interjections: frozenset[str]
    anaphoric_pronouns: frozenset[str]
    warnings: tuple[str, ...] = field(default=(), compare=False)


def _read_rows(path) -> list[tuple[str, tuple[str, ...]]]:
    """The entries of a lexicon file, each with ``<path>: line N`` for errors."""
    rows: list[tuple[str, tuple[str, ...]]] = []
    for line_number, raw_line in enumerate(read_lines(path, LexiconError), start=1):
        line = raw_line.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        where = f"{path}: line {line_number}"
        fields = tuple(f.strip() for f in line.split("\t"))
        if any(not f for f in fields):
            raise LexiconError(f"{where}: empty field in {raw_line!r}")
        rows.append((where, tuple(f.lower() for f in fields)))
    return rows


def _simple_set(rows: list[tuple[str, tuple[str, ...]]]) -> frozenset[str]:
    for where, row in rows:
        if len(row) != 1:
            raise LexiconError(f"{where}: expected one lemma per line, got {row!r}")
    return frozenset(row[0] for _, row in rows)


def load_lexicon_set(directory: Union[str, Path, None] = None) -> LexiconSet:
    """Load a lexicon directory; None loads the bundled Swedish defaults.

    Raises LexiconError for a path that is not a directory, and for a file
    in it that cannot be read or does not follow the format.  Files that
    are absent load as empty sets, each noted in ``warnings``.
    """
    if directory is None:
        root = resources.files("solosent").joinpath("data", "lexicons", "sv")
        label = "bundled sv lexicons"
    else:
        root, label = Path(directory), str(directory)
    try:
        present = {entry.name for entry in root.iterdir()}
    except OSError as exc:
        reason = _LIST_FAILURES.get(type(exc), f"cannot be read ({exc.strerror})")
        raise LexiconError(f"lexicon directory {label} {reason}") from None
    except ValueError as exc:  # a NUL in the path
        raise LexiconError(f"lexicon directory {label} cannot be read ({exc})") from None
    warnings: list[str] = []

    def rows_for(filename: str) -> list[tuple[str, tuple[str, ...]]]:
        if filename not in present:
            warnings.append(f"{label}: {filename} missing, using empty set")
            return []
        return _read_rows(root.joinpath(filename))

    weather = _simple_set(rows_for(WEATHER_VERBS_FILE))
    interjections = _simple_set(rows_for(YES_NO_INTERJECTIONS_FILE))
    demonstratives = _simple_set(rows_for(DEMONSTRATIVE_PRONOUNS_FILE))
    nonanaphoric = _simple_set(rows_for(NONANAPHORIC_PERSON_PRONOUNS_FILE))
    pronoun_base = _simple_set(rows_for(ANAPHORIC_PRONOUNS_FILE))

    adverbs: dict[str, AdverbType] = {}
    for where, row in rows_for(ANAPHORIC_ADVERBS_FILE):
        if len(row) != 2:
            raise LexiconError(f"{where}: expected lemma<TAB>type, got {row!r}")
        lemma, type_name = row
        try:
            adverb_type = AdverbType(type_name)
        except ValueError:
            raise LexiconError(
                f"{where}: unknown adverb type {type_name!r} for {lemma!r}"
            ) from None
        if adverbs.setdefault(lemma, adverb_type) is not adverb_type:
            raise LexiconError(
                f"{where}: {lemma!r} listed as {type_name!r},"
                f" but earlier as {adverbs[lemma].value!r}"
            )

    pairs: set[tuple[str, str]] = set()
    for where, row in rows_for(PAIRED_CONJUNCTIONS_FILE):
        if len(row) != 2:
            raise LexiconError(f"{where}: expected first<TAB>second, got {row!r}")
        pairs.add((row[0], row[1]))

    anaphoric = pronoun_base | demonstratives
    overlap = anaphoric & nonanaphoric
    if overlap:
        warnings.append(
            f"{label}: lemmas listed both anaphoric and non-anaphoric: "
            + ", ".join(sorted(overlap))
        )

    return LexiconSet(
        weather_verbs=weather,
        anaphoric_adverbs=adverbs,
        paired_conjunctions=frozenset(pairs),
        yes_no_interjections=interjections,
        anaphoric_pronouns=anaphoric,
        warnings=tuple(warnings),
    )


__all__ = [
    "AdverbType",
    "LexiconError",
    "LexiconSet",
    "load_lexicon_set",
]
