"""Tagset profiles: mapping raw tags onto the abstract annotation vocabulary.

A profile is a flat text file (grammar documented in docs/formats.md) that
says which abstract Category each raw POS tag denotes, which abstract
Relation each raw deprel denotes, how raw morphology atoms decode into
MorphFeatures, and which lemmas count as modal verbs for the finiteness
rule.  Two profiles ship with the package:

``suc-mamba``
    SUC POS tags with MAMBA-style dependency labels, the combination used
    by the common Swedish pipelines.  The deprel inventory is a best-effort
    reconstruction; unknown labels degrade to ``other`` rather than fail.
    Like ``ud``, it has no relative-clause marker: the som exemption reads ``UK``.

``ud``
    Universal Dependencies.  UD has no distinct labels for logical
    subjects, relative-clause markers or conjunctional adverbials, so the
    profile maps ``discourse`` onto ``conjunctional_adverbial`` (the
    closest analogue, with reduced recall for the connective rule under
    UD parses) and leaves the other two unreachable; the rules that
    consult them have surface-level fallbacks.

Unknown raw tags always map to ``other`` and are tallied in a coverage
counter, never rejected: robustness against tag drift beats strictness
here.  What *is* rejected is a profile that cannot express an abstraction
some rule depends on with no fallback; load_profile then raises with a
completeness report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from ._text import read_lines
from .model import (
    _MAJOR_DELIMITER,
    _MINOR_DELIMITER,
    _OTHER_CATEGORY,
    _OTHER_RELATION,
    _VERB,
    AnnotatedSentence,
    Category,
    Gender,
    MorphFeatures,
    Number,
    Relation,
    Sentence,
    VerbForm,
    raw_columns,
)

BUNDLED_PROFILES = ("suc-mamba", "ud")

# Surface-form fallback for tagsets whose POS inventory does not separate
# delimiter kinds (UD's PUNCT).  Major delimiters end sentences; everything
# else that delimits, including paired marks like quotes and parentheses,
# counts as minor, mirroring how SUC files treat its paired-delimiter tag.
MAJOR_DELIMITER_FORMS = frozenset({".", "!", "?"})
MINOR_DELIMITER_FORMS = frozenset(
    {",", ";", ":", "–", "—", "-"}
    | {'"', "'", "''", "``", "(", ")", "[", "]", "«", "»", "‘", "’", "“", "”"}
)

# The pseudo-category a profile uses to say "decide by surface form".
DELIMITER_BY_FORM = "delimiter"

# Abstractions some rule consults with no fallback: a profile that cannot
# reach one of these would silently disable that rule, so loading fails.
REQUIRED_CATEGORIES = frozenset(Category) - {Category.OTHER}
REQUIRED_RELATIONS = frozenset(
    {
        Relation.ROOT,
        Relation.SUBJECT,
        Relation.EXPLETIVE,
        Relation.CONJUNCT,
        Relation.CONJUNCTIONAL_ADVERBIAL,
        Relation.ADVERBIAL,
        Relation.SUBORDINATOR,
    }
)
# Abstractions with a surface-level or semantic fallback (adjacency checks,
# subjects subsuming logical subjects); missing ones only produce warnings.
OPTIONAL_RELATIONS = frozenset(Relation) - REQUIRED_RELATIONS - {Relation.OTHER}

_FEATURE_FIELDS = {
    "gender": Gender,
    "number": Number,
    "verb_form": VerbForm,
}


class ProfileError(Exception):
    """A profile file is malformed or incomplete."""


@dataclass(frozen=True)
class TagsetProfile:
    """A complete mapping from one tagset onto the abstract vocabulary,
    resolved when the profile is loaded.

    ``category_of_pos`` maps a raw POS tag to its Category, or to
    DELIMITER_BY_FORM for a tag whose category is decided by the token's
    form; a tag it lacks is unknown.  That is the category rule, and
    category_for and apply_profile's table both answer from it.
    ``feature_rules`` holds ``(pos_pattern, atom, field, value)`` rows in
    file order; ``*`` matches anything and later rows win.  apply_profile
    reads a private table, filled on first sight and taking no part in
    equality, that holds one ``(category, features)`` row per distinct
    (POS, FEATS) pair, so each pair is decoded once.
    """

    name: str
    category_of_pos: dict[str, Union[Category, str]]
    relation_of_deprel: dict[str, Relation]
    feature_rules: tuple[tuple[str, str, str, object], ...]
    modal_lemmas: frozenset[str]
    warnings: tuple[str, ...] = field(default=(), compare=False)
    _rows: dict[tuple[str, str], tuple[object, MorphFeatures]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def category_for(self, pos: str, form: str) -> Optional[Category]:
        """Abstract category for a raw POS tag, or None when unknown."""
        category = self.category_of_pos.get(pos)
        return classify_delimiter_form(form) if category is DELIMITER_BY_FORM else category

    def relation_for(self, deprel: str) -> Optional[Relation]:
        """Abstract relation for a raw deprel, or None when unknown."""
        return self.relation_of_deprel.get(deprel)

    def decode_features(self, pos: str, feats: str) -> MorphFeatures:
        """Decode a raw feats string for a token with the given raw POS."""
        atoms = frozenset(a for a in feats.split("|") if a) if feats else frozenset()
        values: dict[str, object] = {}
        for pos_pattern, atom, fieldname, value in self.feature_rules:
            if pos_pattern in ("*", pos) and (atom == "*" or atom in atoms):
                values[fieldname] = value
        return MorphFeatures(**values)

    def _row(self, pos: str, feats: str) -> tuple[object, MorphFeatures]:
        """Decode a (POS, FEATS) pair the table lacks and add its row.

        The row's category is a Category, DELIMITER_BY_FORM for a tag
        decided by form, or None for an unknown tag.  Its features carry no
        verb form unless the POS maps to verb (a delimiter decided by form
        never does).
        """
        category = self.category_of_pos.get(pos)
        features = self.decode_features(pos, feats)
        if category is not Category.VERB:
            features = replace(features, verb_form=VerbForm.UNSPECIFIED)
        row = self._rows[pos, feats] = (category, features)
        return row


def classify_delimiter_form(form: str) -> Category:
    """Classify a delimiter token by its surface form."""
    if form in MAJOR_DELIMITER_FORMS:
        return _MAJOR_DELIMITER
    if form in MINOR_DELIMITER_FORMS:
        return _MINOR_DELIMITER
    return _OTHER_CATEGORY


def _parse_profile(lines: list[str], origin: str) -> TagsetProfile:
    name: Optional[str] = None
    first_lines: dict[str, int] = {}
    category_of_pos: dict[str, Union[Category, str]] = {}
    relation_of_deprel: dict[str, Relation] = {}
    feature_rules: list[tuple[str, str, str, object]] = []
    modal_lemmas: set[str] = set()
    valid_categories = {c.value: c for c in Category} | {DELIMITER_BY_FORM: DELIMITER_BY_FORM}
    valid_relations = {r.value: r for r in Relation}

    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        where = f"{origin}: line {line_number}"
        if kind == "name":
            if len(fields) != 2:
                raise ProfileError(f"{where}: name takes exactly one value")
            name = fields[1]
        elif kind == "pos":
            if len(fields) != 3:
                raise ProfileError(f"{where}: pos takes a raw tag and a category")
            if fields[2] not in valid_categories:
                raise ProfileError(f"{where}: unknown category {fields[2]!r}")
            category_of_pos[fields[1]] = valid_categories[fields[2]]
        elif kind == "deprel":
            if len(fields) != 3:
                raise ProfileError(f"{where}: deprel takes a raw label and a relation")
            if fields[2] not in valid_relations:
                raise ProfileError(f"{where}: unknown relation {fields[2]!r}")
            relation_of_deprel[fields[1]] = valid_relations[fields[2]]
        elif kind == "feat":
            if len(fields) != 4 or "=" not in fields[3]:
                raise ProfileError(
                    f"{where}: feat takes a POS pattern, an atom and field=value"
                )
            fieldname, _, valuename = fields[3].partition("=")
            if fieldname not in _FEATURE_FIELDS:
                raise ProfileError(f"{where}: unknown feature field {fieldname!r}")
            try:
                value = _FEATURE_FIELDS[fieldname](valuename)
            except ValueError:
                raise ProfileError(
                    f"{where}: bad value {valuename!r} for {fieldname}"
                ) from None
            feature_rules.append((fields[1], fields[2], fieldname, value))
        elif kind == "modal":
            if len(fields) != 2:
                raise ProfileError(f"{where}: modal takes exactly one lemma")
            modal_lemmas.add(fields[1].lower())
        else:
            raise ProfileError(f"{where}: unknown directive {kind!r}")
        if kind in ("name", "pos", "deprel"):
            what = f"{kind} line" if kind == "name" else f"{kind} line for {fields[1]!r}"
            first = first_lines.setdefault(what, line_number)
            if first != line_number:
                raise ProfileError(f"{where}: duplicate {what} (first on line {first})")

    if name is None:
        raise ProfileError(f"{origin}: profile has no name directive")

    reachable_categories = set(category_of_pos.values())
    if DELIMITER_BY_FORM in reachable_categories:
        reachable_categories |= {Category.MAJOR_DELIMITER, Category.MINOR_DELIMITER}
    missing_categories = REQUIRED_CATEGORIES - reachable_categories
    reachable_relations = set(relation_of_deprel.values())
    missing_relations = REQUIRED_RELATIONS - reachable_relations
    if missing_categories or missing_relations:
        gaps = sorted(x.value for x in missing_categories) + sorted(
            x.value for x in missing_relations
        )
        raise ProfileError(
            f"{origin}: profile {name!r} cannot express required abstractions: "
            + ", ".join(gaps)
        )
    warnings = tuple(
        f"profile {name!r} has no raw label for optional relation {r.value!r}"
        for r in sorted(OPTIONAL_RELATIONS - reachable_relations, key=lambda r: r.value)
    )

    return TagsetProfile(
        name=name,
        category_of_pos=category_of_pos,
        relation_of_deprel=relation_of_deprel,
        feature_rules=tuple(feature_rules),
        modal_lemmas=frozenset(modal_lemmas),
        warnings=warnings,
    )


def _unreadable_path(message: str) -> ProfileError:
    """A path that cannot be read may be a mistyped bundled name."""
    return ProfileError(f"{message} (bundled profiles: {', '.join(BUNDLED_PROFILES)})")


def load_profile(name_or_path: Union[str, Path]) -> TagsetProfile:
    """Load a bundled profile by name, or any profile from a readable path."""
    text_name = str(name_or_path)
    if text_name in BUNDLED_PROFILES:
        source = resources.files("solosent").joinpath(
            "data", "profiles", f"{text_name}.profile"
        )
        origin, error = f"bundled profile {text_name}", ProfileError
    else:
        source = origin = text_name
        error = _unreadable_path
    return _parse_profile(read_lines(source, error, origin), origin)


@dataclass
class CoverageCounter:
    """Tally of raw tags a profile did not recognize."""

    unknown_pos: Counter = field(default_factory=Counter)
    unknown_deprel: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.unknown_pos.values()) + sum(self.unknown_deprel.values())

    def summary(self) -> str:
        parts = []
        for label, counter in (
            ("POS", self.unknown_pos),
            ("deprel", self.unknown_deprel),
        ):
            for tag, count in sorted(counter.items()):
                parts.append(f"{label} {tag!r} x{count}")
        return "; ".join(parts) if parts else "full coverage"


def apply_profile(
    sentence: Sentence,
    profile: TagsetProfile,
    coverage: Optional[CoverageCounter] = None,
) -> AnnotatedSentence:
    """Annotate every token of a sentence with abstract categories.

    Total over all inputs: unknown raw tags map to ``other`` and are
    counted in ``coverage`` when one is passed.  Decoded verb forms are
    dropped for tokens whose category is not verb, so downstream rules can
    trust that pairing.

    One loop over the sentence's columns fills the result's annotations;
    the result shares the sentence's raw columns and the tree index its
    reader built, ``dependents``, and builds no Token or AnnotatedToken.
    The enum members it reads are module globals bound once: on Python
    3.10 and 3.11 the enum metaclass defines __getattr__, which makes a
    read through the class (Category.VERB) about five times dearer than
    a global's.
    """
    rows = profile._rows
    relation_of = profile.relation_of_deprel
    modal_lemmas = profile.modal_lemmas
    columns = forms, lemmas, tags, deprels, _heads, feats = raw_columns(sentence)
    categories: list[Category] = []
    relations: list[Relation] = []
    features: list[MorphFeatures] = []
    modal_flags: list[bool] = []
    lower_lemmas: list[str] = []
    for index, tag in enumerate(tags):
        feat, deprel = feats[index], deprels[index]
        category, feature = rows.get((tag, feat)) or profile._row(tag, feat)
        if category is DELIMITER_BY_FORM:
            category = classify_delimiter_form(forms[index])
        elif category is None:
            category = _OTHER_CATEGORY
            if coverage is not None:
                coverage.unknown_pos[tag] += 1
        relation = relation_of.get(deprel)
        if relation is None:
            relation = _OTHER_RELATION
            if coverage is not None:
                coverage.unknown_deprel[deprel] += 1
        lemma = lemmas[index].lower()
        categories.append(category)
        relations.append(relation)
        features.append(feature)
        modal_flags.append(category is _VERB and lemma in modal_lemmas)
        lower_lemmas.append(lemma)
    return AnnotatedSentence._from_columns(
        sentence.id,
        sentence.source,
        *columns,
        sentence.dependents,
        profile.name,
        tuple(categories),
        tuple(relations),
        tuple(features),
        tuple(modal_flags),
        tuple(lower_lemmas),
    )


__all__ = [
    "BUNDLED_PROFILES",
    "CoverageCounter",
    "ProfileError",
    "TagsetProfile",
    "apply_profile",
    "classify_delimiter_form",
    "load_profile",
]
