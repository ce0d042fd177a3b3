"""Rules that flag a sentence as hard to understand out of context.

Each rule targets one theme of context dependence and works purely on the
abstract annotations of an AnnotatedSentence, so the same rules run on any
tagset a profile can describe.  All rules are heuristics over parser
output: they aim for useful precision on well-formed corpus sentences, not
for linguistic completeness.

The implemented themes:

IncompSent      sentence fragments: no dependency root, a lowercased
                start, or no closing major delimiter.
ImpAnaphora     implicit anaphora through ellipsis: no finite verb (a
                modal alone does not count) or no subject outside
                imperatives.
PNAnaphora      anaphoric den/det and demonstratives, with expletive,
                weather-verb and som-relative uses exempted.  The weight
                drops to 1/2 when the sentence itself offers at least one
                antecedent candidate to the left of the pronoun.
AdvAnaphora1    anaphoric time/place adverbs (där, då, ...), exempting
                ones specified by their own adverbial dependent or bound
                into a determiner construction.
AdvAnaphora2    conjunctional adverbials (dock, heller, ...) linking to
                preceding discourse, exempt inside multi-clause sentences
                or next to an overt conjunction.
StructConn      coordinating conjunctions that glue the sentence to text
                outside it: conjunction as root, or sentence-initial
                conjunction without enough clauses after it.
CEQAnswer       sentence-initial yes/no interjections and delimiter-bound
                adverbs that answer a closed question asked elsewhere.

``CDPC`` (concept properties echoed from neighbouring sentences via word
co-occurrence) is a reserved identifier only: configs that try to enable
it are rejected, so nobody mistakes silence for a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, unique
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .assessment import Assessment, make_assessment
from .lexicons import LexiconSet
from .model import (
    FINITE_VERB_FORMS,
    AnnotatedSentence,
    AnnotatedToken,
    Category,
    Gender,
    Number,
    Relation,
    VerbForm,
    MISSING_ROOT,
    validate_structure,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)


@unique
class Theme(str, Enum):
    """Identifiers for the themes of context dependence."""

    INCOMPLETE = "IncompSent"
    IMPLICIT_ANAPHORA = "ImpAnaphora"
    PRONOMINAL_ANAPHORA = "PNAnaphora"
    ADVERBIAL_ANAPHORA = "AdvAnaphora1"
    DISCOURSE_CONNECTIVE = "AdvAnaphora2"
    STRUCTURAL_CONNECTIVE = "StructConn"
    CLOSED_QUESTION_ANSWER = "CEQAnswer"
    CONCEPT_PROPERTIES = "CDPC"


IMPLEMENTED_THEMES = (
    Theme.INCOMPLETE,
    Theme.IMPLICIT_ANAPHORA,
    Theme.PRONOMINAL_ANAPHORA,
    Theme.ADVERBIAL_ANAPHORA,
    Theme.DISCOURSE_CONNECTIVE,
    Theme.STRUCTURAL_CONNECTIVE,
    Theme.CLOSED_QUESTION_ANSWER,
)


@dataclass(frozen=True)
class ThemeDetection:
    """One detected indication of context dependence.

    ``token_indices`` holds the 1-based indices of the offending tokens,
    sorted; it is empty for whole-sentence defects such as a missing root.
    ``weight`` is an exact rational: 1 by default, 1/2 for pronominal
    anaphora with antecedent candidates, scaled by any config override.
    """

    theme: Theme
    token_indices: tuple[int, ...]
    weight: Fraction
    rationale: str


class ConfigError(Exception):
    """A detector configuration is unusable."""


def _default_enabled() -> frozenset[Theme]:
    return frozenset(IMPLEMENTED_THEMES)


@dataclass(frozen=True)
class DetectorConfig:
    """Which themes run, with what weights, against which resources."""

    enabled: frozenset[Theme] = field(default_factory=_default_enabled)
    weights: Mapping[Theme, Fraction] = field(default_factory=dict)
    profile_name: str = "suc-mamba"
    lexicon_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if Theme.CONCEPT_PROPERTIES in self.enabled:
            raise ConfigError(
                "theme CDPC is a reserved identifier without an implementation "
                "(word co-occurrence scoring hook); it cannot be enabled"
            )
        for theme, weight in self.weights.items():
            if weight <= 0:
                raise ConfigError(
                    f"weight for {theme.value} must be positive, got {weight}"
                )

    def weight_for(self, theme: Theme) -> Fraction:
        return self.weights.get(theme, ONE)


# Characters that may wrap the real start of a sentence: quotes, brackets
# and dashes introducing reported speech.
_WRAPPER_CHARS = frozenset("\"'`«»‘’“”()[]{}-–—")

_DELIMITER_CATEGORIES = frozenset(
    {Category.MAJOR_DELIMITER, Category.MINOR_DELIMITER}
)


def _is_wrapper_form(form: str) -> bool:
    return bool(form) and all(ch in _WRAPPER_CHARS for ch in form)


def _first_content_token(sentence: AnnotatedSentence) -> Optional[AnnotatedToken]:
    """The first token that is not a delimiter or a wrapper mark."""
    for token in sentence.tokens:
        if token.category in _DELIMITER_CATEGORIES:
            continue
        if _is_wrapper_form(token.form):
            continue
        return token
    return None


def _root_token(sentence: AnnotatedSentence) -> Optional[AnnotatedToken]:
    roots = sentence.root_tokens()
    return roots[0] if roots else None


def _nearest_verb_ancestor(
    sentence: AnnotatedSentence, token: AnnotatedToken
) -> Optional[AnnotatedToken]:
    seen = {token.index}
    current = sentence.head_token(token.index)
    while current is not None and current.index not in seen:
        if current.category is Category.VERB:
            return current
        seen.add(current.index)
        current = sentence.head_token(current.index)
    return None


def _in_verb_group(sentence: AnnotatedSentence, token: AnnotatedToken) -> bool:
    """True when the token directly governs, or is governed by, a verb."""
    head = sentence.head_token(token.index)
    if head is not None and head.category is Category.VERB:
        return True
    return any(
        child.category is Category.VERB for child in sentence.children(token.index)
    )


def _is_finite_verb(sentence: AnnotatedSentence, token: AnnotatedToken) -> bool:
    """Finite verb test, with the modal restriction.

    A verb is finite when its form is present, past or imperative.  A
    modal only counts inside a verb group: a finite modal with no verb
    above or below it means the lexical verb was elided.
    """
    if token.category is not Category.VERB:
        return False
    if token.features.verb_form not in FINITE_VERB_FORMS:
        return False
    if token.is_modal and not _in_verb_group(sentence, token):
        return False
    return True


class _ClauseCounts(NamedTuple):
    """Counts three rules share; detect_all takes them once per sentence."""

    finite_verbs: int
    conjuncts: int


def _clause_counts(sentence: AnnotatedSentence) -> _ClauseCounts:
    finite_verbs = conjuncts = 0
    for t in sentence.tokens:
        # most tokens are not verbs: test that before paying for the call
        if t.category is Category.VERB and _is_finite_verb(sentence, t):
            finite_verbs += 1
        if t.relation is Relation.CONJUNCT:
            conjuncts += 1
    return _ClauseCounts(finite_verbs, conjuncts)


def detect_incomplete(sentence: AnnotatedSentence) -> list[ThemeDetection]:
    """IncompSent: fragments that never were a full sentence.

    Three independent checks, each reported separately when it fails:
    a dependency root must exist, the first letter-or-digit character
    (one leading quote/bracket/dash token may precede it) must not be a
    lowercase letter, and the last token must be a major delimiter.
    Starting with a digit is fine.
    """
    detections: list[ThemeDetection] = []
    if any(issue.kind == MISSING_ROOT for issue in validate_structure(sentence)):
        detections.append(
            ThemeDetection(
                theme=Theme.INCOMPLETE,
                token_indices=(),
                weight=ONE,
                rationale="no dependency root",
            )
        )

    tokens = sentence.tokens
    start = 1 if tokens and _is_wrapper_form(tokens[0].form) else 0
    for token in tokens[start:]:
        first_char = next(
            (ch for ch in token.form if ch.isalpha() or ch.isdigit()), None
        )
        if first_char is None:
            continue
        if first_char.islower():
            detections.append(
                ThemeDetection(
                    theme=Theme.INCOMPLETE,
                    token_indices=(token.index,),
                    weight=ONE,
                    rationale=f"sentence starts with lowercase {token.form!r}",
                )
            )
        break

    if not tokens or tokens[-1].category is not Category.MAJOR_DELIMITER:
        tail = tokens[-1].form if tokens else ""
        detections.append(
            ThemeDetection(
                theme=Theme.INCOMPLETE,
                token_indices=(),
                weight=ONE,
                rationale=f"sentence does not end in a major delimiter (last token {tail!r})",
            )
        )
    return detections


def _main_verb(sentence: AnnotatedSentence) -> Optional[AnnotatedToken]:
    root = _root_token(sentence)
    if root is not None and root.category is Category.VERB:
        return root
    for token in sentence.tokens:
        if token.category is Category.VERB:
            return token
    return None


def detect_implicit_anaphora(sentence: AnnotatedSentence) -> list[ThemeDetection]:
    """ImpAnaphora: ellipsis that leaves the verb or the subject implicit.

    Fires once when no finite verb exists and once when no subject
    (ordinary or logical) exists, unless the main verb is an imperative,
    which needs no subject.
    """
    return _implicit_anaphora(sentence, _clause_counts(sentence))


def _implicit_anaphora(
    sentence: AnnotatedSentence, counts: _ClauseCounts
) -> list[ThemeDetection]:
    detections: list[ThemeDetection] = []
    if counts.finite_verbs == 0:
        lone_modals = [
            t.form
            for t in sentence.tokens
            if t.category is Category.VERB
            and t.is_modal
            and t.features.verb_form in FINITE_VERB_FORMS
        ]
        if lone_modals:
            rationale = f"no finite verb: modal {lone_modals[0]!r} stands alone"
        else:
            rationale = "no finite verb"
        detections.append(
            ThemeDetection(
                theme=Theme.IMPLICIT_ANAPHORA,
                token_indices=(),
                weight=ONE,
                rationale=rationale,
            )
        )
    # An expletive fills the subject slot just as well: the check hunts
    # for gapped subjects, not for meaningless ones.
    has_subject = any(
        t.relation
        in (Relation.SUBJECT, Relation.LOGICAL_SUBJECT, Relation.EXPLETIVE)
        for t in sentence.tokens
    )
    if not has_subject:
        main = _main_verb(sentence)
        if main is None or main.features.verb_form is not VerbForm.IMPERATIVE:
            detections.append(
                ThemeDetection(
                    theme=Theme.IMPLICIT_ANAPHORA,
                    token_indices=(),
                    weight=ONE,
                    rationale="no subject and the main verb is not imperative",
                )
            )
    return detections


def _features_compatible(pronoun: AnnotatedToken, noun: AnnotatedToken) -> bool:
    pg, ng = pronoun.features.gender, noun.features.gender
    if Gender.UNSPECIFIED not in (pg, ng) and pg is not ng:
        return False
    pn, nn = pronoun.features.number, noun.features.number
    if Number.UNSPECIFIED not in (pn, nn) and pn is not nn:
        return False
    return True


def count_antecedent_candidates(
    sentence: AnnotatedSentence, pronoun_index: int
) -> int:
    """Count in-sentence antecedent candidates left of the pronoun.

    Candidates are nouns and proper nouns before the pronoun whose gender
    and number are compatible with it (unspecified matches anything).  For
    ``det`` an infinitive marker governed by a verb also counts once: the
    marked infinitive phrase is a possible neuter referent.  Candidates
    are counted, not ranked; no referent is ever selected.

    Raises ValueError when the index does not point at a pronoun.
    """
    if pronoun_index < 1 or pronoun_index > len(sentence.tokens):
        raise ValueError(f"no token at index {pronoun_index}")
    pronoun = sentence.token(pronoun_index)
    if pronoun.category is not Category.PRONOUN:
        raise ValueError(
            f"token {pronoun_index} ({pronoun.form!r}) is not a pronoun"
        )
    count = 0
    for token in sentence.tokens[: pronoun_index - 1]:
        if token.category in (Category.NOUN, Category.PROPER_NOUN):
            if _features_compatible(pronoun, token):
                count += 1
    if pronoun.lemma.lower() == "det":
        for token in sentence.tokens[: pronoun_index - 1]:
            if token.category is Category.INFINITIVE_MARKER:
                head = sentence.head_token(token.index)
                if head is not None and head.category is Category.VERB:
                    count += 1
                    break
    return count


def _followed_by_som_relative(
    sentence: AnnotatedSentence, pronoun: AnnotatedToken
) -> bool:
    nxt = (
        sentence.token(pronoun.index + 1)
        if pronoun.index < len(sentence.tokens)
        else None
    )
    if nxt is not None and nxt.lemma.lower() == "som":
        return True
    for descendant in sentence.descendants(pronoun.index):
        if descendant.lemma.lower() == "som" and descendant.relation in (
            Relation.RELATIVE_CLAUSE_MARKER,
            Relation.SUBORDINATOR,
        ):
            return True
    return False


def detect_pronominal_anaphora(
    sentence: AnnotatedSentence, lexicons: LexiconSet
) -> list[ThemeDetection]:
    """PNAnaphora: den/det and demonstratives used anaphorically.

    A listed lemma only fires when the token really is a pronoun (den/det
    as determiners belong to their noun phrase) and none of the
    non-anaphoric uses applies: expletive relation, ``det`` under a
    weather verb, or a som-relative right after the pronoun or inside its
    subtree.  The weight halves when the sentence itself offers antecedent
    candidates, since the reference may then be resolvable in place.
    """
    detections: list[ThemeDetection] = []
    for token, lemma in zip(sentence.tokens, sentence.lower_lemmas):
        if lemma not in lexicons.anaphoric_pronouns:
            continue
        if token.category is not Category.PRONOUN:
            continue
        if token.relation is Relation.EXPLETIVE:
            continue
        if lemma == "det":
            verb = _nearest_verb_ancestor(sentence, token)
            if verb is not None and verb.lemma.lower() in lexicons.weather_verbs:
                continue
        if _followed_by_som_relative(sentence, token):
            continue
        candidates = count_antecedent_candidates(sentence, token.index)
        weight = HALF if candidates > 0 else ONE
        detections.append(
            ThemeDetection(
                theme=Theme.PRONOMINAL_ANAPHORA,
                token_indices=(token.index,),
                weight=weight,
                rationale=(
                    f"anaphoric pronoun {token.form!r} with "
                    f"{candidates} antecedent candidate(s) to its left"
                ),
            )
        )
    return detections


def detect_adverbial_anaphora(
    sentence: AnnotatedSentence, lexicons: LexiconSet
) -> list[ThemeDetection]:
    """AdvAnaphora1: time and place adverbs pointing outside the sentence.

    A listed adverb is exempt when it heads an adverbial dependent that
    spells out the time or place itself ("där på landet"): a dependent of
    unknown type is assumed to specify, only a dependent of the *other*
    listed type keeps the detection.  It is also exempt inside a
    determiner construction ("det där huset"), recognized by an adjacent
    determiner before it or by the adverb itself relating as determiner.
    """
    detections: list[ThemeDetection] = []
    for token, lemma in zip(sentence.tokens, sentence.lower_lemmas):
        adverb_type = lexicons.anaphoric_adverbs.get(lemma)
        if adverb_type is None or token.category is not Category.ADVERB:
            continue
        specified = False
        for child in sentence.children(token.index):
            if child.relation is not Relation.ADVERBIAL:
                continue
            child_type = lexicons.anaphoric_adverbs.get(child.lemma.lower())
            if child_type is None or child_type is adverb_type:
                specified = True
                break
        if specified:
            continue
        previous = sentence.token(token.index - 1) if token.index > 1 else None
        if previous is not None and previous.category is Category.DETERMINER:
            continue
        if token.relation is Relation.DETERMINER:
            continue
        detections.append(
            ThemeDetection(
                theme=Theme.ADVERBIAL_ANAPHORA,
                token_indices=(token.index,),
                weight=ONE,
                rationale=f"unspecified {adverb_type.value} adverb {token.form!r}",
            )
        )
    return detections


def detect_discourse_connective(sentence: AnnotatedSentence) -> list[ThemeDetection]:
    """AdvAnaphora2: conjunctional adverbials linking to prior discourse.

    Relation-based: any token relating as conjunctional adverbial fires,
    unless the sentence holds at least two coordinate clauses (the
    adverbial then links those) or an overt conjunction or subjunction
    stands beside it, as a sibling or as a sibling of its head.
    """
    return _discourse_connective(sentence, _clause_counts(sentence))


def _discourse_connective(
    sentence: AnnotatedSentence, counts: _ClauseCounts
) -> list[ThemeDetection]:
    # Conjunct-relation tokens mark second and later conjuncts, so k of
    # them imply k+1 coordinated units.
    if max(counts.finite_verbs, counts.conjuncts + 1) >= 2:
        return []
    detections: list[ThemeDetection] = []
    for token in sentence.tokens:
        if token.relation is not Relation.CONJUNCTIONAL_ADVERBIAL:
            continue
        neighbours = list(sentence.siblings(token.index))
        head = sentence.head_token(token.index)
        if head is not None:
            neighbours.extend(sentence.siblings(head.index))
        if any(
            n.category in (Category.CONJUNCTION, Category.SUBJUNCTION)
            for n in neighbours
        ):
            continue
        detections.append(
            ThemeDetection(
                theme=Theme.DISCOURSE_CONNECTIVE,
                token_indices=(token.index,),
                weight=ONE,
                rationale=(
                    f"conjunctional adverbial {token.form!r} with no "
                    "coordination inside the sentence"
                ),
            )
        )
    return detections


def _completed_pair_present(
    sentence: AnnotatedSentence, lexicons: LexiconSet, lemma: str
) -> bool:
    lemmas = sentence.lower_lemmas
    # whatever follows a later first member also follows the earliest one
    return any(
        lemma in (first, second)
        and first in lemmas
        and second in lemmas[lemmas.index(first) + 1 :]
        for first, second in lexicons.paired_conjunctions
    )


def detect_structural_connective(
    sentence: AnnotatedSentence, lexicons: LexiconSet
) -> list[ThemeDetection]:
    """StructConn: conjunctions that bind the sentence to surrounding text.

    Fires for a conjunction as dependency root, unless it belongs to a
    correlative pair whose both members are present in order (antingen ...
    eller), and for a sentence-initial conjunction, unless the sentence
    carries at least two clauses or conjuncts for it to join.
    """
    return _structural_connective(sentence, lexicons, _clause_counts(sentence))


def _structural_connective(
    sentence: AnnotatedSentence, lexicons: LexiconSet, counts: _ClauseCounts
) -> list[ThemeDetection]:
    detections: list[ThemeDetection] = []
    root = _root_token(sentence)
    if (
        root is not None
        and root.category is Category.CONJUNCTION
        and not _completed_pair_present(sentence, lexicons, root.lemma.lower())
    ):
        detections.append(
            ThemeDetection(
                theme=Theme.STRUCTURAL_CONNECTIVE,
                token_indices=(root.index,),
                weight=ONE,
                rationale=f"conjunction {root.form!r} is the dependency root",
            )
        )
    first = _first_content_token(sentence)
    if (
        first is not None
        and first.category is Category.CONJUNCTION
        and max(counts.finite_verbs, counts.conjuncts) < 2
        and all(d.token_indices != (first.index,) for d in detections)
    ):
        detections.append(
            ThemeDetection(
                theme=Theme.STRUCTURAL_CONNECTIVE,
                token_indices=(first.index,),
                weight=ONE,
                rationale=(
                    f"sentence-initial conjunction {first.form!r} with nothing "
                    "to coordinate inside the sentence"
                ),
            )
        )
    return detections


def detect_ceq_answer(
    sentence: AnnotatedSentence, lexicons: LexiconSet
) -> list[ThemeDetection]:
    """CEQAnswer: the sentence answers a closed question asked elsewhere.

    Two sentence-initial patterns: a yes/no interjection, optionally after
    one minor delimiter (dialogue dashes), or an adverb enclosed between
    minor delimiters ("– Gärna , ...").
    """
    tokens = sentence.tokens
    if not tokens:
        return []
    offset = 1 if tokens[0].category is Category.MINOR_DELIMITER else 0
    if len(tokens) <= offset:
        return []
    candidate = tokens[offset]
    if (
        candidate.category is Category.INTERJECTION
        and candidate.lemma.lower() in lexicons.yes_no_interjections
    ):
        return [
            ThemeDetection(
                theme=Theme.CLOSED_QUESTION_ANSWER,
                token_indices=(candidate.index,),
                weight=ONE,
                rationale=f"sentence-initial yes/no interjection {candidate.form!r}",
            )
        ]
    if (
        offset == 1
        and candidate.category is Category.ADVERB
        and len(tokens) > 2
        and tokens[2].category is Category.MINOR_DELIMITER
    ):
        return [
            ThemeDetection(
                theme=Theme.CLOSED_QUESTION_ANSWER,
                token_indices=(candidate.index,),
                weight=ONE,
                rationale=(
                    f"sentence-initial adverb {candidate.form!r} enclosed "
                    "between minor delimiters"
                ),
            )
        ]
    return []


# Each implemented theme's rule, called as rule(sentence, lexicons, counts).
_RULES = {
    Theme.INCOMPLETE: lambda s, lex, counts: detect_incomplete(s),
    Theme.IMPLICIT_ANAPHORA: lambda s, lex, counts: _implicit_anaphora(s, counts),
    Theme.PRONOMINAL_ANAPHORA: lambda s, lex, counts: detect_pronominal_anaphora(s, lex),
    Theme.ADVERBIAL_ANAPHORA: lambda s, lex, counts: detect_adverbial_anaphora(s, lex),
    Theme.DISCOURSE_CONNECTIVE: lambda s, lex, counts: _discourse_connective(s, counts),
    Theme.STRUCTURAL_CONNECTIVE: _structural_connective,
    Theme.CLOSED_QUESTION_ANSWER: lambda s, lex, counts: detect_ceq_answer(s, lex),
}

_DEFAULT_CONFIG = DetectorConfig()


def detect_all(
    sentence: AnnotatedSentence,
    lexicons: LexiconSet,
    config: Optional[DetectorConfig] = None,
) -> Assessment:
    """Run every enabled rule and assemble the sentence's assessment.

    Detections come out in fixed theme order and, within a theme, in token
    order, so equal inputs always produce byte-equal reports.  Weight
    overrides from the config scale each detection's default weight.
    """
    if config is None:
        config = _DEFAULT_CONFIG
    counts = _clause_counts(sentence)
    detections: list[ThemeDetection] = []
    for theme in IMPLEMENTED_THEMES:
        if theme not in config.enabled:
            continue
        found = _RULES[theme](sentence, lexicons, counts)
        override = config.weights.get(theme)
        if override is not None:
            found = [replace(d, weight=d.weight * override) for d in found]
        detections.extend(found)
    return make_assessment(sentence.id, detections)


__all__ = [
    "ConfigError",
    "DetectorConfig",
    "IMPLEMENTED_THEMES",
    "Theme",
    "ThemeDetection",
    "count_antecedent_candidates",
    "detect_adverbial_anaphora",
    "detect_all",
    "detect_ceq_answer",
    "detect_discourse_connective",
    "detect_implicit_anaphora",
    "detect_incomplete",
    "detect_pronominal_anaphora",
    "detect_structural_connective",
]
