"""Rules that flag a sentence as hard to understand out of context.

Each rule targets one theme of context dependence and works purely on the
abstract annotations of an AnnotatedSentence, so the same rules run on any
tagset a profile can describe.  All rules are heuristics over parser
output: they aim for useful precision on well-formed corpus sentences, not
for linguistic completeness.

The implemented themes:

IncompSent      sentence fragments: a lowercased start or no closing
                major delimiter.
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

import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Mapping, NamedTuple, Optional

from .assessment import Assessment, make_assessment
from .lexicons import LexiconSet
from .model import (
    _ADVERB,
    _ADVERBIAL,
    _CONJUNCT,
    _CONJUNCTION,
    _CONJUNCTIONAL_ADVERBIAL,
    _DETERMINER,
    _DETERMINER_RELATION,
    _EXPLETIVE,
    _IMPERATIVE,
    _INFINITIVE_MARKER,
    _INTERJECTION,
    _MAJOR_DELIMITER,
    _MINOR_DELIMITER,
    _NOUN,
    _PRONOUN,
    _PROPER_NOUN,
    _UNSPECIFIED_GENDER,
    _UNSPECIFIED_NUMBER,
    _VERB,
    _first_root,
    FINITE_VERB_FORMS,
    AnnotatedSentence,
    Category,
    Gender,
    MorphFeatures,
    Number,
    Relation,
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


@dataclass(frozen=True, slots=True)
class ThemeDetection:
    """One detected indication of context dependence.

    ``token_indices`` holds the 1-based indices of the offending tokens,
    sorted; it is empty for whole-sentence defects such as a missing verb.
    ``weight`` is an exact rational: 1 by default, 1/2 for pronominal
    anaphora with antecedent candidates, scaled by any config override.

    The rules build these on every sentence, by position, in field order:
    slots and positional arguments make each construction cheaper.
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
    """Which themes run, and with what weights."""

    enabled: frozenset[Theme] = field(default_factory=_default_enabled)
    weights: Mapping[Theme, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # any set will do; the rule plan is cached on the frozen one
        object.__setattr__(self, "enabled", frozenset(self.enabled))
        # the weights checked below are the weights used: a copy the caller cannot change
        object.__setattr__(self, "weights", dict(self.weights))
        _check_enabled(self.enabled)
        for theme, weight in self.weights.items():
            _check_weight(theme, weight)


# bound once, as the members the rules read are (see below)
_CONCEPT_PROPERTIES = Theme.CONCEPT_PROPERTIES


def _reserved(setting: str) -> ConfigError:
    """The refusal of a setting for the theme that has no rule."""
    return ConfigError(
        "theme CDPC is a reserved identifier without an implementation "
        f"(word co-occurrence scoring hook); it cannot be {setting}"
    )


def _check_enabled(themes: Collection[Theme]) -> None:
    """Refuse themes that have no rule to run."""
    if _CONCEPT_PROPERTIES in themes:
        raise _reserved("enabled")


def _check_weight(theme: Theme, weight: Fraction) -> None:
    """Refuse a weight for a theme with no rule, or whose scores cannot be
    written."""
    if theme is _CONCEPT_PROPERTIES:
        raise _reserved("weighted")
    if weight <= 0:
        raise ConfigError(f"weight for {theme.value} must be positive, got {weight}")
    # scores are written as floats, and PNAnaphora halves its weight
    if not weight <= sys.float_info.max:
        raise ConfigError(f"weight for {theme.value} is too large for a float")
    if float(weight / 2) == 0:
        raise ConfigError(f"weight for {theme.value} is too small for a float")


# Characters that may wrap the real start of a sentence: quotes, brackets
# and dashes introducing reported speech.
_WRAPPER_CHARS = "\"'`«»‘’“”()[]{}-–—"

_DELIMITER_CATEGORIES = frozenset(
    {Category.MAJOR_DELIMITER, Category.MINOR_DELIMITER}
)


def _is_wrapper_form(form: str) -> bool:
    return bool(form) and not form.strip(_WRAPPER_CHARS)


# The rules read the sentence's columns and its tree index.  Tokens are
# named by their 1-based index, as in the index and in the detections;
# the columns are read at index - 1.
#
# The rules read enum members as module globals bound once, never
# through the class: on Python 3.10 and 3.11 each read through the
# class pays the enum metaclass's __getattr__ (see model.py), and the
# rules make such reads per token.  The Theme members, read per
# detection, are bound here.
_INCOMPLETE, _IMPLICIT_ANAPHORA = Theme.INCOMPLETE, Theme.IMPLICIT_ANAPHORA
_PRONOMINAL_ANAPHORA, _ADVERBIAL_ANAPHORA = Theme.PRONOMINAL_ANAPHORA, Theme.ADVERBIAL_ANAPHORA
_DISCOURSE_CONNECTIVE = Theme.DISCOURSE_CONNECTIVE
_STRUCTURAL_CONNECTIVE = Theme.STRUCTURAL_CONNECTIVE
_CLOSED_QUESTION_ANSWER = Theme.CLOSED_QUESTION_ANSWER


def _first_content_index(sentence: AnnotatedSentence) -> Optional[int]:
    """The first token that is not a delimiter or a wrapper mark."""
    for index, (category, form) in enumerate(
        zip(sentence.categories, sentence.forms), start=1
    ):
        if category in _DELIMITER_CATEGORIES:
            continue
        if _is_wrapper_form(form):
            continue
        return index
    return None


def _governed_by_verb(sentence: AnnotatedSentence, index: int) -> bool:
    """True when the token's head is a token of category verb."""
    head = sentence.heads[index - 1]
    return head > 0 and sentence.categories[head - 1] is _VERB


def _in_verb_group(sentence: AnnotatedSentence, index: int) -> bool:
    """True when the token directly governs, or is governed by, a verb."""
    if _governed_by_verb(sentence, index):
        return True
    categories = sentence.categories
    return any(
        categories[child - 1] is _VERB
        for child in sentence.dependents.get(index, ())
    )


def _is_finite_verb(sentence: AnnotatedSentence, index: int) -> bool:
    """Finite verb test for a token of category verb, with the modal restriction.

    A verb is finite when its form is finite or imperative.  A modal only
    counts inside a verb group: a finite modal with no verb above or below
    it means the lexical verb was elided.
    """
    if sentence.features[index - 1].verb_form not in FINITE_VERB_FORMS:
        return False
    if sentence.modal_flags[index - 1] and not _in_verb_group(sentence, index):
        return False
    return True


class _ClauseCounts(NamedTuple):
    """Counts three rules share; detect_all takes them once per sentence."""

    # the rules ask for none, one, or two and more: the count stops at 2
    finite_verbs: int
    conjuncts: int


def _clause_counts(sentence: AnnotatedSentence) -> _ClauseCounts:
    finite_verbs = 0
    for index, category in enumerate(sentence.categories, start=1):
        if category is _VERB and _is_finite_verb(sentence, index):
            finite_verbs += 1
            if finite_verbs == 2:
                break
    return _ClauseCounts(finite_verbs, sentence.relations.count(_CONJUNCT))


def detect_incomplete(sentence: AnnotatedSentence) -> list[ThemeDetection]:
    """IncompSent: fragments that never were a full sentence.

    Two independent checks, each reported separately when it fails: the
    first letter-or-digit character (one leading quote/bracket/dash token
    may precede it) must not be a lowercase letter, and the last token
    must be a major delimiter.  Starting with a digit is fine.
    """
    detections: list[ThemeDetection] = []
    forms = sentence.forms
    start = 1 if _is_wrapper_form(forms[0]) else 0
    for index, form in enumerate(forms[start:], start=start + 1):
        for first_char in form:
            if first_char.isalpha() or first_char.isdigit():
                break
        else:  # no letter or digit in this form: look at the next one
            continue
        if first_char.islower():
            detections.append(
                ThemeDetection(
                    _INCOMPLETE, (index,), ONE, f"sentence starts with lowercase {form!r}"
                )
            )
        break

    if sentence.categories[-1] is not _MAJOR_DELIMITER:
        detections.append(
            ThemeDetection(
                _INCOMPLETE, (), ONE,
                f"sentence does not end in a major delimiter (last token {forms[-1]!r})",
            )
        )
    return detections


def _main_verb(sentence: AnnotatedSentence) -> Optional[int]:
    categories = sentence.categories
    root = _first_root(sentence)
    if categories[root - 1] is _VERB:
        return root
    for index, category in enumerate(categories, start=1):
        if category is _VERB:
            return index
    return None


def detect_implicit_anaphora(sentence: AnnotatedSentence) -> list[ThemeDetection]:
    """ImpAnaphora: ellipsis that leaves the verb or the subject implicit.

    Fires once when no finite verb exists and once when no subject
    (ordinary or logical) exists, unless the main verb is an imperative,
    which needs no subject.
    """
    return _implicit_anaphora(sentence, _clause_counts(sentence))


# An expletive fills the subject slot just as well: the check hunts for
# gapped subjects, not for meaningless ones.
_SUBJECT_RELATIONS = frozenset(
    {Relation.SUBJECT, Relation.LOGICAL_SUBJECT, Relation.EXPLETIVE}
)


def _implicit_anaphora(
    sentence: AnnotatedSentence, counts: _ClauseCounts
) -> list[ThemeDetection]:
    detections: list[ThemeDetection] = []
    if counts.finite_verbs == 0:
        lone_modal = next(
            (
                form
                for form, category, modal, features in zip(
                    sentence.forms,
                    sentence.categories,
                    sentence.modal_flags,
                    sentence.features,
                )
                if category is _VERB
                and modal
                and features.verb_form in FINITE_VERB_FORMS
            ),
            None,
        )
        if lone_modal is not None:
            rationale = f"no finite verb: modal {lone_modal!r} stands alone"
        else:
            rationale = "no finite verb"
        detections.append(ThemeDetection(_IMPLICIT_ANAPHORA, (), ONE, rationale))
    if _SUBJECT_RELATIONS.isdisjoint(sentence.relations):
        main = _main_verb(sentence)
        if (
            main is None
            or sentence.features[main - 1].verb_form is not _IMPERATIVE
        ):
            detections.append(
                ThemeDetection(
                    _IMPLICIT_ANAPHORA, (), ONE,
                    "no subject and the main verb is not imperative",
                )
            )
    return detections


def _features_compatible(pronoun: MorphFeatures, noun: MorphFeatures) -> bool:
    pg, ng = pronoun.gender, noun.gender
    if _UNSPECIFIED_GENDER not in (pg, ng) and pg is not ng:
        return False
    pn, nn = pronoun.number, noun.number
    if _UNSPECIFIED_NUMBER not in (pn, nn) and pn is not nn:
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
    if pronoun_index < 1 or pronoun_index > len(sentence):
        raise ValueError(f"no token at index {pronoun_index}")
    categories, features = sentence.categories, sentence.features
    if categories[pronoun_index - 1] is not _PRONOUN:
        form = sentence.forms[pronoun_index - 1]
        raise ValueError(f"token {pronoun_index} ({form!r}) is not a pronoun")
    pronoun = features[pronoun_index - 1]
    count = 0
    for index in range(1, pronoun_index):
        if categories[index - 1] in (_NOUN, _PROPER_NOUN):
            if _features_compatible(pronoun, features[index - 1]):
                count += 1
    if sentence.lower_lemmas[pronoun_index - 1] == "det":
        for index in range(1, pronoun_index):
            if categories[index - 1] is _INFINITIVE_MARKER:
                if _governed_by_verb(sentence, index):
                    count += 1
                    break
    return count


_SOM_RELATIONS = (Relation.RELATIVE_CLAUSE_MARKER, Relation.SUBORDINATOR)


def _verb_above(sentence: AnnotatedSentence, index: int, memo: dict[int, int]) -> int:
    """The nearest verb above the token, by index, or 0 for none.

    The walk up the heads stops at a token in ``memo``, which holds the
    answers of earlier walks in the same sentence, and leaves its own
    answer there for every token it passed: no verb lies between them and
    the verb it found.  The walks of one sentence so read each head at
    most once between them.
    """
    heads, categories = sentence.heads, sentence.categories
    passed = []
    while index not in memo:
        passed.append(index)
        head = heads[index - 1]
        if not head or categories[head - 1] is _VERB:
            verb = head
            break
        index = head
    else:
        verb = memo[index]
    for token in passed:
        memo[token] = verb
    return verb


def _som_below(sentence: AnnotatedSentence) -> set[int]:
    """The tokens whose subtree, the token excluded, holds a som-relative.

    One walk up the heads from each som-relative, which stops at a token
    an earlier walk collected: the tokens above it are collected too.
    """
    heads, relations, lemmas = sentence.heads, sentence.relations, sentence.lower_lemmas
    below: set[int] = set()
    for index, lemma in enumerate(lemmas, start=1):
        if lemma == "som" and relations[index - 1] in _SOM_RELATIONS:
            head = heads[index - 1]
            while head and head not in below:
                below.add(head)
                head = heads[head - 1]
    return below


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

    The tree is read only for the questions a pronoun asks.  The tokens
    with a som-relative below them are collected when a pronoun first asks,
    by walks up from each som-relative.  A ``det`` in a sentence with a
    weather verb asks for the verb above it, by a walk up its head chain
    that stops where an earlier walk went, so the walks read each head at
    most once between them.  The candidates are counted as
    count_antecedent_candidates counts them, from running tallies: the
    tokens left of each reported pronoun are tallied once, carried on from
    the previous one, so the count costs one pass over the sentence, not
    one per pronoun.
    """
    lemmas = sentence.lower_lemmas
    if lexicons.anaphoric_pronouns.isdisjoint(lemmas):
        return []
    categories, relations, features = sentence.categories, sentence.relations, sentence.features
    # the exemptions that look along the tree need a weather verb or a som
    weather = not lexicons.weather_verbs.isdisjoint(lemmas)
    som = "som" in lemmas
    verbs_above: dict[int, int] = {}  # the walks' answers, by token
    som_below: Optional[set[int]] = None
    # nouns and proper nouns tallied so far, by (gender, number): the
    # features of one of them, which stands for the others in the
    # compatibility test, and how many there are
    nouns: dict[tuple[Gender, Number], list] = {}
    marked_infinitive = False  # an infinitive marker under a verb was tallied
    tallied = 0
    detections: list[ThemeDetection] = []
    for index, lemma in enumerate(lemmas, start=1):
        if lemma not in lexicons.anaphoric_pronouns:
            continue
        if categories[index - 1] is not _PRONOUN:
            continue
        if relations[index - 1] is _EXPLETIVE:
            continue
        if lemma == "det" and weather:
            verb = _verb_above(sentence, index, verbs_above)
            if verb and lemmas[verb - 1] in lexicons.weather_verbs:
                continue
        if som:
            if index < len(lemmas) and lemmas[index] == "som":
                continue
            if som_below is None:
                som_below = _som_below(sentence)
            if index in som_below:
                continue
        for left in range(tallied + 1, index):
            category = categories[left - 1]
            if category is _NOUN or category is _PROPER_NOUN:
                noun = features[left - 1]
                cell = (noun.gender, noun.number)
                if cell in nouns:
                    nouns[cell][1] += 1
                else:
                    nouns[cell] = [noun, 1]
            elif category is _INFINITIVE_MARKER and not marked_infinitive:
                marked_infinitive = _governed_by_verb(sentence, left)
        tallied = index - 1
        pronoun = features[index - 1]
        candidates = sum(
            count for noun, count in nouns.values() if _features_compatible(pronoun, noun)
        )
        if marked_infinitive and lemma == "det":
            candidates += 1
        weight = HALF if candidates > 0 else ONE
        detections.append(
            ThemeDetection(
                _PRONOMINAL_ANAPHORA, (index,), weight,
                f"anaphoric pronoun {sentence.forms[index - 1]!r} with "
                f"{candidates} antecedent candidate(s) to its left",
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
    lemmas, adverbs = sentence.lower_lemmas, lexicons.anaphoric_adverbs
    if adverbs.keys().isdisjoint(lemmas):
        return []
    detections: list[ThemeDetection] = []
    categories, relations = sentence.categories, sentence.relations
    dependents = sentence.dependents
    for index, lemma in enumerate(lemmas, start=1):
        adverb_type = adverbs.get(lemma)
        if adverb_type is None or categories[index - 1] is not _ADVERB:
            continue
        specified = False
        for child in dependents.get(index, ()):
            if relations[child - 1] is not _ADVERBIAL:
                continue
            child_type = adverbs.get(lemmas[child - 1])
            if child_type is None or child_type is adverb_type:
                specified = True
                break
        if specified:
            continue
        if index > 1 and categories[index - 2] is _DETERMINER:
            continue
        if relations[index - 1] is _DETERMINER_RELATION:
            continue
        detections.append(
            ThemeDetection(
                _ADVERBIAL_ANAPHORA, (index,), ONE,
                f"unspecified {adverb_type.value} adverb "
                f"{sentence.forms[index - 1]!r}",
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


_CONNECTIVE_CATEGORIES = (Category.CONJUNCTION, Category.SUBJUNCTION)


def _connective_beside(sentence: AnnotatedSentence, under: Counter, index: int) -> bool:
    """True when a sibling of the token is a conjunction or subjunction:
    ``under``, the count of them among each head's dependents, holds one
    for its head, the token itself not counted."""
    itself = sentence.categories[index - 1] in _CONNECTIVE_CATEGORIES
    return under[sentence.heads[index - 1]] > itself


def _discourse_connective(
    sentence: AnnotatedSentence, counts: _ClauseCounts
) -> list[ThemeDetection]:
    # Conjunct-relation tokens mark second and later conjuncts, so k of
    # them imply k+1 coordinated units.
    if max(counts.finite_verbs, counts.conjuncts + 1) >= 2:
        return []
    detections: list[ThemeDetection] = []
    heads = sentence.heads
    under: Optional[Counter] = None
    for index, relation in enumerate(sentence.relations, start=1):
        if relation is not _CONJUNCTIONAL_ADVERBIAL:
            continue
        if under is None:  # once per sentence, not per adverbial and sibling
            under = Counter(
                head
                for head, category in zip(heads, sentence.categories)
                if category in _CONNECTIVE_CATEGORIES
            )
        if _connective_beside(sentence, under, index):
            continue
        head = heads[index - 1]
        if head > 0 and _connective_beside(sentence, under, head):
            continue
        detections.append(
            ThemeDetection(
                _DISCOURSE_CONNECTIVE, (index,), ONE,
                f"conjunctional adverbial {sentence.forms[index - 1]!r} "
                "with no coordination inside the sentence",
            )
        )
    return detections


def _completed_pair_present(
    sentence: AnnotatedSentence, lexicons: LexiconSet, root: int
) -> bool:
    lemmas = sentence.lower_lemmas
    lemma = lemmas[root - 1]
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
    """Both checks need a token of category conjunction, the root or the
    first content token, so a sentence with none returns at once."""
    categories = sentence.categories
    if _CONJUNCTION not in categories:
        return []
    detections: list[ThemeDetection] = []
    forms = sentence.forms
    root = _first_root(sentence)
    if (
        categories[root - 1] is _CONJUNCTION
        and not _completed_pair_present(sentence, lexicons, root)
    ):
        detections.append(
            ThemeDetection(
                _STRUCTURAL_CONNECTIVE, (root,), ONE,
                f"conjunction {forms[root - 1]!r} is the dependency root",
            )
        )
    first = _first_content_index(sentence)
    if (
        first is not None
        and categories[first - 1] is _CONJUNCTION
        and max(counts.finite_verbs, counts.conjuncts) < 2
        and all(d.token_indices != (first,) for d in detections)
    ):
        detections.append(
            ThemeDetection(
                _STRUCTURAL_CONNECTIVE, (first,), ONE,
                f"sentence-initial conjunction {forms[first - 1]!r} with nothing "
                "to coordinate inside the sentence",
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
    categories = sentence.categories
    offset = 1 if categories[0] is _MINOR_DELIMITER else 0
    if len(categories) <= offset:
        return []
    category = categories[offset]
    if (
        category is _INTERJECTION
        and sentence.lower_lemmas[offset] in lexicons.yes_no_interjections
    ):
        return [
            ThemeDetection(
                _CLOSED_QUESTION_ANSWER, (offset + 1,), ONE,
                "sentence-initial yes/no interjection "
                f"{sentence.forms[offset]!r}",
            )
        ]
    if (
        offset == 1
        and category is _ADVERB
        and len(categories) > 2
        and categories[2] is _MINOR_DELIMITER
    ):
        return [
            ThemeDetection(
                _CLOSED_QUESTION_ANSWER, (offset + 1,), ONE,
                f"sentence-initial adverb {sentence.forms[offset]!r} "
                "enclosed between minor delimiters",
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


# one entry per subset of the implemented themes
@lru_cache(maxsize=2 ** len(IMPLEMENTED_THEMES))
def _rule_plan(enabled: frozenset[Theme]) -> tuple[tuple[Theme, Callable], ...]:
    """The enabled themes' rules, in theme order."""
    return tuple((theme, _RULES[theme]) for theme in IMPLEMENTED_THEMES if theme in enabled)


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
    weights = config.weights
    counts = _clause_counts(sentence)
    detections: list[ThemeDetection] = []
    for theme, rule in _rule_plan(config.enabled):
        found = rule(sentence, lexicons, counts)
        if found:
            override = weights.get(theme) if weights else None
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
