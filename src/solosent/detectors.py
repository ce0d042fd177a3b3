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
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional

from .assessment import Assessment, make_assessment
from .lexicons import LexiconSet
from .model import (
    FINITE_VERB_FORMS,
    AnnotatedSentence,
    Category,
    Gender,
    MorphFeatures,
    Number,
    Relation,
    VerbForm,
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
    sorted; it is empty for whole-sentence defects such as a missing verb.
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
        # any set will do; the rule plan is cached on the frozen one
        object.__setattr__(self, "enabled", frozenset(self.enabled))
        # the weights checked below are the weights used: a copy the caller cannot change
        object.__setattr__(self, "weights", dict(self.weights))
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
    return head > 0 and sentence.categories[head - 1] is Category.VERB


def _in_verb_group(sentence: AnnotatedSentence, index: int) -> bool:
    """True when the token directly governs, or is governed by, a verb."""
    if _governed_by_verb(sentence, index):
        return True
    categories = sentence.categories
    return any(
        categories[child - 1] is Category.VERB
        for child in sentence.dependents.get(index, ())
    )


def _is_finite_verb(sentence: AnnotatedSentence, index: int) -> bool:
    """Finite verb test for a token of category verb, with the modal restriction.

    A verb is finite when its form is present, past or imperative.  A
    modal only counts inside a verb group: a finite modal with no verb
    above or below it means the lexical verb was elided.
    """
    if sentence.features[index - 1].verb_form not in FINITE_VERB_FORMS:
        return False
    if sentence.modal_flags[index - 1] and not _in_verb_group(sentence, index):
        return False
    return True


class _ClauseCounts(NamedTuple):
    """Counts three rules share; detect_all takes them once per sentence."""

    finite_verbs: int
    conjuncts: int


def _clause_counts(sentence: AnnotatedSentence) -> _ClauseCounts:
    finite_verbs = 0
    for index, category in enumerate(sentence.categories, start=1):
        if category is Category.VERB and _is_finite_verb(sentence, index):
            finite_verbs += 1
    return _ClauseCounts(finite_verbs, sentence.relations.count(Relation.CONJUNCT))


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
        first_char = next((ch for ch in form if ch.isalpha() or ch.isdigit()), None)
        if first_char is None:
            continue
        if first_char.islower():
            detections.append(
                ThemeDetection(
                    theme=Theme.INCOMPLETE,
                    token_indices=(index,),
                    weight=ONE,
                    rationale=f"sentence starts with lowercase {form!r}",
                )
            )
        break

    if sentence.categories[-1] is not Category.MAJOR_DELIMITER:
        detections.append(
            ThemeDetection(
                theme=Theme.INCOMPLETE,
                token_indices=(),
                weight=ONE,
                rationale=f"sentence does not end in a major delimiter (last token {forms[-1]!r})",
            )
        )
    return detections


def _main_verb(sentence: AnnotatedSentence) -> Optional[int]:
    categories = sentence.categories
    root = sentence.roots[0]
    if categories[root - 1] is Category.VERB:
        return root
    for index, category in enumerate(categories, start=1):
        if category is Category.VERB:
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
                if category is Category.VERB
                and modal
                and features.verb_form in FINITE_VERB_FORMS
            ),
            None,
        )
        if lone_modal is not None:
            rationale = f"no finite verb: modal {lone_modal!r} stands alone"
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
    if _SUBJECT_RELATIONS.isdisjoint(sentence.relations):
        main = _main_verb(sentence)
        if (
            main is None
            or sentence.features[main - 1].verb_form is not VerbForm.IMPERATIVE
        ):
            detections.append(
                ThemeDetection(
                    theme=Theme.IMPLICIT_ANAPHORA,
                    token_indices=(),
                    weight=ONE,
                    rationale="no subject and the main verb is not imperative",
                )
            )
    return detections


def _features_compatible(pronoun: MorphFeatures, noun: MorphFeatures) -> bool:
    pg, ng = pronoun.gender, noun.gender
    if Gender.UNSPECIFIED not in (pg, ng) and pg is not ng:
        return False
    pn, nn = pronoun.number, noun.number
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
    if pronoun_index < 1 or pronoun_index > len(sentence):
        raise ValueError(f"no token at index {pronoun_index}")
    categories, features = sentence.categories, sentence.features
    if categories[pronoun_index - 1] is not Category.PRONOUN:
        form = sentence.forms[pronoun_index - 1]
        raise ValueError(f"token {pronoun_index} ({form!r}) is not a pronoun")
    pronoun = features[pronoun_index - 1]
    count = 0
    for index in range(1, pronoun_index):
        if categories[index - 1] in (Category.NOUN, Category.PROPER_NOUN):
            if _features_compatible(pronoun, features[index - 1]):
                count += 1
    if sentence.lower_lemmas[pronoun_index - 1] == "det":
        for index in range(1, pronoun_index):
            if categories[index - 1] is Category.INFINITIVE_MARKER:
                if _governed_by_verb(sentence, index):
                    count += 1
                    break
    return count


_SOM_RELATIONS = (Relation.RELATIVE_CLAUSE_MARKER, Relation.SUBORDINATOR)


class _TreePasses(NamedTuple):
    """Answers for every token of a sentence."""

    # the nearest verb above each token, by index, or 0 for none
    verb_above: list[int]
    # whether each token's subtree, the token excluded, holds a som-relative
    som_below: list[bool]


def _tree_passes(sentence: AnnotatedSentence) -> _TreePasses:
    """One top-down and one bottom-up pass over the tree, in the order
    the reader's tree check left in ``sentence.order``."""
    heads, categories = sentence.heads, sentence.categories
    lemmas, relations = sentence.lower_lemmas, sentence.relations
    verb_above = [0] * (len(heads) + 1)
    for index in sentence.order:
        head = heads[index - 1]
        if head:
            verb_above[index] = (
                head if categories[head - 1] is Category.VERB else verb_above[head]
            )
    som_below = [False] * (len(heads) + 1)
    for index in reversed(sentence.order):
        if som_below[index] or (
            lemmas[index - 1] == "som" and relations[index - 1] in _SOM_RELATIONS
        ):
            som_below[heads[index - 1]] = True
    return _TreePasses(verb_above, som_below)


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

    When a pronoun needs the verb above it or a som-relative below it,
    both are answered for every token at once, by one pass down and one
    up the tree.  The candidates are counted as
    count_antecedent_candidates counts them, from running tallies: the
    tokens left of each reported pronoun are tallied once, carried on from
    the previous one, so the count costs one pass over the sentence, not
    one per pronoun.
    """
    categories, relations = sentence.categories, sentence.relations
    features, lemmas = sentence.features, sentence.lower_lemmas
    if lexicons.anaphoric_pronouns.isdisjoint(lemmas):
        return []
    # the exemptions that look along the tree need a weather verb or a som
    weather = not lexicons.weather_verbs.isdisjoint(lemmas)
    som = "som" in lemmas
    passes: Optional[_TreePasses] = None
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
        if categories[index - 1] is not Category.PRONOUN:
            continue
        if relations[index - 1] is Relation.EXPLETIVE:
            continue
        if passes is None and (som or weather and lemma == "det"):
            passes = _tree_passes(sentence)
        if lemma == "det" and weather:
            verb = passes.verb_above[index]
            if verb and lemmas[verb - 1] in lexicons.weather_verbs:
                continue
        if som and (
            (index < len(lemmas) and lemmas[index] == "som") or passes.som_below[index]
        ):
            continue
        for left in range(tallied + 1, index):
            category = categories[left - 1]
            if category is Category.NOUN or category is Category.PROPER_NOUN:
                noun = features[left - 1]
                cell = (noun.gender, noun.number)
                if cell in nouns:
                    nouns[cell][1] += 1
                else:
                    nouns[cell] = [noun, 1]
            elif category is Category.INFINITIVE_MARKER and not marked_infinitive:
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
                theme=Theme.PRONOMINAL_ANAPHORA,
                token_indices=(index,),
                weight=weight,
                rationale=(
                    f"anaphoric pronoun {sentence.forms[index - 1]!r} with "
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
    categories, relations = sentence.categories, sentence.relations
    lemmas, dependents = sentence.lower_lemmas, sentence.dependents
    adverbs = lexicons.anaphoric_adverbs
    if adverbs.keys().isdisjoint(lemmas):
        return detections
    for index, lemma in enumerate(lemmas, start=1):
        adverb_type = adverbs.get(lemma)
        if adverb_type is None or categories[index - 1] is not Category.ADVERB:
            continue
        specified = False
        for child in dependents.get(index, ()):
            if relations[child - 1] is not Relation.ADVERBIAL:
                continue
            child_type = adverbs.get(lemmas[child - 1])
            if child_type is None or child_type is adverb_type:
                specified = True
                break
        if specified:
            continue
        if index > 1 and categories[index - 2] is Category.DETERMINER:
            continue
        if relations[index - 1] is Relation.DETERMINER:
            continue
        detections.append(
            ThemeDetection(
                theme=Theme.ADVERBIAL_ANAPHORA,
                token_indices=(index,),
                weight=ONE,
                rationale=(
                    f"unspecified {adverb_type.value} adverb "
                    f"{sentence.forms[index - 1]!r}"
                ),
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


def _connective_beside(sentence: AnnotatedSentence, index: int) -> bool:
    """True when a sibling of the token is a conjunction or subjunction."""
    categories = sentence.categories
    return any(
        sibling != index and categories[sibling - 1] in _CONNECTIVE_CATEGORIES
        for sibling in sentence.dependents[sentence.heads[index - 1]]
    )


def _discourse_connective(
    sentence: AnnotatedSentence, counts: _ClauseCounts
) -> list[ThemeDetection]:
    # Conjunct-relation tokens mark second and later conjuncts, so k of
    # them imply k+1 coordinated units.
    if max(counts.finite_verbs, counts.conjuncts + 1) >= 2:
        return []
    detections: list[ThemeDetection] = []
    heads = sentence.heads
    for index, relation in enumerate(sentence.relations, start=1):
        if relation is not Relation.CONJUNCTIONAL_ADVERBIAL:
            continue
        if _connective_beside(sentence, index):
            continue
        head = heads[index - 1]
        if head > 0 and _connective_beside(sentence, head):
            continue
        detections.append(
            ThemeDetection(
                theme=Theme.DISCOURSE_CONNECTIVE,
                token_indices=(index,),
                weight=ONE,
                rationale=(
                    f"conjunctional adverbial {sentence.forms[index - 1]!r} "
                    "with no coordination inside the sentence"
                ),
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
    detections: list[ThemeDetection] = []
    categories, forms = sentence.categories, sentence.forms
    root = sentence.roots[0]
    if (
        categories[root - 1] is Category.CONJUNCTION
        and not _completed_pair_present(sentence, lexicons, root)
    ):
        detections.append(
            ThemeDetection(
                theme=Theme.STRUCTURAL_CONNECTIVE,
                token_indices=(root,),
                weight=ONE,
                rationale=f"conjunction {forms[root - 1]!r} is the dependency root",
            )
        )
    first = _first_content_index(sentence)
    if (
        first is not None
        and categories[first - 1] is Category.CONJUNCTION
        and max(counts.finite_verbs, counts.conjuncts) < 2
        and all(d.token_indices != (first,) for d in detections)
    ):
        detections.append(
            ThemeDetection(
                theme=Theme.STRUCTURAL_CONNECTIVE,
                token_indices=(first,),
                weight=ONE,
                rationale=(
                    f"sentence-initial conjunction {forms[first - 1]!r} with nothing "
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
    categories = sentence.categories
    offset = 1 if categories[0] is Category.MINOR_DELIMITER else 0
    if len(categories) <= offset:
        return []
    category = categories[offset]
    if (
        category is Category.INTERJECTION
        and sentence.lower_lemmas[offset] in lexicons.yes_no_interjections
    ):
        return [
            ThemeDetection(
                theme=Theme.CLOSED_QUESTION_ANSWER,
                token_indices=(offset + 1,),
                weight=ONE,
                rationale=(
                    "sentence-initial yes/no interjection "
                    f"{sentence.forms[offset]!r}"
                ),
            )
        ]
    if (
        offset == 1
        and category is Category.ADVERB
        and len(categories) > 2
        and categories[2] is Category.MINOR_DELIMITER
    ):
        return [
            ThemeDetection(
                theme=Theme.CLOSED_QUESTION_ANSWER,
                token_indices=(offset + 1,),
                weight=ONE,
                rationale=(
                    f"sentence-initial adverb {sentence.forms[offset]!r} "
                    "enclosed between minor delimiters"
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
