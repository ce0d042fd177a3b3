"""Data model for dependency-annotated sentences.

Tokens arrive pre-annotated (POS, dependency relation, morphology) from an
external parser; nothing in this package tags or parses raw text.  Raw tag
strings are kept verbatim on each token.  A tagset profile (profiles.py) maps
them onto the small abstract vocabulary the rules reason over, producing
AnnotatedSentence values.

An AnnotatedSentence is laid out in columns: it keeps the raw Token tuple
and, parallel to it, one tuple per annotation (categories, relations,
features, modal flags, lowercased lemmas), plus a tree index of
token indices.  AnnotatedToken objects are views of one position in those
columns, built on demand for the public API; the detectors read the
columns and never build them.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from enum import Enum, unique
from typing import Generic, Iterable, Iterator, Optional, TypeVar


@unique
class Category(str, Enum):
    """Abstract word category, the profile-independent face of a POS tag."""

    NOUN = "noun"
    PROPER_NOUN = "proper_noun"
    PRONOUN = "pronoun"
    DETERMINER = "determiner"
    VERB = "verb"
    ADVERB = "adverb"
    CONJUNCTION = "conjunction"
    SUBJUNCTION = "subjunction"
    INTERJECTION = "interjection"
    INFINITIVE_MARKER = "infinitive_marker"
    MAJOR_DELIMITER = "major_delimiter"
    MINOR_DELIMITER = "minor_delimiter"
    OTHER = "other"


@unique
class Relation(str, Enum):
    """Abstract dependency relation, the profile-independent face of a deprel."""

    ROOT = "root"
    SUBJECT = "subject"
    LOGICAL_SUBJECT = "logical_subject"
    EXPLETIVE = "expletive"
    OBJECT = "object"
    CONJUNCT = "conjunct"
    COORDINATOR = "coordinator"
    SUBORDINATOR = "subordinator"
    CONJUNCTIONAL_ADVERBIAL = "conjunctional_adverbial"
    ADVERBIAL = "adverbial"
    RELATIVE_CLAUSE_MARKER = "relative_clause_marker"
    INFINITIVE_MARKER = "infinitive_marker"
    DETERMINER = "determiner"
    OTHER = "other"


@unique
class Gender(str, Enum):
    COMMON = "common"
    NEUTER = "neuter"
    UNSPECIFIED = "unspecified"


@unique
class Number(str, Enum):
    SINGULAR = "singular"
    PLURAL = "plural"
    UNSPECIFIED = "unspecified"


@unique
class VerbForm(str, Enum):
    FINITE_PRESENT = "finite_present"
    FINITE_PAST = "finite_past"
    IMPERATIVE = "imperative"
    INFINITIVE = "infinitive"
    SUPINE = "supine"
    PARTICIPLE = "participle"
    UNSPECIFIED = "unspecified"


@unique
class Definiteness(str, Enum):
    DEFINITE = "definite"
    INDEFINITE = "indefinite"
    UNSPECIFIED = "unspecified"


FINITE_VERB_FORMS = frozenset(
    {VerbForm.FINITE_PRESENT, VerbForm.FINITE_PAST, VerbForm.IMPERATIVE}
)


@dataclass(frozen=True)
class MorphFeatures:
    """Decoded morphology; every field defaults to unspecified."""

    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    verb_form: VerbForm = VerbForm.UNSPECIFIED
    definiteness: Definiteness = Definiteness.UNSPECIFIED


NO_FEATURES = MorphFeatures()


class StructureError(Exception):
    """A token list does not form a well-shaped dependency graph.

    A reader that knows where the sentence starts sets ``line_number``.
    """

    def __init__(self, sentence_id: str, message: str) -> None:
        super().__init__(f"sentence {sentence_id!r}: {message}")
        self.sentence_id = sentence_id
        self.line_number: Optional[int] = None


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One token of a parsed sentence, raw annotations preserved.

    ``head`` is the 1-based index of the governing token, 0 for the root.
    ``feats`` is the raw morphology string exactly as the source had it;
    decoding into MorphFeatures happens when a profile is applied.

    Fields live in slots and the constructor stores them directly, since a
    corpus builds one Token per row.
    """

    index: int
    form: str
    lemma: str
    pos: str
    deprel: str
    head: int
    feats: str = ""

    def __init__(
        self,
        index: int,
        form: str,
        lemma: str,
        pos: str,
        deprel: str,
        head: int,
        feats: str = "",
    ) -> None:
        if index < 1:
            raise ValueError(f"token index must be >= 1, got {index}")
        if head < 0:
            raise ValueError(f"token head must be >= 0, got {head}")
        if head == index:
            raise ValueError(f"token {index} may not head itself")
        if not form:
            raise ValueError(f"token {index} has an empty form")
        _set_index(self, index)
        _set_form(self, form)
        _set_lemma(self, lemma)
        _set_pos(self, pos)
        _set_deprel(self, deprel)
        _set_head(self, head)
        _set_feats(self, feats)


# the slot descriptors' setters, which a frozen class's __setattr__ refuses
_set_index = Token.index.__set__
_set_form = Token.form.__set__
_set_lemma = Token.lemma.__set__
_set_pos = Token.pos.__set__
_set_deprel = Token.deprel.__set__
_set_head = Token.head.__set__
_set_feats = Token.feats.__set__


@dataclass(frozen=True)
class SourceRef:
    """Provenance of a sentence: which corpus and, optionally, which document."""

    corpus: str
    document: Optional[str] = None


def validate_tokens(sentence_id: str, tokens: tuple[Token, ...]) -> None:
    """Reject token lists that break the sentence-level invariants.

    Checks that indices are contiguous from 1, that every head points at an
    existing token (or 0), and that following head links never loops; a
    loop is reported through the first token, in index order, whose chain
    never reaches 0.  Used by the parsers; directly constructed Sentence
    values may skip it.
    """
    if not tokens:
        raise StructureError(sentence_id, "no tokens")
    for expected, token in enumerate(tokens, start=1):
        if token.index != expected:
            raise StructureError(
                sentence_id,
                f"token indices not contiguous: expected {expected}, got {token.index}",
            )
    n = len(tokens)
    for token in tokens:
        if token.head > n:
            raise StructureError(
                sentence_id,
                f"token {token.index} has head {token.head} outside the sentence",
            )
    # rooted[i]: token i's chain is known to reach 0.  Each walk stops at
    # the first such token and marks its path, so every token is walked
    # through once; a walk longer than n steps has met a loop.
    rooted = [False] * (n + 1)
    rooted[0] = True
    for token in tokens:
        path = []
        current = token.index
        while not rooted[current]:
            if len(path) == n:
                raise StructureError(
                    sentence_id, f"cyclic head chain through token {token.index}"
                )
            path.append(current)
            current = tokens[current - 1].head
        for index in path:
            rooted[index] = True


_T = TypeVar("_T")


class _TokenSequence(Generic[_T]):
    """What Sentence and AnnotatedSentence share: tokens indexed from 1.

    A subclass has a ``tokens`` tuple.  This base has no ``__slots__``, so
    a subclass keeps its instance dict.
    """

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[_T]:
        return iter(self.tokens)

    def token(self, index: int) -> _T:
        """Return the token with the given 1-based index."""
        return self.tokens[index - 1]

    @property
    def text(self) -> str:
        return " ".join(t.form for t in self.tokens)


@dataclass(frozen=True)
class Sentence(_TokenSequence[Token]):
    """A dependency-parsed sentence with raw annotations.

    ``source`` is provenance metadata and deliberately excluded from
    equality: the same annotations fetched from a corpus service or read
    from a file compare equal.
    """

    id: str
    tokens: tuple[Token, ...]
    source: Optional[SourceRef] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))


def _token_field(name: str) -> property:
    """A read-only view of ``token.<name>``; a read runs no Python frame."""
    return property(operator.attrgetter(f"token.{name}"), doc=f"``token.{name}``")


@dataclass(frozen=True, slots=True, init=False)
class AnnotatedToken:
    """A token plus the abstract annotations a profile assigned to it."""

    token: Token
    category: Category
    relation: Relation
    features: MorphFeatures = NO_FEATURES
    is_modal: bool = False

    def __init__(
        self,
        token: Token,
        category: Category,
        relation: Relation,
        features: MorphFeatures = NO_FEATURES,
        is_modal: bool = False,
    ) -> None:
        _set_token(self, token)
        _set_category(self, category)
        _set_relation(self, relation)
        _set_features(self, features)
        _set_is_modal(self, is_modal)

    index = _token_field("index")
    form = _token_field("form")
    lemma = _token_field("lemma")
    pos = _token_field("pos")
    deprel = _token_field("deprel")
    head = _token_field("head")


# the slot setters of AnnotatedToken, used as those of Token are
_set_token = AnnotatedToken.token.__set__
_set_category = AnnotatedToken.category.__set__
_set_relation = AnnotatedToken.relation.__set__
_set_features = AnnotatedToken.features.__set__
_set_is_modal = AnnotatedToken.is_modal.__set__


# the fields of an AnnotatedSentence, in the order _from_columns takes them
_FIELDS = (
    "id", "profile", "source", "raw_tokens", "categories", "relations",
    "features", "modal_flags", "lower_lemmas", "dependents", "roots",
)


class AnnotatedSentence(_TokenSequence[AnnotatedToken]):
    """A sentence whose tokens carry abstract categories and relations.

    Per-token data lives in columns, tuples in surface order, parallel to
    ``raw_tokens``, the Sentence's own Token tuple, shared rather than
    copied: ``categories``, ``relations``, ``features``, ``modal_flags``
    and ``lower_lemmas`` (each lemma lowercased).  Next to them is the
    tree index, in 1-based token indices: ``dependents`` maps each head a
    token names to the tokens that name it, in surface order, and
    ``roots`` holds the tokens with relation root or head 0.  A token's
    index is its position: the token at index i is ``raw_tokens[i - 1]``.
    All of it is read-only, as the sentence is.

    ``tokens`` is a tuple of AnnotatedToken views of the columns, built on
    its first read and cached in the instance dict.  The tree queries
    answer with views; the detectors read the columns and the index, and
    never build a view.

    apply_profile fills the columns and the index in one loop.  A sentence
    constructed from AnnotatedTokens derives the same columns and index
    from them, so both kinds are read the same way.  The index is keyed by
    the heads as they are, so hand-built sentences with out-of-range or
    cyclic heads answer exactly as a scan of the tokens would.

    Equality and the hash cover the id, the profile name and the columns,
    which is to say the tokens; ``source`` is provenance and excluded, as
    in Sentence.
    """

    id: str
    profile: str
    source: Optional[SourceRef]
    raw_tokens: tuple[Token, ...]
    categories: tuple[Category, ...]
    relations: tuple[Relation, ...]
    features: tuple[MorphFeatures, ...]
    modal_flags: tuple[bool, ...]
    lower_lemmas: tuple[str, ...]
    dependents: dict[int, tuple[int, ...]]
    roots: tuple[int, ...]

    def __init__(
        self,
        id: str,
        tokens: Iterable[AnnotatedToken],
        profile: str,
        source: Optional[SourceRef] = None,
    ) -> None:
        tokens = tuple(tokens)
        raw_tokens = tuple(t.token for t in tokens)
        relations = tuple(t.relation for t in tokens)
        groups: dict[int, list[int]] = {}
        for index, token in enumerate(raw_tokens, start=1):
            groups.setdefault(token.head, []).append(index)
        columns = (
            id,
            profile,
            source,
            raw_tokens,
            tuple(t.category for t in tokens),
            relations,
            tuple(t.features for t in tokens),
            tuple(t.is_modal for t in tokens),
            tuple(t.lemma.lower() for t in raw_tokens),
            {head: tuple(group) for head, group in groups.items()},
            tuple(
                index
                for index, (token, relation) in enumerate(zip(raw_tokens, relations), start=1)
                if token.head == 0 or relation is Relation.ROOT
            ),
        )
        self.__dict__.update(zip(_FIELDS, columns), tokens=tokens)

    @classmethod
    def _from_columns(cls, *columns) -> AnnotatedSentence:
        """A sentence holding the given fields, in the order of ``_FIELDS``,
        made without running __init__."""
        sentence = object.__new__(cls)
        sentence.__dict__.update(zip(_FIELDS, columns))
        return sentence

    @cached_property
    def tokens(self) -> tuple[AnnotatedToken, ...]:
        """AnnotatedToken views of the columns, in surface order."""
        return tuple(
            map(
                AnnotatedToken,
                self.raw_tokens,
                self.categories,
                self.relations,
                self.features,
                self.modal_flags,
            )
        )

    def _key(self) -> tuple:
        return (
            self.id,
            self.raw_tokens,
            self.categories,
            self.relations,
            self.features,
            self.modal_flags,
            self.profile,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(id={self.id!r}, tokens={self.tokens!r}, "
            f"profile={self.profile!r}, source={self.source!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.raw_tokens)

    @property
    def text(self) -> str:
        return " ".join(t.form for t in self.raw_tokens)

    def head_token(self, index: int) -> Optional[AnnotatedToken]:
        """The governing token, or None for roots and out-of-range heads."""
        head = self.raw_tokens[index - 1].head
        if head < 1 or head > len(self.raw_tokens):
            return None
        return self.tokens[head - 1]

    def children(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Tokens directly governed by the token at ``index``."""
        tokens = self.tokens
        return tuple(tokens[i - 1] for i in self.dependents.get(index, ()))

    def siblings(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Tokens sharing a head with the token at ``index``, itself excluded."""
        tokens = self.tokens
        group = self.dependents[self.raw_tokens[index - 1].head]
        return tuple(tokens[i - 1] for i in group if i != index)

    def descendant_indices(self, index: int) -> list[int]:
        """The indices of every token in the subtree under ``index``, in
        surface order; a walk that meets a token twice takes it once."""
        dependents = self.dependents
        inside = {index}
        frontier = [index]
        while frontier:
            for child in dependents.get(frontier.pop(), ()):
                if child not in inside:
                    inside.add(child)
                    frontier.append(child)
        inside.discard(index)
        return sorted(inside)

    def descendants(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Every token in the subtree under ``index``, in surface order."""
        tokens = self.tokens
        return tuple(tokens[i - 1] for i in self.descendant_indices(index))

    def root_tokens(self) -> tuple[AnnotatedToken, ...]:
        """Tokens that act as the dependency root (relation root or head 0)."""
        tokens = self.tokens
        return tuple(tokens[i - 1] for i in self.roots)
