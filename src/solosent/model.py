"""Data model for dependency-annotated sentences.

Tokens arrive pre-annotated (POS, dependency relation, morphology) from an
external parser; nothing in this package tags or parses raw text.  Raw tag
strings are kept verbatim.  A tagset profile (profiles.py) maps them onto
the small abstract vocabulary the rules reason over, producing
AnnotatedSentence values.

Sentences are laid out in columns, as spaCy lays out its Doc: a Sentence
holds one tuple per raw field and a tree index of token indices, and an
AnnotatedSentence is a Sentence that shares those and adds one tuple per
annotation.  Both are frozen dataclasses.  Token and AnnotatedToken
objects are views of one position in the columns, built on demand for
the public API; the readers fill columns and the detectors read them, so
neither builds a view.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum, unique
from typing import Iterable, Iterator, Optional, Sequence


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
    CONJUNCT = "conjunct"
    SUBORDINATOR = "subordinator"
    CONJUNCTIONAL_ADVERBIAL = "conjunctional_adverbial"
    ADVERBIAL = "adverbial"
    RELATIVE_CLAUSE_MARKER = "relative_clause_marker"
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
    FINITE = "finite"
    IMPERATIVE = "imperative"
    UNSPECIFIED = "unspecified"


# The members that per-token code reads (AnnotatedSentence, and
# profiles and detectors, which import them), bound once and read as
# module globals.  On Python 3.10 and 3.11 the enum metaclass defines
# __getattr__, which makes a read through the class (Category.VERB)
# about five times dearer than a global's (135 against 25 ns on 3.11);
# 3.12 dropped the hook.
_VERB, _NOUN, _PROPER_NOUN = Category.VERB, Category.NOUN, Category.PROPER_NOUN
_PRONOUN, _DETERMINER, _ADVERB = Category.PRONOUN, Category.DETERMINER, Category.ADVERB
_CONJUNCTION, _INTERJECTION = Category.CONJUNCTION, Category.INTERJECTION
_INFINITIVE_MARKER, _OTHER_CATEGORY = Category.INFINITIVE_MARKER, Category.OTHER
_MAJOR_DELIMITER, _MINOR_DELIMITER = Category.MAJOR_DELIMITER, Category.MINOR_DELIMITER
_ROOT, _CONJUNCT, _EXPLETIVE = Relation.ROOT, Relation.CONJUNCT, Relation.EXPLETIVE
_ADVERBIAL, _CONJUNCTIONAL_ADVERBIAL = Relation.ADVERBIAL, Relation.CONJUNCTIONAL_ADVERBIAL
_DETERMINER_RELATION, _OTHER_RELATION = Relation.DETERMINER, Relation.OTHER
_IMPERATIVE = VerbForm.IMPERATIVE
_UNSPECIFIED_GENDER, _UNSPECIFIED_NUMBER = Gender.UNSPECIFIED, Number.UNSPECIFIED

FINITE_VERB_FORMS = frozenset({VerbForm.FINITE, VerbForm.IMPERATIVE})


@dataclass(frozen=True)
class MorphFeatures:
    """Decoded morphology; every field defaults to unspecified."""

    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    verb_form: VerbForm = VerbForm.UNSPECIFIED


NO_FEATURES = MorphFeatures()


class StructureError(Exception):
    """A token list does not form a well-shaped dependency graph.

    The message names the sentence; ``reason`` is the message without it,
    for a reader whose report names the sentence already.  A reader that
    knows where the sentence starts sets ``line_number``.
    """

    def __init__(self, sentence_id: str, reason: str) -> None:
        super().__init__(f"sentence {sentence_id!r}: {reason}")
        self.sentence_id, self.reason = sentence_id, reason
        self.line_number: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Token:
    """One token of a parsed sentence, raw annotations preserved.

    ``head`` is the 1-based index of the governing token, 0 for the root.
    ``feats`` is the raw morphology string exactly as the source had it;
    decoding into MorphFeatures happens when a profile is applied.
    """

    index: int
    form: str
    lemma: str
    pos: str
    deprel: str
    head: int
    feats: str = ""

    def __post_init__(self) -> None:
        check_row(self.index, self.head, self.form)


def check_row(index: int, head: int, form: str) -> None:
    """Raise ValueError for what Token refuses in one row."""
    if index < 1:
        raise ValueError(f"token index must be >= 1, got {index}")
    if head < 0:
        raise ValueError(f"token head must be >= 0, got {head}")
    if head == index:
        raise ValueError(f"token {index} may not head itself")
    if not form:
        raise ValueError(f"token {index} has an empty form")


def read_row(index: int | str, head: str, form: str) -> int:
    """The head of one row as read from text, after check_row; ValueError
    when the row is refused.

    ``index`` is the token's id, an int or its digits.  A head is decimal
    digits only, so ``"+1"``, ``" 2"`` and ``"1_0"`` are refused, not read
    as 1, 2 and 10.  The faults come in this order: a head that is not
    digits, then an id or a head with more digits than int() converts
    (with int()'s message), then check_row's.  It is the rule that
    read_heads applies to a block's columns, and what names a block's
    first faulty row.
    """
    # isdecimal() accepts exactly the digits \d matches in a str
    if not head.isdecimal():
        raise ValueError(f"head must be a non-negative integer, got {head!r}")
    index, head = int(index), int(head)
    check_row(index, head, form)
    return head


def read_heads(
    ids: Sequence[int | str], heads: Sequence[str], forms: Sequence[str]
) -> tuple[Sequence[int], tuple[int, ...]]:
    """A block's ids and heads as ints, each row read by read_row's rule;
    ValueError for the first faulty row, its position (from 0) in the
    error's ``row``.

    ``ids`` are the token ids, one per row as ``heads`` and ``forms`` are:
    digits or non-negative ints, or a range, which is returned as it is.
    Both readers call it once per block.  A block with no faulty row is
    read a column at a time, with no Python call per row; only a faulty
    one is read row by row, through read_row, which names the first fault.
    """
    try:
        if all(map(str.isdecimal, heads)) and all(forms):
            # through a list, so that each tuple is made at its length:
            # tuple() of a map starts at 10 items and resizes, so the tuple
            # is freed to another length's free list than it came from,
            # and over a run those lists grow to 2,000 tuples each
            indices = ids if isinstance(ids, range) else tuple([*map(int, ids)])
            values = tuple([*map(int, heads)])
            if 0 not in indices and not any(map(operator.eq, values, indices)):
                return indices, values
    except ValueError:  # an id or a head with more digits than int() converts
        pass
    values = []
    for position, row in enumerate(zip(ids, heads, forms)):
        try:
            values.append(read_row(*row))
        except ValueError as exc:
            exc.row = position
            raise
    return tuple(map(int, ids)), tuple(values)


def validate_heads(
    sentence_id: str, heads: Sequence[int], indices: Optional[Sequence[int]] = None
) -> dict[int, tuple[int, ...]]:
    """Reject a sentence's head column when it is not a tree; return its
    tree index, ``dependents``, when it is.

    ``heads[i - 1]`` is the head of token i.  ``dependents`` maps each head
    to the tokens that name it, in surface order.  Checks, in this order,
    that there are tokens, that ``indices`` (the ids a reader found, when
    it passes them) run 1, 2, 3, ..., that every head is a token or 0, and
    that a walk down ``dependents`` from 0 reaches every token.  A loop is
    reported through the first token the walk misses, which is the first
    whose chain never reaches 0.
    """
    n = len(heads)
    if not n:
        raise StructureError(sentence_id, "no tokens")
    if indices is not None and tuple(indices) != tuple(range(1, n + 1)):
        expected, got = next(p for p in enumerate(indices, start=1) if p[0] != p[1])
        raise StructureError(
            sentence_id, f"token indices not contiguous: expected {expected}, got {got}"
        )
    if max(heads) > n:
        index, head = next(p for p in enumerate(heads, start=1) if p[1] > n)
        raise StructureError(sentence_id, f"token {index} has head {head} outside the sentence")
    groups: dict[int, list[int]] = {}
    index = 0
    for head in heads:
        index += 1
        group = groups.get(head)
        if group is None:
            groups[head] = [index]
        else:
            group.append(index)
    reached = list(groups.get(0, ()))
    for index in reached:  # the loop reads what it appends
        if index in groups:
            reached += groups[index]
    if len(reached) < n:
        index = min(set(range(1, n + 1)).difference(reached))
        raise StructureError(sentence_id, f"cyclic head chain through token {index}")
    return {head: tuple(group) for head, group in groups.items()}


# The raw columns, one per Token field after the index and in the same
# order, so that a row of them is a Token's arguments after its index.
RAW_COLUMNS = ("forms", "lemmas", "tags", "deprels", "heads", "feats")
raw_columns = operator.attrgetter(*RAW_COLUMNS)
# a Token's row: its fields after the index, one per raw column
row_of = operator.attrgetter("form", "lemma", "pos", "deprel", "head", "feats")


def _token_views(sentence: Sentence) -> tuple[Token, ...]:
    """Token views of the raw columns, in surface order."""
    return tuple(map(Token, range(1, len(sentence) + 1), *raw_columns(sentence)))


@dataclass(frozen=True, init=False, repr=False)
class Sentence:
    """A dependency-parsed sentence with raw annotations, held in columns.

    The raw columns are RAW_COLUMNS, tokens indexed from 1: the token at
    index i has ``forms[i - 1]``, ``heads[i - 1]`` and so on.  Next to
    them sits the tree index validate_heads returns, ``dependents``, each
    head's tokens in surface order.  The readers fill the fields through
    ``_from_columns`` and build no Token; ``tokens`` is a tuple of Token
    views of the columns, built on its first read and cached in the
    instance dict.  A sentence constructed from Tokens derives its
    columns from them and keeps the tuple as its ``tokens``; a token
    whose index is not its 1-based position is refused with ValueError,
    so the columns hold all of it.
    The heads must form a tree with at least one token, as the readers
    require: validate_heads refuses anything else with StructureError.

    Equality and the hash cover the id and the columns; the index is
    derived from the heads and excluded.
    """

    id: str
    forms: tuple[str, ...]
    lemmas: tuple[str, ...]
    tags: tuple[str, ...]
    deprels: tuple[str, ...]
    heads: tuple[int, ...]
    feats: tuple[str, ...]
    dependents: dict[int, tuple[int, ...]] = field(compare=False)

    _REPR = ("id", "tokens")

    def __init__(self, id: str, tokens: Iterable[Token]):
        tokens = tuple(tokens)
        for position, token in enumerate(tokens, start=1):
            if token.index != position:
                raise ValueError(f"token at position {position} has index {token.index}: {token!r}")
        columns = tuple(zip(*map(row_of, tokens))) or ((),) * len(RAW_COLUMNS)
        dependents = validate_heads(id, columns[4])
        # a subclass's own fields follow these, so zip stops before them
        self.__dict__.update(
            zip(self.__dataclass_fields__, (id, *columns, dependents)), tokens=tokens
        )

    @classmethod
    def _from_columns(cls, *columns):
        """A sentence holding the given fields, in the order they are
        declared, made without running __init__."""
        sentence = object.__new__(cls)
        sentence.__dict__.update(zip(cls.__dataclass_fields__, columns))
        return sentence

    tokens = cached_property(_token_views)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._REPR)
        return f"{type(self).__qualname__}({fields})"

    def __len__(self) -> int:
        return len(self.heads)

    def __iter__(self) -> Iterator:
        return iter(self.tokens)

    def _position(self, index: int) -> int:
        """The column position of the token at ``index``; IndexError unless
        ``index`` is in 1..len."""
        if not 0 < index <= len(self.heads):
            raise IndexError(f"no token at index {index}")
        return index - 1

    def token(self, index: int):
        """Return the token with the given 1-based index, from ``tokens``."""
        return self.tokens[self._position(index)]

    @property
    def text(self) -> str:
        return " ".join(self.forms)


def _token_field(name: str) -> property:
    """A read-only view of ``token.<name>``; a read runs no Python frame."""
    return property(operator.attrgetter(f"token.{name}"), doc=f"``token.{name}``")


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    """A token plus the abstract annotations a profile assigned to it."""

    token: Token
    category: Category
    relation: Relation
    features: MorphFeatures = NO_FEATURES
    is_modal: bool = False

    index = _token_field("index")
    form = _token_field("form")
    lemma = _token_field("lemma")
    pos = _token_field("pos")
    deprel = _token_field("deprel")
    head = _token_field("head")


# an AnnotatedToken's annotations, in the order of the annotation columns
_annotations_of = operator.attrgetter("category", "relation", "features", "is_modal")


@dataclass(frozen=True, init=False, repr=False)
class AnnotatedSentence(Sentence):
    """A sentence whose tokens carry abstract categories and relations.

    It is the Sentence it annotates plus the profile's name and one tuple
    per annotation, parallel to the columns: ``categories``,
    ``relations``, ``features``, ``modal_flags`` and ``lower_lemmas``
    (each lemma lowercased).  The raw columns and the tree index,
    ``dependents``, are those of the Sentence, the same objects rather
    than copies.  The roots, the tokens with relation root or head 0, are
    not stored: root_tokens scans the columns for them.

    ``raw_tokens`` and ``tokens`` are tuples of Token and AnnotatedToken
    views of the columns, built on their first read and cached in the
    instance dict.  The tree queries answer with views; the detectors
    read the columns and the index, and never build a view.

    apply_profile fills the annotations in one loop.  A sentence
    constructed from AnnotatedTokens derives the same columns and index
    from them, so both kinds are read the same way.  Its Sentence part
    refuses heads that are no tree, so some token has head 0 and there
    is always a root.

    Equality and the hash add the profile name and the annotations to
    what Sentence compares, which is to say they cover the tokens;
    ``lower_lemmas`` is derived and excluded.  A sentence never equals
    its annotated form.
    """

    profile: str
    categories: tuple[Category, ...]
    relations: tuple[Relation, ...]
    features: tuple[MorphFeatures, ...]
    modal_flags: tuple[bool, ...]
    lower_lemmas: tuple[str, ...] = field(compare=False)

    _REPR = ("id", "tokens", "profile")

    def __init__(self, id: str, tokens: Iterable[AnnotatedToken], profile: str) -> None:
        tokens = tuple(tokens)
        raw_tokens = tuple(t.token for t in tokens)
        Sentence.__init__(self, id, raw_tokens)
        categories, relations, features, modal_flags = zip(*map(_annotations_of, tokens))
        self.__dict__.update(
            profile=profile, categories=categories, relations=relations, features=features,
            modal_flags=modal_flags, lower_lemmas=tuple(map(str.lower, self.lemmas)),
            raw_tokens=raw_tokens, tokens=tokens,
        )

    raw_tokens = cached_property(_token_views)

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

    def head_token(self, index: int) -> Optional[AnnotatedToken]:
        """The governing token, or None for a token with head 0."""
        head = self.heads[self._position(index)]
        return self.tokens[head - 1] if head else None

    def children(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Tokens directly governed by the token at ``index``."""
        tokens = self.tokens
        return tuple(tokens[i - 1] for i in self.dependents.get(index, ()))

    def siblings(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Tokens sharing a head with the token at ``index``, itself excluded."""
        tokens = self.tokens
        group = self.dependents[self.heads[self._position(index)]]
        return tuple(tokens[i - 1] for i in group if i != index)

    def descendants(self, index: int) -> tuple[AnnotatedToken, ...]:
        """Every token in the subtree under ``index``, in surface order."""
        dependents = self.dependents
        inside: list[int] = []
        frontier = [index]
        while frontier:
            children = dependents.get(frontier.pop(), ())
            inside += children
            frontier += children
        tokens = self.tokens
        return tuple(tokens[i - 1] for i in sorted(inside))

    def root_tokens(self) -> tuple[AnnotatedToken, ...]:
        """Tokens that act as the dependency root (relation root or head 0),
        in surface order."""
        tokens, relations = self.tokens, self.relations
        return tuple(
            tokens[i] for i, head in enumerate(self.heads) if head == 0 or relations[i] is _ROOT
        )


def _first_root(sentence: AnnotatedSentence) -> int:
    """The index of the first of root_tokens: the first token with head 0
    or relation root.  A tree has a token with head 0, and dependents
    lists them in surface order."""
    first, relations = sentence.dependents[0][0], sentence.relations
    return min(first, relations.index(_ROOT) + 1) if _ROOT in relations else first
