import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import SUC, annotate, parse_one
from solosent.conllu import parse_conllu
from solosent.model import (
    NO_FEATURES,
    AnnotatedSentence,
    AnnotatedToken,
    Category,
    Gender,
    MorphFeatures,
    Relation,
    Sentence,
    SourceRef,
    StructureError,
    Token,
    validate_heads,
)
from solosent.profiles import apply_profile


def tok(index, head, form="x", deprel="SS"):
    return Token(index=index, form=form, lemma=form, pos="NN",
                 deprel=deprel, head=head)


class TestToken:
    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            tok(0, 0)

    def test_rejects_negative_head(self):
        with pytest.raises(ValueError):
            tok(1, -1)

    def test_rejects_self_head(self):
        with pytest.raises(ValueError):
            tok(3, 3)

    def test_rejects_empty_form(self):
        with pytest.raises(ValueError):
            tok(1, 0, form="")

    def test_is_frozen(self):
        t = tok(1, 0)
        with pytest.raises(AttributeError):
            t.form = "y"


TOKEN_MESSAGES = [
    # (index, head, form), then the message; the first failing check wins
    ((0, 0, "x"), "token index must be >= 1, got 0"),
    ((0, -1, ""), "token index must be >= 1, got 0"),
    ((1, -1, "x"), "token head must be >= 0, got -1"),
    ((2, -2, ""), "token head must be >= 0, got -2"),
    ((3, 3, "x"), "token 3 may not head itself"),
    ((3, 3, ""), "token 3 may not head itself"),
    ((1, 0, ""), "token 1 has an empty form"),
]


class TestTokenContract:
    """Token and AnnotatedToken behave as the frozen dataclasses they are."""

    TOKEN = Token(2, "Hon", "hon", "PN", "SS", 3, "UTR|SIN|DEF")
    ANNOTATED = AnnotatedToken(TOKEN, Category.PRONOUN, Relation.SUBJECT)

    def test_token_value(self):
        t = self.TOKEN
        assert t == Token(index=2, form="Hon", lemma="hon", pos="PN",
                          deprel="SS", head=3, feats="UTR|SIN|DEF")
        assert t != Token(2, "Hon", "hon", "PN", "SS", 3)
        assert Token(2, "Hon", "hon", "PN", "SS", 3).feats == ""
        assert hash(t) == hash((2, "Hon", "hon", "PN", "SS", 3, "UTR|SIN|DEF"))
        assert repr(t) == (
            "Token(index=2, form='Hon', lemma='hon', pos='PN', deprel='SS', "
            "head=3, feats='UTR|SIN|DEF')"
        )

    def test_annotated_token_value(self):
        a = self.ANNOTATED
        assert a == AnnotatedToken(token=self.TOKEN, category=Category.PRONOUN,
                                   relation=Relation.SUBJECT,
                                   features=NO_FEATURES, is_modal=False)
        assert a != AnnotatedToken(self.TOKEN, Category.PRONOUN,
                                   Relation.SUBJECT, NO_FEATURES, True)
        assert hash(a) == hash(
            (self.TOKEN, Category.PRONOUN, Relation.SUBJECT, NO_FEATURES, False)
        )
        assert repr(a) == (
            f"AnnotatedToken(token={self.TOKEN!r}, category=<Category.PRONOUN: "
            "'pronoun'>, relation=<Relation.SUBJECT: 'subject'>, "
            f"features={NO_FEATURES!r}, is_modal=False)"
        )
        assert (a.index, a.form, a.lemma, a.pos, a.deprel, a.head) == (
            2, "Hon", "hon", "PN", "SS", 3,
        )

    def test_fields_and_signatures(self):
        assert [f.name for f in dataclasses.fields(Token)] == [
            "index", "form", "lemma", "pos", "deprel", "head", "feats",
        ]
        assert [f.name for f in dataclasses.fields(AnnotatedToken)] == [
            "token", "category", "relation", "features", "is_modal",
        ]
        empty = inspect.Parameter.empty
        assert [
            (p.name, p.default) for p in inspect.signature(Token).parameters.values()
        ] == [
            ("index", empty), ("form", empty), ("lemma", empty), ("pos", empty),
            ("deprel", empty), ("head", empty), ("feats", ""),
        ]
        assert [
            (p.name, p.default)
            for p in inspect.signature(AnnotatedToken).parameters.values()
        ] == [
            ("token", empty), ("category", empty), ("relation", empty),
            ("features", NO_FEATURES), ("is_modal", False),
        ]

    @pytest.mark.parametrize("name", ["index", "form", "head", "feats"])
    def test_token_is_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.TOKEN, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(self.TOKEN, name)

    @pytest.mark.parametrize("name", ["token", "category", "is_modal"])
    def test_annotated_token_is_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.ANNOTATED, name, None)

    def test_replace_runs_the_checks(self):
        t = self.TOKEN
        assert dataclasses.replace(t, head=0) == Token(2, "Hon", "hon", "PN", "SS", 0,
                                                       "UTR|SIN|DEF")
        with pytest.raises(ValueError) as info:
            dataclasses.replace(t, head=t.index)
        assert str(info.value) == "token 2 may not head itself"
        a = dataclasses.replace(self.ANNOTATED, is_modal=True)
        assert a.is_modal and a.token is t

    @pytest.mark.parametrize("args, message", TOKEN_MESSAGES)
    def test_check_messages(self, args, message):
        index, head, form = args
        with pytest.raises(ValueError) as positional:
            Token(index, form, "x", "NN", "SS", head)
        with pytest.raises(ValueError) as keyword:
            Token(feats="", head=head, deprel="SS", pos="NN", lemma="x",
                  form=form, index=index)
        assert str(positional.value) == str(keyword.value) == message

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for value in (self.TOKEN, self.ANNOTATED):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert copy == value and repr(copy) == repr(value)

    def test_no_instance_dict(self):
        # tokens are kept by the thousand: each carries its fields in slots
        assert not hasattr(self.TOKEN, "__dict__")
        assert not hasattr(self.ANNOTATED, "__dict__")


def _validate(sentence_id, tokens):
    """validate_heads on the heads and ids of a token tuple."""
    return validate_heads(sentence_id, [t.head for t in tokens], [t.index for t in tokens])


class TestValidateTokens:
    """validate_heads on token tuples, as a reader hands it ids and heads."""

    def test_accepts_simple_tree(self):
        assert _validate("ok", (tok(1, 2), tok(2, 0), tok(3, 2))) == (
            {2: (1, 3), 0: (2,)}, (2, 1, 3)
        )

    def test_rejects_empty(self):
        with pytest.raises(StructureError):
            _validate("empty", ())

    def test_rejects_gap_in_indices(self):
        with pytest.raises(StructureError, match="contiguous"):
            _validate("gap", (tok(1, 0), tok(3, 1)))

    def test_rejects_head_out_of_range(self):
        with pytest.raises(StructureError, match="outside"):
            _validate("range", (tok(1, 0), tok(2, 9)))

    def test_rejects_cycle(self):
        with pytest.raises(StructureError, match="cyclic"):
            _validate("cycle", (tok(1, 2), tok(2, 1)))

    def test_error_carries_sentence_id(self):
        with pytest.raises(StructureError) as info:
            _validate("s77", ())
        assert info.value.sentence_id == "s77"
        assert "s77" in str(info.value)


class TestSentence:
    def test_text_joins_forms(self):
        s = parse_one("Hon hon PN UTR|SIN|DEF 2 SS\nkom komma VB PRT|AKT 0 ROOT")
        assert s.text == "Hon kom"
        assert len(s) == 2
        assert [t.form for t in s] == ["Hon", "kom"]
        assert s.token(2).lemma == "komma"

    def test_equality_ignores_source(self):
        tokens = (tok(1, 0),)
        a = Sentence(id="s", tokens=tokens)
        b = Sentence(id="s", tokens=tokens, source=SourceRef(corpus="talbanken"))
        assert a == b

    def test_tokens_coerced_to_tuple(self):
        s = Sentence(id="s", tokens=[tok(1, 0)])
        assert isinstance(s.tokens, tuple)

    @pytest.mark.parametrize("indices", [(5,), (1, 3), (2, 1)])
    def test_index_must_be_the_position(self, indices):
        """The columns keep no index, so a token whose index is not its
        position is refused rather than renumbered."""
        tokens = [tok(index, 0) for index in indices]
        position, index = next(p for p in enumerate(indices, start=1) if p[0] != p[1])
        with pytest.raises(ValueError, match=f"token at position {position} has index {index}: "):
            Sentence(id="s", tokens=tokens)
        with pytest.raises(ValueError, match=f"position {position} has index {index}"):
            AnnotatedSentence(
                id="s",
                tokens=[AnnotatedToken(t, Category.NOUN, Relation.OTHER) for t in tokens],
                profile="test",
            )


def _sentence(tokens, source=None):
    return Sentence(id="s", tokens=list(tokens), source=source)


def _annotated_sentence(tokens, source=None):
    annotated = [AnnotatedToken(t, Category.NOUN, Relation.OTHER) for t in tokens]
    return AnnotatedSentence(id="s", tokens=annotated, profile="test", source=source)


@pytest.mark.parametrize("build", [_sentence, _annotated_sentence])
def test_both_sentence_types_are_token_sequences(build):
    raw = (tok(1, 2, "Hon"), tok(2, 0, "kom"), tok(3, 2, "hem"))
    s = build(raw)  # from a list
    assert isinstance(s.tokens, tuple)
    assert len(s) == 3
    assert list(s) == list(s.tokens)
    assert [t.form for t in s] == ["Hon", "kom", "hem"]
    assert [s.token(i) for i in (1, 2, 3)] == list(s.tokens)
    assert s.token(2).index == 2
    assert s.text == "Hon kom hem"
    elsewhere = build(raw, source=SourceRef(corpus="talbanken", document="d1"))
    assert s == elsewhere and hash(s) == hash(elsewhere)
    assert s != build(raw[:2])


class TestSentenceContract:
    """Sentence holds columns and builds Token views on demand, but reads as
    the frozen dataclass of Tokens it was."""

    TOKENS = (Token(1, "Hon", "hon", "PN", "SS", 2, "UTR|SIN|DEF"),
              Token(2, "kom", "komma", "VB", "ROOT", 0))

    def test_columns(self):
        s = Sentence(id="s", tokens=self.TOKENS)
        assert s.forms == ("Hon", "kom") and s.lemmas == ("hon", "komma")
        assert s.tags == ("PN", "VB") and s.deprels == ("SS", "ROOT")
        assert s.heads == (2, 0) and s.feats == ("UTR|SIN|DEF", "")
        assert s.tokens is self.TOKENS
        assert s.dependents == {2: (1,), 0: (2,)} and s.order == (2, 1)

    def test_repr(self):
        s = Sentence(id="s", tokens=[Token(1, "kom", "komma", "VB", "ROOT", 0)],
                     source=SourceRef(corpus="c"))
        assert repr(s) == (
            "Sentence(id='s', tokens=(Token(index=1, form='kom', lemma='komma', "
            "pos='VB', deprel='ROOT', head=0, feats=''),), "
            "source=SourceRef(corpus='c', document=None))"
        )

    def both(self, source=None):
        """A Sentence of TOKENS and its AnnotatedSentence."""
        s = Sentence(id="s", tokens=self.TOKENS, source=source)
        return s, apply_profile(s, SUC)

    @pytest.mark.parametrize(
        "name",
        ["id", "tokens", "forms", "heads", "source", "order", "profile", "roots", "raw_tokens"],
    )
    def test_is_frozen(self, name):
        """Fields and cached views refuse assignment and deletion in both
        classes, with dataclasses' own error."""
        sentences = [s for s in self.both() if hasattr(s, name)]
        assert sentences
        for s in sentences:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {name!r}"):
                setattr(s, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {name!r}"):
                delattr(s, name)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for s in self.both(source=SourceRef(corpus="c")):
            loaded = pickle.loads(pickle.dumps(s, protocol))
            assert type(loaded) is type(s)
            assert loaded == s and hash(loaded) == hash(s) and repr(loaded) == repr(s)
            assert loaded.source == s.source

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copy_keeps_the_value(self, duplicate):
        for s in self.both(source=SourceRef(corpus="c")):
            twin = duplicate(s)
            assert type(twin) is type(s)
            assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
            assert (twin.source, twin.dependents, twin.order) == (s.source, s.dependents, s.order)

    def test_an_annotated_sentence_is_a_sentence(self):
        s, annotated = self.both()
        assert issubclass(AnnotatedSentence, Sentence)
        assert isinstance(annotated, Sentence)
        assert annotated.dependents is s.dependents and annotated.forms is s.forms
        # equal columns, other classes: unequal both ways
        assert s != annotated and annotated != s

    def test_fields_and_what_equality_covers(self):
        """Both are dataclasses; equality and the hash cover the id, the
        columns and the annotations, and neither ``source`` nor what is
        derived from the columns."""
        raw = ["id", "source", "forms", "lemmas", "tags", "deprels", "heads", "feats",
               "dependents", "order"]
        annotations = ["profile", "categories", "relations", "features", "modal_flags",
                       "lower_lemmas", "roots"]
        left_out = {"source", "dependents", "order", "lower_lemmas", "roots"}
        for cls, names in ((Sentence, raw), (AnnotatedSentence, raw + annotations)):
            fields = dataclasses.fields(cls)
            assert [f.name for f in fields] == names
            assert {f.name for f in fields if not f.compare} == left_out & set(names)
        for s in self.both(source=SourceRef(corpus="c")):
            values = {name: getattr(s, name) for name in s.__dataclass_fields__}
            for name in values:
                other = type(s)._from_columns(*{**values, name: ("changed",)}.values())
                if name in left_out:
                    assert other == s and hash(other) == hash(s), name
                else:
                    assert other != s, name


@st.composite
def _token_trees(draw):
    """Token tuples that Token accepts and that form a tree, with any text
    a CoNLL-U field can carry."""
    text = st.text(st.characters(blacklist_characters="\t\n\r",
                                 blacklist_categories=("Cs",)), max_size=4)
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * (n + 1)
    for position, index in enumerate(order[1:], start=1):
        heads[index] = draw(st.sampled_from([0, *order[:position]]))
    return tuple(
        Token(i, draw(text.filter(bool)), draw(text), draw(text), draw(text), heads[i],
              draw(text.filter(lambda feats: feats != "_")))
        for i in range(1, n + 1)
    )


def _conllu_row(t):
    return f"{t.index}\t{t.form}\t{t.lemma}\t{t.pos}\t_\t{t.feats or '_'}\t{t.head}\t{t.deprel}\t_\t_"


@given(_token_trees())
def test_read_sentence_equals_the_hand_built_one(tokens):
    """The reader's columns give the sentence a hand-built one derives from
    its Tokens: equal, hashed alike, columns matching the views, and
    unchanged by pickling."""
    text = "# sent_id = s\n" + "\n".join(map(_conllu_row, tokens)) + "\n"
    (read,) = parse_conllu(text)
    hand = Sentence(id="s", tokens=tokens)
    assert read == hand and hash(read) == hash(hand)
    fields = {"forms": "form", "lemmas": "lemma", "tags": "pos", "deprels": "deprel",
              "heads": "head", "feats": "feats"}
    for sentence in (read, hand):
        for column, name in fields.items():
            assert getattr(sentence, column) == tuple(getattr(t, name) for t in tokens)
    for sentence in (read, apply_profile(read, SUC)):
        copy = pickle.loads(pickle.dumps(sentence))
        assert copy == sentence and hash(copy) == hash(sentence)
    assert read.tokens == tokens


class TestMorphFeatures:
    def test_defaults_unspecified(self):
        assert NO_FEATURES.gender is Gender.UNSPECIFIED
        assert MorphFeatures() == NO_FEATURES


TREE = """
Troligen troligen AB _ 2 MA
berodde bero VB PRT|AKT 0 ROOT
olyckan olycka NN UTR|SIN|DEF 2 SS
på på PP _ 2 OA
snö snö NN UTR|SIN|IND 4 PA
"""


class TestTreeQueries:
    def test_annotated_token_delegates(self):
        s = annotate(TREE)
        t = s.token(3)
        assert (t.form, t.lemma, t.pos, t.deprel, t.head) == (
            "olyckan", "olycka", "NN", "SS", 2,
        )
        assert t.category is Category.NOUN
        assert t.relation is Relation.SUBJECT

    def test_head_token(self):
        s = annotate(TREE)
        assert s.head_token(1).form == "berodde"
        assert s.head_token(2) is None

    @pytest.mark.parametrize("index", [0, -1, 6])
    def test_index_outside_the_sentence_is_refused(self, index):
        """1..len name the tokens; 0 and negative indices do not count
        from the end, as a tuple's do."""
        raw = parse_one(TREE)
        s = apply_profile(raw, SUC)
        for query in (raw.token, s.token, s.head_token, s.siblings):
            with pytest.raises(IndexError, match=f"^no token at index {index}$"):
                query(index)

    def test_children_and_siblings(self):
        s = annotate(TREE)
        assert [t.form for t in s.children(2)] == ["Troligen", "olyckan", "på"]
        assert [t.form for t in s.siblings(1)] == ["olyckan", "på"]
        assert s.siblings(5) == ()

    def test_descendants_in_surface_order(self):
        s = annotate(TREE)
        assert [t.form for t in s.descendants(4)] == ["snö"]
        assert [t.form for t in s.descendants(2)] == [
            "Troligen", "olyckan", "på", "snö",
        ]

    def test_cyclic_hand_built_sentence_is_refused(self):
        # 2 and 3 head each other, as no reader lets through
        tokens = (tok(1, 0), tok(2, 3), tok(3, 2))
        message = "^sentence 'cyc': cyclic head chain through token 2$"
        with pytest.raises(StructureError, match=message):
            Sentence(id="cyc", tokens=tokens)
        with pytest.raises(StructureError, match=message):
            AnnotatedSentence(
                id="cyc",
                tokens=[AnnotatedToken(t, Category.NOUN, Relation.OTHER) for t in tokens],
                profile="test",
            )

    def test_root_tokens(self):
        s = annotate(TREE)
        assert [t.form for t in s.root_tokens()] == ["berodde"]


# --- tree queries against a naive scan ----------------------------------


def _children_by_scan(s, index):
    return tuple(t for t in s.tokens if t.head == index)


def _siblings_by_scan(s, index):
    head = s.tokens[index - 1].head
    return tuple(t for t in s.tokens if t.head == head and t.index != index)


def _descendants_by_scan(s, index):
    inside, frontier = {index}, [index]
    while frontier:
        for child in _children_by_scan(s, frontier.pop()):
            if child.index not in inside:
                inside.add(child.index)
                frontier.append(child.index)
    inside.discard(index)
    return tuple(t for t in s.tokens if t.index in inside)


def _roots_by_scan(s):
    return tuple(t for t in s.tokens if t.head == 0 or t.relation is Relation.ROOT)


_BY_SCAN = {
    "children": _children_by_scan,
    "siblings": _siblings_by_scan,
    "descendants": _descendants_by_scan,
    "root_tokens": lambda s, index: _roots_by_scan(s),
}


@st.composite
def _hand_built_sentences(draw):
    """Trees of any shape: each token after the first, in a random order,
    hangs off 0 or a token placed before it, so several roots come up, and
    relation root may sit on any token."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * (n + 1)
    for position, index in enumerate(order[1:], start=1):
        heads[index] = draw(st.sampled_from([0, *order[:position]]))
    tokens = []
    for i in range(1, n + 1):
        relation = draw(st.sampled_from([Relation.ROOT, Relation.SUBJECT, Relation.OTHER]))
        tokens.append(AnnotatedToken(tok(i, heads[i]), Category.NOUN, relation))
    return AnnotatedSentence(id="h", tokens=tuple(tokens), profile="test")


@st.composite
def _sentence_and_queries(draw):
    s = draw(_hand_built_sentences())
    n = len(s.tokens)
    query = st.one_of(
        st.tuples(st.sampled_from(["children", "descendants"]), st.integers(0, n + 2)),
        st.tuples(st.just("siblings"), st.integers(1, n)),
        st.tuples(st.just("root_tokens"), st.just(0)),
    )
    return s, draw(st.lists(query, min_size=1, max_size=8))


def _fresh(s):
    return AnnotatedSentence(id=s.id, tokens=s.tokens, profile=s.profile)


def _ask(s, name, index):
    method = getattr(s, name)
    return method() if name == "root_tokens" else method(index)


@given(_sentence_and_queries())
def test_tree_queries_match_a_scan_in_any_order(case):
    s, queries = case
    expected = [_BY_SCAN[name](s, index) for name, index in queries]
    forward = _fresh(s)
    for (name, index), want in zip(queries, expected):
        assert _ask(forward, name, index) == want
        assert _ask(forward, name, index) == want
    backward = _fresh(s)
    for (name, index), want in reversed(list(zip(queries, expected))):
        assert _ask(backward, name, index) == want
    assert forward == backward == s
    assert hash(forward) == hash(s)


# --- validate_heads against the walk it replaced --------------------------


def _validate_by_walk(sentence_id, tokens):
    """The tree check as first written: every chain walked to the root."""
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
    for token in tokens:
        seen = set()
        current = token.index
        while current != 0:
            if current in seen:
                raise StructureError(
                    sentence_id, f"cyclic head chain through token {token.index}"
                )
            seen.add(current)
            current = tokens[current - 1].head


@st.composite
def _head_lists(draw):
    """Token tuples of 1-40 tokens: trees with some heads redirected, which
    makes cycles, several of them, with trees hanging off them; heads past
    the end; and sometimes a gap in the ids."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * (n + 1)
    for position, index in enumerate(order[1:], start=1):
        heads[index] = order[draw(st.integers(0, position - 1))]
    for index, head in draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(0, n + 2)), max_size=6
    )):
        heads[index] = head if head != index else 0
    indices = list(range(1, n + 1))
    if draw(st.integers(0, 4)) == 0:
        start = draw(st.integers(0, n - 1))
        shift = draw(st.integers(1, 3))
        indices[start:] = [i + shift for i in indices[start:]]
    return tuple(
        tok(i, heads[position] if heads[position] != i else 0)
        for position, i in enumerate(indices, start=1)
    )


def _outcome(check, tokens):
    try:
        check("h", tokens)
    except StructureError as exc:
        return type(exc), str(exc), exc.sentence_id
    return None


@given(_head_lists())
def test_validate_tokens_matches_the_full_walk(tokens):
    """validate_heads refuses what the full walk refuses, with its message;
    on a tree it returns the heads grouped by a scan and an order that
    puts every token after its head."""
    assert _outcome(_validate, tokens) == _outcome(_validate_by_walk, tokens)
    if _outcome(_validate_by_walk, tokens) is None:
        dependents, order = _validate("h", tokens)
        heads = [t.head for t in tokens]
        assert dependents == {
            head: tuple(i for i, h in enumerate(heads, start=1) if h == head)
            for head in set(heads)
        }
        n = len(tokens)
        assert sorted(order) == list(range(1, n + 1))
        position = {index: p for p, index in enumerate(order)}
        position[0] = -1
        assert all(position[heads[i - 1]] < position[i] for i in order)


def _sentence_or_refusal(make):
    try:
        return make()
    except StructureError as exc:
        return str(exc)


def _ids_are_positions(tokens):
    return all(t.index == position for position, t in enumerate(tokens, start=1))


@given(_head_lists().filter(_ids_are_positions))
def test_hand_built_and_read_sentences_obey_one_tree_rule(tokens):
    """Sentence refuses exactly the heads the CoNLL-U reader refuses, with
    its message, and builds the sentence the reader reads otherwise, tree
    index included."""
    text = "# sent_id = h\n" + "\n".join(map(_conllu_row, tokens)) + "\n"
    built = _sentence_or_refusal(lambda: Sentence("h", tokens))
    read = _sentence_or_refusal(lambda: next(parse_conllu(text)))
    assert built == read
    if isinstance(built, Sentence):
        assert (built.dependents, built.order) == (read.dependents, read.order)


def test_empty_sentence_is_refused():
    for make in (
        lambda: Sentence("e", ()),
        lambda: AnnotatedSentence("e", (), profile="test"),
    ):
        with pytest.raises(StructureError, match="^sentence 'e': no tokens$"):
            make()
