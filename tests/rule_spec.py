"""An executable specification of the seven rules, for differential tests.

Each rule is written here as the README's theme table and the
``detectors`` docstrings state it, over the public views and tree
queries only (``tokens``, ``head_token``, ``children``, ``siblings``,
``descendants`` and ``root_tokens``) and plain walks.  Nothing here
comes from ``detectors``: no pass, tally, memo or helper, and no column
read.  Quadratic code is fine; clarity is the point.  A rule returns
``(theme, token_indices, weight, rationale)`` tuples, and ``assess``
runs the enabled ones in theme order, scaled by the config's weights.

Where a docstring leaves a reading open, the reading taken is noted at
the rule.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from solosent.detectors import IMPLEMENTED_THEMES, Theme
from solosent.model import (
    Category, FINITE_VERB_FORMS, Gender, Number, Relation, Sentence, Token, VerbForm,
)
from solosent.profiles import apply_profile

ONE = Fraction(1)
HALF = Fraction(1, 2)

# quotes, brackets and dashes that may wrap the real start of a sentence
WRAPPER_CHARACTERS = set("\"'`«»‘’“”()[]{}-–—")
CONNECTIVES = (Category.CONJUNCTION, Category.SUBJUNCTION)


def is_wrapper(form):
    return form != "" and set(form) <= WRAPPER_CHARACTERS


def lemma(token):
    return token.lemma.lower()


def is_verb(token):
    return token is not None and token.category is Category.VERB


def is_finite(sentence, token):
    """A verb of finite or imperative form; a modal only counts inside a
    verb group, with a verb above or below it."""
    if not is_verb(token) or token.features.verb_form not in FINITE_VERB_FORMS:
        return False
    if not token.is_modal:
        return True
    return is_verb(sentence.head_token(token.index)) or any(
        is_verb(child) for child in sentence.children(token.index)
    )


def finite_verbs(sentence):
    return [t for t in sentence.tokens if is_finite(sentence, t)]


def conjuncts(sentence):
    return [t for t in sentence.tokens if t.relation is Relation.CONJUNCT]


def incomplete(sentence, lexicons):
    """IncompSent: the first letter-or-digit character of the sentence is
    not a lowercase letter, and the last token is a major delimiter.

    The first letter or digit is looked for form by form; a form without
    one, a leading wrapper mark among them, is passed over."""
    found = []
    for token in sentence.tokens:
        marks = [c for c in token.form if c.isalpha() or c.isdigit()]
        if marks:
            if marks[0].islower():
                found.append((
                    Theme.INCOMPLETE, (token.index,), ONE,
                    f"sentence starts with lowercase {token.form!r}",
                ))
            break
    last = sentence.tokens[-1]
    if last.category is not Category.MAJOR_DELIMITER:
        found.append((
            Theme.INCOMPLETE, (), ONE,
            f"sentence does not end in a major delimiter (last token {last.form!r})",
        ))
    return found


def main_verb(sentence):
    """The first root if it is a verb, else the first verb, else None."""
    root = sentence.root_tokens()[0]
    if is_verb(root):
        return root
    return next((t for t in sentence.tokens if is_verb(t)), None)


def implicit_anaphora(sentence, lexicons):
    """ImpAnaphora: no finite verb (a stranded modal named), and no
    subject, logical subject or expletive while the main verb is not an
    imperative."""
    found = []
    if not finite_verbs(sentence):
        modals = [
            t for t in sentence.tokens
            if is_verb(t) and t.is_modal and t.features.verb_form in FINITE_VERB_FORMS
        ]
        rationale = (
            f"no finite verb: modal {modals[0].form!r} stands alone" if modals
            else "no finite verb"
        )
        found.append((Theme.IMPLICIT_ANAPHORA, (), ONE, rationale))
    subjects = (Relation.SUBJECT, Relation.LOGICAL_SUBJECT, Relation.EXPLETIVE)
    if not any(t.relation in subjects for t in sentence.tokens):
        verb = main_verb(sentence)
        if verb is None or verb.features.verb_form is not VerbForm.IMPERATIVE:
            found.append((
                Theme.IMPLICIT_ANAPHORA, (), ONE,
                "no subject and the main verb is not imperative",
            ))
    return found


def agrees(pronoun, noun):
    """Gender and number match, or one side leaves them unspecified."""
    return all(
        unspecified in (mine, theirs) or mine is theirs
        for mine, theirs, unspecified in (
            (pronoun.gender, noun.gender, Gender.UNSPECIFIED),
            (pronoun.number, noun.number, Number.UNSPECIFIED),
        )
    )


def antecedent_candidates(sentence, index):
    """Nouns and proper nouns left of the pronoun at ``index`` that agree
    with it, plus one for ``det`` when an infinitive marker governed by a
    verb stands left of it."""
    pronoun = sentence.token(index)
    if pronoun.category is not Category.PRONOUN:
        raise ValueError(f"token {index} ({pronoun.form!r}) is not a pronoun")
    left = sentence.tokens[: index - 1]
    count = sum(
        t.category in (Category.NOUN, Category.PROPER_NOUN)
        and agrees(pronoun.features, t.features)
        for t in left
    )
    if lemma(pronoun) == "det" and any(
        t.category is Category.INFINITIVE_MARKER and is_verb(sentence.head_token(t.index))
        for t in left
    ):
        count += 1
    return count


def nearest_verb_above(sentence, index):
    head = sentence.head_token(index)
    while head is not None and not is_verb(head):
        head = sentence.head_token(head.index)
    return head


def pronominal_anaphora(sentence, lexicons):
    """PNAnaphora: a listed lemma on a pronoun, unless it relates as
    expletive, is a ``det`` whose nearest verb above is a weather verb,
    is followed by a ``som``, or has a som-relative (``som`` relating as
    relative-clause marker or subordinator) in its subtree.  The weight
    halves when the sentence offers an antecedent candidate.

    "A som-relative right after the pronoun" is read as the program reads
    it: the next token's lemma is ``som``, whatever its relation."""
    found = []
    tokens = sentence.tokens
    for token in tokens:
        if lemma(token) not in lexicons.anaphoric_pronouns:
            continue
        if token.category is not Category.PRONOUN or token.relation is Relation.EXPLETIVE:
            continue
        if lemma(token) == "det":
            verb = nearest_verb_above(sentence, token.index)
            if verb is not None and lemma(verb) in lexicons.weather_verbs:
                continue
        if token.index < len(tokens) and lemma(tokens[token.index]) == "som":
            continue
        if any(
            lemma(t) == "som"
            and t.relation in (Relation.RELATIVE_CLAUSE_MARKER, Relation.SUBORDINATOR)
            for t in sentence.descendants(token.index)
        ):
            continue
        count = antecedent_candidates(sentence, token.index)
        found.append((
            Theme.PRONOMINAL_ANAPHORA, (token.index,), HALF if count else ONE,
            f"anaphoric pronoun {token.form!r} with {count} antecedent candidate(s) to its left",
        ))
    return found


def adverbial_anaphora(sentence, lexicons):
    """AdvAnaphora1: a listed adverb of category adverb, unless one of its
    adverbial dependents specifies it (any dependent but one of the other
    listed type), a determiner stands right before it, or it relates as
    determiner itself."""
    found = []
    adverbs = lexicons.anaphoric_adverbs
    tokens = sentence.tokens
    for token in tokens:
        kind = adverbs.get(lemma(token))
        if kind is None or token.category is not Category.ADVERB:
            continue
        if any(
            child.relation is Relation.ADVERBIAL and adverbs.get(lemma(child)) in (None, kind)
            for child in sentence.children(token.index)
        ):
            continue
        if token.index > 1 and tokens[token.index - 2].category is Category.DETERMINER:
            continue
        if token.relation is Relation.DETERMINER:
            continue
        found.append((
            Theme.ADVERBIAL_ANAPHORA, (token.index,), ONE,
            f"unspecified {kind.value} adverb {token.form!r}",
        ))
    return found


def connective_beside(sentence, index):
    return any(t.category in CONNECTIVES for t in sentence.siblings(index))


def discourse_connective(sentence, lexicons):
    """AdvAnaphora2: a token relating as conjunctional adverbial, unless
    the sentence holds two finite verbs or a conjunct (two coordinated
    units), or a conjunction or subjunction is a sibling of it or of its
    head."""
    if len(finite_verbs(sentence)) >= 2 or conjuncts(sentence):
        return []
    found = []
    for token in sentence.tokens:
        if token.relation is not Relation.CONJUNCTIONAL_ADVERBIAL:
            continue
        if connective_beside(sentence, token.index):
            continue
        head = sentence.head_token(token.index)
        if head is not None and connective_beside(sentence, head.index):
            continue
        found.append((
            Theme.DISCOURSE_CONNECTIVE, (token.index,), ONE,
            f"conjunctional adverbial {token.form!r} with no coordination inside the sentence",
        ))
    return found


def completed_pair(sentence, lexicons, root):
    """A listed pair with the root as one member, whose first member
    stands somewhere before its second."""
    lemmas = [lemma(t) for t in sentence.tokens]
    return any(
        lemma(root) in pair
        and any(
            lemmas[i] == pair[0] and lemmas[j] == pair[1]
            for i in range(len(lemmas))
            for j in range(i + 1, len(lemmas))
        )
        for pair in lexicons.paired_conjunctions
    )


def structural_connective(sentence, lexicons):
    """StructConn: the first root is a conjunction outside a completed
    correlative pair; or the first token that is no delimiter and no
    wrapper is a conjunction, in a sentence with fewer than two finite
    verbs and fewer than two conjuncts, reported once if it is that
    root."""
    found = []
    root = sentence.root_tokens()[0]
    if root.category is Category.CONJUNCTION and not completed_pair(sentence, lexicons, root):
        found.append((
            Theme.STRUCTURAL_CONNECTIVE, (root.index,), ONE,
            f"conjunction {root.form!r} is the dependency root",
        ))
    first = next(
        (
            t for t in sentence.tokens
            if t.category not in (Category.MAJOR_DELIMITER, Category.MINOR_DELIMITER)
            and not is_wrapper(t.form)
        ),
        None,
    )
    if (
        first is not None
        and first.category is Category.CONJUNCTION
        and len(finite_verbs(sentence)) < 2
        and len(conjuncts(sentence)) < 2
        and not any(indices == (first.index,) for _, indices, _, _ in found)
    ):
        found.append((
            Theme.STRUCTURAL_CONNECTIVE, (first.index,), ONE,
            f"sentence-initial conjunction {first.form!r} with nothing "
            "to coordinate inside the sentence",
        ))
    return found


def ceq_answer(sentence, lexicons):
    """CEQAnswer: the first token, or the second after one minor
    delimiter, is a listed yes/no interjection; or, after one minor
    delimiter, an adverb followed by a minor delimiter."""
    tokens = sentence.tokens
    start = 1 if tokens[0].category is Category.MINOR_DELIMITER else 0
    if start >= len(tokens):
        return []
    token = tokens[start]
    if token.category is Category.INTERJECTION and lemma(token) in lexicons.yes_no_interjections:
        return [(
            Theme.CLOSED_QUESTION_ANSWER, (token.index,), ONE,
            f"sentence-initial yes/no interjection {token.form!r}",
        )]
    if (
        start == 1
        and token.category is Category.ADVERB
        and len(tokens) > 2
        and tokens[2].category is Category.MINOR_DELIMITER
    ):
        return [(
            Theme.CLOSED_QUESTION_ANSWER, (token.index,), ONE,
            f"sentence-initial adverb {token.form!r} enclosed between minor delimiters",
        )]
    return []


RULES = {
    Theme.INCOMPLETE: incomplete,
    Theme.IMPLICIT_ANAPHORA: implicit_anaphora,
    Theme.PRONOMINAL_ANAPHORA: pronominal_anaphora,
    Theme.ADVERBIAL_ANAPHORA: adverbial_anaphora,
    Theme.DISCOURSE_CONNECTIVE: discourse_connective,
    Theme.STRUCTURAL_CONNECTIVE: structural_connective,
    Theme.CLOSED_QUESTION_ANSWER: ceq_answer,
}


def assess(sentence, lexicons, enabled=IMPLEMENTED_THEMES, weights=None):
    """The enabled rules' findings in theme order, each weight scaled by
    its theme's override in ``weights``."""
    weights = weights or {}
    return [
        (found, indices, weight * weights.get(theme, 1), rationale)
        for theme in IMPLEMENTED_THEMES
        if theme in enabled
        for found, indices, weight, rationale in RULES[theme](sentence, lexicons)
    ]


# --- the sentences the spec is checked on ----------------------------------

# (form, lemma, SUC POS, SUC FEATS, UD POS, UD FEATS), in three groups, so
# that a sentence can be drawn with or without each of the first two:
# some rules return early on a sentence with no conjunction, or with no
# listed pronoun or adverb.  The lemmas in OFTEN come four times as often
# as the others: an exemption turns on each of them.
CONJUNCTIONS = [
    ("och", "och", "KN", "_", "CCONJ", "_"), ("Och", "och", "KN", "_", "CCONJ", "_"),
    ("eller", "eller", "KN", "_", "CCONJ", "_"), ("men", "men", "KN", "_", "CCONJ", "_"),
    ("antingen", "antingen", "KN", "_", "CCONJ", "_"),
    ("Antingen", "antingen", "KN", "_", "CCONJ", "_"),
    ("både", "både", "KN", "_", "CCONJ", "_"), ("dels", "dels", "KN", "_", "CCONJ", "_"),
]
LISTED = [
    ("den", "den", "PN", "UTR|SIN|DEF", "PRON", "Gender=Com|Number=Sing"),
    ("Den", "den", "PN", "UTR|SIN|DEF", "PRON", "Gender=Com|Number=Sing"),
    ("det", "det", "PN", "NEU|SIN|DEF", "PRON", "Gender=Neut|Number=Sing"),
    ("detta", "denna", "PN", "NEU|SIN|DEF", "PRON", "Gender=Neut|Number=Sing"),
    ("dessa", "denna", "PN", "UTR/NEU|PLU|DEF", "PRON", "Number=Plur"),
    ("sådan", "sådan", "PN", "UTR|SIN|IND", "PRON", "Gender=Com|Number=Sing"),
    ("där", "där", "AB", "_", "ADV", "_"), ("Där", "där", "AB", "_", "ADV", "_"),
    ("då", "då", "AB", "_", "ADV", "_"), ("dit", "dit", "AB", "_", "ADV", "_"),
]
OTHERS = [
    # a determiner det and den, a person pronoun, som, an infinitive marker
    ("det", "det", "DT", "NEU|SIN|DEF", "DET", "Gender=Neut|Number=Sing"),
    ("den", "den", "DT", "UTR|SIN|DEF", "DET", "Gender=Com|Number=Sing"),
    ("hon", "hon", "PN", "UTR|SIN|DEF", "PRON", "Gender=Com|Number=Sing"),
    ("som", "som", "HP", "_", "PRON", "_"),
    ("att", "att", "IE", "_", "PART", "_"),
    # verbs: weather, finite, imperative, modal, non-finite
    ("regnar", "regna", "VB", "PRS|AKT", "VERB", "Mood=Ind|Tense=Pres|VerbForm=Fin"),
    ("snöade", "snöa", "VB", "PRT|AKT", "VERB", "Mood=Ind|Tense=Past|VerbForm=Fin"),
    ("sover", "sova", "VB", "PRS|AKT", "VERB", "Mood=Ind|Tense=Pres|VerbForm=Fin"),
    ("Spring", "springa", "VB", "IMP|AKT", "VERB", "Mood=Imp|VerbForm=Fin"),
    ("kan", "kunna", "VB", "PRS|AKT", "AUX", "Mood=Ind|Tense=Pres|VerbForm=Fin"),
    ("ville", "vilja", "VB", "PRT|AKT", "AUX", "Mood=Ind|Tense=Past|VerbForm=Fin"),
    ("sova", "sova", "VB", "INF|AKT", "VERB", "VerbForm=Inf"),
    ("sovit", "sova", "VB", "SUP|AKT", "VERB", "VerbForm=Sup"),
    # nouns of every gender and number, and none
    ("hus", "hus", "NN", "NEU|SIN|IND", "NOUN", "Gender=Neut|Number=Sing"),
    ("bil", "bil", "NN", "UTR|SIN|IND", "NOUN", "Gender=Com|Number=Sing"),
    ("bilar", "bil", "NN", "UTR|PLU|IND", "NOUN", "Gender=Com|Number=Plur"),
    ("folk", "folk", "NN", "_", "NOUN", "_"), ("Anna", "Anna", "PM", "UTR|SIN|IND", "PROPN", "_"),
    # adverbs, interjections, a subjunction, a number, an adjective
    ("dock", "dock", "AB", "_", "ADV", "_"), ("heller", "heller", "AB", "_", "ADV", "_"),
    ("Gärna", "gärna", "AB", "_", "ADV", "_"), ("ja", "ja", "IN", "_", "INTJ", "_"),
    ("Nej", "nej", "IN", "_", "INTJ", "_"), ("hej", "hej", "IN", "_", "INTJ", "_"),
    ("om", "om", "SN", "_", "SCONJ", "_"), ("1996", "1996", "RG", "_", "NUM", "_"),
    ("röd", "röd", "JJ", "POS|UTR|SIN|IND|NOM", "ADJ", "Degree=Pos"),
    # delimiters and wrappers
    (".", ".", "MAD", "_", "PUNCT", "_"), ("!", "!", "MAD", "_", "PUNCT", "_"),
    (",", ",", "MID", "_", "PUNCT", "_"), ("–", "–", "MID", "_", "PUNCT", "_"),
    ("(", "(", "PAD", "_", "PUNCT", "_"), ("«", "«", "PAD", "_", "PUNCT", "_"),
]
OFTEN = {
    "den", "det", "där", "då", "som", "regna", "snöa", "om", "dock", "heller", "eller",
    "antingen", "1996", "springa", "hej",
}


def weighted(words):
    return [word for word in words for _ in range(4 if word[1] in OFTEN else 1)]


# a lemma's usual label under each tagset, drawn for half its tokens
USUAL = {
    "dock": ("+A", "discourse"), "heller": ("+A", "discourse"),
    **dict.fromkeys(["och", "eller", "men", "antingen", "både", "dels"], ("++", "cc")),
    "som": ("UK", "mark"), "om": ("UK", "mark"), "att": ("IM", "mark"),
    "den": ("SS", "nsubj"), "det": ("SS", "nsubj"), "denna": ("OO", "obj"),
    "där": ("RA", "advmod"), "då": ("TA", "advmod"), "dit": ("RA", "obl"),
}
# every relation the rules read, under each tagset, and some they do not
DEPRELS = {
    "suc-mamba": [
        "ROOT", "SS", "ES", "FS", "CJ", "+F", "UK", "+A", "AA", "TA", "RA", "DT", "++",
        "OO", "IM", "VG", "IP", "IK",
    ],
    "ud": [
        "root", "nsubj", "expl", "conj", "mark", "discourse", "advmod", "obl", "det",
        "cc", "obj", "aux", "punct", "acl:relcl",
    ],
}


def sentences(profiles, max_size=16):
    """A hypothesis strategy: annotated sentences under one of ``profiles``.

    The words come from the groups above, the conjunctions and the listed
    pronouns and adverbs each drawn in or left out.  Half the sentences
    then draw a few of those words and are built from them alone, so that
    the words an exemption needs together meet often: swarm testing
    (Groce et al., "Swarm Testing", ISSTA 2012).  Half the roots are a
    verb or a conjunction, and half the tokens of a lemma in USUAL take
    its usual label.  The tree is of any shape, wide (most tokens under
    one head), bushy (every token under one of the first three placed) or
    a chain; now and then a token is a second root."""

    @st.composite
    def draw_sentence(draw):
        profile = draw(st.sampled_from(profiles))
        ud = profile.name == "ud"
        root = DEPRELS[profile.name][0]
        pool = weighted(
            OTHERS + CONJUNCTIONS * draw(st.booleans()) + LISTED * draw(st.booleans())
        )
        # half the sentences are built from a few of the words alone
        words = draw(
            st.one_of(st.just(pool), st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        )
        deprels = st.sampled_from(DEPRELS[profile.name])
        n = draw(st.integers(min_value=1, max_value=max_size))
        shape = draw(st.sampled_from(["any", "wide", "bushy", "chain"]))
        order = draw(st.permutations(range(1, n + 1)))
        heads = {order[0]: 0}
        for k, index in enumerate(order[1:], start=1):
            if shape == "chain":
                head = order[k - 1]
            elif shape == "wide" and draw(st.integers(min_value=0, max_value=4)):
                head = order[0]
            elif shape == "bushy":
                head = order[draw(st.integers(min_value=0, max_value=min(k, 3) - 1))]
            elif draw(st.integers(min_value=0, max_value=9)):
                head = order[draw(st.integers(min_value=0, max_value=k - 1))]
            else:  # a second root, now and then
                head = 0
            heads[index] = head
        # half the roots are a verb or a conjunction, as most roots are
        roots = [word for word in words if word[2] in ("VB", "KN")]
        tokens = []
        for index in range(1, n + 1):
            choice = words if index != order[0] or not roots or draw(st.booleans()) else roots
            form, base, suc_pos, suc_feats, ud_pos, ud_feats = draw(st.sampled_from(choice))
            pos, feats = (ud_pos, ud_feats) if ud else (suc_pos, suc_feats)
            usual = USUAL.get(base)
            if heads[index] == 0:
                deprel = root
            elif usual and draw(st.booleans()):
                deprel = usual[ud]
            else:
                deprel = draw(deprels)
            tokens.append(Token(index, form, base, pos, deprel, heads[index], feats))
        return apply_profile(Sentence(id="spec", tokens=tokens), profile)

    return draw_sentence()
