"""Shared builders for tests.

Most detector tests want a one-liner from "annotated Swedish words" to an
AnnotatedSentence. The mini-format here is one token per line with six
whitespace-separated fields:

    form lemma pos feats head deprel

using the raw tagset of whichever profile the test passes (suc-mamba unless
said otherwise). Feats use "_" for none, as in CoNLL-U.
"""

from __future__ import annotations

import sys

import pytest

from solosent.conllu import parse_conllu
from solosent.model import AnnotatedSentence, Sentence
from solosent.profiles import TagsetProfile, apply_profile, load_profile

SUC = load_profile("suc-mamba")
UD = load_profile("ud")

# a decimal string longer than int() converts (sys.get_int_max_str_digits),
# and the words of the ValueError that int() raises for it
LONG_DIGITS = "1" * 5000
needs_int_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts decimal strings of any length here",
)


def int_error(digits: str) -> str | None:
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return None


def conllu_block(rows: str, sent_id: str = "s1") -> str:
    lines = [f"# sent_id = {sent_id}"]
    index = 0
    for raw in rows.strip().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        form, lemma, pos, feats, head, deprel = raw.split()
        index += 1
        lines.append(
            f"{index}\t{form}\t{lemma}\t{pos}\t_\t{feats}\t{head}\t{deprel}\t_\t_"
        )
    return "\n".join(lines) + "\n"


def parse_one(rows: str, sent_id: str = "s1") -> Sentence:
    sentences = list(parse_conllu(conllu_block(rows, sent_id)))
    assert len(sentences) == 1
    return sentences[0]


def annotate(
    rows: str, sent_id: str = "s1", profile: TagsetProfile = SUC
) -> AnnotatedSentence:
    return apply_profile(parse_one(rows, sent_id), profile)
