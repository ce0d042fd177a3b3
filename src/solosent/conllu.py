"""Reading and writing CoNLL-U shaped files.

The input format is the usual one: ten tab-separated columns per token,
``#`` comment lines, blank line between sentences.  Only the columns the
data model keeps are interpreted (ID, FORM, LEMMA, UPOS, FEATS, HEAD,
DEPREL); XPOS, DEPS and MISC are accepted and ignored.  Files annotated
with a non-universal tagset simply carry its tags in the UPOS slot, since
a tagset profile interprets them later anyway.

Multiword-token ranges (``3-4``) and empty nodes (``3.1``) are skipped.
Both LF and CRLF line endings are accepted.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

from .model import Sentence, StructureError, Token, validate_tokens

_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S.*?)\s*$")

COLUMN_COUNT = 10


class ParseError(Exception):
    """A line could not be interpreted; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _finish_sentence(sentence_id: str, rows: list[Token], line_number: int) -> Sentence:
    tokens = tuple(rows)
    try:
        validate_tokens(sentence_id, tokens)
    except StructureError as exc:
        exc.line_number = line_number
        raise
    return Sentence(id=sentence_id, tokens=tokens)


def parse_conllu(source: Union[str, Iterable[str]]) -> Iterator[Sentence]:
    """Parse a CoNLL-U character stream into Sentence values, one at a time.

    ``source`` may be a string or any iterable of lines (e.g. an open text
    file).  A sentence is yielded once its block is complete and valid,
    before the next line is read.  Sentence ids come from ``# sent_id = ...``
    comments when present and are synthesized as ``s1``, ``s2``, ... otherwise.

    Raises ParseError for malformed lines and StructureError for token
    lists that do not form a tree (cyclic heads, gaps in the indices); the
    StructureError's ``line_number`` is that of the sentence's first token
    row.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    rows: list[Token] = []
    sent_id: str | None = None
    ordinal = 0
    first_line = 0

    def block_id() -> str:
        return sent_id if sent_id is not None else f"s{ordinal}"

    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            if rows:
                yield _finish_sentence(block_id(), rows, first_line)
                rows = []
                sent_id = None
            continue
        if line.startswith("#"):
            match = _SENT_ID_RE.match(line)
            if match:
                sent_id = match.group(1)
            continue
        columns = line.split("\t")
        if len(columns) != COLUMN_COUNT:
            raise ParseError(
                line_number,
                f"expected {COLUMN_COUNT} tab-separated columns, got {len(columns)}",
            )
        token_id = columns[0]
        # isdecimal() accepts exactly the digits \d matches in a str
        if not token_id.isdecimal():
            # a multiword range N-M or an empty node N.M is skipped
            first, _, last = token_id.replace(".", "-", 1).partition("-")
            if first.isdecimal() and last.isdecimal():
                continue
            raise ParseError(line_number, f"unintelligible token id {token_id!r}")
        if not rows:
            ordinal += 1
            first_line = line_number
        head = columns[6]
        if not head.isdecimal():
            raise ParseError(
                line_number, f"head must be a non-negative integer, got {head!r}"
            )
        feats = columns[5]
        try:
            token = Token(
                int(token_id),
                columns[1],
                columns[2],
                columns[3],
                columns[7],
                int(head),
                feats if feats != "_" else "",
            )
        except ValueError as exc:
            raise ParseError(line_number, str(exc)) from exc
        rows.append(token)

    if rows:
        yield _finish_sentence(block_id(), rows, first_line)


def serialize_conllu(sentences: Iterable[Sentence]) -> str:
    """Render sentences back to CoNLL-U text.

    The output always carries a ``# sent_id`` comment and underscores in
    the columns the data model does not keep, so parse -> serialize ->
    parse is the identity on the data model.
    """
    blocks: list[str] = []
    for sentence in sentences:
        lines = [f"# sent_id = {sentence.id}"]
        for t in sentence.tokens:
            lines.append(
                "\t".join(
                    (
                        str(t.index),
                        t.form,
                        t.lemma,
                        t.pos,
                        "_",
                        t.feats if t.feats else "_",
                        str(t.head),
                        t.deprel,
                        "_",
                        "_",
                    )
                )
            )
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


__all__ = ["ParseError", "StructureError", "parse_conllu", "serialize_conllu"]
