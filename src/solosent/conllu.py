"""Reading and writing CoNLL-U shaped files.

The input format is the usual one: ten tab-separated columns per token,
``#`` comment lines, blank line between sentences.  Only the columns the
data model keeps are interpreted (ID, FORM, LEMMA, UPOS, FEATS, HEAD,
DEPREL); XPOS, DEPS and MISC are accepted and ignored.  Files annotated
with a non-universal tagset simply carry its tags in the UPOS slot, since
a tagset profile interprets them later anyway.

Multiword-token ranges (``3-4``) and empty nodes (``3.1``) are skipped.
A string is split into lines as a file is: after one leading BOM, at LF,
CRLF and CR only.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

from ._text import string_lines
from .model import Sentence, StructureError, raw_columns, read_row, validate_heads

_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S.*?)\s*$")

COLUMN_COUNT = 10


class ParseError(Exception):
    """A line could not be interpreted; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _finish_sentence(sentence_id: str, rows: list[tuple], line_number: int) -> Sentence:
    indices, *columns = zip(*rows)
    try:
        dependents = validate_heads(sentence_id, columns[4], indices)
    except StructureError as exc:
        exc.line_number = line_number
        raise
    return Sentence._from_columns(sentence_id, *columns, dependents)


def parse_conllu(source: Union[str, Iterable[str]]) -> Iterator[Sentence]:
    """Parse a CoNLL-U character stream into Sentence values, one at a time.

    ``source`` may be a string or any iterable of lines (e.g. an open text
    file, whose lines are taken as they come).  A sentence is yielded once
    its block is complete and valid, before the next line is read.
    Sentence ids come from ``# sent_id = ...`` comments when present and
    are synthesized as ``s1``, ``s2``, ... otherwise; a sent_id that
    holds a tab is refused with ParseError, naming the comment's line.

    Rows fill the sentence's raw columns; no Token is built.  A row is
    checked as it is read (ParseError, naming its line and its block's id,
    for a token id of 0, a token heading itself or an empty form, say), a
    block when it ends (StructureError for gaps in the ids, heads outside
    the sentence and cycles, its ``line_number`` that of the block's first
    token row).
    """
    lines = string_lines(source) if isinstance(source, str) else source

    rows: list[tuple] = []  # one (index, *raw columns) per token row
    sent_id: str | None = None
    ordinal = 0
    first_line = 0

    def block_id() -> str:
        return sent_id if sent_id is not None else f"s{ordinal}"

    def row_error(line_number: int, message: str) -> ParseError:
        # the id of the row's block, which is numbered once a first row
        # passes these checks
        name = sent_id if sent_id is not None else f"s{ordinal + (not rows)}"
        return ParseError(line_number, f"sentence {name!r}: {message}")

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
                if "\t" in sent_id:  # no TSV record or gold line could hold it
                    raise ParseError(line_number, f"sent_id may not hold a tab: {sent_id!r}")
            continue
        columns = line.split("\t")
        if len(columns) != COLUMN_COUNT:
            raise row_error(
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
            raise row_error(line_number, f"unintelligible token id {token_id!r}")
        form = columns[1]
        try:
            head = read_row(token_id, columns[6], form)
        except ValueError as exc:
            raise row_error(line_number, str(exc)) from exc
        if not rows:
            ordinal += 1
            first_line = line_number
        feats = columns[5] if columns[5] != "_" else ""
        rows.append((int(token_id), form, columns[2], columns[3], columns[7], head, feats))

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
        for index, form, lemma, tag, deprel, head, feats in zip(
            range(1, len(sentence) + 1), *raw_columns(sentence)
        ):
            lines.append(
                f"{index}\t{form}\t{lemma}\t{tag}\t_\t{feats or '_'}\t{head}\t{deprel}\t_\t_"
            )
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


__all__ = ["ParseError", "StructureError", "parse_conllu", "serialize_conllu"]
