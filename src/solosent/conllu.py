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
from .model import Sentence, StructureError, raw_columns, read_heads, validate_heads

_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S.*?)\s*$")

COLUMN_COUNT = 10


class ParseError(Exception):
    """A line could not be interpreted; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _read_rows(sentence_id: str, rows: list[tuple]) -> tuple[tuple, list[tuple]]:
    """The block's ids and raw columns, ids and heads read as ints;
    ParseError, naming its line, for the first faulty row."""
    ids, forms, lemmas, tags, deprels, heads, feats, line_numbers = zip(*rows)
    try:
        ids, heads = read_heads(ids, heads, forms)
    except ValueError as exc:
        message = f"sentence {sentence_id!r}: {exc}"
        raise ParseError(line_numbers[exc.row], message) from exc
    return ids, [forms, lemmas, tags, deprels, heads, feats]


def _finish_sentence(sentence_id: str, rows: list[tuple]) -> Sentence:
    indices, columns = _read_rows(sentence_id, rows)
    try:
        dependents = validate_heads(sentence_id, columns[4], indices)
    except StructureError as exc:
        exc.line_number = rows[0][-1]
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

    Rows fill the sentence's raw columns; no Token is built.  A row's
    column count and token id are checked as it is read; its head and
    form a block at a time, by model.read_heads, when the block ends or
    before anything else in it would raise or rename it.  So the error is
    the one a row-by-row reading gives: the first faulty line's, a row's
    ParseError naming its line and its block's id (for a token id of 0, a
    token heading itself or an empty form, say), and then the block's
    StructureError (for gaps in the ids, heads outside the sentence and
    cycles, its ``line_number`` that of the block's first token row).
    """
    lines = string_lines(source) if isinstance(source, str) else source

    # one (id digits, *raw columns, line number) per token row, its id
    # and head read when the block is
    rows: list[tuple] = []
    sent_id: str | None = None
    ordinal = 0

    def block_id() -> str:
        return sent_id if sent_id is not None else f"s{ordinal}"

    def row_error(line_number: int, message: str) -> ParseError:
        # the id of the row's block, which is numbered at its first row
        name = sent_id if sent_id is not None else f"s{ordinal + (not rows)}"
        return ParseError(line_number, f"sentence {name!r}: {message}")

    try:
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\r\n")
            if not line.strip():
                if rows:
                    block, rows = rows, []
                    yield _finish_sentence(block_id(), block)
                    sent_id = None
                continue
            if line.startswith("#"):
                match = _SENT_ID_RE.match(line)
                if match:
                    if rows:  # the rows read so far go by the old name
                        _read_rows(block_id(), rows)
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
            if not rows:
                ordinal += 1
            feats = columns[5] if columns[5] != "_" else ""
            rows.append((token_id, columns[1], columns[2], columns[3], columns[7],
                         columns[6], feats, line_number))
    except Exception:
        # whatever a later line raises, or reading it (bytes that are not
        # UTF-8, say), a fault in a row read before it is the first error
        if rows:
            _read_rows(block_id(), rows)
        raise

    if rows:
        yield _finish_sentence(block_id(), rows)


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
