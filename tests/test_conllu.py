import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import LONG_DIGITS, int_error, needs_int_digit_limit
from solosent.conllu import ParseError, parse_conllu, serialize_conllu
from solosent.model import Sentence, StructureError, Token

ROW = "1\tHon\thon\tPN\t_\tUTR|SIN|DEF\t2\tSS\t_\t_"
ROW2 = "2\tkom\tkomma\tVB\t_\tPRT|AKT\t0\tROOT\t_\t_"


class TestParse:
    def test_bundled_fixture(self, fixture_text):
        sentences = list(parse_conllu(fixture_text))
        assert [s.id for s in sentences] == [f"t{i:02d}" for i in range(1, 13)]
        assert sentences[0].text == "'' piper hon och alla skrattar ."
        assert len(sentences[11]) == 11

    def test_sent_id_fallback_is_ordinal(self):
        text = f"{ROW}\n{ROW2}\n\n{ROW}\n{ROW2}\n"
        ids = [s.id for s in parse_conllu(text)]
        assert ids == ["s1", "s2"]

    def test_sent_id_comment_wins(self):
        text = f"# sent_id = named\n{ROW}\n{ROW2}\n"
        assert list(parse_conllu(text))[0].id == "named"

    def test_accepts_iterable_of_lines(self):
        lines = [f"{ROW}\n", f"{ROW2}\n"]
        assert list(parse_conllu(lines))[0].text == "Hon kom"

    def test_crlf(self):
        text = f"{ROW}\r\n{ROW2}\r\n\r\n"
        assert len(list(parse_conllu(text))) == 1

    def test_skips_multiword_ranges_and_empty_nodes(self):
        text = (
            "1-2\tdetta\t_\t_\t_\t_\t_\t_\t_\t_\n"
            f"{ROW}\n{ROW2}\n"
            "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        s = list(parse_conllu(text))[0]
        assert [t.form for t in s] == ["Hon", "kom"]

    def test_underscore_feats_become_empty(self):
        s = list(parse_conllu(f"{ROW}\n{ROW2}\n"))[0]
        assert s.token(2).feats == "PRT|AKT"
        assert list(parse_conllu("1\tx\tx\tNN\t_\t_\t0\tSS\t_\t_\n"))[0].token(1).feats == ""

    def test_comments_ignored(self):
        text = f"# text = Hon kom\n{ROW}\n{ROW2}\n"
        assert len(list(parse_conllu(text))[0]) == 2

    def test_yields_a_sentence_before_reading_past_it(self):
        def lines():
            yield f"{ROW}\n"
            yield f"{ROW2}\n"
            yield "\n"
            raise AssertionError("read past the first sentence's blank line")

        assert next(parse_conllu(lines())).text == "Hon kom"


class TestParseErrors:
    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 1") as info:
            list(parse_conllu("1\tx\tx\n"))
        assert info.value.line_number == 1

    def test_bad_token_id(self):
        with pytest.raises(ParseError, match="token id"):
            list(parse_conllu("x\tx\tx\tNN\t_\t_\t0\tSS\t_\t_\n"))

    def test_bad_head(self):
        with pytest.raises(ParseError, match="head"):
            list(parse_conllu("1\tx\tx\tNN\t_\t_\tzero\tSS\t_\t_\n"))

    def test_self_heading_token(self):
        with pytest.raises(ParseError, match="head itself"):
            list(parse_conllu("1\tx\tx\tNN\t_\t_\t1\tSS\t_\t_\n"))

    def test_line_number_counts_comments(self):
        text = f"# one\n# two\n{ROW}\nbroken\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(text))
        assert info.value.line_number == 4

    def test_cyclic_heads_are_a_structure_error(self):
        text = (
            "1\ta\ta\tNN\t_\t_\t2\tSS\t_\t_\n"
            "2\tb\tb\tNN\t_\t_\t1\tSS\t_\t_\n"
        )
        with pytest.raises(StructureError, match="cyclic"):
            list(parse_conllu(text))

    def test_index_gap_is_a_structure_error(self):
        text = f"{ROW}\n3\tx\tx\tNN\t_\t_\t1\tSS\t_\t_\n"
        with pytest.raises(StructureError, match="contiguous"):
            list(parse_conllu(text))

    # the messages, line numbers and order of the reader's errors, pinned

    def test_zero_token_id(self):
        text = f"{ROW}\n{ROW2}\n\n0\tx\tx\tNN\t_\t_\t0\tROOT\t_\t_\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(text))
        assert str(info.value) == "line 4: token index must be >= 1, got 0"
        assert info.value.line_number == 4

    def test_empty_form(self):
        text = f"{ROW}\n2\t\tkomma\tVB\t_\tPRT|AKT\t0\tROOT\t_\t_\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(text))
        assert str(info.value) == "line 2: token 2 has an empty form"
        assert info.value.line_number == 2

    def test_head_out_of_range_is_reported_from_the_first_row(self):
        text = f"# sent_id = far\n{ROW}\n2\tkom\tkomma\tVB\t_\t_\t9\tROOT\t_\t_\n"
        with pytest.raises(StructureError) as info:
            list(parse_conllu(text))
        assert str(info.value) == "sentence 'far': token 2 has head 9 outside the sentence"
        assert info.value.line_number == 2

    def test_a_later_row_error_wins_over_an_index_gap(self):
        # the gap is a check on the whole block, made when the block ends;
        # the one-column third line ends the reading before that
        text = f"{ROW}\n3\tx\tx\tNN\t_\t_\t1\tSS\t_\t_\nbroken\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(text))
        assert str(info.value) == "line 3: expected 10 tab-separated columns, got 1"
        with pytest.raises(StructureError) as info:
            list(parse_conllu(text.replace("broken\n", "")))
        assert str(info.value) == (
            "sentence 's1': token indices not contiguous: expected 2, got 3"
        )
        assert info.value.line_number == 1

    @pytest.mark.parametrize("comment", ["# sent_id = a\tb", "#sent_id=\ta\tb\t"])
    def test_sent_id_with_a_tab(self, comment):
        """No TSV record could hold such an id, nor a gold line name it;
        the tabs around it are whitespace the reader drops."""
        text = f"{ROW}\n{ROW2}\n\n# other\n{comment}\n{ROW}\n{ROW2}\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(text))
        assert str(info.value) == "line 5: sent_id may not hold a tab: 'a\\tb'"
        assert info.value.line_number == 5
        padded = text.replace(comment, "# sent_id =\t a b\t")
        assert [s.id for s in parse_conllu(padded)] == ["s1", "a b"]

    @needs_int_digit_limit
    @pytest.mark.parametrize("row", [
        f"{LONG_DIGITS}\tx\tx\tNN\t_\t_\t0\tROOT\t_\t_",
        f"2\tx\tx\tNN\t_\t_\t{LONG_DIGITS}\tROOT\t_\t_",
    ], ids=["id", "head"])
    def test_more_digits_than_int_converts(self, row):
        with pytest.raises(ParseError) as info:
            list(parse_conllu(f"{ROW}\n{row}\n"))
        assert str(info.value) == f"line 2: {int_error(LONG_DIGITS)}"
        assert info.value.line_number == 2


class TestSerialize:
    def test_empty_input(self):
        assert serialize_conllu([]) == ""

    def test_round_trip_on_fixture(self, fixture_text, fixture_sentences):
        assert list(parse_conllu(serialize_conllu(fixture_sentences))) == fixture_sentences

    def test_emits_sent_id_and_underscores(self):
        s = list(parse_conllu(f"{ROW}\n{ROW2}\n"))[0]
        text = serialize_conllu([s])
        assert text.startswith("# sent_id = s1\n")
        assert "\t_\tUTR|SIN|DEF\t" in text
        assert text.endswith("\n")


_FORM = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzåäö", min_size=1, max_size=6
)
_POS = st.sampled_from(["NN", "VB", "PN", "AB", "KN", "MAD"])
_DEPREL = st.sampled_from(["SS", "ROOT", "OO", "TA", "++", "IP"])
_FEATS = st.sampled_from(["", "UTR|SIN|DEF", "PRT|AKT", "NEU|PLU|IND"])


@st.composite
def sentences(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    tokens = []
    for i in range(1, n + 1):
        # head strictly left of the token keeps the graph a forest
        head = draw(st.integers(min_value=0, max_value=i - 1))
        tokens.append(
            Token(
                index=i,
                form=draw(_FORM),
                lemma=draw(_FORM),
                pos=draw(_POS),
                deprel=draw(_DEPREL),
                head=head,
                feats=draw(_FEATS),
            )
        )
    ident = draw(st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8))
    return Sentence(id=ident, tokens=tuple(tokens))


@given(st.lists(sentences(), max_size=5))
def test_round_trip_is_identity(batch):
    # ids may repeat across generated sentences; round-trip does not care
    assert list(parse_conllu(serialize_conllu(batch))) == batch


# --- token id and head classification against the regexes it replaced -----

_TOKEN_ID_RE = re.compile(r"^\d+$")
_RANGE_ID_RE = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID_RE = re.compile(r"^\d+\.\d+$")


def _class_by_regex(token_id, head):
    if _RANGE_ID_RE.match(token_id) or _EMPTY_NODE_ID_RE.match(token_id):
        return "skipped", None
    if not _TOKEN_ID_RE.match(token_id):
        return "bad id", f"line 1: unintelligible token id {token_id!r}"
    if not _TOKEN_ID_RE.match(head):
        return "bad head", f"line 1: head must be a non-negative integer, got {head!r}"
    return "token", None


def _class_by_parser(token_id, head):
    line = f"{token_id}\tx\tx\tNN\t_\t_\t{head}\tSS\t_\t_"
    try:
        sentences = list(parse_conllu([line]))
    except ParseError as exc:
        message = str(exc)
        if "unintelligible token id" in message:
            return "bad id", message
        if "head must be a non-negative integer" in message:
            return "bad head", message
        return "token", None
    except StructureError:
        return "token", None
    return ("token", None) if sentences else ("skipped", None)


# column text without tabs or line breaks: a number, two numbers around a
# separator, or anything; U+0663 and U+FF17 are decimal digits, U+00B2 and
# U+2167 numeric characters that are not
_NUMBER = st.text(
    st.sampled_from("0179\u0663\uff17\u00b2\u2167"), min_size=1, max_size=3
)
_COLUMN = st.one_of(
    _NUMBER,
    st.tuples(
        _NUMBER,
        st.sampled_from(["-", ".", "--", ".-", "..", " ", "x", "\r"]),
        _NUMBER,
        st.sampled_from(["", "-", ".", "1"]),
    ).map("".join),
    st.text(st.characters(blacklist_characters="\t\n"), max_size=8),
)


@settings(max_examples=500)
@given(_COLUMN, _COLUMN)
def test_id_and_head_classification_matches_the_regexes(token_id, head):
    assume(not token_id.startswith("#"))
    assert _class_by_parser(token_id, head) == _class_by_regex(token_id, head)


# --- any text: the parser fails only with its own errors -------------------

_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_ANY_TEXT = st.builds(
    lambda bom, pieces: ("\ufeff" if bom else "") + "".join(pieces),
    st.booleans(),
    st.lists(
        st.one_of(
            st.text(max_size=6),
            st.sampled_from(_BREAKS + ["\t", "\t_", "#", "0", "1", "2", "1-2", "1.1"]),
            st.sampled_from([ROW, ROW2]),
        ),
        max_size=30,
    ),
)


@settings(max_examples=500, deadline=None)
@given(_ANY_TEXT)
def test_any_text_raises_only_parse_or_structure_errors(text):
    try:
        for sentence in parse_conllu(text):
            assert isinstance(sentence, Sentence)
    except (ParseError, StructureError):
        pass
