import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from helpers import LONG_DIGITS, int_error, needs_int_digit_limit
from solosent.cli import main
from solosent.concordance import (
    ConcordanceHit,
    ConcordanceQuery,
    DecodeError,
    IngestIssue,
    ServiceError,
    TransportError,
    TransportReply,
    UrllibTransport,
    build_request,
    fetch_page,
    normalize_hits,
    settings_from_mapping,
    to_sentences,
)
from solosent.conllu import ParseError, parse_conllu, serialize_conllu
from solosent.detectors import ConfigError
from solosent.model import Category, raw_columns
from solosent.profiles import CoverageCounter, apply_profile

ENDPOINT = "https://example.invalid/korp"


class CannedTransport:
    """Always answers with one prepared reply, remembering the URLs."""

    def __init__(self, status=200, body=b""):
        self.reply = TransportReply(status=status, body=body)
        self.urls = []

    def get(self, url):
        self.urls.append(url)
        return self.reply


def page_body(hits, total=None):
    payload = {"kwic": hits}
    if total is not None:
        payload["hits"] = total
    return json.dumps(payload).encode("utf-8")


def hit_token(word, lemma, pos, msd, dephead, deprel):
    return {
        "word": word,
        "lemma": lemma,
        "pos": pos,
        "msd": msd,
        "ref": "0",
        "dephead": dephead,
        "deprel": deprel,
    }


WEATHER_HIT = {
    "corpus": "SUC3",
    "match": {"position": "1041"},
    "tokens": [
        hit_token("Det", "det", "PN", "NEU|SIN|DEF", "2", "SS"),
        hit_token("regnar", "regna", "VB", "PRS|AKT", "0", "ROOT"),
        hit_token(".", ".", "MAD", "", "2", "IP"),
    ],
}


class TestBuildRequest:
    def test_parameter_order_and_paging(self):
        query = ConcordanceQuery(
            query_expression='[pos="VB"]',
            corpora=("SUC3", "TALBANKEN"),
            page_start=50,
            page_size=25,
        )
        spec = build_request(query, ENDPOINT)
        assert spec.method == "GET"
        assert [name for name, _ in spec.params] == ["corpus", "cqp", "start", "end"]
        assert dict(spec.params) == {
            "corpus": "SUC3,TALBANKEN",
            "cqp": '[pos="VB"]',
            "start": "50",
            "end": "74",
        }

    def test_url_is_deterministic(self):
        query = ConcordanceQuery(query_expression="[word]", corpora=("SUC3",))
        assert build_request(query, ENDPOINT).url == build_request(query, ENDPOINT).url

    def test_api_key_appended_last(self):
        query = ConcordanceQuery(query_expression="[word]", corpora=("SUC3",))
        spec = build_request(query, ENDPOINT, api_key="sesame")
        assert spec.params[-1] == ("key", "sesame")
        assert "key=sesame" in spec.url

    def test_relative_endpoint_rejected(self):
        query = ConcordanceQuery(query_expression="[word]", corpora=("SUC3",))
        with pytest.raises(ConfigError, match="http"):
            build_request(query, "korp.example.org/api")

    def test_empty_query_parts_rejected(self):
        with pytest.raises(ConfigError, match="corpora"):
            build_request(
                ConcordanceQuery(query_expression="[word]", corpora=()), ENDPOINT
            )
        with pytest.raises(ConfigError, match="expression"):
            build_request(
                ConcordanceQuery(query_expression="", corpora=("SUC3",)), ENDPOINT
            )

    def test_page_bounds(self):
        for size in (0, 1001):
            with pytest.raises(ConfigError, match="page_size"):
                build_request(
                    ConcordanceQuery(
                        query_expression="[word]", corpora=("SUC3",), page_size=size
                    ),
                    ENDPOINT,
                )
        with pytest.raises(ConfigError, match="page_start"):
            build_request(
                ConcordanceQuery(
                    query_expression="[word]", corpora=("SUC3",), page_start=-1
                ),
                ENDPOINT,
            )


def simple_request():
    return build_request(
        ConcordanceQuery(query_expression="[word]", corpora=("SUC3",)), ENDPOINT
    )


class TestFetchPage:
    def test_parses_hits(self):
        transport = CannedTransport(body=page_body([WEATHER_HIT], total=1))
        result = fetch_page(simple_request(), transport)
        assert result.skipped == 0
        assert len(result.hits) == 1
        hit = result.hits[0]
        assert hit.corpus == "SUC3"
        assert hit.position == "1041"
        assert hit.forms == ("Det", "regnar", ".")
        assert hit.feats == ("NEU|SIN|DEF", "PRS|AKT", "")
        assert transport.urls == [simple_request().url]

    def test_position_falls_back_to_offset(self):
        hit = dict(WEATHER_HIT)
        del hit["match"]
        transport = CannedTransport(body=page_body([hit]))
        result = fetch_page(simple_request(), transport)
        assert result.hits[0].position == "0"

    def test_unusable_hits_skipped_and_counted(self):
        broken = {
            "corpus": "SUC3",
            "tokens": [{"word": "Det", "deprel": "SS"}],  # no dephead
        }
        empty = {"corpus": "SUC3", "tokens": []}
        transport = CannedTransport(
            body=page_body([WEATHER_HIT, broken, "not-a-hit", empty])
        )
        result = fetch_page(simple_request(), transport)
        assert len(result.hits) == 1
        assert result.skipped == 3

    def test_fields_of_the_wrong_json_type_skip_the_hit(self):
        # once written as 1\t['Det']\t_\tNone\t_\t_\t0\tTrue\t_\t_
        wrong = {
            "corpus": "SUC3",
            "tokens": [{"word": ["Det"], "deprel": True, "pos": None, "dephead": "0"}],
        }
        # text CoNLL-U cannot carry: once an 11-column row, a sent_id comment
        # over two lines, a UnicodeEncodeError and ids the reader strips
        first, *rest = WEATHER_HIT["tokens"]
        unwritable = [
            dict(WEATHER_HIT, tokens=[dict(first, word="a\tb"), *rest]),
            dict(WEATHER_HIT, corpus="Y\nZ"),
            dict(WEATHER_HIT, tokens=[dict(first, word="\ud800"), *rest]),
            dict(WEATHER_HIT, corpus=" SUC3"),
            dict(WEATHER_HIT, match={"position": "1041 "}),
        ]
        result = fetch_page(
            simple_request(),
            CannedTransport(body=page_body([WEATHER_HIT, wrong, *unwritable])),
        )
        assert [hit.position for hit in result.hits] == ["1041"]
        assert result.skipped == 1 + len(unwritable)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("tokens", 0, "word"), 7),
            (("tokens", 0, "deprel"), ["SS"]),
            (("tokens", 0, "dephead"), True),
            (("tokens", 0, "dephead"), 2.0),
            (("tokens", 0, "lemma"), 5),
            (("tokens", 0, "pos"), {"tag": "PN"}),
            (("tokens", 0, "msd"), False),
            (("corpus",), ["SUC3"]),
            (("corpus",), None),
            (("match", "position"), {"p": 1}),
            (("match", "position"), None),
        ],
    )
    def test_each_field_type_is_checked(self, path, value):
        hit = json.loads(json.dumps(WEATHER_HIT))
        *parents, key = path
        target = hit
        for part in parents:
            target = target[part]
        target[key] = value
        result = fetch_page(simple_request(), CannedTransport(body=page_body([hit])))
        assert (result.hits, result.skipped) == ((), 1)

    def test_null_optional_fields_count_as_absent(self):
        token = {"word": "Regnar", "deprel": "ROOT", "dephead": 0,
                 "pos": None, "lemma": None, "msd": None}
        hit = {"corpus": "SUC3", "match": {"position": 7}, "tokens": [token]}
        result = fetch_page(simple_request(), CannedTransport(body=page_body([hit])))
        assert result.skipped == 0
        (parsed,) = result.hits
        assert parsed.position == "7"
        assert parsed == ConcordanceHit(
            "SUC3", "7", ("Regnar",), ("_",), ("",), ("ROOT",), ("0",), ("",)
        )
        absent = {"word": "Regnar", "deprel": "ROOT", "dephead": "0"}
        result = fetch_page(
            simple_request(),
            CannedTransport(body=page_body([dict(hit, tokens=[absent])])),
        )
        assert result.hits == (parsed,)

    def test_http_error_raises(self):
        transport = CannedTransport(status=500, body=b"boom")
        with pytest.raises(ServiceError, match="HTTP 500"):
            fetch_page(simple_request(), transport)
        try:
            fetch_page(simple_request(), transport)
        except ServiceError as exc:
            assert exc.status == 500

    def test_bad_json_raises(self):
        transport = CannedTransport(body=b"<html>oops</html>")
        with pytest.raises(DecodeError, match="not JSON"):
            fetch_page(simple_request(), transport)

    def test_missing_kwic_raises(self):
        transport = CannedTransport(body=b'{"hits": 3}')
        with pytest.raises(DecodeError, match="kwic"):
            fetch_page(simple_request(), transport)

    def test_kwic_must_be_a_list(self):
        transport = CannedTransport(body=b'{"kwic": {"a": 1}}')
        with pytest.raises(DecodeError, match="list"):
            fetch_page(simple_request(), transport)

    @pytest.mark.parametrize(
        "body",
        [b"1" * 5000, b"[" * 100_000, b'{"kwic": [' + b"[" * 100_000 + b"]}"],
        ids=["integer_too_long", "nested_too_deep", "hit_nested_too_deep"],
    )
    def test_hostile_json_raises_decode_error(self, body):
        with pytest.raises(DecodeError, match="not JSON"):
            fetch_page(simple_request(), CannedTransport(body=body))


class TestUrllibTransport:
    """The stdlib transport, which imports the network stack on first use,
    against a server on loopback."""

    @pytest.fixture
    def endpoint(self, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server naming
                path = self.path.partition("?")[0]
                if path == "/garbage":  # not an HTTP status line
                    self.wfile.write(b"garbage\r\n\r\n")
                    return
                ok = path == "/ok" or path.startswith("/ok/")
                status, body = (200, b'{"kwic": []}') if ok else (500, b"boom")
                self.send_response(status)
                # a /short reply promises more bytes than it sends, then closes
                length = 1000 if path.endswith("/short") else len(body)
                self.send_header("Content-Length", str(length))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield f"http://127.0.0.1:{server.server_port}"
        server.shutdown()
        server.server_close()

    def test_replies_with_status_and_body(self, endpoint):
        transport = UrllibTransport(timeout=10)
        assert transport.get(endpoint + "/ok") == TransportReply(200, b'{"kwic": []}')
        assert transport.get(endpoint + "/fail") == TransportReply(500, b"boom")

    @pytest.mark.parametrize("path, read", [("/ok/short", 12), ("/fail/short", 4)])
    def test_truncated_reply(self, endpoint, path, read):
        url = endpoint + path
        with pytest.raises(TransportError) as info:
            UrllibTransport(timeout=10).get(url)
        assert str(info.value) == (
            f"cannot read the reply from {url}: "
            f"IncompleteRead({read} bytes read, {1000 - read} more expected)"
        )

    def test_reply_that_is_not_http(self, endpoint):
        url = endpoint + "/garbage"
        with pytest.raises(TransportError, match=f"cannot read the reply from {url}: "):
            UrllibTransport(timeout=10).get(url)

    def test_truncated_reply_is_one_error_line(self, endpoint, capsys, tmp_path):
        conf = tmp_path / "fetch.conf"
        conf.write_text(
            f"fetch.endpoint = {endpoint}/ok/short\n"
            'fetch.cqp = [pos="VB"]\n'
            "fetch.corpora = SUC3\n",
            encoding="utf-8",
        )
        target = tmp_path / "fetched.conllu"
        target.write_text("earlier run\n", encoding="utf-8")
        code = main(["--mode", "fetch", "--config", str(conf), "--output", str(target)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read the reply from {endpoint}/ok/short?")
        assert err.endswith(": IncompleteRead(12 bytes read, 988 more expected)\n")
        assert err.count("\n") == 1
        assert target.read_bytes() == b"earlier run\n"

    def test_unreachable_service(self):
        with socket.socket() as probe:  # a loopback port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(TransportError, match="cannot reach"):
            UrllibTransport(timeout=10).get(f"http://127.0.0.1:{port}/")


def column_hit(position, forms, heads):
    """A hit of nouns, each with lemma x and no features."""
    n = len(forms)
    return ConcordanceHit(
        "SUC3", position, tuple(forms), ("x",) * n, ("NN",) * n, ("SS",) * n,
        tuple(heads), ("",) * n,
    )


class TestToSentences:
    def test_hit_becomes_annotated_sentence(self, suc):
        transport = CannedTransport(body=page_body([WEATHER_HIT]))
        result = fetch_page(simple_request(), transport)
        sentences, issues = to_sentences(result.hits, suc)
        assert issues == []
        (sentence,) = sentences
        assert sentence.id == "SUC3:1041"
        assert sentence.source.corpus == "SUC3"
        assert sentence.token(1).category is Category.PRONOUN
        assert sentence.token(2).category is Category.VERB

    def test_sentence_shares_the_hit_columns(self):
        """normalize_hits builds new tuples only for the heads, which become
        ints, and for feats that hold an msd of _; the others are the hit's."""
        transport = CannedTransport(body=page_body([WEATHER_HIT]))
        (hit,) = fetch_page(simple_request(), transport).hits
        (sentence,), _ = normalize_hits([hit])
        for column in ("forms", "lemmas", "tags", "deprels", "feats"):
            assert getattr(sentence, column) is getattr(hit, column)
        assert sentence.heads == (2, 0, 2)

    def test_matches_conllu_parse(self, suc):
        block = (
            "# sent_id = SUC3:1041\n"
            "1\tDet\tdet\tPN\t_\tNEU|SIN|DEF\t2\tSS\t_\t_\n"
            "2\tregnar\tregna\tVB\t_\tPRS|AKT\t0\tROOT\t_\t_\n"
            "3\t.\t.\tMAD\t_\t_\t2\tIP\t_\t_\n"
        )
        from_conllu = [apply_profile(s, suc) for s in parse_conllu(block)]
        transport = CannedTransport(body=page_body([WEATHER_HIT]))
        sentences, _ = to_sentences(fetch_page(simple_request(), transport).hits, suc)
        assert sentences == from_conllu

    def test_cyclic_hit_excluded_with_issue(self, suc):
        cyclic = {
            "corpus": "SUC3",
            "match": {"position": "7"},
            "tokens": [
                hit_token("a", "a", "NN", "", "2", "SS"),
                hit_token("b", "b", "NN", "", "1", "SS"),
            ],
        }
        transport = CannedTransport(body=page_body([cyclic, WEATHER_HIT]))
        sentences, issues = to_sentences(
            fetch_page(simple_request(), transport).hits, suc
        )
        assert [s.id for s in sentences] == ["SUC3:1041"]
        assert len(issues) == 1
        assert issues[0].sentence_id == "SUC3:7"
        assert "cyclic" in issues[0].message

    def test_non_numeric_head_excluded_with_issue(self, suc):
        bad = {
            "corpus": "SUC3",
            "match": {"position": "8"},
            "tokens": [hit_token("a", "a", "NN", "", "root", "SS")],
        }
        transport = CannedTransport(body=page_body([bad]))
        sentences, issues = to_sentences(
            fetch_page(simple_request(), transport).hits, suc
        )
        assert sentences == []
        assert issues[0].sentence_id == "SUC3:8"

    @pytest.mark.parametrize("head", ["1_0", " 2 ", "+1", "-1"])
    def test_head_read_as_the_conllu_reader_reads_it(self, head):
        """int() would take these as 10, 2, 1 and -1; the first three would
        make an ordinary tree of this 14-token hit."""
        heads = ["0"] + ["1"] * 13
        heads[1] = head
        hit = column_hit("12", [f"w{i}" for i in range(len(heads))], heads)
        sentences, issues = normalize_hits([hit])
        assert sentences == []
        assert issues == [
            IngestIssue("SUC3:12", f"head must be a non-negative integer, got {head!r}")
        ]
        row = f"1\tw\tw\tNN\t_\t_\t{head}\tSS\t_\t_\n"
        with pytest.raises(ParseError) as info:
            list(parse_conllu(row))
        assert str(info.value) == f"line 1: {issues[0].message}"

    def test_msd_underscore_is_no_features(self):
        """An msd of _ is read as the CoNLL-U reader reads a FEATS of _, so
        the sentence that fetch writes reads back as itself."""
        hit = ConcordanceHit(
            "SUC3", "5", ("Det", "regnar"), ("det", "regna"), ("PN", "VB"), ("SS", "ROOT"),
            ("2", "0"), ("_", "PRS|AKT"),
        )
        sentences, issues = normalize_hits([hit])
        assert issues == []
        assert [t.feats for t in sentences[0].tokens] == ["", "PRS|AKT"]
        assert list(parse_conllu(serialize_conllu(sentences))) == sentences

    @pytest.mark.parametrize("rows, message", [
        ([("Jag", "1")], "token 1 may not head itself"),
        ([("", "0")], "token 1 has an empty form"),
        ([("a", "0"), ("", "2")], "token 2 may not head itself"),
        ([("", "0"), ("b", "2")], "token 1 has an empty form"),
        ([("a", "0"), ("b", "7")], "sentence 'SUC3:5': token 2 has head 7 outside the sentence"),
        ([("a", "2"), ("b", "1"), ("c", "9")],
         "sentence 'SUC3:5': token 3 has head 9 outside the sentence"),
        ([("a", "0"), ("b", "3"), ("c", "2")], "sentence 'SUC3:5': cyclic head chain through token 2"),
        ([], "sentence 'SUC3:5': no tokens"),
        # a head with more digits than int() converts, in its row's turn
        *(pytest.param(rows, message, marks=needs_int_digit_limit) for rows, message in [
            ([("a", "0"), ("b", LONG_DIGITS)], int_error(LONG_DIGITS)),
            ([("a", LONG_DIGITS), ("", "1")], int_error(LONG_DIGITS)),
            ([("", "0"), ("b", LONG_DIGITS)], "token 1 has an empty form"),
        ]),
    ])
    def test_issue_messages(self, rows, message):
        """Row checks come first, token by token, then the range of the
        heads, then cycles; the messages are those of the CoNLL-U reader."""
        hit = column_hit("5", [form for form, _ in rows], [head for _, head in rows])
        sentences, issues = normalize_hits([hit])
        assert sentences == []
        assert issues == [IngestIssue("SUC3:5", message)]

    def test_coverage_counter_sees_unknown_tags(self, suc):
        odd = {
            "corpus": "SUC3",
            "match": {"position": "9"},
            "tokens": [
                hit_token("Blip", "blip", "ZZ", "", "0", "ROOT"),
                hit_token(".", ".", "MAD", "", "1", "IP"),
            ],
        }
        coverage = CoverageCounter()
        transport = CannedTransport(body=page_body([odd]))
        to_sentences(fetch_page(simple_request(), transport).hits, suc, coverage)
        assert coverage.unknown_pos["ZZ"] == 1


# Korp-shaped pages with arbitrary JSON in place of the kwic list, a hit,
# its tokens, match and corpus, and any token field; plus any JSON and any bytes
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["", "0", "1", "2", "-1", "x", " 1", "1.0", "\u0663"]),
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_TEXT = st.one_of(st.text(min_size=1, max_size=4), _JSON)
_HEAD = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "x", " 2", "\u0661"]),
    st.integers(min_value=-1, max_value=4),
    _JSON,
)
_TOKEN = st.fixed_dictionaries(
    {"word": _TEXT, "deprel": _TEXT, "dephead": _HEAD},
    optional={key: _TEXT for key in ("lemma", "pos", "msd", "ref")},
)
_HIT = st.fixed_dictionaries(
    {"tokens": st.lists(_TOKEN, max_size=5) | _JSON},
    optional={
        "corpus": _JSON,
        "match": st.fixed_dictionaries({"position": _JSON}) | _JSON,
    },
)
# any text, a lone surrogate too (JSON escapes it as \ud800)
_STRING = st.text(st.characters(exclude_categories=()), min_size=1, max_size=4)
# a hit whose fields all have the right JSON type, so most become sentences
_TYPED_HIT = st.fixed_dictionaries(
    {
        "corpus": _STRING,
        "match": st.fixed_dictionaries({"position": _STRING | st.integers(0, 9)}),
        "tokens": st.lists(
            st.fixed_dictionaries(
                {"word": _STRING, "deprel": _STRING, "dephead": st.just(0)},
                optional={key: _STRING | st.just("_") for key in ("lemma", "pos", "msd")},
            ),
            min_size=1,
            max_size=3,
        ),
    }
)
_PAGE = st.fixed_dictionaries(
    {"kwic": st.lists(_TYPED_HIT, max_size=4) | st.lists(_HIT | _JSON, max_size=4) | _JSON},
    optional={"hits": _JSON},
)
_BODY = st.one_of(
    _PAGE.map(lambda page: json.dumps(page).encode("utf-8")),
    _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    st.binary(max_size=20),
)


def _served_columns(item):
    """The RAW_COLUMNS of a served kwic item's tokens, as a hit holds them:
    a missing or null lemma is _, a missing or null pos or msd is empty,
    an integer dephead is its digits.  None when there are no such tokens."""
    tokens = item.get("tokens") if isinstance(item, dict) else None
    if not isinstance(tokens, list) or not all(isinstance(t, dict) for t in tokens):
        return None

    def text(token, key, absent=None):
        value = token.get(key)
        if key == "dephead" and type(value) is int:
            return str(value)
        return absent if value is None else value

    return tuple(zip(*(
        (text(t, "word"), text(t, "lemma", "_"), text(t, "pos", ""),
         text(t, "deprel"), text(t, "dephead"), text(t, "msd", ""))
        for t in tokens
    )))


@settings(max_examples=400, deadline=None)
@given(_BODY)
def test_fetch_decoder_fails_only_with_decode_error(body):
    """Whatever a service answers with 200, fetch_page either gives hits or
    raises DecodeError, and normalize_hits turns every hit it gives into a
    sentence or an IngestIssue without raising.  Each hit holds its served
    token fields, in order, as columns.  The sentences are written as
    UTF-8 CoNLL-U that reads back to the same text."""
    try:
        result = fetch_page(simple_request(), CannedTransport(body=body))
    except DecodeError:
        return
    # the hits are served items in page order: each is found after the last
    served = map(_served_columns, json.loads(body.decode("utf-8"))["kwic"])
    for hit in result.hits:
        assert raw_columns(hit) in served
    sentences, issues = normalize_hits(result.hits)
    assert len(sentences) + len(issues) == len(result.hits)
    text = serialize_conllu(sentences)
    text.encode("utf-8")
    read_back = list(parse_conllu(text))
    assert read_back == sentences
    assert serialize_conllu(read_back) == text


class TestSettings:
    FULL = {
        "fetch.endpoint": ENDPOINT,
        "fetch.cqp": '[pos="VB"]',
        "fetch.corpora": "SUC3, TALBANKEN",
        "fetch.page_size": "100",
        "fetch.pages": "3",
        "fetch.api_key": "sesame",
    }

    def test_full_mapping(self):
        settings = settings_from_mapping(self.FULL, {})
        assert settings.endpoint == ENDPOINT
        assert settings.corpora == ("SUC3", "TALBANKEN")
        assert settings.page_size == 100
        assert settings.pages == 3
        assert settings.api_key == "sesame"

    def test_environment_overrides_endpoint(self):
        settings = settings_from_mapping(
            self.FULL, {"SOLOSENT_ENDPOINT": "https://other.invalid/api"}
        )
        assert settings.endpoint == "https://other.invalid/api"

    def test_defaults(self):
        minimal = {
            "fetch.endpoint": ENDPOINT,
            "fetch.cqp": "[word]",
            "fetch.corpora": "SUC3",
        }
        settings = settings_from_mapping(minimal, {})
        assert settings.page_size == 25
        assert settings.pages == 1
        assert settings.api_key is None

    def test_missing_pieces_rejected(self):
        with pytest.raises(ConfigError, match="endpoint"):
            settings_from_mapping({"fetch.cqp": "x", "fetch.corpora": "A"}, {})
        with pytest.raises(ConfigError, match="cqp"):
            settings_from_mapping(
                {"fetch.endpoint": ENDPOINT, "fetch.corpora": "A"}, {}
            )
        with pytest.raises(ConfigError, match="corpora"):
            settings_from_mapping(
                {"fetch.endpoint": ENDPOINT, "fetch.cqp": "x"}, {}
            )

    def test_negative_pages_rejected(self):
        mapping = dict(self.FULL, **{"fetch.pages": "-2"})
        with pytest.raises(ConfigError, match="fetch.pages must be >= 0, got -2"):
            settings_from_mapping(mapping, {})

    def test_zero_pages_allowed(self):
        mapping = dict(self.FULL, **{"fetch.pages": "0"})
        assert settings_from_mapping(mapping, {}).pages == 0

    @pytest.mark.parametrize("pages", ["0", "1"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fetch.endpoint", "ftp://x", "endpoint must be an absolute http(s) URL, got 'ftp://x'"),
            ("fetch.page_size", "0", "page_size must be between 1 and 1000, got 0"),
            ("fetch.page_size", "1001", "page_size must be between 1 and 1000, got 1001"),
        ],
    )
    def test_request_checks_hold_whatever_the_pages(self, pages, key, value, message):
        """The settings pass build_request's checks of a first page, so no
        page count hides a bad endpoint or page size."""
        mapping = dict(self.FULL, **{"fetch.pages": pages, key: value})
        with pytest.raises(ConfigError) as info:
            settings_from_mapping(mapping, {})
        assert str(info.value) == message

    def test_bad_integer_rejected(self):
        mapping = dict(self.FULL, **{"fetch.pages": "three"})
        with pytest.raises(ConfigError, match="fetch.pages"):
            settings_from_mapping(mapping, {})
