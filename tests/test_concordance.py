import contextlib
import gc
import http.client
import io
import json
import os
import re
import runpy
import socket
import string
import subprocess
import sys
import sysconfig
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from itertools import chain, count, cycle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import LONG_DIGITS, int_error, needs_int_digit_limit
from solosent.cli import main
from solosent.concordance import (
    ConcordanceHit,
    ConcordanceQuery,
    DecodeError,
    HttpTransport,
    IngestIssue,
    ServiceError,
    TransportError,
    TransportReply,
    _read_reply,
    build_request,
    fetch_page,
    normalize_hits,
    settings_from_mapping,
    to_sentences,
)
from solosent.config import read_config_file
from solosent.conllu import ParseError, parse_conllu, serialize_conllu
from solosent.detectors import ConfigError
from solosent.model import Category, StructureError, raw_columns
from solosent.profiles import CoverageCounter, apply_profile

ENDPOINT = "https://example.invalid/korp"
# bench/, read only: gen.py makes Korp pages of long sentences
BENCH = Path(__file__).resolve().parent.parent / "bench"


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

    @pytest.mark.parametrize(
        "endpoint",
        [
            "http://[::1", "http://h:abc/", "http://h:-1/", "http://h:65536/",
            # no host
            "http://", "http://:80/", "https://@/", "http:///korp",
            # a space or a control character, which urlsplit keeps or drops
            "http://a b/", "http://h/a b", "http://h/\tx", "http://h\n/", "http://h/\x00",
            "http://h/\u2028",
            # the request adds its own query: one in the endpoint would be
            # garbled, and a fragment would drop it
            "http://h/korp?a=1", "http://h/korp?", "http://h?x", "http://h/korp#x",
            "https://h/#",
            # a request line is ASCII
            "http://127.0.0.1:9/korp\u00e9", "http://h/\u00e5/api",
        ],
    )
    def test_malformed_endpoint_rejected(self, endpoint):
        query = ConcordanceQuery(query_expression="[word]", corpora=("SUC3",))
        message = f"^endpoint {re.escape(repr(endpoint))} is not a valid URL"
        with pytest.raises(ConfigError, match=message):
            build_request(query, endpoint)

    def test_host_outside_ascii_accepted(self):
        """HttpTransport sends such a host in its IDNA form."""
        query = ConcordanceQuery(query_expression="[word]", corpora=("SUC3",))
        spec = build_request(query, "https://b\u00fccher.example/korp")
        assert spec.url.startswith("https://b\u00fccher.example/korp?corpus=SUC3&")

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

    def test_position_falls_back_to_index_in_query(self):
        # the first such hit of a later page is not :0 again
        hit = dict(WEATHER_HIT)
        del hit["match"]
        query = ConcordanceQuery("[word]", ("SUC3",), page_start=250, page_size=250)
        transport = CannedTransport(body=page_body([hit, WEATHER_HIT, hit]))
        result = fetch_page(build_request(query, ENDPOINT), transport)
        assert [h.position for h in result.hits] == ["250", "1041", "252"]

    def test_equal_strings_of_a_page_are_one_object(self):
        other = dict(WEATHER_HIT, match={"position": "2082"})
        first, second = fetch_page(
            simple_request(), CannedTransport(body=page_body([WEATHER_HIT, other]))
        ).hits
        assert first.position != second.position
        pairs = list(zip(chain([first.corpus], *raw_columns(first)),
                         chain([second.corpus], *raw_columns(second))))
        assert len(pairs) == 1 + 6 * 3
        assert all(a is b for a, b in pairs)

    def test_equal_strings_are_one_object_wherever_they_stand(self):
        """Equal strings of one page are one object across its hits and
        columns: corpus, forms, lemmas, tags, relations, heads and features.
        Every value has two characters or more: CPython keeps one object
        per one-character string, shared or not."""
        dog = hit_token("Hunden", "hund", "NN", "UTR|SIN|DEF|NOM", "12", "SS")
        sleeps = hit_token("sover", "sova", "VB", "PRS|AKT", "10", "ROOT")
        bone = hit_token("hund", "hund", "NN", "UTR|SIN|IND|NOM", "11", "OO")
        hits = [
            {"corpus": "SUC3", "match": {"position": "17"}, "tokens": [dog, sleeps, bone]},
            {"corpus": "TALBANKEN", "match": {"position": "29"}, "tokens": [bone, dog]},
            {"corpus": "SUC3", "match": {"position": "40"}, "tokens": [sleeps, bone, sleeps]},
        ]
        result = fetch_page(simple_request(), CannedTransport(body=page_body(hits)))
        assert (len(result.hits), result.skipped) == (3, 0)
        first, repeated = {}, set()
        for hit in result.hits:
            for value in chain([hit.corpus], *raw_columns(hit)):
                assert len(value) >= 2
                if value in first:
                    repeated.add(value)
                assert first.setdefault(value, value) is value, value
        # a corpus, a lemma that is also a form, a tag, a relation, a head
        # and features each stand more than once
        assert {"SUC3", "hund", "NN", "SS", "12", "PRS|AKT"} <= repeated

    def test_page_peak_memory_is_bounded(self):
        """Parsing one 250-hit page of long sentences peaks below 2.5 times
        its body, the body itself not counted: the transport holds it.  The
        peak, about twice the body, is in decoding it: CPython drafts the
        text as an ASCII string and copies it into a wider one at the first
        non-ASCII byte.  Reading the items after that peaks lower: the
        text, the hits and one item's tree at a time."""
        gen = runpy.run_path(str(BENCH / "gen.py"))
        body = gen["korp_pages"](1, 1000, 250).pages[0]
        transport = CannedTransport(body=body)
        gc.collect()
        tracemalloc.start()
        try:
            result = fetch_page(simple_request(), transport)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(result.hits), result.skipped) == (250, 0)
        assert peak < 2.5 * len(body), f"peak {peak / len(body):.2f} times the body"

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
            dict(WEATHER_HIT, match={"position": "10\ud80041"}),
            *(
                dict(WEATHER_HIT, tokens=[first, dict(rest[0], **{key: "x\ud800"}), rest[1]])
                for key in ("lemma", "pos", "msd", "deprel", "dephead")
            ),
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
            (("tokens", 0, "word"), ""),
            (("tokens", 0, "deprel"), ""),
            (("tokens", 0, "dephead"), ""),
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

    def test_duplicate_kwic_takes_the_last(self):
        """As json.loads reads a duplicated key, whatever its spelling."""
        other = dict(WEATHER_HIT, match={"position": "2082"})
        first, last = json.dumps([WEATHER_HIT]), json.dumps([other, "not-a-hit"])
        body = f'{{"kwic": {first}, "hits": 2, "k\\u0077ic": {last}}}'
        assert json.loads(body)["kwic"] == [other, "not-a-hit"]
        result = fetch_page(simple_request(), CannedTransport(body=body.encode()))
        assert ([hit.position for hit in result.hits], result.skipped) == (["2082"], 1)
        body = f'{{"kwic": {first}, "kwic": null}}'
        with pytest.raises(DecodeError, match="^'kwic' is not a list$"):
            fetch_page(simple_request(), CannedTransport(body=body.encode()))
        body = f'{{"kwic": null, "kwic": {last}}}'
        result = fetch_page(simple_request(), CannedTransport(body=body.encode()))
        assert ([hit.position for hit in result.hits], result.skipped) == (["2082"], 1)

    def test_pretty_printed_page_gives_the_compact_hits(self):
        page = {"hits": 3, "kwic": [WEATHER_HIT, "not-a-hit", dict(WEATHER_HIT, corpus="X")]}
        compact = json.dumps(page, separators=(",", ":")).encode()
        expected = fetch_page(simple_request(), CannedTransport(body=compact))
        assert (len(expected.hits), expected.skipped) == (2, 1)
        for indent in (2, "\t", " \r"):
            pretty = f" \n{json.dumps(page, indent=indent)}\r\n\t".encode()
            assert fetch_page(simple_request(), CannedTransport(body=pretty)) == expected

    def test_page_cut_inside_its_third_item(self):
        """The walk has read two items when the text ends; the message is
        json's for the whole cut text."""
        items = [dict(WEATHER_HIT, match={"position": str(n)}) for n in range(4)]
        text = json.dumps({"kwic": items})
        third = [m.start() for m in re.finditer('{"corpus"', text)][2]
        for cut in (third + 1, third + 30, text.index('"regnar"', third) + 3):
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(text[:cut])
            with pytest.raises(DecodeError) as info:
                fetch_page(simple_request(), CannedTransport(body=text[:cut].encode()))
            assert str(info.value) == f"response body is not JSON: {expected.value}"

    @pytest.mark.parametrize(
        "text",
        [
            "", " ", "\ufeff{}", " \ufeff{}", "\f{}", "{} x", "{}{}", '{"kwic": []} ]',
            "{,}", '{"kwic": [],}', '{,"kwic": []}', '{"kwic" []}', '{"kwic":: []}',
            "{'kwic': []}", '{"kwic": [1,]}', '{"kwic": [,1]}', '{"kwic": [1 2]}',
            '{"kwic": [1;2]}', '{"kwic": [1]', '{"kwic": [1}}', '{"kwic": }',
            '{"kwic": [], "hits": 1,}', '{"kwic": [], "hits"}', '{"kw\\ic": []}',
            '{"kwic": [\u00a0]}', '{"kwic": [1]\v}',
        ],
    )
    def test_outer_level_refusal_is_jsons(self, text):
        """Where the walk reads the text itself, a character JSON does not
        allow there gets json.loads's message."""
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(DecodeError) as info:
            fetch_page(simple_request(), CannedTransport(body=text.encode()))
        assert str(info.value) == f"response body is not JSON: {expected.value}"

    @pytest.mark.parametrize(
        "body",
        [b"1" * 5000, b"[" * 100_000, b'{"kwic": [' + b"[" * 100_000 + b"]}"],
        ids=["integer_too_long", "nested_too_deep", "hit_nested_too_deep"],
    )
    def test_hostile_json_raises_decode_error(self, body):
        with pytest.raises(DecodeError, match="not JSON"):
            fetch_page(simple_request(), CannedTransport(body=body))


class _LoopbackHandler(BaseHTTPRequestHandler):
    """/ok and /ok/... answer a page, /moved a redirect to it, /garbage no
    HTTP at all and anything else 500; a path ending in /short promises
    more bytes than it sends, then closes."""

    def do_GET(self):  # noqa: N802 - http.server naming
        self.server.paths.append(self.path)
        path = self.path.partition("?")[0]
        if path == "/garbage":  # not an HTTP status line
            self.wfile.write(b"garbage\r\n\r\n")
            return
        if path == "/moved":
            self.send_response(301)
            self.send_header("Location", "/ok")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        ok = path == "/ok" or path.startswith("/ok/")
        status, body = (200, b'{"kwic": []}') if ok else (500, b"boom")
        self.send_response(status)
        length = 1000 if path.endswith("/short") else len(body)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _loopback_server(tls=None, paths=None):
    """The port of a _LoopbackHandler server on loopback, speaking TLS
    through the server-side SSLContext ``tls`` when one is given.  The
    server appends the path of each request it reads to ``paths``."""
    server = HTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.paths = [] if paths is None else paths
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _free_port():
    """A loopback port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestHttpTransport:
    """The socket transport, which imports the network stack on first use,
    against a server on loopback."""

    @pytest.fixture
    def endpoint(self):
        with _loopback_server() as port:
            yield f"http://127.0.0.1:{port}"

    def test_replies_with_status_and_body(self, endpoint):
        transport = HttpTransport(timeout=10)
        assert transport.get(endpoint + "/ok") == TransportReply(200, b'{"kwic": []}')
        assert transport.get(endpoint + "/fail") == TransportReply(500, b"boom")

    @pytest.mark.parametrize("path, read", [("/ok/short", 12), ("/fail/short", 4)])
    def test_truncated_reply(self, endpoint, path, read):
        url = endpoint + path
        with pytest.raises(TransportError) as info:
            HttpTransport(timeout=10).get(url)
        assert str(info.value) == (
            f"cannot read the reply from {url}: "
            f"IncompleteRead({read} bytes read, {1000 - read} more expected)"
        )

    def test_reply_that_is_not_http(self, endpoint):
        url = endpoint + "/garbage"
        with pytest.raises(TransportError, match=f"cannot read the reply from {url}: "):
            HttpTransport(timeout=10).get(url)

    def test_redirect_is_not_followed(self, endpoint):
        request = build_request(ConcordanceQuery("[]", ("SUC3",)), endpoint + "/moved")
        with pytest.raises(ServiceError) as info:
            fetch_page(request, HttpTransport(timeout=10))
        assert info.value.status == 301
        assert str(info.value) == f"HTTP 301: concordance request failed ({request.url})"

    def test_proxy_variables_are_not_read(self, endpoint, monkeypatch):
        unreachable = f"http://127.0.0.1:{_free_port()}"
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, unreachable)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        reply = HttpTransport(timeout=10).get(endpoint + "/ok")
        assert reply == TransportReply(200, b'{"kwic": []}')

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
        with pytest.raises(TransportError, match="cannot reach"):
            HttpTransport(timeout=10).get(f"http://127.0.0.1:{_free_port()}/")

    @pytest.mark.parametrize("pages", ["0", "1"])
    @pytest.mark.parametrize(
        "source, path, bad",
        [
            (source, path, bad)
            for source in ("config", "environment")
            for path, bad in (("/ok\u00e9", "\u00e9"), ("/ok?a=1", "?"), ("/ok#x", "#"))
            # in a config file, # starts a comment
            if (source, bad) != ("config", "#")
        ],
    )
    def test_endpoint_no_request_line_can_carry_sends_nothing(
        self, capsys, monkeypatch, tmp_path, pages, source, path, bad
    ):
        """A query, a fragment or a path outside ASCII in the endpoint is a
        config error at the endpoint's line, or naming no file for the
        environment's endpoint, whatever fetch.pages is, and the server on
        loopback reads no request."""
        paths = []
        with _loopback_server(paths=paths) as port:
            endpoint = f"http://127.0.0.1:{port}{path}"
            conf = tmp_path / "korp.conf"
            text = f"fetch.cqp = []\nfetch.corpora = SUC3\nfetch.pages = {pages}\n"
            where = ""
            if source == "config":
                text += f"fetch.endpoint = {endpoint}\n"
                where = f"{conf}: line 4: "
            else:
                monkeypatch.setenv("SOLOSENT_ENDPOINT", endpoint)
            conf.write_text(text, encoding="utf-8")
            code = main(["--mode", "fetch", "--config", str(conf)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            f"error: {where}endpoint {endpoint!r} is not a valid URL (holds {bad!r})\n"
        )
        assert paths == []

    def test_https_to_a_plain_http_port(self, endpoint):
        url = endpoint.replace("http:", "https:") + "/ok"
        with pytest.raises(TransportError) as info:
            HttpTransport(timeout=5).get(url)
        assert str(info.value).startswith(f"cannot reach {url}: ")
        assert "\n" not in str(info.value)


# a self-signed certificate for localhost that CPython's own test suite ships
KEYCERT = Path(sysconfig.get_paths()["stdlib"]) / "test" / "certdata" / "keycert.pem"


@pytest.mark.skipif(
    not KEYCERT.is_file(), reason=f"no test certificate at {KEYCERT} in this Python build"
)
class TestHttpsIsVerified:
    """https through HttpTransport checks the certificate and the host name
    against the trust store: a self-signed certificate is refused unless
    SSL_CERT_FILE names it."""

    @pytest.fixture
    def port(self):
        import ssl

        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(KEYCERT)
        with _loopback_server(tls) as port:
            yield port

    def test_unknown_certificate_is_refused(self, port):
        url = f"https://localhost:{port}/ok"
        with pytest.raises(TransportError) as info:
            HttpTransport(timeout=10).get(url)
        assert str(info.value).startswith(f"cannot reach {url}: ")
        assert "certificate verify failed" in str(info.value)

    def test_certificate_in_the_trust_store_is_accepted(self, port):
        script = (
            "import sys\n"
            "from solosent.concordance import HttpTransport\n"
            "print(HttpTransport(timeout=10).get(sys.argv[1]))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, f"https://localhost:{port}/ok"],
            env=dict(os.environ, SSL_CERT_FILE=str(KEYCERT)),
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == repr(TransportReply(200, b'{"kwic": []}')) + "\n"


class _OracleSocket:
    """All http.client.HTTPResponse asks of a socket: a file of its bytes."""

    def __init__(self, raw):
        self.raw = raw

    def makefile(self, mode):
        return io.BytesIO(self.raw)


def _http_client_reads(raw):
    response = http.client.HTTPResponse(_OracleSocket(raw))
    response.begin()
    return TransportReply(response.status, response.read())


_HEADER = st.tuples(
    st.sampled_from([b"Content-Type", b"Server", b"Date", b"Connection", b"X-Korp-Time"]),
    st.text(string.ascii_letters + string.digits + " ,.:;=/-", max_size=16).map(str.encode),
)
# http.client's caps on one line of the head and on its header lines
MAX_LINE, MAX_HEADER_LINES = 65536, 100


@st.composite
def http_replies(draw):
    """The bytes of a reply, and the TransportReply they hold, or None when
    a reader must refuse them: a Content-Length that is bad, negative,
    repeated or longer than the body sent, a Transfer-Encoding, a head
    over http.client's caps or cut before its end.  204 and 304, which
    carry no body whatever the headers say, are not drawn."""
    status = draw(st.integers(200, 599).filter(lambda s: s not in (204, 304)))
    reason = draw(st.none() | st.text(string.ascii_letters + " ", max_size=12))
    status_line = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"])) + f" {status}"
    if reason is not None:
        status_line += " " + reason
    body = draw(st.binary(max_size=40))
    lines = [name + b": " + value for name, value in draw(st.lists(_HEADER, max_size=4))]
    refused = False

    def content_length(value):
        name = draw(st.sampled_from([b"Content-Length", b"content-length", b"CONTENT-LENGTH"]))
        space = st.sampled_from([b"", b" ", b"\t", b"  "])
        return name + b":" + draw(space) + value + draw(space)

    length = None
    kinds = ["right", "short", "long", "bad", "negative", "repeated", "absent"]
    kind = draw(st.sampled_from(kinds))
    if kind == "right":
        length = len(body)
    elif kind == "short":  # promises more than the body
        length = len(body) + draw(st.integers(1, 5))
    elif kind == "long":  # the body runs on past the length
        length = draw(st.integers(0, len(body)))
    elif kind == "bad":
        bad = draw(st.sampled_from([b"", b"x", b"+5", b"5_0", b"0x1", b"1.0", b"1 2", b"\xb2"]))
        lines.append(content_length(bad))
        refused = True
    elif kind == "negative":
        lines.append(content_length(b"-%d" % draw(st.integers(0, 50))))
        refused = True
    elif kind == "repeated":
        again = draw(st.sampled_from([len(body), 0]))
        lines += [content_length(b"%d" % len(body)), content_length(b"%d" % again)]
        refused = True
    if length is not None:
        lines.append(content_length(b"%d" % length))

    extra = draw(st.sampled_from([None, "long line", "many lines", "chunked"]))
    if extra == "long line":  # the line's bytes, its CRLF included
        size = draw(st.integers(MAX_LINE - 2, MAX_LINE + 2))
        lines.append(b"X-Pad: " + b"a" * (size - 9))
        refused |= size > MAX_LINE
    elif extra == "many lines":  # header lines, the blank one that ends them included
        total = draw(st.integers(MAX_HEADER_LINES - 3, MAX_HEADER_LINES + 3))
        lines += [b"X-Filler: %d" % i for i in range(total - 1 - len(lines))]
        refused |= max(total, len(lines) + 1) > MAX_HEADER_LINES
    elif extra == "chunked":
        lines.append(b"Transfer-Encoding: chunked")
        refused = True

    headers = b"".join(line + b"\r\n" for line in draw(st.permutations(lines)))
    head = status_line.encode() + b"\r\n" + headers + b"\r\n"
    raw = head + body
    cut = draw(st.none() | st.integers(0, len(raw)))
    if cut is not None:
        raw = raw[:cut]
    sent = raw[len(head):]
    if len(raw) < len(head) or (length is not None and len(sent) < length):
        refused = True
    if refused:
        return raw, None
    return raw, TransportReply(status, sent if length is None else sent[:length])


class TestReadReply:
    URL = "http://127.0.0.1/korp?start=0"

    @settings(max_examples=400, deadline=None)
    @given(http_replies())
    def test_read_as_http_client_reads_it_or_refused(self, reply):
        raw, expected = reply
        if expected is not None:
            assert _read_reply(io.BytesIO(raw), self.URL) == _http_client_reads(raw) == expected
        else:
            with pytest.raises(TransportError) as info:
                _read_reply(io.BytesIO(raw), self.URL)
            assert str(info.value).startswith(f"cannot read the reply from {self.URL}: ")
            assert "\n" not in str(info.value)


def column_hit(position, forms, heads, feats=None):
    """A hit of nouns, each with lemma x and, unless given, no features."""
    n = len(forms)
    return ConcordanceHit(
        "SUC3", position, tuple(forms), ("x",) * n, ("NN",) * n, ("SS",) * n,
        tuple(heads), ("",) * n if feats is None else tuple(feats),
    )


class TestToSentences:
    def test_hit_becomes_annotated_sentence(self, suc):
        transport = CannedTransport(body=page_body([WEATHER_HIT]))
        result = fetch_page(simple_request(), transport)
        sentences, issues = to_sentences(result.hits, suc)
        assert issues == []
        (sentence,) = sentences
        assert sentence.id == "SUC3:1041"
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
        assert str(info.value) == f"line 1: sentence 's1': {issues[0].message}"

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
        ([("a", "0"), ("b", "7")], "token 2 has head 7 outside the sentence"),
        ([("a", "2"), ("b", "1"), ("c", "9")],
         "token 3 has head 9 outside the sentence"),
        ([("a", "0"), ("b", "3"), ("c", "2")], "cyclic head chain through token 2"),
        ([], "no tokens"),
        # a head with more digits than int() converts, in its row's turn
        *(pytest.param(rows, message, marks=needs_int_digit_limit) for rows, message in [
            ([("a", "0"), ("b", LONG_DIGITS)], int_error(LONG_DIGITS)),
            ([("a", LONG_DIGITS), ("", "1")], int_error(LONG_DIGITS)),
            ([("", "0"), ("b", LONG_DIGITS)], "token 1 has an empty form"),
        ]),
        # a head that is not digits in a later row than another fault
        ([("", "0"), ("b", "x")], "token 1 has an empty form"),
        ([("a", "1"), ("b", "x")], "token 1 may not head itself"),
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


@st.composite
def _token_rows(draw):
    """1-6 rows of (form, head, feats): heads in range, out of range, the
    row's own index, or text the CoNLL-U reader refuses as a head."""
    n = draw(st.integers(1, 6))
    odd = st.sampled_from(["x", "-1", "+1", " 2", "1_0", "\u0661", LONG_DIGITS])
    return [
        (
            draw(st.sampled_from(["", "a", "b"])),
            draw(st.integers(0, n).map(str) | st.integers(n + 1, n + 2).map(str)
                 | st.just(str(index)) | odd),
            draw(st.sampled_from(["", "_", "X|Y"])),
        )
        for index in range(1, n + 1)
    ]


@given(_token_rows())
def test_a_hit_reads_as_its_conllu_block(rows):
    """normalize_hits gives the sentence parse_conllu gives for the same
    rows, or an issue whose message is the reader's without its line and
    sentence."""
    forms, heads, feats = zip(*rows)
    sentences, issues = normalize_hits([column_hit("5", forms, heads, feats)])
    block = "# sent_id = SUC3:5\n" + "".join(
        f"{index}\t{form}\tx\tNN\t_\t{feat}\t{head}\tSS\t_\t_\n"
        for index, (form, head, feat) in enumerate(rows, start=1)
    )
    try:
        (expected,) = parse_conllu(block)
    except (ParseError, StructureError) as exc:
        prefix = re.match(r"(line \d+: )?sentence 'SUC3:5': ", str(exc))
        assert prefix
        assert (sentences, issues) == ([], [IngestIssue("SUC3:5", str(exc)[prefix.end():])])
    else:
        assert issues == []
        (sentence,) = sentences
        assert sentence.id == expected.id
        assert raw_columns(sentence) == raw_columns(expected)
        assert sentence.dependents == expected.dependents


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
_KWIC = st.lists(_TYPED_HIT, max_size=4) | st.lists(_HIT | _JSON, max_size=4) | _JSON
_PAGE = st.fixed_dictionaries({"kwic": _KWIC}, optional={"hits": _JSON})


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


@st.composite
def _page_text(draw):
    """A page's compact JSON text with other members before, between or
    after its kwic, which may come twice, its key spelled with escapes or
    without."""
    others = draw(st.lists(st.tuples(st.sampled_from(["hits", "time"]) | st.text(max_size=4),
                                     _JSON), max_size=3))
    members = [_compact(key) + ":" + _compact(value) for key, value in others]
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(['"kwic"', '"k\\u0077ic"', '"\\u006bw\\u0069c"']))
        members.insert(draw(st.integers(0, len(members))), key + ":" + _compact(draw(_KWIC)))
    return "{" + ",".join(members) + "}"


# a token of compact JSON text: a string, a structural character, or a
# number or a literal
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}:,]|[^][{}:,"]+')


def _spaced(text, gaps):
    """Compact JSON ``text`` with the whitespace ``gaps``, in turn, before
    each token and after the last."""
    return "".join(chain.from_iterable(zip(cycle(gaps), _JSON_TOKEN.findall(text)))) + gaps[-1]


def _splice(text, pick, chars):
    """Compact JSON ``text`` with ``chars`` in place of the ``pick``-th,
    counted round, of the brackets, braces, colons and commas of its two
    outer levels and of the bounds of their values."""
    spots, depth = [], 0
    for token in _JSON_TOKEN.finditer(text):
        depth -= token.group() in ("]", "}")
        if token.group() in ("[", "]", "{", "}", ":", ",") and depth <= 2:
            spots.append(token.start())
        depth += token.group() in ("[", "{")
    at = spots[pick % len(spots)]
    return text[:at] + chars + text[at + 1 :]


_PAGE_TEXT = _page_text()
_DOCUMENT = _PAGE_TEXT | _JSON.map(_compact)
# what only a reader that walks the text meets: whitespace, members in any
# order, kwic twice or with an escaped key, a cut page, trailing data, a BOM,
# and one character out of place
_LAYOUT = st.one_of(
    _PAGE_TEXT,
    st.builds(_spaced, _DOCUMENT, st.lists(st.text(" \t\n\r", max_size=3), min_size=1)),
    st.builds(json.dumps, _PAGE, indent=st.sampled_from([0, 2, "\t", " \r"])),
    st.builds(lambda text, share: text[: round(len(text) * share)], _PAGE_TEXT,
              st.floats(0, 1)),
    st.builds(str.__add__, _DOCUMENT,
              st.sampled_from(["{}", "]", ",", "x", "\x00", " 1", " \n"]) | st.text(max_size=3)),
    _PAGE_TEXT.map("\ufeff".__add__),
    st.builds(_splice, _PAGE_TEXT, st.integers(0, 50),
              st.sampled_from(["", " ", "\f", ",", ":", "[", "]", "{", "}", '"', ",]", ",}"])),
)
_BODY = st.one_of(
    _PAGE.map(lambda page: json.dumps(page).encode("utf-8")),
    _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    _LAYOUT.map(lambda text: text.encode("utf-8")),
    st.binary(max_size=20),
)


def _writable(value):
    """Whether ``value`` is a string CoNLL-U can carry: no tab, no line
    break and no lone surrogate."""
    return isinstance(value, str) and not any(
        char in "\t\n\r" or "\ud800" <= char <= "\udfff" for char in value
    )


def _served_hit(item, index):
    """The hit fetch_page makes of a served kwic item, the ``index``-th of
    the query, judged field by field; None when any field is unusable."""
    if not isinstance(item, dict):
        return None
    tokens = item.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        return None

    def text(mapping, key, absent=None, integer=False):
        """The field's string, ``absent`` for a missing or null optional
        field, None for an unusable one."""
        value = mapping.get(key)
        if value is None and absent is not None:
            return absent
        if integer and type(value) is int:
            return str(value)
        return value if _writable(value) else None

    rows = []
    for token in tokens:
        if not isinstance(token, dict):
            return None
        row = (text(token, "word"), text(token, "lemma", "_"), text(token, "pos", ""),
               text(token, "deprel"), text(token, "dephead", integer=True),
               text(token, "msd", ""))
        if None in row or "" in (row[0], row[3], row[4]):
            return None
        rows.append(row)
    corpus = text(item, "corpus") if "corpus" in item else "unknown"
    match = item.get("match")
    if isinstance(match, dict) and "position" in match:
        position = text(match, "position", integer=True)
    else:
        position = str(index)
    if corpus is None or position is None:
        return None
    if corpus.lstrip() != corpus or position.rstrip() != position:
        return None
    return ConcordanceHit(corpus, position, *zip(*rows))


@settings(max_examples=600, deadline=None)
@given(_BODY)
def test_fetch_decoder_fails_only_with_decode_error(body):
    """Whatever a service answers with 200, fetch_page either gives hits or
    raises DecodeError, the latter only for a body that is not a JSON
    object with a ``kwic`` list, and with the message that json.loads's
    reading of the body gives.  The hits are exactly the served items
    whose every field is usable, in page order, as an oracle that judges
    each field on its own finds them.  normalize_hits turns every hit into
    a sentence or an IngestIssue without raising, and the sentences are
    written as UTF-8 CoNLL-U that reads back to the same text."""
    try:
        page = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        refusal = f"response body is not JSON: {exc}"
    else:
        if not isinstance(page, dict) or "kwic" not in page:
            refusal = "response JSON has no 'kwic' member"
        elif not isinstance(page["kwic"], list):
            refusal = "'kwic' is not a list"
        else:
            refusal = None
    try:
        result = fetch_page(simple_request(), CannedTransport(body=body))
    except DecodeError as exc:
        assert str(exc) == refusal
        return
    assert refusal is None
    kwic = page["kwic"]
    expected = [hit for hit in map(_served_hit, kwic, count()) if hit is not None]
    assert list(result.hits) == expected
    assert result.skipped == len(kwic) - len(expected)
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

    def test_errors_name_the_config_file(self, tmp_path):
        """A value read from a file is refused at its line, and a missing
        key names the file; the environment's endpoint names no file."""
        path = tmp_path / "korp.conf"

        def refused(text, environment=None):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError) as info:
                settings_from_mapping(read_config_file(path), environment or {})
            return str(info.value)

        keys = "fetch.cqp = []\nfetch.corpora = SUC3\n"
        assert refused(keys + "fetch.endpoint = http://\n") == (
            f"{path}: line 3: endpoint 'http://' is not a valid URL (no host)"
        )
        assert refused(keys, {"SOLOSENT_ENDPOINT": "http://"}) == (
            "endpoint 'http://' is not a valid URL (no host)"
        )
        endpoint = f"fetch.endpoint = {ENDPOINT}\n"
        assert refused(endpoint + keys + "fetch.pages = two\n") == (
            f"{path}: line 4: fetch.pages must be an integer, got 'two'"
        )
        assert refused(endpoint + keys + "fetch.pages = -1\n") == (
            f"{path}: line 4: fetch.pages must be >= 0, got -1"
        )
        assert refused(keys + endpoint + "fetch.page_size = 0\n") == (
            f"{path}: line 4: page_size must be between 1 and 1000, got 0"
        )
        assert refused(endpoint + "fetch.corpora = SUC3\n") == (
            f"{path}: fetch mode needs fetch.cqp in the config file"
        )

    def test_bad_integer_rejected(self):
        mapping = dict(self.FULL, **{"fetch.pages": "three"})
        with pytest.raises(ConfigError, match="fetch.pages"):
            settings_from_mapping(mapping, {})
