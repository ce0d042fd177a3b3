"""Client for Korp-style concordance services.

The service side is the usual query endpoint: GET with ``corpus``,
``cqp``, ``start`` and ``end`` parameters, answering JSON whose ``kwic``
list holds one hit per match, each hit carrying fully annotated tokens
(word, pos, msd, lemma, ref, dephead, deprel).  Requests are built
deterministically so they can be asserted byte for byte, and all network
traffic goes through a small transport interface that tests replace with
canned responses.  HttpTransport, the one fetch uses, speaks HTTP/1.0
over a socket of its own: it loads neither urllib's request stack nor,
for an http endpoint, ssl.

A page is read one ``kwic`` item at a time, with the json module's own
scanner, so no tree of the whole page is built; it is read as
``json.loads`` reads it, the last of duplicate keys winning.
A hit is read straight into the raw columns of a Sentence, RAW_COLUMNS,
holding the strings the service sent; as each hit is read, the strings
it keeps, its corpus and its columns, become the page's first equal
ones, so a page's hits hold each distinct string once.  Normalizing a
hit gives the same Sentence/AnnotatedSentence values the CoNLL-U reader
produces, sharing the hit's columns, so nothing downstream knows which
reader made a sentence.  A hit's sentence id, ``corpus:position``, says
where it came from.
"""

from __future__ import annotations

import json
import re
import urllib.parse
from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, Mapping, Optional, Protocol, Sequence

from .config import errors_at, where
from .detectors import ConfigError
from .model import Sentence, StructureError, raw_columns, read_heads, validate_heads
from .profiles import CoverageCounter, TagsetProfile, apply_profile

DEFAULT_PAGE_SIZE = 25
MAX_PAGE_SIZE = 1000


class TransportError(Exception):
    """The service could not be reached, or its reply could not be read."""


class ServiceError(Exception):
    """The service answered, but not with a usable page."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class DecodeError(Exception):
    """The service answered 2xx but the body is not a concordance page."""


@dataclass(frozen=True)
class ConcordanceQuery:
    """One page worth of concordance search."""

    query_expression: str
    corpora: tuple[str, ...]
    page_start: int = 0
    page_size: int = DEFAULT_PAGE_SIZE


@dataclass(frozen=True)
class RequestSpec:
    """A fully determined GET request: URL and ordered parameters."""

    base_url: str
    params: tuple[tuple[str, str], ...]

    @property
    def url(self) -> str:
        return self.base_url + "?" + urllib.parse.urlencode(self.params)


def _check_endpoint(endpoint: str) -> None:
    """Refuse an endpoint no request can be sent to: one that is not an
    absolute http(s) URL, that urllib cannot split, that names no host,
    that holds a space, a control character, a ``?`` or a ``#``, or that
    has a character outside ASCII in its path."""
    if not endpoint.startswith(("http://", "https://")):
        raise ConfigError(f"endpoint must be an absolute http(s) URL, got {endpoint!r}")
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port
    except ValueError as exc:  # an unclosed [IPv6] host, a bad port
        raise ConfigError(f"endpoint {endpoint!r} is not a valid URL ({exc})") from None
    # urlsplit drops tabs and line ends, and lets spaces through; the
    # request adds a query of its own, so the endpoint may hold none, nor a
    # fragment
    bad = next(
        (c for c in endpoint if c.isspace() or not c.isprintable() or c in "?#"), None
    )
    if bad is None:  # a request line is ASCII; only a host is sent as IDNA
        bad = next((c for c in parts.path if not c.isascii()), None)
    if bad is not None:
        reason = f"holds {bad!r}"
    elif not parts.hostname:
        reason = "no host"
    else:
        return
    raise ConfigError(f"endpoint {endpoint!r} is not a valid URL ({reason})")


def build_request(
    query: ConcordanceQuery, endpoint: str, api_key: Optional[str] = None
) -> RequestSpec:
    """Turn a query into a deterministic GET request.

    The page is addressed by ``start`` and ``end`` where end is the index
    of the last hit requested, i.e. start + size - 1.  Equal queries yield
    byte-identical URLs.
    """
    _check_endpoint(endpoint)
    if not query.corpora:
        raise ConfigError("query names no corpora")
    if not query.query_expression:
        raise ConfigError("query expression is empty")
    if query.page_start < 0:
        raise ConfigError(f"page_start must be >= 0, got {query.page_start}")
    if query.page_size < 1 or query.page_size > MAX_PAGE_SIZE:
        raise ConfigError(
            f"page_size must be between 1 and {MAX_PAGE_SIZE}, got {query.page_size}"
        )
    params: list[tuple[str, str]] = [
        ("corpus", ",".join(query.corpora)),
        ("cqp", query.query_expression),
        ("start", str(query.page_start)),
        ("end", str(query.page_start + query.page_size - 1)),
    ]
    if api_key:
        params.append(("key", api_key))
    return RequestSpec(base_url=endpoint, params=tuple(params))


@dataclass(frozen=True)
class TransportReply:
    status: int
    body: bytes


class Transport(Protocol):
    """Anything that can perform a GET and give back status and body."""

    def get(self, url: str) -> TransportReply: ...  # pragma: no cover


class HttpTransport:
    """The transport used outside tests: one HTTP/1.0 GET per request, over
    one socket.

    ``socket`` is imported on the first request and ``ssl`` on the first
    https one, so modes that never fetch load neither, and an http
    endpoint never loads ``ssl``.  An https connection is checked as
    urllib checks it, certificate and host name against the default trust
    store.  No redirect is followed and no proxy variable is read.
    """

    def __init__(self, timeout: float = 30.0) -> None:
        self.timeout = timeout

    def get(self, url: str) -> TransportReply:
        import socket

        try:
            parts = urllib.parse.urlsplit(url)
            host, port = parts.hostname, parts.port
            if not host:  # create_connection would take it for localhost
                raise ValueError("no host")
            target = parts.path or "/"
            if parts.query:
                target += "?" + parts.query
            authority = parts.netloc.rpartition("@")[2]
            if not authority.isascii():  # a host sent as http.client sends it
                authority = authority.encode("idna").decode("ascii")
            # HTTP/1.0, so that no reply comes chunked
            request = (
                f"GET {target} HTTP/1.0\r\nHost: {authority}\r\n"
                "Accept-Encoding: identity\r\n\r\n"
            ).encode("ascii")
        except ValueError as exc:  # a bad port or host; a character no request line carries
            raise TransportError(f"cannot reach {url}: {exc}") from None
        https = parts.scheme == "https"
        if port is None:
            port = 443 if https else 80
        try:
            sock = socket.create_connection((host, port), self.timeout)
            try:
                if https:
                    import ssl

                    context = ssl.create_default_context()
                    sock = context.wrap_socket(sock, server_hostname=host)
                sock.sendall(request)
            except BaseException:
                sock.close()
                raise
        except OSError as exc:  # ssl's errors are OSErrors too
            raise TransportError(f"cannot reach {url}: {exc}") from exc
        with sock, sock.makefile("rb") as stream:
            return _read_reply(stream, url)


# http.client's caps: bytes in one line of the head, and lines of headers,
# the blank one that ends them included
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.[0-9] ([1-9][0-9][0-9])(?: [^\r\n]*)?\r?\n")


def _read_reply(stream, url: str) -> TransportReply:
    """The status and body of the HTTP/1.x reply that ``stream``, a binary
    file, holds.

    The body is ``Content-Length`` bytes, read with one ``read`` so that
    it is held once, or, without that header, all that comes before EOF.
    A reply with a bad, negative or repeated ``Content-Length``, with a
    ``Transfer-Encoding``, with a head over http.client's caps or cut
    before its body ends raises TransportError, and so does an OSError
    while reading.
    """

    def unreadable(reason: str) -> TransportError:
        return TransportError(f"cannot read the reply from {url}: {reason}")

    try:
        line = stream.readline(_MAX_LINE + 1)
        status = _STATUS_LINE.fullmatch(line)
        if status is None:
            raise unreadable(f"bad status line {line[:80]!r}")
        length = None
        for _ in range(_MAX_HEADERS):
            line = stream.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise unreadable(f"a header line is longer than {_MAX_LINE} bytes")
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise unreadable("the reply ends in its headers")
            name, _, value = line.partition(b":")
            name = name.lower()
            if name == b"transfer-encoding":
                raise unreadable(f"Transfer-Encoding is not supported: {value.strip()!r}")
            if name == b"content-length":
                value = value.strip(b" \t\r\n")
                if length is not None:
                    raise unreadable("repeated Content-Length")
                # more digits than fit a file offset are no length either
                if not value.isdigit() or len(value) > 18:
                    raise unreadable(f"bad Content-Length {value[:80]!r}")
                length = int(value)
        else:
            raise unreadable(f"more than {_MAX_HEADERS} header lines")
        if length is None:
            body = stream.read()
        else:
            try:
                body = stream.read(length)
            except MemoryError:  # the buffer for a length no page comes near
                raise unreadable(f"no memory for a body of {length} bytes") from None
            if len(body) < length:
                got = len(body)
                raise unreadable(f"IncompleteRead({got} bytes read, {length - got} more expected)")
    except OSError as exc:
        raise unreadable(str(exc)) from exc
    return TransportReply(status=int(status[1]), body=body)


@dataclass(frozen=True)
class ConcordanceHit:
    """One fully annotated match from a concordance page, in RAW_COLUMNS.

    The strings are the service's, ``heads`` too, which normalize_hits
    checks with model.read_heads, as the CoNLL-U reader checks a block's
    rows; a missing ``lemma`` is ``_`` and a missing ``pos`` or ``msd``
    is empty."""

    corpus: str
    position: str
    forms: tuple[str, ...]
    lemmas: tuple[str, ...]
    tags: tuple[str, ...]
    deprels: tuple[str, ...]
    heads: tuple[str, ...]
    feats: tuple[str, ...]


@dataclass(frozen=True)
class FetchResult:
    """Parsed hits of one page plus how many unusable hits were dropped."""

    hits: tuple[ConcordanceHit, ...]
    skipped: int


# what a CoNLL-U field cannot carry: a column or line break, or a lone
# surrogate, which has no UTF-8 encoding
_UNWRITABLE = re.compile("[\t\n\r\ud800-\udfff]")


def _digits(value):
    """A non-bool integer as its digits, anything else as it is."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _parse_hit(
    item: Mapping, fallback_position: int, share: Callable[[str, str], str]
) -> Optional[ConcordanceHit]:
    """The hit in ``item``, or None when any of its fields is unusable.

    Token fields are strings (``dephead`` may be an integer); ``word``,
    ``deprel`` and ``dephead`` are required and non-empty, while a null
    ``pos``, ``lemma`` or ``msd`` counts as absent.  A string that CoNLL-U
    cannot carry is unusable too, and so is a sentence id,
    ``corpus:position``, that starts or ends with whitespace.
    The hit's corpus and columns hold ``share(s, s)`` of each string ``s``,
    the ``setdefault`` of a table kept for the page.
    """
    tokens_raw = item.get("tokens")
    if not isinstance(tokens_raw, list) or not tokens_raw:
        return None
    rows: list[tuple[str, ...]] = []  # one row of RAW_COLUMNS per token
    for entry in tokens_raw:
        if not isinstance(entry, Mapping):
            return None
        get = entry.get
        lemma, pos, feats = get("lemma"), get("pos"), get("msd")
        row = (
            get("word"),
            "_" if lemma is None else lemma,
            "" if pos is None else pos,
            get("deprel"),
            _digits(get("dephead")),
            "" if feats is None else feats,
        )
        if not (row[0] and row[3] and row[4]):
            return None
        rows.append(row)
    match = item.get("match")
    if isinstance(match, Mapping) and "position" in match:
        position = _digits(match["position"])
    else:
        position = str(fallback_position)
    corpus = item.get("corpus", "unknown")
    # one join and one search for the whole hit: the join refuses a field
    # that is not a string, and a character the search finds in the joined
    # text is in one of the fields
    try:
        joined = "".join([corpus, position, *chain.from_iterable(rows)])
    except TypeError:
        return None
    # the reader drops whitespace around a sent_id
    if _UNWRITABLE.search(joined) or corpus[:1].isspace() or position[-1:].isspace():
        return None
    columns = (tuple(map(share, column, column)) for column in zip(*rows))
    return ConcordanceHit(share(corpus, corpus), position, *columns)


# JSON's whitespace, as the json module reads it
_space = re.compile(r"[ \t\n\r]*").match


class _Unread(Exception):
    """The walk met a character JSON does not allow where it stands."""


def _read_kwic(text: str, at: int, scan, start: int) -> tuple[FetchResult, int]:
    """The hits of the ``kwic`` array that opens at ``text[at]``, and the
    index after it.  Each item is scanned and becomes a hit or a skip before
    the next is scanned; ``start`` is the first item's index in the query.
    A page repeats its tags, relations and heads thousands of times: the
    hits share each string through one table, which goes with the array."""
    hits: list[ConcordanceHit] = []
    skipped = 0
    share = {}.setdefault
    at = _space(text, at + 1).end()
    if text[at : at + 1] != "]":
        # a hit's index in the whole query, which a hit without a position takes
        for index in count(start):
            item, at = scan(text, at)
            hit = _parse_hit(item, index, share) if isinstance(item, Mapping) else None
            if hit is None:
                skipped += 1
            else:
                hits.append(hit)
            at = _space(text, at).end()
            if text[at : at + 1] != ",":
                break
            at = _space(text, at + 1).end()
        if text[at : at + 1] != "]":
            raise _Unread
    return FetchResult(hits=tuple(hits), skipped=skipped), at + 1


def _read_page(text: str, start: int) -> FetchResult:
    """The hits of the page in ``text``, a JSON object read member by
    member, with the last ``kwic`` member read item by item.

    Raises _Unread, or StopIteration where json wants a value, at the first
    character that JSON does not allow at the object's or the array's level;
    the json scanner raises its own errors inside a value.
    """
    scan = json.JSONDecoder().scan_once
    found = False
    page: Optional[FetchResult] = None  # the last kwic's hits; None: not a list
    at = _space(text).end()
    if text[at : at + 1] != "{":
        raise _Unread
    at = _space(text, at + 1).end()
    if text[at : at + 1] != "}":
        while True:
            if text[at : at + 1] != '"':
                raise _Unread
            key, at = scan(text, at)
            at = _space(text, at).end()
            if text[at : at + 1] != ":":
                raise _Unread
            at = _space(text, at + 1).end()
            if key != "kwic":
                _, at = scan(text, at)
            else:
                found = True
                if text[at : at + 1] == "[":
                    page, at = _read_kwic(text, at, scan, start)
                else:
                    page = None
                    _, at = scan(text, at)
            at = _space(text, at).end()
            if text[at : at + 1] != ",":
                break
            at = _space(text, at + 1).end()
        if text[at : at + 1] != "}":
            raise _Unread
    if _space(text, at + 1).end() != len(text):
        raise _Unread
    if not found:
        raise DecodeError("response JSON has no 'kwic' member")
    if page is None:
        raise DecodeError("'kwic' is not a list")
    return page


def fetch_page(request: RequestSpec, transport: Transport) -> FetchResult:
    """Execute one page request and parse the hits.

    The reply is dropped once its body is decoded, and the text is read
    one ``kwic`` item at a time: each item becomes a hit or a skip before
    the next is read, so the page is never a tree of dicts.  The peak, the
    body not counted, is about twice the body and comes in decoding it:
    CPython drafts the text as an ASCII string and copies it into a wider
    one at the first non-ASCII byte.  As each hit is read, the strings it keeps become the
    page's first equal ones, so the hits hold little beyond the page's
    distinct strings.  The walk accepts what ``json.loads`` accepts, and
    reads a duplicated key as it does: the last ``kwic`` wins.  Nesting is
    limited as in ``json.loads``, but counted from each item, not from the
    page.
    A hit with no ``match.position`` takes its index in the whole query,
    the request's ``start`` plus its offset in the page.
    Hits whose tokens lack dependency annotation, or whose fields have the
    wrong JSON type or cannot be written as CoNLL-U, are skipped and
    counted, not fatal: concordance corpora mix parsed and unparsed
    material.
    Non-2xx answers raise ServiceError with the status; undecodable bodies
    raise DecodeError, with ``json.loads``'s message when they are not JSON.
    """
    reply = transport.get(request.url)
    if not 200 <= reply.status < 300:
        raise ServiceError(reply.status, f"concordance request failed ({request.url})")
    start = int(dict(request.params).get("start", 0))
    try:
        text = reply.body.decode("utf-8")
        del reply  # the body goes now, unless the transport keeps it
        try:
            return _read_page(text, start)
        except (_Unread, StopIteration):  # StopIteration: no value where json wants one
            pass
        # json's own message for what the walk refused; a page that is JSON
        # but not an object is the one that gets past this line
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer too long to
        # convert; RecursionError an array or object nested too deep
        raise DecodeError(f"response body is not JSON: {exc}") from exc
    raise DecodeError("response JSON has no 'kwic' member")


@dataclass(frozen=True)
class IngestIssue:
    """Why one hit could not become a sentence."""

    sentence_id: str
    message: str


def normalize_hits(
    hits: Sequence[ConcordanceHit],
) -> tuple[list[Sentence], list[IngestIssue]]:
    """Normalize hits into raw sentences, as the CoNLL-U reader gives them.

    Sentence ids are ``corpus:position``, unique per hit.  The sentence
    shares the hit's columns, save the heads and an ``msd`` of ``_``, which
    is no features, as a FEATS of ``_`` is.  A hit's rows are read by
    model.read_heads, once per hit, as the CoNLL-U reader reads a block's:
    a head of decimal digits only (``"+1"``, ``" 2 "`` and ``"1_0"`` are
    refused, not read as 1, 2 and 10), no token that heads itself or has
    no form.  A hit
    with a row fault, or with heads that do not form a tree (cycles,
    out-of-range heads), is excluded and reported, never fatal: its issue
    is the first faulty row's fault, else the tree's, in the words of the
    CoNLL-U reader's error without its line and sentence.  Returns
    (sentences, issues).
    """
    sentences: list[Sentence] = []
    issues: list[IngestIssue] = []
    for hit in hits:
        sentence_id = f"{hit.corpus}:{hit.position}"
        forms, lemmas, tags, deprels, heads, feats = raw_columns(hit)
        try:
            _, heads = read_heads(range(1, len(forms) + 1), heads, forms)
            dependents = validate_heads(sentence_id, heads)
        except ValueError as exc:
            issues.append(IngestIssue(sentence_id, str(exc)))
            continue
        except StructureError as exc:
            issues.append(IngestIssue(sentence_id, exc.reason))
            continue
        if "_" in feats:
            feats = tuple(f if f != "_" else "" for f in feats)
        columns = forms, lemmas, tags, deprels, heads, feats, dependents
        sentences.append(Sentence._from_columns(sentence_id, *columns))
    return sentences, issues


def to_sentences(
    hits: Sequence[ConcordanceHit],
    profile: TagsetProfile,
    coverage: Optional[CoverageCounter] = None,
):
    """Normalize hits into annotated sentences, ready for the detectors.

    Like ``normalize_hits``, with ``profile`` applied to every sentence.
    Returns (sentences, issues).
    """
    sentences, issues = normalize_hits(hits)
    return [apply_profile(s, profile, coverage) for s in sentences], issues


@dataclass(frozen=True)
class ConcordanceSettings:
    """Connection settings, usually read from the config file.

    Config keys: fetch.endpoint, fetch.cqp, fetch.corpora (comma
    separated), fetch.page_size, fetch.pages, fetch.api_key.  The
    SOLOSENT_ENDPOINT environment variable overrides the endpoint.
    """

    endpoint: str
    query_expression: str
    corpora: tuple[str, ...]
    page_size: int = DEFAULT_PAGE_SIZE
    pages: int = 1
    api_key: Optional[str] = None


def settings_from_mapping(
    mapping: Mapping[str, str], environment: Mapping[str, str]
) -> ConcordanceSettings:
    """Assemble fetch settings from flat config keys plus the environment.

    The settings pass build_request's checks of the first page's request
    whatever ``pages`` is, so ``fetch.pages = 0`` hides no config error.
    An error names the config file, and the key's line when the key is
    there; an error in the ``SOLOSENT_ENDPOINT`` endpoint names no file.
    """
    from_environment = environment.get("SOLOSENT_ENDPOINT")
    endpoint = from_environment or mapping.get("fetch.endpoint")
    if not endpoint:
        raise ConfigError(
            f"{where(mapping)}fetch mode needs fetch.endpoint in the config file "
            "or SOLOSENT_ENDPOINT in the environment"
        )
    expression = mapping.get("fetch.cqp", "")
    if not expression:
        raise ConfigError(f"{where(mapping)}fetch mode needs fetch.cqp in the config file")
    corpora = tuple(
        c.strip() for c in mapping.get("fetch.corpora", "").split(",") if c.strip()
    )
    if not corpora:
        raise ConfigError(f"{where(mapping)}fetch mode needs fetch.corpora in the config file")

    def integer(key: str, default: int) -> int:
        raw = mapping.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{where(mapping, key)}{key} must be an integer, got {raw!r}"
            ) from None

    page_size = integer("fetch.page_size", DEFAULT_PAGE_SIZE)
    pages = integer("fetch.pages", 1)
    if pages < 0:
        raise ConfigError(f"{where(mapping, 'fetch.pages')}fetch.pages must be >= 0, got {pages}")
    # the environment's endpoint is no line of the file
    with errors_at({} if from_environment else mapping, "fetch.endpoint"):
        _check_endpoint(endpoint)
    with errors_at(mapping, "fetch.page_size"):
        build_request(ConcordanceQuery(expression, corpora, 0, page_size), endpoint)
    return ConcordanceSettings(
        endpoint=endpoint,
        query_expression=expression,
        corpora=corpora,
        page_size=page_size,
        pages=pages,
        api_key=mapping.get("fetch.api_key"),
    )


__all__ = [
    "ConcordanceHit",
    "ConcordanceQuery",
    "ConcordanceSettings",
    "DecodeError",
    "FetchResult",
    "HttpTransport",
    "IngestIssue",
    "RequestSpec",
    "ServiceError",
    "Transport",
    "TransportError",
    "TransportReply",
    "build_request",
    "fetch_page",
    "normalize_hits",
    "settings_from_mapping",
    "to_sentences",
]
