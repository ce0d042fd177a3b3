"""Client for Korp-style concordance services.

The service side is the usual query endpoint: GET with ``corpus``,
``cqp``, ``start`` and ``end`` parameters, answering JSON whose ``kwic``
list holds one hit per match, each hit carrying fully annotated tokens
(word, pos, msd, lemma, ref, dephead, deprel).  Requests are built
deterministically so they can be asserted byte for byte, and all network
traffic goes through a small transport interface that tests replace with
canned responses.

A hit is read straight into the raw columns of a Sentence, RAW_COLUMNS,
holding the strings the service sent; normalizing it gives the same
Sentence/AnnotatedSentence values the CoNLL-U reader produces, sharing
the hit's columns, so everything downstream is source-agnostic.
"""

from __future__ import annotations

import json
import re
import urllib.parse
from dataclasses import dataclass
from itertools import count
from typing import Mapping, Optional, Protocol, Sequence

from .detectors import ConfigError
from .model import Sentence, SourceRef, StructureError, raw_columns, row_problem, validate_heads
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
    """A fully determined HTTP request: method, URL, ordered parameters."""

    method: str
    base_url: str
    params: tuple[tuple[str, str], ...]

    @property
    def url(self) -> str:
        return self.base_url + "?" + urllib.parse.urlencode(self.params)


def build_request(
    query: ConcordanceQuery, endpoint: str, api_key: Optional[str] = None
) -> RequestSpec:
    """Turn a query into a deterministic GET request.

    The page is addressed by ``start`` and ``end`` where end is the index
    of the last hit requested, i.e. start + size - 1.  Equal queries yield
    byte-identical URLs.
    """
    if not endpoint.startswith(("http://", "https://")):
        raise ConfigError(f"endpoint must be an absolute http(s) URL, got {endpoint!r}")
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
    return RequestSpec(method="GET", base_url=endpoint, params=tuple(params))


@dataclass(frozen=True)
class TransportReply:
    status: int
    body: bytes


class Transport(Protocol):
    """Anything that can perform a GET and give back status and body."""

    def get(self, url: str) -> TransportReply: ...  # pragma: no cover


class UrllibTransport:
    """Stdlib-backed transport used outside tests.

    The network stack (``urllib.request``, ``http.client``) is imported on
    the first request, so modes that never fetch do not load it.
    """

    def __init__(self, timeout: float = 30.0) -> None:
        self.timeout = timeout

    def get(self, url: str) -> TransportReply:
        import http.client
        import urllib.error
        import urllib.request

        try:
            response = urllib.request.urlopen(url, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # an error status still has a reply to read
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"cannot reach {url}: {exc}") from exc
        except http.client.HTTPException as exc:
            raise TransportError(f"cannot read the reply from {url}: {exc}") from exc
        with response:
            try:
                body = response.read()
            except (http.client.HTTPException, OSError) as exc:
                raise TransportError(f"cannot read the reply from {url}: {exc}") from exc
        return TransportReply(status=response.status, body=body)


@dataclass(frozen=True)
class ConcordanceHit:
    """One fully annotated match from a concordance page, in RAW_COLUMNS.

    The strings are the service's: ``heads`` are digits, a missing
    ``lemma`` is ``_`` and a missing ``pos`` or ``msd`` is empty."""

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


def _field_text(value, integer: bool = False) -> Optional[str]:
    """A JSON string as it is, a non-bool integer as digits when allowed, else None.

    A string that holds what CoNLL-U cannot carry is None too.
    """
    if isinstance(value, str):
        return None if _UNWRITABLE.search(value) else value
    if integer and isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


def _parse_hit(item: Mapping, fallback_position: int) -> Optional[ConcordanceHit]:
    """The hit in ``item``, or None when any of its fields is unusable.

    Token fields are strings (``dephead`` may be an integer); ``word``,
    ``deprel`` and ``dephead`` are required and non-empty, while a null
    ``pos``, ``lemma`` or ``msd`` counts as absent.  A string that CoNLL-U
    cannot carry is unusable too, and so is a sentence id,
    ``corpus:position``, that starts or ends with whitespace.
    """
    tokens_raw = item.get("tokens")
    if not isinstance(tokens_raw, list) or not tokens_raw:
        return None
    rows: list[tuple[str, ...]] = []  # one row of RAW_COLUMNS per token
    for entry in tokens_raw:
        if not isinstance(entry, Mapping):
            return None
        form = _field_text(entry.get("word"))
        deprel = _field_text(entry.get("deprel"))
        head = _field_text(entry.get("dephead"), integer=True)
        pos, lemma, feats = (
            default if entry.get(key) is None else _field_text(entry[key])
            for key, default in (("pos", ""), ("lemma", "_"), ("msd", ""))
        )
        if not (form and deprel and head) or None in (pos, lemma, feats):
            return None
        rows.append((form, lemma, pos, deprel, head, feats))
    match = item.get("match")
    if isinstance(match, Mapping) and "position" in match:
        position = _field_text(match["position"], integer=True)
    else:
        position = str(fallback_position)
    corpus = _field_text(item.get("corpus", "unknown"))
    if position is None or corpus is None:
        return None
    # the reader drops whitespace around a sent_id
    if corpus[:1].isspace() or position[-1:].isspace():
        return None
    return ConcordanceHit(corpus, position, *zip(*rows))


def fetch_page(request: RequestSpec, transport: Transport) -> FetchResult:
    """Execute one page request and parse the hits.

    Hits whose tokens lack dependency annotation, or whose fields have the
    wrong JSON type or cannot be written as CoNLL-U, are skipped and
    counted, not fatal: concordance corpora mix parsed and unparsed
    material.
    Non-2xx answers raise ServiceError with the status; undecodable bodies
    raise DecodeError.
    """
    reply = transport.get(request.url)
    if not 200 <= reply.status < 300:
        raise ServiceError(reply.status, f"concordance request failed ({request.url})")
    try:
        payload = json.loads(reply.body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer too long to
        # convert; RecursionError an array or object nested too deep
        raise DecodeError(f"response body is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "kwic" not in payload:
        raise DecodeError("response JSON has no 'kwic' member")
    kwic = payload["kwic"]
    if not isinstance(kwic, list):
        raise DecodeError("'kwic' is not a list")
    hits: list[ConcordanceHit] = []
    skipped = 0
    for offset, item in enumerate(kwic):
        hit = _parse_hit(item, fallback_position=offset) if isinstance(item, Mapping) else None
        if hit is None:
            skipped += 1
        else:
            hits.append(hit)
    return FetchResult(hits=tuple(hits), skipped=skipped)


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
    is no features, as a FEATS of ``_`` is.  A head is read as the CoNLL-U
    reader reads one: decimal digits only, so ``"+1"``, ``" 2 "`` and
    ``"1_0"`` are refused, not read as 1, 2 and 10.  Hits with such a
    head, a token that heads itself or has no form, or heads that do not
    form a tree (cycles, out-of-range heads), are excluded and reported,
    never fatal.  Returns (sentences, issues).
    """
    sentences: list[Sentence] = []
    issues: list[IngestIssue] = []
    for hit in hits:
        sentence_id = f"{hit.corpus}:{hit.position}"
        forms, lemmas, tags, deprels, heads, feats = raw_columns(hit)
        if not all(map(str.isdecimal, heads)):
            bad = next(head for head in heads if not head.isdecimal())
            issues.append(
                IngestIssue(sentence_id, f"head must be a non-negative integer, got {bad!r}")
            )
            continue
        # int() and the row checks run row by row, as Token(i, ..., int(head)) ran them
        try:
            problem = next(filter(None, map(row_problem, count(1), map(int, heads), forms)), None)
        except ValueError as exc:  # more digits than int() converts
            problem = str(exc)
        if problem:
            issues.append(IngestIssue(sentence_id, problem))
            continue
        heads = tuple(map(int, heads))
        try:
            index = validate_heads(sentence_id, heads)
        except StructureError as exc:
            issues.append(IngestIssue(sentence_id, str(exc)))
            continue
        if "_" in feats:
            feats = tuple(f if f != "_" else "" for f in feats)
        columns = forms, lemmas, tags, deprels, heads, feats, *index
        sentences.append(Sentence._from_columns(sentence_id, SourceRef(hit.corpus), *columns))
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
    """
    endpoint = environment.get("SOLOSENT_ENDPOINT") or mapping.get("fetch.endpoint")
    if not endpoint:
        raise ConfigError(
            "fetch mode needs fetch.endpoint in the config file "
            "or SOLOSENT_ENDPOINT in the environment"
        )
    expression = mapping.get("fetch.cqp", "")
    if not expression:
        raise ConfigError("fetch mode needs fetch.cqp in the config file")
    corpora = tuple(
        c.strip() for c in mapping.get("fetch.corpora", "").split(",") if c.strip()
    )
    if not corpora:
        raise ConfigError("fetch mode needs fetch.corpora in the config file")

    def integer(key: str, default: int) -> int:
        raw = mapping.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None

    page_size = integer("fetch.page_size", DEFAULT_PAGE_SIZE)
    pages = integer("fetch.pages", 1)
    if pages < 0:
        raise ConfigError(f"fetch.pages must be >= 0, got {pages}")
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
    "IngestIssue",
    "RequestSpec",
    "ServiceError",
    "Transport",
    "TransportError",
    "TransportReply",
    "UrllibTransport",
    "build_request",
    "fetch_page",
    "normalize_hits",
    "settings_from_mapping",
    "to_sentences",
]
