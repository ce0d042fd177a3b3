"""Client for Korp-style concordance services.

The service side is the usual query endpoint: GET with ``corpus``,
``cqp``, ``start`` and ``end`` parameters, answering JSON whose ``kwic``
list holds one hit per match, each hit carrying fully annotated tokens
(word, pos, msd, lemma, ref, dephead, deprel).  Requests are built
deterministically so they can be asserted byte for byte, and all network
traffic goes through a small transport interface that tests replace with
canned responses.

Fetched hits normalize into the same Sentence/AnnotatedSentence values the
CoNLL-U reader produces, so everything downstream is source-agnostic.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Sequence

from .detectors import ConfigError
from .model import Sentence, SourceRef, StructureError, Token, validate_tokens
from .profiles import CoverageCounter, TagsetProfile, apply_profile

DEFAULT_PAGE_SIZE = 25
MAX_PAGE_SIZE = 1000


class TransportError(Exception):
    """The service could not be reached at all."""


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
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                return TransportReply(status=response.status, body=response.read())
        except urllib.error.HTTPError as exc:
            return TransportReply(status=exc.code, body=exc.read())
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"cannot reach {url}: {exc}") from exc


@dataclass(frozen=True)
class HitToken:
    """One token of a hit, raw annotation strings as the service sent them."""

    form: str
    pos: str
    deprel: str
    head: str
    lemma: str
    feats: str = ""


@dataclass(frozen=True)
class ConcordanceHit:
    """One fully annotated match from a concordance page."""

    corpus: str
    position: str
    tokens: tuple[HitToken, ...]


@dataclass(frozen=True)
class FetchResult:
    """Parsed hits of one page plus how many unusable hits were dropped."""

    hits: tuple[ConcordanceHit, ...]
    skipped: int
    total_hits: Optional[int] = None


def _field_text(value, integer: bool = False) -> Optional[str]:
    """A JSON string as it is, a non-bool integer as digits when allowed, else None."""
    if isinstance(value, str):
        return value
    if integer and isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


def _parse_hit(item: Mapping, fallback_position: int) -> Optional[ConcordanceHit]:
    """The hit in ``item``, or None when its fields are missing or of the wrong type.

    Token fields are strings (``dephead`` may be an integer); ``word``,
    ``deprel`` and ``dephead`` are required and non-empty, while a null
    ``pos``, ``lemma`` or ``msd`` counts as absent.
    """
    tokens_raw = item.get("tokens")
    if not isinstance(tokens_raw, list) or not tokens_raw:
        return None
    tokens: list[HitToken] = []
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
        tokens.append(HitToken(form, pos, deprel, head, lemma, feats))
    match = item.get("match")
    if isinstance(match, Mapping) and "position" in match:
        position = _field_text(match["position"], integer=True)
    else:
        position = str(fallback_position)
    corpus = _field_text(item.get("corpus", "unknown"))
    if position is None or corpus is None:
        return None
    return ConcordanceHit(corpus=corpus, position=position, tokens=tuple(tokens))


def fetch_page(request: RequestSpec, transport: Transport) -> FetchResult:
    """Execute one page request and parse the hits.

    Hits whose tokens lack dependency annotation, or whose fields have the
    wrong JSON type, are skipped and counted, not fatal: concordance
    corpora mix parsed and unparsed material.
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
    total = payload.get("hits")
    return FetchResult(
        hits=tuple(hits),
        skipped=skipped,
        total_hits=total if isinstance(total, int) else None,
    )


@dataclass(frozen=True)
class IngestIssue:
    """Why one hit could not become a sentence."""

    sentence_id: str
    message: str


def normalize_hits(
    hits: Sequence[ConcordanceHit],
) -> tuple[list[Sentence], list[IngestIssue]]:
    """Normalize hits into raw sentences, as the CoNLL-U reader gives them.

    Sentence ids are ``corpus:position``, unique per hit.  Hits whose head
    values do not form a tree (cycles, out-of-range heads) are excluded
    and reported, never fatal.  Returns (sentences, issues).
    """
    sentences: list[Sentence] = []
    issues: list[IngestIssue] = []
    for hit in hits:
        sentence_id = f"{hit.corpus}:{hit.position}"
        try:
            tokens = tuple(
                Token(i, t.form, t.lemma, t.pos, t.deprel, int(t.head), t.feats)
                for i, t in enumerate(hit.tokens, start=1)
            )
        except ValueError as exc:
            issues.append(IngestIssue(sentence_id, str(exc)))
            continue
        try:
            validate_tokens(sentence_id, tokens)
        except StructureError as exc:
            issues.append(IngestIssue(sentence_id, str(exc)))
            continue
        sentence = Sentence(
            id=sentence_id,
            tokens=tokens,
            source=SourceRef(corpus=hit.corpus),
        )
        sentences.append(sentence)
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
    """Assemble fetch settings from flat config keys plus the environment."""
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
    "HitToken",
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
