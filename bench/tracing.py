"""Per-layer tracing from outside the program.

Run as a script, this is the traced CLI: it wraps the public names the
``solosent`` modules import from one another, calls ``cli.main(argv)``
in this process and writes every span, plus the counters taken at the
same boundaries, to SPANS_FILE when the run ends::

    PYTHONPATH=src python3 bench/tracing.py SPANS_FILE -- --mode assess --input ...

A span is (id, name, start, end, parent, thread, size, outer): ``size`` is
the token count where the call has one, and ``outer`` is false when a span
of the same name is already open on the thread (descendants() calling
children(), say), so layer times never count a nested call twice.  Spans
started by a worker thread with nothing open on it take the ``cli.main``
span as parent.  When a wrapped function returns an iterator, each step of
the iteration is a span of the same layer, so a streaming reader stays
measured.

``layer_metrics`` turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import json
import resource
import sys
import threading
from collections import Counter
from time import perf_counter

THEMES = ("IncompSent", "ImpAnaphora", "PNAnaphora", "AdvAnaphora1", "AdvAnaphora2", "StructConn", "CEQAnswer")
BUCKETS = ((15, 30), (31, 45), (46, 60))

# name, unit: the per-layer metrics, in the order they are reported
LAYER_METRICS = (
    [
        ("conllu.parse_s", "s"),
        ("conllu.parse_us_per_token", "us"),
        ("model.validate_s", "s"),
        ("conllu.serialize_s", "s"),
        ("concordance.fetch_page_s", "s"),
        ("concordance.to_sentences_s", "s"),
        ("concordance.ingest_issues", "count"),
        ("profiles.load_s", "s"),
        ("lexicons.load_s", "s"),
        ("profiles.apply_s", "s"),
        ("profiles.apply_us_per_token", "us"),
        ("profiles.decode_calls", "count"),
        ("profiles.distinct_pos_feats", "count"),
        ("profiles.unmapped_tags", "count"),
        ("detectors.detect_s", "s"),
    ]
    + [(f"detectors.detect_us_per_token.len{lo}_{hi}", "us") for lo, hi in BUCKETS]
    + [
        ("model.tree_query_calls", "count"),
        ("model.tree_query_s", "s"),
        ("assessment.make_s", "s"),
        ("evaluation.read_gold_s", "s"),
        ("evaluation.evaluate_s", "s"),
        ("evaluation.theme_rates_s", "s"),
        ("cli.self_s", "s"),
        ("cli.pool_busy_frac", "ratio"),
        ("cli.rss_after_parse_mb", "MB"),
        ("cli.rss_after_detect_mb", "MB"),
    ]
    + [(f"detectors.fires.{theme}", "count") for theme in THEMES]
    + [("detectors.flagged_frac", "ratio"), ("trace.overhead_s", "s")]
)
COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit == "count"]



def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Collects spans and counters in memory; ``write`` saves them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.pos_feats: set[tuple[str, str]] = set()
        self.rss: dict[str, float] = {}
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self) -> tuple[list, Counter]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.names = [], Counter()
        return local.stack, local.names

    def span(self, name: str, size: int, fn, *args, **kwargs):
        stack, names = self._open()
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            parent = self.root
            if parent is None:
                self.root = sid
        outer = not names[name]
        stack.append(sid)
        names[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            names[name] -= 1
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), size, outer))

    def wrap(self, fn, name: str, size=None, after=None):
        """``fn`` traced as layer ``name``.

        ``size(*args)`` gives the span's token count; ``after(items, args)``
        sees the result, or each item in turn when the result is an iterator.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, size(*args) if size else 0, fn, *args, **kwargs)
            if isinstance(result, collections.abc.Iterator):
                return self._iterate(name, result, after, args)
            if after:
                after(result, args)
            return result

        return traced

    def _iterate(self, name, iterator, after, args):
        while True:
            try:
                item = self.span(name, 0, next, iterator)
            except StopIteration:
                return
            if after:
                after([item], args)
            yield item

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")
            summary = {
                "counters": dict(self.counters),
                "distinct_pos_feats": len(self.pos_feats),
                "rss": self.rss,
            }
            out.write(json.dumps(summary))
            out.write("\n")


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer boundaries; returns the names that were not found."""
    from solosent import cli, concordance, conllu, detectors, model, profiles

    def parsed(sentences, args):
        tracer.counters["conllu.tokens"] += sum(len(s.tokens) for s in sentences)
        tracer.rss["parse"] = peak_rss_mb()

    def applied(annotated, args):
        sentence, profile = args[0], args[1]
        tracer.counters["profiles.unmapped_tags"] += sum(
            (profile.category_for(t.pos, t.form) is None) + (profile.relation_for(t.deprel) is None)
            for t in sentence.tokens
        )

    def decoded(features, args):
        tracer.pos_feats.add((args[1], args[2]))

    def detected(assessment_, args):
        for d in assessment_.detections:
            tracer.counters[f"detectors.fires.{d.theme.value}"] += 1
        tracer.counters["detectors.sentences"] += 1
        tracer.counters["detectors.flagged"] += bool(assessment_.detections)
        tracer.rss["detect"] = peak_rss_mb()

    def ingested(result, args):
        tracer.counters["concordance.ingest_issues"] += len(result[1])

    def tokens(sentence, *rest):
        return len(sentence.tokens)

    def validated(sentence_id, tokens_, *rest):
        return len(tokens_)

    plan = [
        (cli, "parse_conllu", "conllu.parse", None, parsed),
        (cli, "serialize_conllu", "conllu.serialize", None, None),
        (cli, "apply_profile", "profiles.apply", tokens, applied),
        (cli, "detect_all", "detectors.detect", tokens, detected),
        (cli, "load_profile", "profiles.load", None, None),
        (cli, "load_lexicon_set", "lexicons.load", None, None),
        (cli, "read_gold_file", "evaluation.read_gold", None, None),
        (cli, "evaluate", "evaluation.evaluate", None, None),
        (cli, "theme_rates", "evaluation.theme_rates", None, None),
        (conllu, "validate_tokens", "model.validate", validated, None),
        (concordance, "validate_tokens", "model.validate", validated, None),
        (concordance, "apply_profile", "profiles.apply", tokens, applied),
        (concordance, "fetch_page", "concordance.fetch_page", None, None),
        (concordance, "to_sentences", "concordance.to_sentences", None, ingested),
        (detectors, "make_assessment", "assessment.make", None, None),
        (profiles.TagsetProfile, "decode_features", "profiles.decode", None, decoded),
    ] + [
        (model.AnnotatedSentence, method, "model.tree_query", None, None)
        for method in ("children", "siblings", "descendants", "root_tokens")
    ]
    missing = []
    for owner, attr, name, size, after in plan:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(original, name, size, after))
    return missing


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(path: str, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            spans.append(json.loads(line))
    summary = spans.pop()
    counters = Counter(summary["counters"])
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def seconds(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ()) if s[7])

    def per_token(spans_, tokens_: int) -> float:
        return sum(s[3] - s[2] for s in spans_) / tokens_ * 1e6 if tokens_ else 0.0

    m: dict[str, float] = {}
    m["conllu.parse_s"] = seconds("conllu.parse")
    m["conllu.parse_us_per_token"] = (
        m["conllu.parse_s"] / counters["conllu.tokens"] * 1e6 if counters["conllu.tokens"] else 0.0
    )
    m["model.validate_s"] = seconds("model.validate")
    m["conllu.serialize_s"] = seconds("conllu.serialize")
    m["concordance.fetch_page_s"] = seconds("concordance.fetch_page")
    m["concordance.to_sentences_s"] = seconds("concordance.to_sentences")
    m["concordance.ingest_issues"] = counters["concordance.ingest_issues"]
    m["profiles.load_s"] = seconds("profiles.load")
    m["lexicons.load_s"] = seconds("lexicons.load")
    applies = [s for s in by_name.get("profiles.apply", ()) if s[7]]
    m["profiles.apply_s"] = seconds("profiles.apply")
    m["profiles.apply_us_per_token"] = per_token(applies, sum(s[6] for s in applies))
    m["profiles.decode_calls"] = len(by_name.get("profiles.decode", ()))
    m["profiles.distinct_pos_feats"] = summary["distinct_pos_feats"]
    m["profiles.unmapped_tags"] = counters["profiles.unmapped_tags"]
    detects = [s for s in by_name.get("detectors.detect", ()) if s[7]]
    m["detectors.detect_s"] = seconds("detectors.detect")
    for lo, hi in BUCKETS:
        bucket = [s for s in detects if lo <= s[6] <= hi]
        m[f"detectors.detect_us_per_token.len{lo}_{hi}"] = per_token(bucket, sum(s[6] for s in bucket))
    m["model.tree_query_calls"] = len(by_name.get("model.tree_query", ()))
    m["model.tree_query_s"] = seconds("model.tree_query")
    m["assessment.make_s"] = seconds("assessment.make")
    m["evaluation.read_gold_s"] = seconds("evaluation.read_gold")
    m["evaluation.evaluate_s"] = seconds("evaluation.evaluate")
    m["evaluation.theme_rates_s"] = seconds("evaluation.theme_rates")
    (main,) = by_name["cli.main"]
    children = [(max(s[2], main[2]), min(s[3], main[3])) for s in spans if s[4] == main[0]]
    m["cli.self_s"] = main[3] - main[2] - _union([c for c in children if c[1] > c[0]])
    if detects:
        phase = max(s[3] for s in detects) - min(s[2] for s in detects)
        m["cli.pool_busy_frac"] = sum(s[3] - s[2] for s in detects) / (jobs * phase)
    else:
        m["cli.pool_busy_frac"] = 0.0
    m["cli.rss_after_parse_mb"] = summary["rss"].get("parse", 0.0)
    m["cli.rss_after_detect_mb"] = summary["rss"].get("detect", 0.0)
    for theme in THEMES:
        m[f"detectors.fires.{theme}"] = counters[f"detectors.fires.{theme}"]
    sentences = counters["detectors.sentences"]
    m["detectors.flagged_frac"] = counters["detectors.flagged"] / sentences if sentences else 0.0
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_FILE -- <solosent arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print(f"trace: not found, left untraced: {', '.join(missing)}", file=sys.stderr)
    from solosent import cli

    try:
        return tracer.span("cli.main", 0, cli.main, argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
