"""Output checks.  Each returns a list of problems, one per failed sentence
(or one per run for whole-run defects), so callers can count them into
``failed``.  An empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

from gen import THEMES, GenSentence

RECORD_KEYS = {"schema_version", "id", "score", "context_independent", "detections"}


def _record_problem(line: str, expected: GenSentence, explain: bool) -> str | None:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}"
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        return f"keys {sorted(record) if isinstance(record, dict) else type(record)}"
    if record["schema_version"] != 1:
        return f"schema_version {record['schema_version']!r}"
    if record["id"] != expected.id:
        return f"id {record['id']!r}, expected {expected.id!r} (input order)"
    detections = record["detections"]
    if not isinstance(detections, list):
        return "detections is not a list"
    total = 0.0
    for d in detections:
        keys = {"theme", "tokens", "weight"} | ({"rationale"} if explain else set())
        if not isinstance(d, dict) or set(d) != keys:
            return f"malformed detection {d!r}"
        if d["theme"] not in THEMES:
            return f"unknown theme {d['theme']!r}"
        if not all(isinstance(t, int) and 1 <= t <= len(expected) for t in d["tokens"]):
            return f"token indices {d['tokens']!r} outside the sentence"
        if not isinstance(d["weight"], (int, float)) or d["weight"] <= 0:
            return f"weight {d['weight']!r}"
        if explain and not (isinstance(d["rationale"], str) and d["rationale"]):
            return "empty rationale"
        total += d["weight"]
    if not math.isclose(record["score"], total, abs_tol=1e-9):
        return f"score {record['score']} is not the sum of the weights {total}"
    if record["context_independent"] is not (not detections):
        return "context_independent disagrees with the detections"
    themes = {d["theme"] for d in detections}
    if themes != expected.themes:
        return f"themes {sorted(themes)}, planted {sorted(expected.themes)}"
    return None


def assessment_records(text: str, sentences: list[GenSentence], explain: bool) -> list[str]:
    """One well-formed record per sentence, in input order, matching the gold."""
    lines = text.splitlines()
    problems = []
    for i, expected in enumerate(sentences):
        if i >= len(lines):
            problems.append(f"{expected.id}: no record")
            continue
        problem = _record_problem(lines[i], expected, explain)
        if problem:
            problems.append(f"{expected.id}: {problem}")
    if len(lines) > len(sentences):
        problems.append(f"{len(lines) - len(sentences)} records beyond the input")
    return problems


def eval_report(text: str, sentences: list[GenSentence]) -> list[str]:
    """The single eval record: perfect scores on every theme, exact counts."""
    lines = text.splitlines()
    if len(lines) != 1:
        return [f"expected one eval record, got {len(lines)} lines"]
    try:
        report = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"eval record is not JSON: {exc}"]
    problems = []
    if report.get("schema_version") != 1:
        problems.append(f"schema_version {report.get('schema_version')!r}")
    if report.get("sentences") != len(sentences):
        problems.append(f"sentences {report.get('sentences')!r}, expected {len(sentences)}")
    per_theme = report.get("per_theme", {})
    rates = report.get("theme_rates", {})
    for theme in THEMES:
        gold = sum(1 for s in sentences if theme in s.themes)
        m = per_theme.get(theme, {})
        if (m.get("precision"), m.get("recall"), m.get("f1")) != (1.0, 1.0, 1.0):
            problems.append(f"{theme}: precision/recall/f1 {m.get('precision')}/{m.get('recall')}/{m.get('f1')}")
        if (m.get("tp"), m.get("fp"), m.get("fn")) != (gold, 0, 0):
            problems.append(f"{theme}: tp/fp/fn {m.get('tp')}/{m.get('fp')}/{m.get('fn')}, gold {gold}")
        rate = rates.get(theme)
        if rate is None or not math.isclose(rate, 100 * gold / len(sentences), rel_tol=1e-12):
            problems.append(f"{theme}: theme rate {rate!r}")
    return problems


def fetched_conllu(text: str, expected: list[GenSentence]) -> list[str]:
    """The fetched CoNLL-U parses back to exactly the valid served hits."""
    from solosent.conllu import ParseError, StructureError, parse_conllu

    try:
        parsed = list(parse_conllu(text))
    except (ParseError, StructureError) as exc:
        return [f"output does not parse: {exc}"] * max(1, len(expected))
    problems = []
    for i, want in enumerate(expected):
        if i >= len(parsed):
            problems.append(f"{want.id}: missing from the output")
            continue
        got = parsed[i]
        rows = [(t.form, t.lemma, t.pos, t.feats, t.head, t.deprel) for t in got.tokens]
        if got.id != want.id:
            problems.append(f"sentence {i}: id {got.id!r}, expected {want.id!r}")
        elif rows != want.rows:
            problems.append(f"{want.id}: tokens differ from the served hit")
    if len(parsed) > len(expected):
        problems.append(f"{len(parsed) - len(expected)} sentences beyond the served hits")
    return problems
