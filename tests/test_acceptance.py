"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s`` to see them) and enforcing its runtime budget.  Oracles are
hand-computed or construction-time values, never read back from the code
under test.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import annotate
from solosent import concordance
from solosent.assessment import (
    filter_assessments,
    make_assessment,
    rank_assessments,
)
from solosent.conllu import parse_conllu, serialize_conllu
from solosent.detectors import Theme, ThemeDetection, detect_all
from solosent.evaluation import evaluate, theme_rates
from solosent.model import Sentence
from solosent.profiles import apply_profile
from synthcorpus import (
    big_corpus_conllu,
    pronoun_weight_sentence,
    rate_corpus,
    single_theme_corpus,
)

PN = Theme.PRONOMINAL_ANAPHORA


class Budget:
    """Wall-clock guard: start, then call done() to get the elapsed time."""

    def __init__(self):
        self.started = time.perf_counter()

    def done(self) -> float:
        return time.perf_counter() - self.started


def report(number: int, name: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {number} ({name}): {status} [{elapsed:.2f}s, limit {limit:g}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_1_fixture_exactness(fixture_sentences, suc, lex):
    budget = Budget()
    expected = {
        "t01": {Theme.INCOMPLETE},
        "t02": {Theme.IMPLICIT_ANAPHORA},
        "t03": {PN, Theme.STRUCTURAL_CONNECTIVE},
        "t04": {Theme.ADVERBIAL_ANAPHORA},
        "t05": {Theme.DISCOURSE_CONNECTIVE},
        "t06": {Theme.STRUCTURAL_CONNECTIVE},
        "t07": {Theme.CLOSED_QUESTION_ANSWER, PN},
        "t08": set(),
        "t09": set(),
        "t10": set(),
        "t11": set(),
        "t12": set(),
    }
    results = {
        s.id: detect_all(apply_profile(s, suc), lex).themes
        for s in fixture_sentences
    }
    ok = all(results[i] == frozenset(ts) for i, ts in expected.items())
    # the two sentences where a second theme co-fires still contain
    # their headline theme
    ok = ok and {PN} <= results["t03"] and {Theme.CLOSED_QUESTION_ANSWER} <= results["t07"]
    report(1, "fixture exactness", ok, budget.done(), 1.0)


def test_criterion_2_synthetic_corpus_eval(lex):
    budget = Budget()
    entries = single_theme_corpus()
    assert len(entries) >= 50
    predictions = {}
    gold = {}
    for sentence_id, rows, theme in entries:
        assessment = detect_all(annotate(rows, sentence_id), lex)
        predictions[sentence_id] = assessment.themes
        gold[sentence_id] = frozenset({theme} if theme else set())
    result = evaluate(predictions, gold)
    ok = all(
        m.precision == Fraction(1)
        and m.recall == Fraction(1)
        and m.f1 == Fraction(1)
        for m in result.per_theme.values()
    )
    ok = ok and result.macro.precision == Fraction(1)
    ok = ok and result.macro.recall == Fraction(1)
    report(2, "synthetic corpus P=R=1", ok, budget.done(), 1.0)


def test_criterion_3_weight_rule(lex):
    budget = Budget()
    rng = random.Random(20260819)
    ok = True
    for i in range(100):
        rows, matching = pronoun_weight_sentence(rng)
        sentence = annotate(rows, f"w{i:03d}")
        detections = [
            d
            for d in detect_all(sentence, lex).detections
            if d.theme is PN
        ]
        ok = ok and len(detections) == 1
        expected = Fraction(1, 2) if matching > 0 else Fraction(1)
        ok = ok and detections[0].weight == expected
    report(3, "antecedent weight rule", ok, budget.done(), 1.0)


def _random_assessments(rng: random.Random):
    themes = list(Theme)
    items = []
    for i in range(rng.randrange(0, 21)):
        detections = tuple(
            ThemeDetection(
                theme=rng.choice(themes),
                token_indices=(),
                weight=Fraction(rng.randrange(0, 9), rng.randrange(1, 5)),
                rationale="generated",
            )
            for _ in range(rng.randrange(0, 4))
        )
        items.append(make_assessment(f"g{i}", detections))
    return items


def test_criterion_4_filter_rank_properties():
    budget = Budget()
    rng = random.Random(4)
    ok = True
    for _ in range(1000):
        items = _random_assessments(rng)
        kept = filter_assessments(items)
        ok = ok and all(a.context_independent and a.score == 0 for a in kept)
        pool = iter(items)
        ok = ok and all(a in pool for a in kept)  # ordered subset
        ranked = rank_assessments(items)
        ok = ok and sorted(a.sentence_id for a in ranked) == sorted(
            a.sentence_id for a in items
        )
        scores = [a.score for a in ranked]
        ok = ok and scores == sorted(scores)
        position = {id(a): i for i, a in enumerate(items)}
        for left, right in zip(ranked, ranked[1:]):
            if (left.score, len(left.detections)) == (
                right.score,
                len(right.detections),
            ):
                ok = ok and position[id(left)] < position[id(right)]
        if not ok:
            break
    report(4, "filter/rank properties", ok, budget.done(), 10.0)


def test_criterion_5_eval_oracle():
    budget = Budget()
    SC = Theme.STRUCTURAL_CONNECTIVE
    gold = {
        "s01": frozenset({PN}),
        "s02": frozenset({PN}),
        "s03": frozenset({PN, SC}),
        "s04": frozenset({Theme.INCOMPLETE}),
        "s05": frozenset({Theme.ADVERBIAL_ANAPHORA}),
        "s06": frozenset(),
        "s07": frozenset(),
        "s08": frozenset({Theme.CLOSED_QUESTION_ANSWER}),
        "s09": frozenset({Theme.IMPLICIT_ANAPHORA}),
        "s10": frozenset({Theme.DISCOURSE_CONNECTIVE}),
    }
    predictions = {
        "s01": {PN},
        "s02": set(),
        "s03": {PN},
        "s04": {Theme.INCOMPLETE, PN},
        "s05": {Theme.ADVERBIAL_ANAPHORA},
        "s06": {SC},
        "s07": set(),
        "s08": {Theme.CLOSED_QUESTION_ANSWER},
        "s09": {Theme.IMPLICIT_ANAPHORA},
        "s10": {Theme.DISCOURSE_CONNECTIVE, Theme.CLOSED_QUESTION_ANSWER},
    }
    # hand-computed confusion matrix
    by_hand = {
        Theme.INCOMPLETE: (1, 0, 0, Fraction(1), Fraction(1), Fraction(1)),
        Theme.IMPLICIT_ANAPHORA: (1, 0, 0, Fraction(1), Fraction(1), Fraction(1)),
        PN: (2, 1, 1, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
        Theme.ADVERBIAL_ANAPHORA: (1, 0, 0, Fraction(1), Fraction(1), Fraction(1)),
        Theme.DISCOURSE_CONNECTIVE: (1, 0, 0, Fraction(1), Fraction(1), Fraction(1)),
        SC: (0, 1, 1, Fraction(0), Fraction(0), None),
        Theme.CLOSED_QUESTION_ANSWER: (1, 1, 0, Fraction(1, 2), Fraction(1), Fraction(2, 3)),
    }
    result = evaluate(predictions, gold)
    ok = True
    for theme, (tp, fp, fn, precision, recall, f1) in by_hand.items():
        m = result.per_theme[theme]
        ok = ok and (m.true_positives, m.false_positives, m.false_negatives) == (tp, fp, fn)
        ok = ok and m.precision == precision and m.recall == recall and m.f1 == f1
        for got, want in ((m.precision, precision), (m.recall, recall), (m.f1, f1)):
            if want is not None:
                ok = ok and abs(float(got) - float(want)) < 1e-12
    ok = ok and result.macro.precision == Fraction(31, 42)
    ok = ok and result.macro.recall == Fraction(17, 21)
    ok = ok and result.macro.f1 == Fraction(8, 9)
    ok = ok and result.macro.f1_themes == 6
    micro = result.micro
    ok = ok and (micro.true_positives, micro.false_positives, micro.false_negatives) == (7, 3, 2)
    ok = ok and micro.precision == Fraction(7, 10)
    ok = ok and micro.recall == Fraction(7, 9)
    ok = ok and micro.f1 == Fraction(14, 19)
    ok = ok and result.multi_theme_rate == Fraction(1, 5)
    report(5, "hand-computed eval oracle", ok, budget.done(), 1.0)


def test_criterion_6_parallel_determinism(tmp_path):
    budget = Budget()
    corpus = tmp_path / "big.conllu"
    corpus.write_text(big_corpus_conllu(10_000), encoding="utf-8")
    outputs = []
    for jobs in ("1", "8"):
        target = tmp_path / f"out-{jobs}.jsonl"
        completed = subprocess.run(
            [
                sys.executable, "-m", "solosent",
                "--mode", "assess",
                "--input", str(corpus),
                "--jobs", jobs,
                "--output", str(target),
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(target.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    ok = ok and len(outputs[0].splitlines()) == 10_000
    report(6, "parallel determinism", ok, budget.done(), 30.0)


def test_criterion_7_ingest_equivalence(fixture_sentences, suc):
    budget = Budget()
    corpus = "korp-fixture"
    hits = []
    for position, sentence in enumerate(fixture_sentences, start=1):
        hits.append(
            {
                "corpus": corpus,
                "match": {"position": str(position)},
                "tokens": [
                    {
                        "word": t.form,
                        "pos": t.pos,
                        "msd": t.feats or "",
                        "lemma": t.lemma,
                        "ref": str(t.index),
                        "dephead": str(t.head),
                        "deprel": t.deprel,
                    }
                    for t in sentence.tokens
                ],
            }
        )

    class PageTransport:
        def get(self, url):
            body = json.dumps({"kwic": hits, "hits": len(hits)})
            return concordance.TransportReply(status=200, body=body.encode("utf-8"))

    request = concordance.build_request(
        concordance.ConcordanceQuery(
            query_expression="[word]", corpora=(corpus,), page_size=20
        ),
        "https://example.invalid/korp",
    )
    result = concordance.fetch_page(request, PageTransport())
    fetched, issues = concordance.to_sentences(result.hits, suc)

    renamed = [
        Sentence(id=f"{corpus}:{i}", tokens=s.tokens)
        for i, s in enumerate(fixture_sentences, start=1)
    ]
    from_conllu = [
        apply_profile(s, suc) for s in parse_conllu(serialize_conllu(renamed))
    ]
    ok = issues == [] and result.skipped == 0
    ok = ok and fetched == from_conllu
    report(7, "ingest equivalence", ok, budget.done(), 1.0)


def test_criterion_8_theme_rate_report(lex):
    budget = Budget()
    entries = rate_corpus()
    assert len(entries) == 100
    assessments = [
        detect_all(annotate(rows, sentence_id), lex)
        for sentence_id, rows, _ in entries
    ]
    rates = theme_rates(assessments)
    detected = sum(1 for a in assessments if a.detections)
    ok = rates.per_theme[PN] == Fraction(11)
    ok = ok and rates.any_theme == Fraction(detected)
    ok = ok and detected == 20
    report(8, "theme rate report", ok, budget.done(), 1.0)
