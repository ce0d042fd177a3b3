"""solosent: decide whether dependency-parsed sentences stand on their own.

Sentences pulled out of a corpus often lean on their old surroundings: an
unresolved pronoun, a dangling "however", a bare "Yes" answering a
question the reader never saw.  This package detects such indications of
context dependence on single dependency-parsed sentences, scores and
ranks candidates by them, and evaluates the rules against labeled data.

Typical use::

    from solosent import (
        detect_all, load_lexicon_set, load_profile, apply_profile, parse_conllu,
    )

    profile = load_profile("suc-mamba")
    lexicons = load_lexicon_set()
    with open("corpus.conllu", encoding="utf-8-sig") as f:
        for sentence in parse_conllu(f):
            verdict = detect_all(apply_profile(sentence, profile), lexicons)
            print(verdict.sentence_id, verdict.score, sorted(t.value for t in verdict.themes))
"""

import importlib

# each public name, by the submodule that defines it; a name is imported
# with its submodule on first use, so ``import solosent.cli`` loads only
# what the mode it runs needs
_EXPORTS = {
    "assessment": (
        "Assessment",
        "filter_assessments",
        "make_assessment",
        "rank_assessments",
        "score",
    ),
    "concordance": (
        "ConcordanceHit",
        "ConcordanceQuery",
        "ConcordanceSettings",
        "FetchResult",
        "RequestSpec",
        "build_request",
        "fetch_page",
        "to_sentences",
    ),
    "conllu": ("ParseError", "parse_conllu", "serialize_conllu"),
    "detectors": (
        "ConfigError",
        "DetectorConfig",
        "IMPLEMENTED_THEMES",
        "Theme",
        "ThemeDetection",
        "count_antecedent_candidates",
        "detect_adverbial_anaphora",
        "detect_all",
        "detect_ceq_answer",
        "detect_discourse_connective",
        "detect_implicit_anaphora",
        "detect_incomplete",
        "detect_pronominal_anaphora",
        "detect_structural_connective",
    ),
    "evaluation": (
        "EvalReport",
        "GoldRecord",
        "ThemeMetrics",
        "ThemeRateReport",
        "evaluate",
        "read_gold_file",
        "theme_rates",
    ),
    "lexicons": ("AdverbType", "LexiconSet", "load_lexicon_set"),
    "model": (
        "AnnotatedSentence",
        "AnnotatedToken",
        "Category",
        "Gender",
        "MorphFeatures",
        "Number",
        "Relation",
        "Sentence",
        "SourceRef",
        "StructureError",
        "Token",
        "VerbForm",
    ),
    "profiles": (
        "CoverageCounter",
        "ProfileError",
        "TagsetProfile",
        "apply_profile",
        "load_profile",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
