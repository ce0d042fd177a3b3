"""The package's public surface, checked in a fresh interpreter: names
resolve on first use, so what a test process imported earlier must not
decide the outcome."""

import json
import subprocess
import sys

# every public name of ``solosent``, by the submodule that defines it
PUBLIC = {
    "assessment": [
        "Assessment", "filter_assessments", "make_assessment", "rank_assessments",
        "score",
    ],
    "concordance": [
        "ConcordanceHit", "ConcordanceQuery", "ConcordanceSettings", "FetchResult",
        "RequestSpec", "build_request", "fetch_page", "to_sentences",
    ],
    "conllu": ["ParseError", "parse_conllu", "serialize_conllu"],
    "detectors": [
        "ConfigError", "DetectorConfig", "IMPLEMENTED_THEMES", "Theme",
        "ThemeDetection", "count_antecedent_candidates", "detect_adverbial_anaphora",
        "detect_all", "detect_ceq_answer", "detect_discourse_connective",
        "detect_implicit_anaphora", "detect_incomplete", "detect_pronominal_anaphora",
        "detect_structural_connective",
    ],
    "evaluation": [
        "EvalReport", "GoldRecord", "ThemeMetrics", "ThemeRateReport", "evaluate",
        "read_gold_file", "theme_rates",
    ],
    "lexicons": ["AdverbType", "LexiconSet", "load_lexicon_set"],
    "model": [
        "AnnotatedSentence", "AnnotatedToken", "Category", "Gender", "MorphFeatures",
        "Number", "Relation", "Sentence", "SourceRef", "StructureError", "Token",
        "VerbForm",
    ],
    "profiles": [
        "CoverageCounter", "ProfileError", "TagsetProfile", "apply_profile",
        "load_profile",
    ],
}


def fresh(script):
    """What ``script`` prints as JSON, run in a new interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_star_import_gives_the_public_names_and_submodules():
    names = fresh(
        "namespace = {}\n"
        "exec('from solosent import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))"
    )
    expected = set(PUBLIC) | {name for names in PUBLIC.values() for name in names}
    assert len(expected) == 65
    assert names == sorted(expected)


def test_each_name_is_its_submodules_object():
    mismatched = fresh(
        "import importlib, solosent\n"
        f"public = {PUBLIC!r}\n"
        "print(json.dumps([\n"
        "    name for module, names in public.items() for name in names\n"
        "    if getattr(solosent, name)\n"
        "    is not getattr(importlib.import_module('solosent.' + module), name)\n"
        "] + [\n"
        "    module for module in public\n"
        "    if getattr(solosent, module) is not sys.modules['solosent.' + module]\n"
        "]))"
    )
    assert mismatched == []


def test_import_loads_no_submodule_and_dir_lists_all():
    loaded, listed, exported = fresh(
        "import solosent\n"
        "print(json.dumps([\n"
        "    sorted(m for m in sys.modules if m.startswith('solosent.')),\n"
        "    dir(solosent),\n"
        "    solosent.__all__,\n"
        "]))"
    )
    assert loaded == []
    assert set(exported) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_is_an_attribute_error():
    message = fresh(
        "import solosent\n"
        "try:\n"
        "    solosent.detect_everything\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert message == "module 'solosent' has no attribute 'detect_everything'"
