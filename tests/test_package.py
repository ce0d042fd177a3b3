"""The package's public surface, checked in a fresh interpreter: names
resolve on first use, so what a test process imported earlier must not
decide the outcome.  And the data it opens by path, which an installed
copy holds only if the package data globs name it."""

import glob
import json
import os
import subprocess
import sys

import pytest

from solosent import profiles
from solosent._text import DATA_DIR

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
        "ThemeDetection", "detect_all",
    ],
    "evaluation": [
        "EvalReport", "ThemeMetrics", "ThemeRateReport", "evaluate", "read_gold_file",
        "theme_rates",
    ],
    "lexicons": ["AdverbType", "LexiconSet", "load_lexicon_set"],
    "model": [
        "AnnotatedSentence", "AnnotatedToken", "Category", "Gender", "MorphFeatures",
        "Number", "Relation", "Sentence", "StructureError", "Token", "VerbForm",
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
    assert len(expected) == 55
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


def test_bundled_profiles_are_the_profile_files():
    shipped = os.listdir(os.path.join(DATA_DIR, "profiles"))
    assert set(profiles.BUNDLED_PROFILES) == {
        name.removesuffix(".profile") for name in shipped if name.endswith(".profile")
    }


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"]["solosent"]
    package = os.path.dirname(DATA_DIR)
    shipped = {path for pattern in patterns for path in glob.glob(os.path.join(package, pattern))}
    data = {
        os.path.join(directory, name)
        for directory, _, names in os.walk(DATA_DIR)
        for name in names
    }
    assert data and data <= shipped, sorted(data - shipped)
