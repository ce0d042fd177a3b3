from importlib.resources import files

import pytest

from helpers import SUC, UD
from solosent.conllu import parse_conllu
from solosent.detectors import DetectorConfig, detect_all
from solosent.lexicons import load_lexicon_set
from solosent.profiles import apply_profile

FIXTURES = files("solosent.data.fixtures")


@pytest.fixture(scope="session")
def lex():
    return load_lexicon_set()


@pytest.fixture(scope="session")
def suc():
    return SUC


@pytest.fixture(scope="session")
def ud():
    return UD


@pytest.fixture(scope="session")
def fixture_text():
    return FIXTURES.joinpath("sv_examples.conllu").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fixture_gold_text():
    return FIXTURES.joinpath("sv_examples.gold").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def ud_fixture_text():
    return FIXTURES.joinpath("sv_examples_ud.conllu").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fixture_sentences(fixture_text):
    return list(parse_conllu(fixture_text))


@pytest.fixture(scope="session")
def fixture_assessments(fixture_sentences, lex):
    config = DetectorConfig()
    return [
        detect_all(apply_profile(s, SUC), lex, config) for s in fixture_sentences
    ]
