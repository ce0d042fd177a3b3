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
    for sentence in parse_conllu(open("corpus.conllu", encoding="utf-8-sig")):
        verdict = detect_all(apply_profile(sentence, profile), lexicons)
        print(verdict.sentence_id, verdict.score, sorted(t.value for t in verdict.themes))
"""

from .assessment import (
    Assessment,
    filter_assessments,
    make_assessment,
    rank_assessments,
    score,
)
from .concordance import (
    ConcordanceHit,
    ConcordanceQuery,
    ConcordanceSettings,
    FetchResult,
    RequestSpec,
    build_request,
    fetch_page,
    to_sentences,
)
from .conllu import ParseError, parse_conllu, serialize_conllu
from .detectors import (
    ConfigError,
    DetectorConfig,
    IMPLEMENTED_THEMES,
    Theme,
    ThemeDetection,
    count_antecedent_candidates,
    detect_adverbial_anaphora,
    detect_all,
    detect_ceq_answer,
    detect_discourse_connective,
    detect_implicit_anaphora,
    detect_incomplete,
    detect_pronominal_anaphora,
    detect_structural_connective,
)
from .evaluation import (
    EvalReport,
    GoldRecord,
    ThemeMetrics,
    ThemeRateReport,
    evaluate,
    read_gold_file,
    theme_rates,
)
from .lexicons import AdverbType, LexiconSet, load_lexicon_set
from .model import (
    AnnotatedSentence,
    AnnotatedToken,
    Category,
    Definiteness,
    Gender,
    MorphFeatures,
    Number,
    Relation,
    Sentence,
    SourceRef,
    StructureError,
    StructuralIssue,
    Token,
    VerbForm,
    validate_structure,
)
from .profiles import (
    CoverageCounter,
    ProfileError,
    TagsetProfile,
    apply_profile,
    load_profile,
)

__version__ = "0.1.0"
