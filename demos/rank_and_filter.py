"""Pick usable example sentences out of a mixed candidate pool.

A dictionary-example or exercise pipeline rarely wants a yes/no verdict
only: given more candidates than slots, it wants the best ones first.
This script assesses the fixture corpus, then shows both selection
styles: the strict filter (keep only sentences with no detections) and
the ranking (everything, least context-bound first).

Run:  python3 demos/rank_and_filter.py
"""

from importlib.resources import files

from solosent.assessment import filter_assessments, rank_assessments
from solosent.conllu import parse_conllu
from solosent.detectors import detect_all
from solosent.lexicons import load_lexicon_set
from solosent.profiles import apply_profile, load_profile

corpus = (
    files("solosent.data.fixtures") / "sv_examples.conllu"
).read_text(encoding="utf-8")
profile = load_profile("suc-mamba")
lexicons = load_lexicon_set()

sentences = list(parse_conllu(corpus))
text_by_id = {s.id: s.text for s in sentences}
assessments = [
    detect_all(apply_profile(s, profile), lexicons) for s in sentences
]

kept = filter_assessments(assessments)
print(f"filter: {len(kept)} of {len(assessments)} sentences stand alone")
for assessment in kept:
    print(f"    {assessment.sentence_id}  {text_by_id[assessment.sentence_id]}")

print()
print("rank: full pool, best candidates first")
for assessment in rank_assessments(assessments):
    themes = ",".join(sorted(t.value for t in assessment.themes)) or "-"
    print(
        f"    {float(assessment.score):>4}  {assessment.sentence_id}"
        f"  [{themes}]  {text_by_id[assessment.sentence_id]}"
    )
