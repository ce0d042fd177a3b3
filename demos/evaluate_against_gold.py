"""Score the detectors against the bundled gold annotations.

The fixture corpus ships with a gold file naming the expected theme set
of every sentence, which makes it a miniature benchmark: run the
detectors, compare, and print the per-theme table plus the rate report.

Run:  python3 demos/evaluate_against_gold.py
"""

import tempfile
from importlib.resources import files
from pathlib import Path

from solosent.conllu import parse_conllu
from solosent.detectors import detect_all
from solosent.evaluation import (
    evaluate,
    read_gold_file,
    render_eval_table,
    theme_rates,
)
from solosent.lexicons import load_lexicon_set
from solosent.profiles import apply_profile, load_profile

fixtures = files("solosent.data.fixtures")
profile = load_profile("suc-mamba")
lexicons = load_lexicon_set()

sentences = parse_conllu(
    (fixtures / "sv_examples.conllu").read_text(encoding="utf-8")
)
assessments = [
    detect_all(apply_profile(s, profile), lexicons) for s in sentences
]

with tempfile.TemporaryDirectory() as scratch:
    gold_path = Path(scratch) / "gold.tsv"
    gold_path.write_text(
        (fixtures / "sv_examples.gold").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    gold = read_gold_file(gold_path)

# evaluate reads (id, themes) pairs once, as they come; a dict works too
report = evaluate(((a.sentence_id, a.themes) for a in assessments), gold)
print(render_eval_table(report))

print()
rates = theme_rates(assessments)
print(f"theme rates over {rates.sentence_count} sentences:")
for theme, rate in rates.per_theme.items():
    if rate:
        print(f"    {theme.value:<14} {float(rate):5.1f}%")
print(f"    {'any theme':<14} {float(rates.any_theme):5.1f}%")
