"""Command line interface.

One executable, five modes::

    solosent --mode assess --input sentences.conllu
    solosent --mode filter --input sentences.conllu --output keep.jsonl
    solosent --mode rank   --input sentences.conllu --format tsv
    solosent --mode eval   --input sentences.conllu --gold gold.tsv
    solosent --mode fetch  --config korp.conf --output fetched.conllu

Records go to --output (default stdout) as JSON lines or TSV.  Sentences
are read and assessed one at a time, in input order and in one thread, so
output is byte-deterministic for a given input; assess and filter write
each record as soon as it is made, eval holds the gold table, and only
the input ids outside it, and fetch writes each page's sentences as
CoNLL-U as soon as the page arrives.  --jobs is accepted for
compatibility and changes nothing.

Each mode that assesses (assess, filter, rank and eval) opens --input and
then --output before it reads the first sentence, so an input or output
that cannot be opened ends the run before any sentence is assessed.

Every file flag takes any readable path (a file, a FIFO, /dev/fd/N), and
--input - reads stdin.  An empty --config, --profile, --lexicons or
--output is a configuration problem, not the default.  With stderr
closed, warnings and errors are dropped; with stdout closed, a run that
would write there is the input problem ``stdout: not open``, and one
with --output runs as usual.  An --output file is replaced
only when the run succeeds; on stdout, a run that fails leaves what it
wrote before the error.  A write that fails is an input problem that
names --output or stdout.

Exit codes: 0 success, 1 input problem, 2 configuration problem, 141 when
stdout is closed early (as in ``| head``): the run stops quietly, with the
status a shell reports for a filter killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from ._text import open_lines
from .assessment import Assessment, rank_assessments
from .config import detector_config_from_mapping, errors_at, read_config_file
from .conllu import ParseError, parse_conllu, serialize_conllu
from .detectors import ConfigError, DetectorConfig, detect_all
from .lexicons import LexiconError, LexiconSet, load_lexicon_set
from .model import StructureError
from .profiles import CoverageCounter, ProfileError, apply_profile, load_profile

if TYPE_CHECKING:
    from .evaluation import EvalReport, ThemeRateReport

SCHEMA_VERSION = 1

MODES = ("assess", "filter", "rank", "eval", "fetch")
FORMATS = ("jsonl", "tsv")
# flags that fall back to a default when absent; an empty value is refused
# rather than read as absent
_PATH_FLAGS = ("config", "profile", "lexicons", "output")


class InputError(Exception):
    """Anything wrong with the data the user pointed us at."""


class _InputContentError(Exception):
    """A problem with the input's content, which _open_input names the input in."""


# evaluation's names, bound here on first use so that only eval mode
# imports the module; eval mode reaches them as attributes of this module,
# which is also where the per-layer tracer (bench/tracing.py) wraps them
_EVALUATION = (
    "GoldDataError",
    "ThemeTally",
    "evaluate",
    "read_gold_file",
    "render_eval_table",
)


def __getattr__(name: str):
    if name not in _EVALUATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solosent",
        description="Assess whether dependency-parsed sentences stand on their own.",
    )
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument(
        "--input",
        help="CoNLL-U file, or - for stdin (unused in fetch mode)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="tagset profile: bundled name (suc-mamba, ud) or a file path",
    )
    parser.add_argument(
        "--lexicons", default=None, help="lexicon directory (default: bundled Swedish)"
    )
    parser.add_argument("--config", default=None, help="flat key-value config file")
    parser.add_argument("--gold", default=None, help="gold file for eval mode")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, default="jsonl")
    parser.add_argument(
        "--explain",
        action="store_true",
        help="include a rationale with every detection",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; assessment runs in one thread",
    )
    return parser


def _score(assessment: Assessment) -> float:
    """The score as written; weights that sum past the float range are a ConfigError."""
    try:
        return float(assessment.score)
    except OverflowError:
        raise ConfigError(
            f"sentence {assessment.sentence_id!r}: score is too large for a float"
        ) from None


def _assessment_record(assessment: Assessment, explain: bool) -> dict:
    detections = []
    for d in assessment.detections:
        entry: dict = {
            "theme": d.theme.value,
            "tokens": list(d.token_indices),
            "weight": float(d.weight),
        }
        if explain:
            entry["rationale"] = d.rationale
        detections.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "id": assessment.sentence_id,
        "score": _score(assessment),
        "context_independent": assessment.context_independent,
        "detections": detections,
    }


def _assessment_tsv_row(assessment: Assessment) -> str:
    themes = ",".join(
        sorted({d.theme.value for d in assessment.detections})
    )
    return "\t".join(
        (
            assessment.sentence_id,
            str(_score(assessment)),
            "true" if assessment.context_independent else "false",
            themes if themes else "-",
        )
    )


def _write_assessments(
    assessments: Iterable[Assessment], fmt: str, explain: bool, out
) -> None:
    if fmt == "jsonl":
        for assessment in assessments:
            out.write(
                json.dumps(_assessment_record(assessment, explain), ensure_ascii=False)
            )
            out.write("\n")
    else:
        out.write("id\tscore\tcontext_independent\tthemes\n")
        for assessment in assessments:
            out.write(_assessment_tsv_row(assessment))
            out.write("\n")


def _report_record(report: EvalReport, rates: ThemeRateReport) -> dict:
    def number(value: Optional[Fraction]):
        return float(value) if value is not None else None

    return {
        "schema_version": SCHEMA_VERSION,
        "sentences": report.sentence_count,
        "per_theme": {
            theme.value: {
                "precision": number(m.precision),
                "recall": number(m.recall),
                "f1": number(m.f1),
                "tp": m.true_positives,
                "fp": m.false_positives,
                "fn": m.false_negatives,
            }
            for theme, m in report.per_theme.items()
        },
        "macro": {
            "precision": number(report.macro.precision),
            "recall": number(report.macro.recall),
            "f1": number(report.macro.f1),
            "themes_with_precision": report.macro.precision_themes,
            "themes_with_recall": report.macro.recall_themes,
            "themes_with_f1": report.macro.f1_themes,
        },
        "micro": {
            "precision": number(report.micro.precision),
            "recall": number(report.micro.recall),
            "f1": number(report.micro.f1),
        },
        "multi_theme_rate": number(report.multi_theme_rate),
        "theme_rates": {
            theme.value: number(rate) for theme, rate in rates.per_theme.items()
        },
        "any_theme_rate": number(rates.any_theme),
    }


def _say(line: str) -> None:
    """Print a line on stderr; with stderr closed, drop it."""
    if sys.stderr is not None:  # None when fd 2 was closed at start-up
        with contextlib.suppress(OSError, ValueError):
            print(line, file=sys.stderr)


def _warn(message: str) -> None:
    _say(f"warning: {message}")


@contextlib.contextmanager
def _open_input(path: Optional[str]) -> Iterator[Iterable[str]]:
    """The lines of --input, a UTF-8 file or ``-`` for stdin, without a BOM.

    Entering opens the input, so callers enter it before they open any
    output.  An input that cannot be opened or decoded, a malformed row, a
    sentence that is not a tree and an _InputContentError become an
    InputError naming the input (and the line).
    """
    if not path:
        raise InputError("this mode needs --input")
    source, name = (sys.stdin, "stdin") if path == "-" else (path, path)
    if source is None:
        raise InputError("stdin: not open")
    with open_lines(source, InputError, name) as lines:
        try:
            yield lines
        except (ParseError, _InputContentError) as exc:
            raise InputError(f"{name}: {exc}") from None
        except StructureError as exc:
            raise InputError(f"{name}: line {exc.line_number}: {exc}") from None


def _assess_sentences(
    sentences, profile, lexicons: LexiconSet, config: DetectorConfig
) -> Iterator[Assessment]:
    """Assess each sentence as it arrives; unmapped tags are reported at the end."""
    coverage = CoverageCounter()
    for sentence in sentences:
        yield detect_all(apply_profile(sentence, profile, coverage), lexicons, config)
    if coverage.total:
        _warn(f"unmapped tags: {coverage.summary()}")


_OUTPUT_FAILURES = {
    FileNotFoundError: "no such directory",
    IsADirectoryError: "is a directory",
}


def _discard_stdout() -> None:
    """Point fd 1 at the null device after a write to stdout failed.

    The bytes that failed stay in stdout's buffer; without this the
    interpreter's final flush would fail on them too.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


class _Output:
    """A text stream whose failed writes name it.

    A write, flush or close that fails raises ``InputError("<name>: cannot
    write (<reason>)")``; a closed pipe stays a BrokenPipeError, which ends
    the run quietly.
    """

    def __init__(self, stream: TextIO, name: str) -> None:
        self._stream, self._name = stream, name

    def _guarded(self, call, *args) -> None:
        try:
            call(*args)
        except BrokenPipeError:
            raise
        except OSError as exc:
            if self._stream is sys.stdout:
                _discard_stdout()
            raise InputError(f"{self._name}: cannot write ({exc.strerror})") from None

    def write(self, text: str) -> None:
        self._guarded(self._stream.write, text)

    def flush(self) -> None:
        self._guarded(self._stream.flush)

    def close(self) -> None:
        self._guarded(self._stream.close)


@contextlib.contextmanager
def _open_output(path: Optional[str]) -> Iterator[_Output]:
    """Where the run writes: stdout, or --output, replaced only on success.

    A regular file, or a path that does not exist yet, is written through
    a temporary file beside it that replaces the target when the run ends
    without an error; a failed run deletes it, so an earlier file stays as
    it was and no partial one is left.  The new file gets the mode
    ``open(path, "w")`` would leave.  Any other existing path (/dev/stdout,
    a FIFO) is written to directly.

    A path that cannot be opened raises ``InputError("<path>: no such
    directory")``, ``"<path>: is a directory"`` or ``"<path>: cannot open
    (<reason>)"``, and one that cannot be written ``"<path>: cannot write
    (<reason>)"``, or ``"stdout: cannot write (<reason>)"``.  With stdout
    closed at start-up, writing there raises ``InputError("stdout: not
    open")``.
    """
    if not path:
        if sys.stdout is None:  # None when fd 1 was closed at start-up
            raise InputError("stdout: not open")
        out = _Output(sys.stdout, "stdout")
        yield out
        out.flush()
        return
    target = os.path.realpath(path)
    direct = None
    try:
        try:
            existing = os.stat(target)
        except FileNotFoundError:
            existing = None
        if existing is not None and not stat.S_ISREG(existing.st_mode):
            direct = open(path, "w", encoding="utf-8", newline="\n")
        elif existing is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        else:
            directory, name = os.path.split(target)
            temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        reason = _OUTPUT_FAILURES.get(type(exc), f"cannot open ({exc.strerror})")
        raise InputError(f"{path}: {reason}") from None
    stream = direct if direct is not None else open(fd, "w", encoding="utf-8", newline="\n")
    try:
        if direct is None and existing is not None:
            os.fchmod(fd, stat.S_IMODE(existing.st_mode))
        out = _Output(stream, path)
        yield out
        out.close()
    except BaseException:
        # the error that ended the run is the one to report, not the
        # failure to flush what was left of its output
        with contextlib.suppress(OSError):
            stream.close()
        if direct is None:
            os.unlink(temporary)
        raise
    if direct is None:
        os.replace(temporary, target)


def _fetch(args, mapping) -> int:
    """Fetch the configured pages and write each as CoNLL-U when it arrives."""
    from . import concordance  # only fetch mode needs it

    settings = concordance.settings_from_mapping(mapping, os.environ)
    transport = concordance.HttpTransport()
    issues = []
    with _open_output(args.output) as out:
        separator = ""
        for page in range(settings.pages):
            query = concordance.ConcordanceQuery(
                query_expression=settings.query_expression,
                corpora=settings.corpora,
                page_start=settings.page_size * page,
                page_size=settings.page_size,
            )
            request = concordance.build_request(
                query, settings.endpoint, settings.api_key
            )
            try:
                result = concordance.fetch_page(request, transport)
            except (
                concordance.TransportError,
                concordance.ServiceError,
                concordance.DecodeError,
            ) as exc:
                raise InputError(str(exc)) from None
            if result.skipped:
                _warn(
                    f"skipped {result.skipped} hit(s) without dependency annotation"
                )
            sentences, page_issues = concordance.normalize_hits(result.hits)
            issues.extend(page_issues)
            # each block is written as it is rendered, one blank line
            # between blocks, across pages as within one
            for sentence in sentences:
                out.write(separator + serialize_conllu((sentence,)))
                separator = "\n"
            # hold one page at a time: drop this one before the next request
            del result, sentences
    for issue in issues:
        _warn(f"{issue.sentence_id}: {issue.message}")
    return 0


def _eval(assessments: Iterable[Assessment], gold, fmt: str, out) -> None:
    """Write one report of the assessments against the --gold labels.

    Each verdict is scored against its gold label as it arrives, and the
    theme rates are counted in the same pass; of the verdicts only the ids
    outside the gold are kept.
    """
    this = sys.modules[__name__]  # evaluation's names resolve through __getattr__
    tally = this.ThemeTally()
    try:
        report = this.evaluate(
            ((a.sentence_id, tally.add(a)) for a in assessments), gold
        )
    except this.GoldDataError as exc:
        # a repeated input id, reported once the whole input is read, so a
        # malformed row after the repeat is the error that wins
        raise _InputContentError(str(exc)) from None
    if fmt == "jsonl":
        out.write(json.dumps(_report_record(report, tally.report()), ensure_ascii=False))
    else:
        out.write(this.render_eval_table(report))
    out.write("\n")


def run(args) -> int:
    mapping = read_config_file(args.config) if args.config else {}
    # fetch reads no detector key, but a misspelt one is an error in every mode
    detector_config = detector_config_from_mapping(mapping)
    if args.mode == "fetch":
        return _fetch(args, mapping)

    # a flag wins over its config key; a profile or lexicon directory the
    # config file names is an error at its line
    with errors_at({} if args.profile else mapping, "profile", (ProfileError,)):
        profile = load_profile(args.profile or mapping.get("profile", "suc-mamba"))
    with errors_at({} if args.lexicons else mapping, "lexicons", (LexiconError,)):
        lexicons = load_lexicon_set(args.lexicons or mapping.get("lexicons"))
    for warning in lexicons.warnings:
        _warn(warning)
    gold = None
    if args.mode == "eval":
        if not args.gold:
            raise ConfigError("eval mode needs --gold")
        this = sys.modules[__name__]
        try:
            gold = this.read_gold_file(args.gold)
        except this.GoldDataError as exc:
            raise InputError(str(exc)) from None

    with _open_input(args.input) as lines, _open_output(args.output) as out:
        assessments = _assess_sentences(
            parse_conllu(lines), profile, lexicons, detector_config
        )
        if args.mode == "eval":
            _eval(assessments, gold, args.format, out)
        else:
            if args.mode == "filter":
                assessments = (a for a in assessments if a.context_independent)
            elif args.mode == "rank":
                assessments = rank_assessments(assessments)
            _write_assessments(assessments, args.format, args.explain, out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        _say("error: --jobs must be at least 1")
        return 2
    for flag in _PATH_FLAGS:
        if getattr(args, flag) == "":
            _say(f"error: --{flag} must not be empty")
            return 2
    try:
        return run(args)
    except BrokenPipeError:
        _discard_stdout()
        return 141
    except (ConfigError, ProfileError, LexiconError) as exc:
        _say(f"error: {exc}")
        return 2
    except (InputError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
