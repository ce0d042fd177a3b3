"""solosent benchmark: the whole CLI on seeded inputs, and a traced per-layer run.

Run from the repository root::

    python3 bench/run.py --workload assess-long --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workloads (inputs are a pure function of ``--seed``; see gen.py):

``assess-long``       ``--mode assess --explain --format jsonl --jobs 1`` on
                      1000 trees of 15-60 tokens with planted themes.
``eval-short-jobs2``  ``--mode eval --gold ... --jobs 2`` on 4000 3-8-token
                      single-theme sentences with their gold.
``fetch-korp``        ``--mode fetch`` against a Korp-style server on
                      loopback serving 1000 long-tree hits in 4 pages.

With ``--trace 0`` the CLI runs as a subprocess, over and over for
``--seconds``, in turn with the same command on an empty input and with a
round of the latency sampler.  The end-to-end metrics are
``peak_rss_mb`` (median over the runs, read with wait4), ``setup_s``
(median wall time of the empty-input runs) and ``sentence_p50_us``/
``sentence_p99_us``: quantiles over 1000 sentences of each sentence's
least thread CPU time in 40 rounds due evenly over the window, of
``apply_profile`` then ``detect_all`` on assess-long and eval-short-jobs2,
and of ``to_sentences`` of one hit on fetch-korp, whose CLI never detects.
The medians of ``wall_s`` and ``cpu_s`` (user + system, wait4) of the
runs and ``tokens_per_s`` (input tokens / median wall_s) are printed too
but are not part of the result: on a shared host they follow the host's
load more than the program.

With ``--trace 1`` untraced CLI runs alternate with traced ones (tracing.py)
and the per-layer metrics are medians over the traced runs.

Every run's output is checked (checks.py); a failed sentence or run counts
into ``failed``.  A table of every metric goes to stdout, and the last line
of stdout is the JSON result.  Exit code 1 when the program under test is
missing from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402 - bench/ is on sys.path as the script's directory
import gen  # noqa: E402
import tracing  # noqa: E402
from korp import KorpServer  # noqa: E402

WORKLOADS = ("assess-long", "eval-short-jobs2", "fetch-korp")
END_TO_END = (
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sentence_p50_us", "us"),
    ("sentence_p99_us", "us"),
)
# Printed in the table but left out of the result: on a shared host the wall
# and CPU time of a whole CLI run follow the host's load for minutes at a time.
REPORTED = (
    ("wall_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("cpu_s", "s"),
)
MIN_RUNS = 3  # of the measured command, and of the empty-input command
CLI_TIMEOUT_S = 60
LONG_SENTENCES = 1000
SHORT_SENTENCES = 4000
KORP_HITS, KORP_PAGE = 1000, 250
LATENCY_SENTENCES = 1000  # p99 then has ten sentences beyond it
LATENCY_ROUNDS = 40  # timings of each sentence, the least of which counts
LATENCY_REWARM = 25  # untimed calls before each round: the CLI run evicted the caches


@dataclass
class Workload:
    name: str
    sentences: list  # gen.GenSentence, as the output should reflect them
    tokens: int
    jobs: int
    argv: list[str]  # CLI arguments of the measured command
    setup_argv: list[str]  # the same command on an empty input
    check: Callable[[str, str], list[str]]  # (output, stderr) -> problems
    check_setup: Callable[[str], list[str]]
    latency: Callable[[], "Sampler"]  # the in-process per-sentence path, warmed up
    per_run_failures: bool = False  # a problem fails the whole run, not one sentence
    properties: dict = field(default_factory=dict)
    closers: list = field(default_factory=list)


class Sampler:
    """Times ``fn`` on each of a fixed set of inputs, in rounds.

    Each input's latency is the least of its timings over the rounds, as
    timeit takes the least of its repeats.  A shared 2-vCPU KVM guest
    (Intel Xeon) was seen to run a vCPU at about half speed in bursts of
    10 ms to 1 s, which for minutes at a time cover anywhere from a fifth
    to nine tenths of the time; the median of single timings followed that
    share, not the library.  Rounds run between CLI runs, so each input's
    timings are seconds apart, and the least of them is almost surely
    taken at full speed.

    Timings are this thread's CPU time, so that a preemption of the
    process does not count either.  Each round starts at another input, so
    that pauses set off by allocation counts (the collector, fresh memory
    from the kernel) fall on other inputs each round and drop out of the
    least.  The benchmark's own heap is frozen out of the collector, and a
    few untimed calls before each round refill the caches a CLI run
    evicted.
    """

    def __init__(self, fn: Callable, inputs: list) -> None:
        self.fn, self.inputs = fn, inputs[:LATENCY_SENTENCES]
        self.best = [float("inf")] * len(self.inputs)
        self.rounds = 0
        for item in self.inputs:  # warm-up
            fn(item)

    def round(self) -> None:
        n = len(self.inputs)
        first = self.rounds * n // LATENCY_ROUNDS
        order = [(i + first) % n for i in range(n)]
        gc.collect()
        gc.freeze()
        try:
            for i in order[:LATENCY_REWARM]:
                self.fn(self.inputs[i])
            for i in order:
                start = thread_time()
                self.fn(self.inputs[i])
                self.best[i] = min(self.best[i], thread_time() - start)
            self.rounds += 1
        finally:
            gc.unfreeze()

    def p50_p99(self) -> tuple[float, float]:
        return statistics.median(self.best), statistics.quantiles(self.best, n=100)[98]


def _library_latency(text: str) -> Sampler:
    from solosent.conllu import parse_conllu
    from solosent.detectors import detect_all
    from solosent.lexicons import load_lexicon_set
    from solosent.profiles import apply_profile, load_profile

    profile, lexicons = load_profile("suc-mamba"), load_lexicon_set()
    sentences = list(parse_conllu(text))

    def assess(sentence) -> None:
        detect_all(apply_profile(sentence, profile), lexicons)

    return Sampler(assess, sentences)


def _ingest_latency(pages: dict[int, bytes]) -> Sampler:
    from solosent.concordance import ConcordanceQuery, TransportReply, build_request, fetch_page, to_sentences
    from solosent.profiles import load_profile

    class Canned:
        def __init__(self, body: bytes) -> None:
            self.body = body

        def get(self, url: str) -> TransportReply:
            return TransportReply(status=200, body=self.body)

    profile = load_profile("suc-mamba")
    hits = []
    for start, body in sorted(pages.items()):
        query = ConcordanceQuery("[]", (gen.KORP_CORPUS,), start, KORP_PAGE)
        hits.extend(fetch_page(build_request(query, "http://127.0.0.1/korp"), Canned(body)).hits)
    return Sampler(lambda hit: to_sentences((hit,), profile), hits)


def _no_records(text: str) -> list[str]:
    return [] if text == "" else ["output on empty input"]


def _empty_eval(text: str) -> list[str]:
    try:
        ok = json.loads(text)["sentences"] == 0
    except (json.JSONDecodeError, KeyError, TypeError):
        ok = False
    return [] if ok else ["eval record on empty input"]


def prepare(name: str, seed: int, work: Path) -> Workload:
    out = work / "out"
    if name == "assess-long":
        sentences = gen.long_corpus(seed, LONG_SENTENCES)
        text = gen.to_conllu(sentences)
        (work / "in.conllu").write_text(text, encoding="utf-8")
        (work / "empty.conllu").write_text("", encoding="utf-8")
        common = ["--mode", "assess", "--explain", "--format", "jsonl", "--jobs", "1"]
        return Workload(
            name, sentences, sum(map(len, sentences)), 1,
            common + ["--input", str(work / "in.conllu"), "--output", str(out)],
            common + ["--input", str(work / "empty.conllu"), "--output", str(work / "setup")],
            lambda text, err: checks.assessment_records(text, sentences, explain=True),
            _no_records,
            lambda: _library_latency(text),
            properties=gen.properties(sentences),
        )
    if name == "eval-short-jobs2":
        sentences = gen.short_corpus(seed, SHORT_SENTENCES)
        text = gen.to_conllu(sentences)
        (work / "in.conllu").write_text(text, encoding="utf-8")
        (work / "in.gold").write_text(gen.to_gold(sentences), encoding="utf-8")
        (work / "empty.conllu").write_text("", encoding="utf-8")
        (work / "empty.gold").write_text("", encoding="utf-8")
        inputs = ["--input", str(work / "in.conllu"), "--gold", str(work / "in.gold")]
        return Workload(
            name, sentences, sum(map(len, sentences)), 2,
            ["--mode", "eval", *inputs, "--jobs", "2", "--output", str(out)],
            ["--mode", "eval", "--input", str(work / "empty.conllu"), "--gold", str(work / "empty.gold"),
             "--jobs", "2", "--output", str(work / "setup")],
            lambda text, err: checks.eval_report(text, sentences),
            _empty_eval,
            lambda: _library_latency(text),
            per_run_failures=True,
            properties=gen.properties(sentences),
        )
    if name == "fetch-korp":
        data = gen.korp_pages(seed, KORP_HITS, KORP_PAGE)
        server = KorpServer(data.pages)

        def config(pages: int) -> list[str]:
            return [
                f"fetch.endpoint = {server.endpoint}",
                '# the server ignores the query; any CQP expression will do',
                'fetch.cqp = [pos="VB"]',
                f"fetch.corpora = {gen.KORP_CORPUS}",
                f"fetch.page_size = {KORP_PAGE}",
                f"fetch.pages = {pages}",
            ]

        (work / "korp.conf").write_text("\n".join(config(len(data.pages))) + "\n", encoding="utf-8")
        (work / "empty.conf").write_text("\n".join(config(0)) + "\n", encoding="utf-8")

        def check(text: str, err: str) -> list[str]:
            problems = checks.fetched_conllu(text, data.expected)
            warned = sum(1 for sid in data.dropped if f"warning: {sid}: " in err)
            if warned != len(data.dropped):
                problems.append(f"{len(data.dropped) - warned} dropped hits not reported")
            return problems

        return Workload(
            name, data.expected, sum(map(len, data.expected)), 1,
            ["--mode", "fetch", "--config", str(work / "korp.conf"), "--output", str(out)],
            ["--mode", "fetch", "--config", str(work / "empty.conf"), "--output", str(work / "setup")],
            check,
            _no_records,
            lambda: _ingest_latency(data.pages),
            properties=gen.properties(data.expected),
            closers=[server.close],
        )
    raise ValueError(name)


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def run_process(command: list[str], work: Path, tag: str) -> Run:
    """One subprocess, started through spawn.py so its peak RSS is its own."""
    env = {k: v for k, v in os.environ.items() if k != "SOLOSENT_ENDPOINT"}
    env["PYTHONPATH"] = str(SRC)
    err_path, result_path = work / f"{tag}.stderr", work / f"{tag}.result"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(result_path), "--", *command],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
            process_group=0,
        )
        try:
            proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # it ended on its own meanwhile
            proc.wait()
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not result_path.exists():
        return Run(wall=0.0, cpu=0.0, rss_mb=0.0, code=proc.returncode or -1, stderr=stderr)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Run(wall=result["wall"], cpu=result["cpu"], rss_mb=result["rss_mb"], code=result["code"], stderr=stderr)


class Tally:
    """Attempted and failed units, with the first few problems kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, units: int, problems: list[str], whole: bool = False) -> None:
        self.attempted += units
        self.failed += units if (whole and problems) else min(units, len(problems))
        self.note(problems)

    def fail(self, units: int, problem: str) -> None:
        """Fail units already counted as attempted."""
        self.failed += units
        self.note([problem])

    def note(self, problems: list[str]) -> None:
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def cli_run(wl: Workload, argv: list[str], work: Path, tag: str, tally: Tally, setup: bool = False,
            traced: Optional[Path] = None) -> tuple[Run, str]:
    """Run the CLI (or the traced CLI) once, check its output, count the result."""
    prefix = [sys.executable, str(HERE / "tracing.py"), str(traced), "--"] if traced else [sys.executable, "-m", "solosent"]
    run = run_process(prefix + argv, work, tag)
    target = Path(argv[argv.index("--output") + 1])
    text = target.read_text(encoding="utf-8") if target.exists() else ""
    target.unlink(missing_ok=True)
    if run.code != 0:
        problems = [f"{tag}: exit code {run.code}: {run.stderr.strip()[-300:]}"]
    else:
        problems = wl.check_setup(text) if setup else wl.check(text, run.stderr)
    if setup:
        tally.add(1, problems)
    else:
        tally.add(len(wl.sentences), problems, whole=wl.per_run_failures or run.code != 0)
    return run, text


def check_jobs1(wl: Workload, output: str, work: Path, tally: Tally) -> None:
    """The measured command at --jobs 1 must write the same bytes."""
    argv = list(wl.argv)
    argv[argv.index("--jobs") + 1] = "1"
    argv[argv.index("--output") + 1] = str(work / "jobs1")
    _, reference = cli_run(wl, argv, work, "jobs1", tally)
    if reference != output:
        tally.fail(len(wl.sentences), f"output at --jobs 1 differs from --jobs {wl.jobs}")


def measure(wl: Workload, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: (name -> value, name -> sample count).

    The measured command, the same command on an empty input and a round
    of the latency sampler take turns for ``seconds``, so that each median
    spans the whole window.
    """
    cli_run(wl, wl.setup_argv, work, "warmup", tally, setup=True)
    sampler = wl.latency()
    runs: list[Run] = []
    setups: list[float] = []
    started = perf_counter()
    while len(runs) < MIN_RUNS or perf_counter() - started < seconds:
        run, output = cli_run(wl, wl.argv, work, f"run{len(runs)}", tally)
        runs.append(run)
        setups.append(cli_run(wl, wl.setup_argv, work, f"setup{len(setups)}", tally, setup=True)[0].wall)
        while sampler.rounds < min(LATENCY_ROUNDS, LATENCY_ROUNDS * (perf_counter() - started) / seconds):
            sampler.round()  # rounds fall due evenly over the window
    while sampler.rounds < LATENCY_ROUNDS:
        sampler.round()
    if wl.jobs > 1:
        check_jobs1(wl, output, work, tally)
    wall = statistics.median(r.wall for r in runs)
    p50, p99 = sampler.p50_p99()
    values = {
        "wall_s": wall,
        "tokens_per_s": wl.tokens / wall,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setups),
        "sentence_p50_us": p50 * 1e6,
        "sentence_p99_us": p99 * 1e6,
    }
    counts = {name: len(runs) for name in ("wall_s", "tokens_per_s", "cpu_s", "peak_rss_mb")}
    timings = f"{len(sampler.best)}x{sampler.rounds}"
    counts.update(setup_s=len(setups), sentence_p50_us=timings, sentence_p99_us=timings)
    return values, counts


def measure_traced(wl: Workload, seconds: float, work: Path, tally: Tally, keep: Path) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced runs, alternating with untraced ones."""
    cli_run(wl, wl.setup_argv, work, "warmup", tally, setup=True)
    plain, traced, layers = [], [], []
    spans = work / "spans.jsonl"
    started = perf_counter()
    while len(traced) < 2 or perf_counter() - started < seconds:
        plain.append(cli_run(wl, wl.argv, work, f"plain{len(plain)}", tally)[0].wall)
        traced.append(cli_run(wl, wl.argv, work, f"traced{len(traced)}", tally, traced=spans)[0].wall)
        layers.append(tracing.layer_metrics(str(spans), wl.jobs))
    shutil.copyfile(spans, keep)
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in layers}) != 1:
            tally.fail(1, f"count {name} differs between traced runs: {[m[name] for m in layers]}")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values.update({name: layers[0][name] for name in tracing.COUNT_METRICS if name in layers[0]})
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, {name: len(layers) for name in values}


def report(wl: Workload, seed: int, values: dict, counts: dict, units: list[tuple[str, str]], tally: Tally,
           reported: tuple = ()) -> None:
    props = wl.properties
    print(f"== {wl.name}  seed {seed}  ({props['sentences']} sentences, {props['tokens']} tokens, "
          f"mean length {props['mean_length']}, max depth {props['max_depth']})")
    print(f"   {'metric':<44} {'value':>14}  {'unit':<6} samples")
    for name, unit in units:
        print(f"   {name:<44} {values[name]:>14.6g}  {unit:<6} {counts[name]}")
    for name, unit in reported:
        print(f"   {name:<44} {values[name]:>14.6g}  {unit:<6} {counts[name]}  (reported only)")
    frac = tally.failed / tally.attempted
    print(f"   {'failed_frac':<44} {frac:>14.6g}  {'ratio':<6} {tally.attempted} attempted")
    verdict = "all outputs correct" if not tally.failed else f"{tally.failed} FAILED"
    print(f"   checks: {verdict}")
    for problem in tally.problems:
        print(f"     {problem}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, Tally]:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    tally = Tally()
    wl = None
    try:
        wl = prepare(name, seed, work)
        if traced:
            keep = scratch / f"spans-{name}-seed{seed}.jsonl"
            values, counts = measure_traced(wl, seconds, work, tally, keep)
            units, reported = tracing.LAYER_METRICS, ()
        else:
            values, counts = measure(wl, seconds, work, tally)
            units, reported = END_TO_END, REPORTED
        report(wl, seed, values, counts, units, tally, reported)
    finally:
        for close in wl.closers if wl else ():
            close()
        shutil.rmtree(work, ignore_errors=True)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units}
    return metrics, tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "solosent" / "cli.py").is_file():
        print(f"error: the program is not here: no {SRC / 'solosent' / 'cli.py'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
