import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import weakref
from importlib.resources import files

import pytest

from helpers import LONG_DIGITS, int_error, needs_int_digit_limit
from solosent import cli, concordance
from solosent.cli import main
from solosent.conllu import parse_conllu, serialize_conllu
from synthcorpus import big_corpus_conllu

CLEAN_IDS = ["t08", "t09", "t10", "t11", "t12"]


@pytest.fixture
def corpus_path(tmp_path, fixture_text):
    path = tmp_path / "sentences.conllu"
    path.write_text(fixture_text, encoding="utf-8")
    return str(path)


@pytest.fixture
def gold_path(tmp_path, fixture_gold_text):
    path = tmp_path / "sentences.gold"
    path.write_text(fixture_gold_text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl_records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestAssess:
    def test_jsonl_schema(self, capsys, corpus_path):
        code, out, _ = run_cli(capsys, "--mode", "assess", "--input", corpus_path)
        assert code == 0
        records = jsonl_records(out)
        assert [r["id"] for r in records] == [f"t{i:02d}" for i in range(1, 13)]
        for record in records:
            assert record["schema_version"] == 1
            assert isinstance(record["score"], float)
            assert isinstance(record["context_independent"], bool)
            assert record["context_independent"] == (record["score"] == 0.0)
            for d in record["detections"]:
                assert set(d) == {"theme", "tokens", "weight"}

    def test_known_scores(self, capsys, corpus_path):
        _, out, _ = run_cli(capsys, "--mode", "assess", "--input", corpus_path)
        by_id = {r["id"]: r for r in jsonl_records(out)}
        assert by_id["t01"]["score"] == 1.0
        assert by_id["t03"]["score"] == 2.0
        assert by_id["t09"]["score"] == 0.0
        assert by_id["t09"]["context_independent"] is True
        themes = {d["theme"] for d in by_id["t03"]["detections"]}
        assert themes == {"PNAnaphora", "StructConn"}

    def test_explain_adds_rationales(self, capsys, corpus_path):
        _, out, _ = run_cli(
            capsys, "--mode", "assess", "--input", corpus_path, "--explain"
        )
        records = jsonl_records(out)
        detections = [d for r in records for d in r["detections"]]
        assert detections
        assert all("rationale" in d and d["rationale"] for d in detections)

    def test_tsv_format(self, capsys, corpus_path):
        _, out, _ = run_cli(
            capsys, "--mode", "assess", "--input", corpus_path, "--format", "tsv"
        )
        lines = out.splitlines()
        assert lines[0] == "id\tscore\tcontext_independent\tthemes"
        assert len(lines) == 13
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert rows["t09"][1:] == ["0.0", "true", "-"]
        assert rows["t03"][3] == "PNAnaphora,StructConn"

    def test_output_file(self, capsys, corpus_path, tmp_path):
        target = tmp_path / "out.jsonl"
        code, out, _ = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text(encoding="utf-8").splitlines()) == 12

    def test_stdin_input(self, capsys, monkeypatch, fixture_text):
        monkeypatch.setattr("sys.stdin", io.StringIO(fixture_text))
        code, out, _ = run_cli(capsys, "--mode", "assess", "--input", "-")
        assert code == 0
        assert len(jsonl_records(out)) == 12

    def test_jobs_do_not_change_output(self, capsys, corpus_path):
        _, serial, _ = run_cli(
            capsys, "--mode", "assess", "--input", corpus_path, "--jobs", "1"
        )
        _, pooled, _ = run_cli(
            capsys, "--mode", "assess", "--input", corpus_path, "--jobs", "4"
        )
        assert serial == pooled

    def test_ud_profile_flag(self, capsys, tmp_path, ud_fixture_text):
        path = tmp_path / "ud.conllu"
        path.write_text(ud_fixture_text, encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "--mode", "assess", "--input", str(path), "--profile", "ud",
        )
        assert code == 0
        by_id = {r["id"]: r for r in jsonl_records(out)}
        assert by_id["u09"]["context_independent"] is True
        assert by_id["u02"]["score"] == 1.0


class TestFilterAndRank:
    def test_filter_keeps_clean(self, capsys, corpus_path):
        _, out, _ = run_cli(capsys, "--mode", "filter", "--input", corpus_path)
        records = jsonl_records(out)
        assert [r["id"] for r in records] == CLEAN_IDS
        assert all(r["context_independent"] for r in records)

    def test_rank_order(self, capsys, corpus_path):
        _, out, _ = run_cli(capsys, "--mode", "rank", "--input", corpus_path)
        ids = [r["id"] for r in jsonl_records(out)]
        # clean first in input order, then single hits, then double hits
        assert ids == CLEAN_IDS + ["t01", "t02", "t04", "t05", "t06", "t03", "t07"]
        scores = [r["score"] for r in jsonl_records(out)]
        assert scores == sorted(scores)


class TestEval:
    def test_json_report(self, capsys, corpus_path, gold_path):
        code, out, _ = run_cli(
            capsys,
            "--mode", "eval", "--input", corpus_path, "--gold", gold_path,
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["sentences"] == 12
        pn = report["per_theme"]["PNAnaphora"]
        assert (pn["tp"], pn["fp"], pn["fn"]) == (2, 0, 0)
        assert pn["precision"] == 1.0
        assert report["macro"]["precision"] == 1.0
        assert report["macro"]["themes_with_precision"] == 7
        assert report["micro"]["f1"] == 1.0
        assert report["multi_theme_rate"] == pytest.approx(2 / 12)
        assert report["theme_rates"]["PNAnaphora"] == pytest.approx(200 / 12)
        assert report["any_theme_rate"] == pytest.approx(700 / 12)

    def test_scores_count_gold_ids_and_rates_count_input_sentences(
        self, capsys, tmp_path, corpus_path, fixture_gold_text
    ):
        """With gold labels for t07-t12 only, the scores and ``sentences``
        cover those six, while the theme rates divide by all twelve input
        sentences, as docs/formats.md says."""
        gold = tmp_path / "half.gold"
        gold.write_text(
            "".join(
                line + "\n"
                for line in fixture_gold_text.splitlines()
                if line.startswith(("t07", "t08", "t09", "t10", "t11", "t12"))
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "--mode", "eval", "--input", corpus_path, "--gold", str(gold)
        )
        assert code == 0
        report = json.loads(out)
        assert report["sentences"] == 6
        pn = report["per_theme"]["PNAnaphora"]
        assert (pn["tp"], pn["fp"], pn["fn"]) == (1, 0, 0)
        assert report["multi_theme_rate"] == pytest.approx(1 / 6)
        assert report["theme_rates"]["PNAnaphora"] == pytest.approx(200 / 12)
        assert report["any_theme_rate"] == pytest.approx(700 / 12)

    def test_table_format(self, capsys, corpus_path, gold_path):
        _, out, _ = run_cli(
            capsys,
            "--mode", "eval", "--input", corpus_path, "--gold", gold_path,
            "--format", "tsv",
        )
        assert "macro avg" in out
        assert "micro avg" in out
        assert "PNAnaphora" in out

    @pytest.mark.parametrize("stdin", [False, True])
    def test_repeated_input_id(
        self, capsys, monkeypatch, tmp_path, gold_path, fixture_text, stdin
    ):
        twice = fixture_text + "\n" + fixture_text
        path = tmp_path / "twice.conllu"
        path.write_text(twice, encoding="utf-8")
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(twice))
        name = "stdin" if stdin else str(path)
        code, out, err = run_cli(
            capsys,
            "--mode", "eval", "--input", "-" if stdin else str(path), "--gold", gold_path,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {name}: duplicate sentence id 't01'\n"

    @pytest.mark.parametrize("stdin", [False, True])
    def test_malformed_row_after_a_repeated_id_wins(
        self, capsys, monkeypatch, tmp_path, gold_path, fixture_text, stdin
    ):
        """A repeated id is reported once the whole input is read, so a
        malformed row after it is the error."""
        text = fixture_text + "\n" + fixture_text + "\n1\tbad\trow\n"
        line = text.count("\n")
        path = tmp_path / "twice.conllu"
        path.write_text(text, encoding="utf-8")
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name = "stdin" if stdin else str(path)
        code, out, err = run_cli(
            capsys,
            "--mode", "eval", "--input", "-" if stdin else str(path), "--gold", gold_path,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {name}: line {line}: expected 10 tab-separated columns, got 3\n"
        )

    def test_holds_no_assessment_it_has_counted(
        self, capsys, monkeypatch, corpus_path, gold_path
    ):
        """Eval reads its input as a stream: when a sentence is assessed, at
        most the verdict before it is still alive, held by the loop that
        counted it."""
        assess = cli._assess_sentences
        refs, alive = [], []

        def watched(*args):
            for assessment in assess(*args):
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(assessment))
                yield assessment

        monkeypatch.setattr(cli, "_assess_sentences", watched)
        code, out, _ = run_cli(
            capsys, "--mode", "eval", "--input", corpus_path, "--gold", gold_path
        )
        assert code == 0
        assert json.loads(out)["any_theme_rate"] == pytest.approx(700 / 12)
        assert len(refs) == 12
        assert max(alive) <= 1

    def test_equal_theme_sets_share_one_frozenset(
        self, capsys, monkeypatch, corpus_path, gold_path
    ):
        evaluate = cli.evaluate
        seen = []

        def spy(predictions, gold):
            seen.append(predictions)
            return evaluate(predictions, gold)

        monkeypatch.setattr(cli, "evaluate", spy)
        code, _, _ = run_cli(
            capsys, "--mode", "eval", "--input", corpus_path, "--gold", gold_path
        )
        assert code == 0
        (predictions,) = seen
        sets = list(predictions.values())
        # t08-t12 all have no theme, so there are fewer sets than sentences
        assert len({id(s) for s in sets}) == len(set(sets)) < len(sets) == 12

    def test_gold_required(self, capsys, corpus_path):
        code, _, err = run_cli(capsys, "--mode", "eval", "--input", corpus_path)
        assert code == 2
        assert "--gold" in err

    def test_gold_checked_before_input_is_read(self, capsys, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\tonly-two\tcolumns\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--mode", "eval", "--input", str(path))
        assert code == 2
        assert "--gold" in err

    def test_missing_gold_file(self, capsys, corpus_path):
        code, _, err = run_cli(
            capsys,
            "--mode", "eval", "--input", corpus_path, "--gold", "/nope/gold.tsv",
        )
        assert code == 1
        assert "error" in err


class TestConfigFlag:
    def test_disable_theme(self, capsys, corpus_path, tmp_path):
        conf = tmp_path / "solosent.conf"
        conf.write_text("enable.IncompSent = false\n", encoding="utf-8")
        _, out, _ = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--config", str(conf),
        )
        by_id = {r["id"]: r for r in jsonl_records(out)}
        assert by_id["t01"]["context_independent"] is True
        assert by_id["t02"]["score"] == 1.0

    def test_weight_override(self, capsys, corpus_path, tmp_path):
        conf = tmp_path / "solosent.conf"
        conf.write_text("weight.PNAnaphora = 2\n", encoding="utf-8")
        _, out, _ = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--config", str(conf),
        )
        by_id = {r["id"]: r for r in jsonl_records(out)}
        assert by_id["t03"]["score"] == 3.0

    @pytest.mark.parametrize("mode", [["assess"], ["rank", "--format", "tsv"]])
    def test_weight_too_large_for_a_float(self, capsys, corpus_path, tmp_path, mode):
        conf = tmp_path / "solosent.conf"
        conf.write_text("weight.PNAnaphora = 1e400\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--mode", *mode, "--input", corpus_path, "--config", str(conf)
        )
        assert (code, out) == (2, "")
        assert err == "error: weight for PNAnaphora is too large for a float\n"

    @pytest.mark.parametrize("mode", [["assess"], ["rank", "--format", "tsv"]])
    def test_weight_too_small_for_a_float(self, capsys, corpus_path, tmp_path, mode):
        """A weight whose half is 0.0 as a float would write a flagged
        sentence with score 0.0."""
        conf = tmp_path / "solosent.conf"
        conf.write_text("weight.PNAnaphora = 1e-400\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--mode", *mode, "--input", corpus_path, "--config", str(conf)
        )
        assert (code, out) == (2, "")
        assert err == "error: weight for PNAnaphora is too small for a float\n"

    @pytest.mark.parametrize("mode", [["assess"], ["rank", "--format", "tsv"]])
    def test_score_too_large_for_a_float(self, capsys, corpus_path, tmp_path, mode):
        # t03 has one PNAnaphora and one StructConn detection
        conf = tmp_path / "solosent.conf"
        conf.write_text(
            "weight.PNAnaphora = 1e308\nweight.StructConn = 1e308\n", encoding="utf-8"
        )
        target = tmp_path / "out"
        target.write_text("earlier\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--mode", *mode, "--input", corpus_path, "--config", str(conf),
            "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert err == "error: sentence 't03': score is too large for a float\n"
        assert target.read_text(encoding="utf-8") == "earlier\n"
        assert sorted(os.listdir(tmp_path)) == ["out", "sentences.conllu", "solosent.conf"]

    def test_profile_from_config(self, capsys, tmp_path, ud_fixture_text):
        conf = tmp_path / "solosent.conf"
        conf.write_text("profile = ud\n", encoding="utf-8")
        path = tmp_path / "ud.conllu"
        path.write_text(ud_fixture_text, encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "--mode", "assess", "--input", str(path), "--config", str(conf),
        )
        assert code == 0
        by_id = {r["id"]: r for r in jsonl_records(out)}
        assert by_id["u09"]["context_independent"] is True

    def test_lexicon_directory_flag(self, capsys, corpus_path, tmp_path):
        empty = tmp_path / "lexicons"
        empty.mkdir()
        _, out, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path,
            "--lexicons", str(empty),
        )
        assert "missing, using empty set" in err
        by_id = {r["id"]: r for r in jsonl_records(out)}
        # without the pronoun list t03 keeps only its connective hit
        assert by_id["t03"]["score"] == 1.0
        themes = {d["theme"] for d in by_id["t03"]["detections"]}
        assert themes == {"StructConn"}

    def test_missing_config_file(self, capsys, corpus_path):
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path,
            "--config", "/nonexistent.conf",
        )
        assert code == 2
        assert err == "error: /nonexistent.conf: no such file\n"

    def test_missing_lexicon_directory(self, capsys, corpus_path, tmp_path):
        missing = tmp_path / "no-such-dir"
        code, out, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--lexicons", str(missing),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: lexicon directory {missing} does not exist\n"

    def test_lexicon_path_not_a_directory(self, capsys, corpus_path):
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--lexicons", corpus_path,
        )
        assert code == 2
        assert err == f"error: lexicon directory {corpus_path} is not a directory\n"

    def test_missing_lexicon_directory_from_config(self, capsys, corpus_path, tmp_path):
        missing = tmp_path / "no-such-dir"
        conf = tmp_path / "solosent.conf"
        conf.write_text(f"lexicons = {missing}\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--config", str(conf),
        )
        assert code == 2
        assert err == f"error: lexicon directory {missing} does not exist\n"

    def test_unknown_key(self, capsys, corpus_path, tmp_path):
        conf = tmp_path / "solosent.conf"
        conf.write_text("wieght.PNAnaphora = 2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--config", str(conf),
        )
        assert code == 2
        assert "unknown config key" in err

    def test_reserved_theme(self, capsys, corpus_path, tmp_path):
        conf = tmp_path / "solosent.conf"
        conf.write_text("enable.CDPC = true\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--config", str(conf),
        )
        assert code == 2
        assert "CDPC" in err


class TestErrorPaths:
    def test_missing_input_flag(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "assess")
        assert code == 1
        assert "--input" in err

    def test_input_file_not_found(self, capsys):
        code, _, err = run_cli(
            capsys, "--mode", "assess", "--input", "/nope/x.conllu"
        )
        assert code == 1
        assert err == "error: /nope/x.conllu: no such file\n"

    def test_unparsable_input(self, capsys, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\tonly-two\tcolumns\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--mode", "assess", "--input", str(path))
        assert code == 1
        assert "error" in err

    def test_missing_input_leaves_output_alone(self, capsys, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_text("earlier run\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", "/nope/x.conllu", "--output", str(target),
        )
        assert code == 1
        assert err == "error: /nope/x.conllu: no such file\n"
        assert target.read_text(encoding="utf-8") == "earlier run\n"

    def test_bad_sentence_midway_leaves_output_alone(
        self, capsys, tmp_path, fixture_text
    ):
        path = tmp_path / "in.conllu"
        path.write_text(fixture_text + "\n1\tonly-two\n", encoding="utf-8")
        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "out.jsonl"
        target.write_text("earlier run\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--mode", "assess", "--input", str(path), "--output", str(target)
        )
        assert code == 1
        assert "expected 10 tab-separated columns" in err
        assert target.read_bytes() == b"earlier run\n"
        assert os.listdir(directory) == ["out.jsonl"]

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--mode", "assess", "--input", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: is a directory\n"

    def test_leading_bom_in_file(self, capsys, tmp_path, corpus_path, fixture_text):
        path = tmp_path / "bom.conllu"
        path.write_text("\ufeff" + fixture_text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--mode", "assess", "--input", str(path))
        assert code == 0
        _, plain, _ = run_cli(capsys, "--mode", "assess", "--input", corpus_path)
        assert out == plain

    def test_leading_bom_on_stdin(self, capsys, monkeypatch, corpus_path, fixture_text):
        data = "\ufeff".encode("utf-8") + fixture_text.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = run_cli(capsys, "--mode", "assess", "--input", "-")
        assert code == 0
        _, plain, _ = run_cli(capsys, "--mode", "assess", "--input", corpus_path)
        assert out == plain

    def test_invalid_utf8_is_a_one_line_error(self, capsys, tmp_path, fixture_text):
        path = tmp_path / "latin1.conllu"
        path.write_bytes(fixture_text.encode("utf-8") + "\n1\tå\n".encode("latin-1"))
        code, _, err = run_cli(capsys, "--mode", "assess", "--input", str(path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "UTF-8" in err

    def test_invalid_utf8_on_stdin(self, capsys, monkeypatch, fixture_text):
        data = fixture_text.encode("utf-8") + "\n1\tå\n".encode("latin-1")
        # the errors handler Python gives stdin under the C or POSIX locale
        stdin = io.TextIOWrapper(io.BytesIO(data), "utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run_cli(capsys, "--mode", "assess", "--input", "-")
        assert code == 1
        assert err.startswith("error: stdin: ") and err.count("\n") == 1

    def test_bad_profile(self, capsys, corpus_path):
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--profile", "nope",
        )
        assert code == 2
        assert "profile" in err

    def test_jobs_must_be_positive(self, capsys, corpus_path):
        code, _, err = run_cli(
            capsys,
            "--mode", "assess", "--input", corpus_path, "--jobs", "0",
        )
        assert code == 2
        assert "--jobs" in err

    @pytest.mark.parametrize("mode", ["assess", "fetch"])
    @pytest.mark.parametrize("flag", ["--config", "--profile", "--lexicons", "--output"])
    def test_empty_path_flag_is_refused(self, capsys, corpus_path, flag, mode):
        """An empty path is refused, not read as the flag's default: an empty
        --output would write to stdout, the others would load the defaults."""
        code, out, err = run_cli(capsys, "--mode", mode, "--input", corpus_path, flag, "")
        assert (code, out, err) == (2, "", f"error: {flag} must not be empty\n")

    def test_bad_mode_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "bogus"])
        assert excinfo.value.code == 2


CYCLIC_SECOND_SENTENCE = (
    "# sent_id = a\n"
    "1\tHon\thon\tPN\t_\t_\t2\tSS\t_\t_\n"
    "2\tkom\tkomma\tVB\t_\t_\t0\tROOT\t_\t_\n"
    "\n"
    "# sent_id = b\n"
    "1-2\tdetta\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tdet\tden\tPN\t_\t_\t2\tSS\t_\t_\n"
    "2\tta\tta\tVB\t_\t_\t1\tROOT\t_\t_\n"
)
NINE_COLUMNS = "1\tHon\thon\tPN\t_\t_\t0\tROOT\t_\n"
TAB_IN_SECOND_SENT_ID = (
    "# sent_id = a\n"
    "1\tHon\thon\tPN\t_\t_\t2\tSS\t_\t_\n"
    "2\tkom\tkomma\tVB\t_\t_\t0\tROOT\t_\t_\n"
    "\n"
    "# sent_id = b\tc\n"
    "1\tkom\tkomma\tVB\t_\t_\t0\tROOT\t_\t_\n"
)


def _feed(path, text):
    """Write text into a FIFO or pipe from another thread, as a producer would."""

    def write():
        with open(path, "w", encoding="utf-8") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


class TestInputIsAnyReadablePath:
    """--input reads FIFOs and /dev/fd/N (process substitution) like files."""

    def assert_same_records(self, capsys, corpus_path, argv_path, writer):
        code, out, err = run_cli(capsys, "--mode", "assess", "--input", argv_path)
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert (code, err) == (0, "")
        _, expected, _ = run_cli(capsys, "--mode", "assess", "--input", corpus_path)
        assert jsonl_records(out) == jsonl_records(expected)

    def test_fifo(self, capsys, tmp_path, corpus_path, fixture_text):
        fifo = tmp_path / "sentences.fifo"
        os.mkfifo(fifo)
        writer = _feed(fifo, fixture_text)
        self.assert_same_records(capsys, corpus_path, str(fifo), writer)

    def test_dev_fd(self, capsys, corpus_path, fixture_text):
        read_end, write_end = os.pipe()
        writer = _feed(write_end, fixture_text)
        try:
            self.assert_same_records(
                capsys, corpus_path, f"/dev/fd/{read_end}", writer
            )
        finally:
            os.close(read_end)


class TestInputErrorsNameFileAndLine:
    """A bad sentence or row is one line naming the input and a line number:
    for a structure error, the sentence's first token row."""

    CASES = [
        (CYCLIC_SECOND_SENTENCE,
         "line 7: sentence 'b': cyclic head chain through token 1"),
        (NINE_COLUMNS, "line 1: expected 10 tab-separated columns, got 9"),
    ]

    @pytest.mark.parametrize("text, message", CASES, ids=["cyclic", "nine_columns"])
    def test_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.conllu"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "--mode", "assess", "--input", str(path))
        assert code == 1
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("text, message", CASES, ids=["cyclic", "nine_columns"])
    def test_stdin(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "--mode", "filter", "--input", "-")
        assert code == 1
        assert err == f"error: stdin: {message}\n"

    def test_sent_id_with_a_tab_ends_tsv_output_at_one_line(self, capsys, tmp_path):
        """A tab in an id would add a field to its TSV row: the reader refuses
        it, and every row written before has the header's four fields."""
        path = tmp_path / "bad.conllu"
        path.write_text(TAB_IN_SECOND_SENT_ID, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--mode", "assess", "--format", "tsv", "--input", str(path)
        )
        assert code == 1
        assert err == f"error: {path}: line 5: sent_id may not hold a tab: 'b\\tc'\n"
        rows = out.splitlines()
        assert [row.split("\t")[0] for row in rows] == ["id", "a"]
        assert all(row.count("\t") == 3 for row in rows)

    @needs_int_digit_limit
    def test_more_digits_than_int_converts(self, capsys, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text(f"1\tx\tx\tNN\t_\t_\t{LONG_DIGITS}\tROOT\t_\t_\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--mode", "assess", "--input", str(path))
        assert code == 1
        assert err == f"error: {path}: line 1: {int_error(LONG_DIGITS)}\n"


def _assert_one_line_utf8_error(capsys, path, code, *argv):
    status, _, err = run_cli(capsys, *argv)
    assert status == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "UTF-8" in err


class TestInvalidUtf8InOtherReaders:
    """A single byte that is not UTF-8 in any file the CLI reads is a one-line error."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xe5")
        return path

    def test_gold(self, capsys, corpus_path, bad_file):
        _assert_one_line_utf8_error(
            capsys, bad_file, 1,
            "--mode", "eval", "--input", corpus_path, "--gold", str(bad_file),
        )

    def test_config(self, capsys, corpus_path, bad_file):
        _assert_one_line_utf8_error(
            capsys, bad_file, 2,
            "--mode", "assess", "--input", corpus_path, "--config", str(bad_file),
        )

    def test_profile(self, capsys, corpus_path, bad_file):
        _assert_one_line_utf8_error(
            capsys, bad_file, 2,
            "--mode", "assess", "--input", corpus_path, "--profile", str(bad_file),
        )

    def test_lexicon(self, capsys, corpus_path, tmp_path, bad_file):
        directory = tmp_path / "lexicons"
        shutil.copytree(files("solosent").joinpath("data", "lexicons", "sv"), directory)
        target = directory / "weather_verbs.txt"
        target.write_bytes(bad_file.read_bytes())
        _assert_one_line_utf8_error(
            capsys, target, 2,
            "--mode", "assess", "--input", corpus_path, "--lexicons", str(directory),
        )


class TestClosedStdout:
    """Writing into a pipe nobody reads ends the run quietly with status 141."""

    def run_into_closed_pipe(self, input_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "solosent", "--mode", "assess",
                 "--input", str(input_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)

    def test_fixture(self, corpus_path):
        completed = self.run_into_closed_pipe(corpus_path)
        assert completed.stderr == b""
        assert completed.returncode == 141

    def test_large_input(self, tmp_path):
        path = tmp_path / "big.conllu"
        path.write_text(big_corpus_conllu(2_000), encoding="utf-8")
        completed = self.run_into_closed_pipe(path)
        assert completed.stderr == b""
        assert completed.returncode == 141


def _big_input(tmp_path):
    path = tmp_path / "big.conllu"
    path.write_text(big_corpus_conllu(2_000), encoding="utf-8")
    return path


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFailedWriteNamesItsTarget:
    """A write that fails is a one-line error naming --output or stdout.

    The fixture's output fails when it is flushed at the end of the run,
    the large input's while the run writes."""

    @pytest.fixture(params=["fixture", "large"])
    def input_path(self, request, corpus_path, tmp_path):
        return corpus_path if request.param == "fixture" else _big_input(tmp_path)

    def test_output_file(self, input_path):
        completed = subprocess.run(
            [sys.executable, "-m", "solosent", "--mode", "assess",
             "--input", str(input_path), "--output", "/dev/full"],
            capture_output=True, timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stdout == b""
        assert completed.stderr == (
            b"error: /dev/full: cannot write (No space left on device)\n"
        )

    def test_stdout(self, input_path):
        with open("/dev/full", "wb") as full:
            completed = subprocess.run(
                [sys.executable, "-m", "solosent", "--mode", "assess",
                 "--input", str(input_path)],
                stdout=full, stderr=subprocess.PIPE, timeout=120,
            )
        assert completed.returncode == 1
        assert completed.stderr == b"error: stdout: cannot write (No space left on device)\n"

    def test_regular_file_stays_as_it_was(self, input_path, tmp_path):
        """A file past the size limit fails to grow; the earlier file is
        kept and the temporary file removed."""
        import resource
        import signal

        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "out.jsonl"
        target.write_text("earlier run\n", encoding="utf-8")

        def limit_file_size():  # writes past 64 bytes fail with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))

        completed = subprocess.run(
            [sys.executable, "-m", "solosent", "--mode", "assess",
             "--input", str(input_path), "--output", str(target)],
            capture_output=True, timeout=120, preexec_fn=limit_file_size,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert completed.returncode == 1
        assert completed.stderr == f"error: {target}: cannot write (File too large)\n".encode()
        assert target.read_text(encoding="utf-8") == "earlier run\n"
        assert [p.name for p in directory.iterdir()] == ["out.jsonl"]


def _run_with_closed_fd(redirect, *argv):
    """Run the CLI in a shell that closes one of its streams, e.g. ``<&-``."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh",
         sys.executable, "-m", "solosent", *map(str, argv)],
        stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
    )


class TestClosedStdin:
    def test_is_one_line_input_error(self):
        completed = _run_with_closed_fd("<&-", "--mode", "assess", "--input", "-")
        assert completed.returncode == 1
        assert (completed.stdout, completed.stderr) == (b"", b"error: stdin: not open\n")


class TestClosedStderr:
    """With stderr closed, warnings are dropped and errors keep their exit code;
    neither ends up on stdout."""

    def test_warnings_are_dropped(self, tmp_path, corpus_path):
        directory = tmp_path / "lexicons"
        shutil.copytree(files("solosent").joinpath("data", "lexicons", "sv"), directory)
        (directory / "weather_verbs.txt").unlink()
        argv = ("--mode", "assess", "--input", corpus_path, "--lexicons", directory)
        quiet = _run_with_closed_fd("2>/dev/null", *argv)
        closed = _run_with_closed_fd("2>&-", *argv)
        assert quiet.returncode == 0 and len(jsonl_records(quiet.stdout)) == 12
        assert (closed.returncode, closed.stdout) == (0, quiet.stdout)

    def test_errors_keep_their_code(self, tmp_path, corpus_path):
        missing = tmp_path / "missing.conllu"
        closed = _run_with_closed_fd("2>&-", "--mode", "assess", "--input", missing)
        assert (closed.returncode, closed.stdout) == (1, b"")
        closed = _run_with_closed_fd(
            "2>&-", "--mode", "assess", "--input", corpus_path, "--config", missing
        )
        assert (closed.returncode, closed.stdout) == (2, b"")


# sha256 of `assess --explain` output on each input, in each format
OUTPUT_DIGESTS = {
    ("fixture", "jsonl"): "1c677c2e0f7b105b0b0ef05a23edd170ea320ef97b223a95594fdf8a62f3ec9b",
    ("fixture", "tsv"): "7bc587e9703ff6f890d3fa11e4ecb6d62b3b0f00e8df7829a7e0a7ba7d87c720",
    ("ud_fixture", "jsonl"): "3eb44de0e554bd2a2ec9f0effe6a0e032209533cdf5df55a6bc945a6ec375e65",
    ("ud_fixture", "tsv"): "f394bdc6017421e37452f6fd31f9acfd0e7cfbe15cbc10d777beda540ca595b0",
    ("big_corpus_2000", "jsonl"): "2f5525803b5f1bb039f73acb3ce5040f398b64b20bcf6d004ce39e6f3dc1e237",
    ("big_corpus_2000", "tsv"): "6bf57e1c96abf7af01d53a0d24afa36058218130f170b1ecbe750611b4da2757",
}


def _korp_hit(position, rows):
    """A Korp hit from (word, dephead, deprel) rows; lemma and tags follow."""
    return {
        "corpus": "SUC3",
        "match": {"position": position},
        "tokens": [
            {
                "word": word, "lemma": word.lower() or "_", "pos": "NN",
                "msd": "UTR|SIN|IND", "ref": str(i), "dephead": head,
                "deprel": deprel,
            }
            for i, (word, head, deprel) in enumerate(rows, start=1)
        ],
    }


# three fetched pages: two valid trees, then a 2-cycle, a tree hanging off a
# cycle beside a valid subtree, an out-of-range, a non-integer, a self and a
# negative head, all reported by normalize_hits, and an empty form, which
# fetch_page skips
FETCH_DIGEST_PAGES = [
    {"kwic": [
        _korp_hit("1", [("Det", "2", "SS"), ("regnar", "0", "ROOT"), (".", "2", "IP")]),
        _korp_hit("2", [("Han", "2", "SS"), ("kom", "1", "ROOT")]),
        _korp_hit("3", [
            ("Hon", "2", "SS"), ("sov", "0", "ROOT"), ("och", "4", "++"),
            ("han", "5", "SS"), ("vakade", "4", "CJ"),
        ]),
    ]},
    {"kwic": [
        _korp_hit("4", [("Vi", "0", "ROOT"), ("gick", "7", "SS")]),
        _korp_hit("5", [("Ni", "x", "SS"), ("gick", "0", "ROOT")]),
        _korp_hit("6", [("", "0", "ROOT")]),
    ]},
    {"kwic": [
        _korp_hit("7", [
            ("Sedan", "2", "RA"), ("somnade", "0", "ROOT"), ("alla", "2", "SS"),
        ]),
        _korp_hit("8", [("Jag", "1", "ROOT")]),
        _korp_hit("9", [("Du", "-1", "SS"), ("ler", "0", "ROOT")]),
    ]},
]


class PagedTransport:
    """Answers the n-th request with the n-th payload."""

    def __init__(self, payloads):
        self.payloads = payloads
        self.urls = []

    def get(self, url):
        self.urls.append(url)
        payload = self.payloads[len(self.urls) - 1]
        return concordance.TransportReply(
            status=200, body=json.dumps(payload).encode("utf-8")
        )


# sha256 of the --output file and of stderr of a fetch of FETCH_DIGEST_PAGES;
# in stderr, the non-integer and the negative head are reported in the
# CoNLL-U reader's words ("head must be a non-negative integer, got 'x'")
FETCH_DIGESTS = (
    "2e38c7939786e1be29ca511ae9f201af3fcb1e6d5f1a738983d304e34977b829",
    "1a2f6d6a5aa2c402a30f2a6d196cf21082f7277e99e5fb58de4cd17d93ab6399",
)


class TestOutputDigests:
    """`assess --explain` writes byte for byte what it wrote before the tree
    index and the compiled profile table, on both bundled fixtures (the UD
    one under --profile ud) and on big_corpus_conllu(2_000).

    To refresh after a change meant to alter the output: check the new
    output by hand, run this class, and copy the digest each failure
    message reports into OUTPUT_DIGESTS.
    """

    @pytest.mark.parametrize("name, fmt", sorted(OUTPUT_DIGESTS))
    def test_output_bytes(self, capsys, tmp_path, name, fmt):
        fixtures = files("solosent.data.fixtures")
        if name == "fixture":
            argv = ["--input", str(fixtures.joinpath("sv_examples.conllu"))]
        elif name == "ud_fixture":
            argv = ["--input", str(fixtures.joinpath("sv_examples_ud.conllu")),
                    "--profile", "ud"]
        else:
            path = tmp_path / "big.conllu"
            path.write_text(big_corpus_conllu(2_000), encoding="utf-8")
            argv = ["--input", str(path)]
        code, out, _ = run_cli(
            capsys, "--mode", "assess", "--explain", "--format", fmt, *argv
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == OUTPUT_DIGESTS[name, fmt], f"new digest: {digest}"

    def test_fetch_bytes(self, capsys, monkeypatch, tmp_path):
        transport = PagedTransport(FETCH_DIGEST_PAGES)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        conf = tmp_path / "korp.conf"
        conf.write_text(
            "fetch.endpoint = https://example.invalid/korp\n"
            'fetch.cqp = [pos="VB"]\n'
            "fetch.corpora = SUC3\n"
            "fetch.page_size = 3\n"
            "fetch.pages = 3\n",
            encoding="utf-8",
        )
        target = tmp_path / "fetched.conllu"
        code, _, err = run_cli(
            capsys, "--mode", "fetch", "--config", str(conf), "--output", str(target)
        )
        assert code == 0
        assert len(transport.urls) == 3
        digests = (
            hashlib.sha256(target.read_bytes()).hexdigest(),
            hashlib.sha256(err.encode("utf-8")).hexdigest(),
        )
        assert digests == FETCH_DIGESTS, f"new digests: {digests}"


def test_readers_build_no_token(monkeypatch, capsys, tmp_path):
    """The readers fill columns and nothing after them reads ``tokens``: not
    one Token is built by assess --explain on either fixture or by a fetch,
    and the views are built on the first read of ``tokens``."""
    from solosent.model import Token
    from solosent.profiles import apply_profile, load_profile

    built = []
    init = Token.__init__

    def counting_init(token, *args, **kwargs):
        built.append(token)
        init(token, *args, **kwargs)

    monkeypatch.setattr(Token, "__init__", counting_init)
    fixtures = files("solosent.data.fixtures")
    for name, profile in (("sv_examples.conllu", "suc-mamba"), ("sv_examples_ud.conllu", "ud")):
        code, out, _ = run_cli(capsys, "--mode", "assess", "--explain", "--profile", profile,
                               "--input", str(fixtures.joinpath(name)))
        assert code == 0 and out
    transport = PagedTransport(FETCH_DIGEST_PAGES)
    monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
    conf = tmp_path / "korp.conf"
    conf.write_text(
        "fetch.endpoint = https://example.invalid/korp\n"
        'fetch.cqp = [pos="VB"]\n'
        "fetch.corpora = SUC3\n"
        "fetch.page_size = 3\n"
        "fetch.pages = 3\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "--mode", "fetch", "--config", str(conf))
    assert code == 0 and out.count("# sent_id") == 2
    assert built == []
    # the counter counts: the views are built on the first read only
    sentence = next(parse_conllu(out))
    assert sentence.tokens == sentence.tokens and len(built) == len(sentence)
    annotated = apply_profile(sentence, load_profile("suc-mamba"))
    assert annotated.raw_tokens == sentence.tokens and len(built) == 2 * len(sentence)


FETCH_PAGE = {
    "kwic": [
        {
            "corpus": "SUC3",
            "match": {"position": "1041"},
            "tokens": [
                {
                    "word": "Det", "lemma": "det", "pos": "PN",
                    "msd": "NEU|SIN|DEF", "ref": "1", "dephead": "2",
                    "deprel": "SS",
                },
                {
                    "word": "regnar", "lemma": "regna", "pos": "VB",
                    "msd": "PRS|AKT", "ref": "2", "dephead": "0",
                    "deprel": "ROOT",
                },
                {
                    "word": ".", "lemma": ".", "pos": "MAD", "msd": "",
                    "ref": "3", "dephead": "2", "deprel": "IP",
                },
            ],
        },
        {"corpus": "SUC3", "tokens": [{"word": "trunc"}]},
    ],
    "hits": 2,
}


class FakeTransport:
    def __init__(self, payload):
        self.payload = payload
        self.urls = []

    def get(self, url):
        self.urls.append(url)
        return concordance.TransportReply(
            status=200, body=json.dumps(self.payload).encode("utf-8")
        )


class TestFetch:
    def write_config(self, tmp_path):
        conf = tmp_path / "korp.conf"
        conf.write_text(
            "fetch.endpoint = https://example.invalid/korp\n"
            'fetch.cqp = [pos="VB"]\n'
            "fetch.corpora = SUC3\n"
            "fetch.page_size = 5\n",
            encoding="utf-8",
        )
        return str(conf)

    def test_fetch_writes_conllu(self, capsys, monkeypatch, tmp_path):
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        target = tmp_path / "fetched.conllu"
        code, _, err = run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--output", str(target),
        )
        assert code == 0
        assert "skipped 1 hit" in err
        sentences = list(parse_conllu(target.read_text(encoding="utf-8")))
        assert [s.id for s in sentences] == ["SUC3:1041"]
        assert sentences[0].text == "Det regnar ."
        assert len(transport.urls) == 1
        assert "start=0" in transport.urls[0] and "end=4" in transport.urls[0]

    def test_fetched_output_assessable(self, capsys, monkeypatch, tmp_path):
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        target = tmp_path / "fetched.conllu"
        run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--output", str(target),
        )
        code, out, _ = run_cli(capsys, "--mode", "assess", "--input", str(target))
        assert code == 0
        (record,) = jsonl_records(out)
        assert record["id"] == "SUC3:1041"
        assert record["context_independent"] is True

    def test_fetch_never_applies_a_profile(self, capsys, monkeypatch, tmp_path):
        """Fetch writes the hits as read: no sentence gets annotation columns."""
        from solosent import profiles

        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        calls = []
        for module in (profiles, concordance):
            monkeypatch.setattr(module, "apply_profile", lambda *args: calls.append(args))
        target = tmp_path / "fetched.conllu"
        code, _, _ = run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--output", str(target),
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("# sent_id = SUC3:1041\n")
        assert calls == []

    def test_fetch_does_not_load_lexicons(self, capsys, monkeypatch, tmp_path):
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        broken = tmp_path / "lexicons"
        broken.mkdir()
        (broken / "weather_verbs.txt").write_text("regna\tväder\n", encoding="utf-8")
        target = tmp_path / "fetched.conllu"
        code, _, _ = run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--lexicons", str(broken),
            "--output", str(target),
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("# sent_id = SUC3:1041\n")

    def test_fetch_needs_endpoint(self, capsys, tmp_path):
        conf = tmp_path / "korp.conf"
        conf.write_text('fetch.cqp = [pos="VB"]\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "--mode", "fetch", "--config", str(conf)
        )
        assert code == 2
        assert "endpoint" in err

    def test_negative_pages_is_a_config_error(self, capsys, monkeypatch, tmp_path):
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        conf = self.write_config(tmp_path)
        with open(conf, "a", encoding="utf-8") as f:
            f.write("fetch.pages = -2\n")
        code, out, err = run_cli(capsys, "--mode", "fetch", "--config", conf)
        assert (code, out) == (2, "")
        assert err == "error: fetch.pages must be >= 0, got -2\n"
        assert transport.urls == []

    @pytest.mark.parametrize("pages", ["0", "1"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fetch.endpoint", "ftp://x", "endpoint must be an absolute http(s) URL, got 'ftp://x'"),
            ("fetch.page_size", "0", "page_size must be between 1 and 1000, got 0"),
        ],
    )
    def test_bad_request_settings_are_config_errors_whatever_the_pages(
        self, capsys, monkeypatch, tmp_path, pages, key, value, message
    ):
        """fetch.pages = 0 fetches nothing, but hides no error in the keys a
        request is built from: the run stops as it does with one page."""
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        settings = {
            "fetch.endpoint": "https://example.invalid/korp",
            "fetch.cqp": "[]",
            "fetch.corpora": "SUC3",
            "fetch.pages": pages,
            key: value,
        }
        conf = tmp_path / "korp.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
        code, out, err = run_cli(capsys, "--mode", "fetch", "--config", str(conf))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert transport.urls == []

    def test_wrongly_typed_hit_is_skipped(self, capsys, monkeypatch, tmp_path):
        wrong = {
            "corpus": "SUC3",
            "tokens": [{"word": ["Det"], "deprel": True, "pos": None, "dephead": 0}],
        }
        page = dict(FETCH_PAGE, kwic=[FETCH_PAGE["kwic"][0], wrong])
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: FakeTransport(page))
        code, out, err = run_cli(
            capsys, "--mode", "fetch", "--config", self.write_config(tmp_path)
        )
        assert code == 0
        assert err == "warning: skipped 1 hit(s) without dependency annotation\n"
        assert [s.id for s in parse_conllu(out)] == ["SUC3:1041"]

    def test_hit_conllu_cannot_carry_is_skipped(self, capsys, monkeypatch, tmp_path):
        good = FETCH_PAGE["kwic"][0]
        first, *rest = good["tokens"]
        unwritable = [
            dict(good, tokens=[dict(first, word="a\tb"), *rest]),
            dict(good, corpus="Y\nZ"),
            dict(good, tokens=[dict(first, word="\ud800"), *rest]),
        ]
        page = dict(FETCH_PAGE, kwic=[good, *unwritable])
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: FakeTransport(page))
        target = tmp_path / "fetched.conllu"
        code, _, err = run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--output", str(target),
        )
        assert code == 0
        assert err == "warning: skipped 3 hit(s) without dependency annotation\n"
        text = target.read_text(encoding="utf-8")
        assert [s.id for s in parse_conllu(text)] == ["SUC3:1041"]

    def test_env_endpoint_override(self, capsys, monkeypatch, tmp_path):
        transport = FakeTransport(FETCH_PAGE)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        monkeypatch.setenv("SOLOSENT_ENDPOINT", "https://elsewhere.invalid/api")
        target = tmp_path / "fetched.conllu"
        code, _, _ = run_cli(
            capsys,
            "--mode", "fetch",
            "--config", self.write_config(tmp_path),
            "--output", str(target),
        )
        assert code == 0
        assert transport.urls[0].startswith("https://elsewhere.invalid/api?")


def _write_paged_config(tmp_path):
    """A config that fetches the three FETCH_DIGEST_PAGES."""
    conf = tmp_path / "korp.conf"
    conf.write_text(
        "fetch.endpoint = https://example.invalid/korp\n"
        'fetch.cqp = [pos="VB"]\n'
        "fetch.corpora = SUC3\n"
        "fetch.page_size = 3\n"
        "fetch.pages = 3\n",
        encoding="utf-8",
    )
    return str(conf)


def _fetched_conllu(payloads):
    """What fetch writes for these pages, rendered in one piece."""
    sentences = []
    for payload in payloads:
        request = concordance.build_request(
            concordance.ConcordanceQuery("[word]", ("SUC3",)), "https://x.invalid/"
        )
        result = concordance.fetch_page(request, PagedTransport([payload]))
        sentences += concordance.normalize_hits(result.hits)[0]
    return serialize_conllu(sentences)


class WatchingTransport(PagedTransport):
    """A PagedTransport that notes what stdout holds before each request."""

    def __init__(self, payloads, stdout):
        super().__init__(payloads)
        self.stdout = stdout
        self.written_before = []

    def get(self, url):
        self.written_before.append(self.stdout.getvalue())
        return super().get(url)


class FailingTransport(PagedTransport):
    """A PagedTransport whose second request fails the given way."""

    def __init__(self, payloads, failure):
        super().__init__(payloads)
        self.failure = failure

    def get(self, url):
        if len(self.urls) == 1:
            self.urls.append(url)
            if self.failure == "unreachable":
                raise concordance.TransportError(f"cannot reach {url}: refused")
            return concordance.TransportReply(status=500, body=b"boom")
        return super().get(url)


class TestFetchStreams:
    def test_each_page_written_before_the_next_request(
        self, capsys, monkeypatch, tmp_path
    ):
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        transport = WatchingTransport(FETCH_DIGEST_PAGES, stdout)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        code = main(["--mode", "fetch", "--config", _write_paged_config(tmp_path)])
        assert code == 0
        # page 1 holds one tree, page 2 none, page 3 one
        assert transport.written_before == [
            _fetched_conllu(FETCH_DIGEST_PAGES[:k]) for k in range(3)
        ]
        assert "# sent_id = SUC3:1\n" in transport.written_before[1]
        assert stdout.getvalue() == _fetched_conllu(FETCH_DIGEST_PAGES)
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        assert digest == FETCH_DIGESTS[0]

    def test_empty_fetch_writes_nothing(self, capsys, monkeypatch, tmp_path):
        empty = [{"kwic": []}] * 3
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: PagedTransport(empty))
        code, out, err = run_cli(
            capsys, "--mode", "fetch", "--config", _write_paged_config(tmp_path)
        )
        assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("failure", ["unreachable", "http_500"])
class TestFetchFailure:
    """A fetch that fails on page 2 never leaves a partial --output file."""

    def fetch(self, capsys, monkeypatch, tmp_path, failure, *argv):
        transport = FailingTransport(FETCH_DIGEST_PAGES, failure)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        code, out, err = run_cli(
            capsys, "--mode", "fetch", "--config", _write_paged_config(tmp_path), *argv
        )
        assert code == 1
        assert len(transport.urls) == 2
        assert err.splitlines()[-1].startswith("error: ")
        return out

    def test_earlier_file_untouched(self, capsys, monkeypatch, tmp_path, failure):
        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "fetched.conllu"
        target.write_text("earlier run\n", encoding="utf-8")
        self.fetch(capsys, monkeypatch, tmp_path, failure, "--output", str(target))
        assert target.read_bytes() == b"earlier run\n"
        assert os.listdir(directory) == ["fetched.conllu"]

    def test_no_file_left(self, capsys, monkeypatch, tmp_path, failure):
        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "fetched.conllu"
        self.fetch(capsys, monkeypatch, tmp_path, failure, "--output", str(target))
        assert os.listdir(directory) == []

    def test_stdout_holds_the_pages_before_the_error(
        self, capsys, monkeypatch, tmp_path, failure
    ):
        out = self.fetch(capsys, monkeypatch, tmp_path, failure)
        assert out == _fetched_conllu(FETCH_DIGEST_PAGES[:1])


class TestFetchOutputFile:
    def fetch(self, capsys, monkeypatch, tmp_path, target):
        transport = PagedTransport(FETCH_DIGEST_PAGES)
        monkeypatch.setattr(concordance, "UrllibTransport", lambda: transport)
        return run_cli(
            capsys,
            "--mode", "fetch", "--config", _write_paged_config(tmp_path),
            "--output", str(target),
        )

    @pytest.mark.parametrize(
        "earlier_mode", [None, 0o600, 0o664], ids=["new", "0600", "0664"]
    )
    def test_replaces_file_with_the_mode_open_gives(
        self, capsys, monkeypatch, tmp_path, earlier_mode
    ):
        """The new file has the mode `open(path, "w")` leaves: the earlier
        file's, or 0o666 less the umask for a new one."""
        directory = tmp_path / "out"
        directory.mkdir()
        target, reference = directory / "fetched.conllu", tmp_path / "reference"
        old_umask = os.umask(0o027)
        try:
            if earlier_mode is not None:
                for path in (target, reference):
                    path.write_text("earlier run\n", encoding="utf-8")
                    path.chmod(earlier_mode)
            open(reference, "w").close()
            code, _, _ = self.fetch(capsys, monkeypatch, tmp_path, target)
        finally:
            os.umask(old_umask)
        assert code == 0
        assert target.read_text(encoding="utf-8") == _fetched_conllu(FETCH_DIGEST_PAGES)
        assert os.listdir(directory) == ["fetched.conllu"]
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(
            reference.stat().st_mode
        )

    def test_writes_through_a_symlink(self, capsys, monkeypatch, tmp_path):
        real = tmp_path / "real.conllu"
        real.write_text("earlier run\n", encoding="utf-8")
        link = tmp_path / "link.conllu"
        link.symlink_to(real)
        code, _, _ = self.fetch(capsys, monkeypatch, tmp_path, link)
        assert code == 0
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == _fetched_conllu(FETCH_DIGEST_PAGES)

    def test_fifo_written_directly(self, capsys, monkeypatch, tmp_path):
        fifo = tmp_path / "fetched.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as pipe:
                received.append(pipe.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, _, _ = self.fetch(capsys, monkeypatch, tmp_path, fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [_fetched_conllu(FETCH_DIGEST_PAGES)]

    def test_unwritable_file_untouched(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "fetched.conllu"
        target.write_text("earlier run\n", encoding="utf-8")
        target.chmod(0o444)
        # the check must not depend on who runs the test: root may write anything
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        code, _, err = self.fetch(capsys, monkeypatch, tmp_path, target)
        assert code == 1
        assert err == f"error: {target}: cannot open (Permission denied)\n"
        assert target.read_bytes() == b"earlier run\n"

    def test_missing_directory_names_the_output(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "no" / "fetched.conllu"
        code, _, err = self.fetch(capsys, monkeypatch, tmp_path, target)
        assert code == 1
        assert err == f"error: {target}: no such directory\n"
        assert os.listdir(tmp_path) == ["korp.conf"]

    def test_directory_is_named(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        code, _, err = self.fetch(capsys, monkeypatch, tmp_path, target)
        assert (code, err) == (1, f"error: {target}: is a directory\n")
        assert os.listdir(target) == []


class TestNetworkStackLoadedOnlyToFetch:
    """Modes that never fetch do not import urllib.request or http.client."""

    @pytest.mark.parametrize("run", ["import", "assess"])
    def test_not_in_sys_modules(self, tmp_path, corpus_path, run):
        call = ""
        if run == "assess":
            argv = ["--mode", "assess", "--input", corpus_path,
                    "--output", str(tmp_path / "out.jsonl")]
            call = f"assert main({argv!r}) == 0"
        script = (
            "import sys\n"
            "from solosent.cli import main\n"
            f"{call}\n"
            "print([m for m in ('urllib.request', 'http.client') if m in sys.modules])\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "[]\n"


def _solosent_modules_after(script):
    """The solosent modules a fresh interpreter holds after ``script``."""
    script += (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'solosent']))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout))


class TestSubmodulesLoadedPerMode:
    """Each mode imports only the modules it runs: concordance for fetch,
    evaluation for eval."""

    def run_main(self, *argv):
        return _solosent_modules_after(
            f"from solosent.cli import main\nassert main({list(map(str, argv))!r}) == 0"
        )

    def test_import_loads_the_core_only(self):
        assert _solosent_modules_after("import solosent.cli") == {
            "solosent", "solosent._text", "solosent.assessment", "solosent.cli",
            "solosent.config", "solosent.conllu", "solosent.detectors",
            "solosent.lexicons", "solosent.model", "solosent.profiles",
        }

    @pytest.mark.parametrize("mode", ["assess", "filter", "rank"])
    def test_assessing_modes(self, tmp_path, corpus_path, mode):
        loaded = self.run_main(
            "--mode", mode, "--input", corpus_path, "--output", tmp_path / "out"
        )
        assert "solosent.detectors" in loaded
        assert not loaded & {"solosent.concordance", "solosent.evaluation"}

    def test_eval(self, tmp_path, corpus_path, gold_path):
        loaded = self.run_main(
            "--mode", "eval", "--input", corpus_path, "--gold", gold_path,
            "--output", tmp_path / "out",
        )
        assert "solosent.evaluation" in loaded
        assert "solosent.concordance" not in loaded

    def test_fetch(self, tmp_path):
        conf = tmp_path / "korp.conf"
        conf.write_text(
            "fetch.endpoint = https://example.invalid/korp\n"
            "fetch.cqp = []\n"
            "fetch.corpora = SUC3\n"
            "fetch.pages = 0\n",
            encoding="utf-8",
        )
        loaded = self.run_main(
            "--mode", "fetch", "--config", conf, "--output", tmp_path / "out"
        )
        assert "solosent.concordance" in loaded
        assert "solosent.evaluation" not in loaded
