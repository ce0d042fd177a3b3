"""Every text input is opened and read by one rule: any readable path,
strict UTF-8, one leading BOM dropped, lines split at LF, CRLF and CR only.

A file with a BOM gives what the same file without one gives, and a
CoNLL-U text gives the same sentences through --input FILE, --input -
and parse_conllu(str), whatever its line ends.  Every file flag takes a
FIFO or /dev/fd/N as it takes a file, and a path that cannot be opened is
one line naming it, with the exit code of its kind, as is a path whose
read fails once it is open.
"""

import errno
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib.resources import files

import pytest
from hypothesis import given, settings, strategies as st

from solosent._text import open_lines
from solosent.cli import InputError, _open_input, main
from solosent.conllu import ParseError, parse_conllu
from solosent.lexicons import load_lexicon_set
from solosent.model import StructureError
from synthcorpus import big_corpus_conllu

FIXTURES = files("solosent.data.fixtures")
BUNDLED_LEXICONS = files("solosent").joinpath("data", "lexicons", "sv")
BOM = "\ufeff"
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def run_cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text, bom=False):
    path.write_bytes(((BOM if bom else "") + text).encode("utf-8"))
    return path


def without_comments(text):
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#")
    )


class TestBomInEveryFile:
    """A BOM changes nothing in the gold, config, profile and lexicon files."""

    @pytest.fixture
    def corpus(self, tmp_path, fixture_text):
        return write(tmp_path / "sentences.conllu", fixture_text)

    def outputs(self, capsys, tmp_path, name, text, *argv):
        """CLI results with the file written plain, then with a BOM."""
        results = []
        for bom in (False, True):
            path = write(tmp_path / f"{bom}-{name}", text, bom)
            results.append(run_cli(capsys, *[path if a is None else a for a in argv]))
        return results

    # the fixture's gold file opens with comments; without them a BOM
    # once stuck to the first sentence id and lost its themes silently
    @pytest.mark.parametrize("strip", [False, True], ids=["fixture", "no_comments"])
    def test_gold(self, capsys, tmp_path, corpus, fixture_gold_text, strip):
        gold = without_comments(fixture_gold_text) if strip else fixture_gold_text
        plain, with_bom = self.outputs(
            capsys, tmp_path, "gold", gold, "--mode", "eval", "--input", corpus,
            "--gold", None,
        )
        assert plain[0] == 0 and '"micro": {"precision": 1.0, "recall": 1.0' in plain[1]
        assert with_bom == plain

    def test_config(self, capsys, tmp_path, corpus):
        config = "profile = suc-mamba\nweight.PNAnaphora = 1/2\n"
        plain, with_bom = self.outputs(
            capsys, tmp_path, "conf", config, "--mode", "assess", "--input", corpus,
            "--config", None,
        )
        assert plain[0] == 0 and '"weight": 0.5' in plain[1]
        assert with_bom == plain

    @pytest.mark.parametrize("name", ["suc-mamba", "ud"])
    def test_profile(self, capsys, tmp_path, name):
        profile = files("solosent").joinpath("data", "profiles", f"{name}.profile")
        fixture = "sv_examples.conllu" if name == "suc-mamba" else "sv_examples_ud.conllu"
        corpus = write(tmp_path / fixture, FIXTURES.joinpath(fixture).read_text("utf-8"))
        plain, with_bom = self.outputs(
            capsys, tmp_path, "profile", profile.read_text("utf-8"),
            "--mode", "assess", "--explain", "--input", corpus, "--profile", None,
        )
        _, bundled, _ = run_cli(
            capsys, "--mode", "assess", "--explain", "--input", corpus, "--profile", name
        )
        assert plain == (0, bundled, "")
        assert with_bom == plain

    # dropping the comments puts a lemma (den, for the pronouns) first
    @pytest.mark.parametrize("strip", [False, True], ids=["bundled", "no_comments"])
    def test_lexicons(self, capsys, tmp_path, corpus, strip):
        sets = []
        for bom in (False, True):
            directory = tmp_path / f"lexicons-{bom}"
            directory.mkdir()
            for entry in BUNDLED_LEXICONS.iterdir():
                text = entry.read_text("utf-8")
                write(directory / entry.name, without_comments(text) if strip else text, bom)
            sets.append(load_lexicon_set(directory))
            assert sets[-1].warnings == ()
        assert sets[0] == sets[1] == load_lexicon_set()
        assert "den" in sets[1].anaphoric_pronouns
        outputs = [
            run_cli(capsys, "--mode", "assess", "--input", corpus, "--lexicons", directory)
            for directory in (tmp_path / "lexicons-False", tmp_path / "lexicons-True")
        ]
        assert outputs[0] == outputs[1] == run_cli(capsys, "--mode", "assess", "--input", corpus)


def stdin_like(data):
    """What Python builds for sys.stdin on a POSIX system, over ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


class TestLineEnds:
    """LF, CRLF and CR-only CoNLL-U read alike, from a file, stdin or a string."""

    @pytest.fixture(params=sorted(LINE_ENDS))
    def data(self, request, fixture_text):
        return fixture_text.replace("\n", LINE_ENDS[request.param]).encode("utf-8")

    @pytest.fixture
    def expected(self, capsys, tmp_path, fixture_text):
        path = write(tmp_path / "lf.conllu", fixture_text)
        code, out, err = run_cli(capsys, "--mode", "assess", "--explain", "--input", path)
        assert (code, err) == (0, "") and out.count("\n") == 12
        return out

    def test_file(self, capsys, tmp_path, data, expected):
        path = tmp_path / "in.conllu"
        path.write_bytes(data)
        assert run_cli(
            capsys, "--mode", "assess", "--explain", "--input", path
        ) == (0, expected, "")

    def test_stdin(self, capsys, monkeypatch, data, expected):
        monkeypatch.setattr("sys.stdin", stdin_like(data))
        assert run_cli(
            capsys, "--mode", "assess", "--explain", "--input", "-"
        ) == (0, expected, "")

    def test_string(self, data, fixture_sentences):
        assert list(parse_conllu(data.decode("utf-8"))) == fixture_sentences

    def test_stdin_of_a_process(self, tmp_path, fixture_text, expected):
        data = fixture_text.replace("\n", "\r").encode("utf-8")
        completed = subprocess.run(
            [sys.executable, "-m", "solosent", "--mode", "assess", "--explain",
             "--input", "-"],
            input=data, capture_output=True, timeout=120,
        )
        assert (completed.returncode, completed.stderr) == (0, b"")
        assert completed.stdout == expected.encode("utf-8")


class TestStdinPipeStopsCleanly:
    """A run that stops partway through a piped stdin says what stopped it
    and nothing more: no later complaint about the stream it left open."""

    def test_bad_line(self, fixture_text):
        lines = fixture_text.splitlines(keepends=True)
        lines[2] = "not a row\n"
        completed = subprocess.run(
            [sys.executable, "-m", "solosent", "--mode", "assess", "--input", "-"],
            input="".join(lines).encode("utf-8"), capture_output=True, timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr == (
            b"error: stdin: line 3: expected 10 tab-separated columns, got 1\n"
        )

    def test_closed_stdout(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "solosent", "--mode", "assess", "--input", "-"],
                input=big_corpus_conllu(2_000).encode("utf-8"),
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (completed.returncode, completed.stderr) == (141, b"")


# Characters str.splitlines() breaks at beside LF and CR; a line keeps them
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_BREAK = st.sampled_from(list(LINE_ENDS.values()) + OTHER_BREAKS)
_FIELD = st.text(st.sampled_from(["a", "b", "0", "1", " ", "\r"] + OTHER_BREAKS), max_size=3)
_ROW = st.builds(
    lambda index, form, head, extra: "\t".join(
        [str(index), form or "x", "x", "NN", "_", "_", head, "SS", "_", "_"]
    ) + extra,
    st.integers(min_value=1, max_value=3),
    _FIELD,
    st.sampled_from(["0", "1", "2", "3", "x"]),
    st.sampled_from(["", "\t_"] + OTHER_BREAKS),
)
_PIECE = st.one_of(
    _ROW, _ROW, st.just(""), st.just("# sent_id = a"), _FIELD, st.text(max_size=4)
)
TEXTS = st.builds(
    lambda bom, pieces: (BOM if bom else "") + "".join(a + b for a, b in pieces),
    st.booleans(),
    st.lists(st.tuples(_PIECE, _BREAK), max_size=10),
)


def _parsed(lines):
    """The sentences, or the one-line message the CLI prints for the error."""
    try:
        return list(parse_conllu(lines))
    except ParseError as exc:
        return f"{exc}"
    except StructureError as exc:
        return f"line {exc.line_number}: {exc}"


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_string_and_input_file_read_alike(text):
    """parse_conllu(text) gives the sentences, or the error, that --input
    gives on the file holding text.encode()."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "in.conllu")
        with open(path, "wb") as f:
            f.write(text.encode("utf-8"))
        try:
            with _open_input(path) as lines:
                read = list(parse_conllu(lines))
        except InputError as exc:
            prefix = f"{path}: "
            assert str(exc).startswith(prefix)
            read = str(exc)[len(prefix):]
    assert _parsed(text) == read



def _feed(path, data):
    """Write data into a FIFO or a pipe from another thread, as a producer would."""

    def write():
        with open(path, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


LEXICON_FILE = "anaphoric_pronouns.txt"
BUNDLED_NAMES = " (bundled profiles: suc-mamba, ud)"


# opens like any file, but reading its first page fails with EIO
UNREADABLE = "/proc/self/mem"
CANNOT_READ = f"cannot read ({os.strerror(errno.EIO)})"
needs_unreadable = pytest.mark.skipif(
    not os.path.exists(UNREADABLE), reason=f"needs {UNREADABLE}"
)


class TestOpenRule:
    """Each file the CLI reads, opened through a missing path, a directory, a
    FIFO, /dev/fd/N and a path whose read fails once it is open.  The lexicon
    file stands in a copy of the bundled directory: "missing" is a dangling
    link there, since an absent lexicon file is only a warning, and /dev/fd/N
    and the unreadable path are reached through a link."""

    KINDS = ["input", "gold", "config", "profile", "lexicon"]
    CODES = {"input": 1, "gold": 1, "config": 2, "profile": 2, "lexicon": 2}

    @pytest.fixture
    def setup(self, tmp_path, fixture_text, fixture_gold_text):
        corpus = write(tmp_path / "sentences.conllu", fixture_text)
        shutil.copytree(BUNDLED_LEXICONS, tmp_path / "lexicons")
        assess = ["--mode", "assess", "--explain", "--input", corpus]
        return {
            "input": (
                fixture_text, lambda p: ["--mode", "assess", "--explain", "--input", p]
            ),
            "gold": (
                fixture_gold_text,
                lambda p: ["--mode", "eval", "--input", corpus, "--gold", p],
            ),
            "config": (
                "weight.PNAnaphora = 1/2\nenable.IncompSent = false\n",
                lambda p: assess + ["--config", p],
            ),
            "profile": (
                files("solosent").joinpath("data", "profiles", "suc-mamba.profile")
                .read_text("utf-8"),
                lambda p: assess + ["--profile", p],
            ),
            "lexicon": (
                BUNDLED_LEXICONS.joinpath(LEXICON_FILE).read_text("utf-8"),
                lambda p: assess + ["--lexicons", tmp_path / "lexicons"],
            ),
        }

    def slot(self, tmp_path, kind):
        """Where the file of this kind goes."""
        if kind == "lexicon":
            path = tmp_path / "lexicons" / LEXICON_FILE
            path.unlink()
            return path
        return tmp_path / f"{kind}-file"

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_cannot_open(self, capsys, tmp_path, setup, kind, case):
        path = self.slot(tmp_path, kind)
        if case == "missing" and kind == "lexicon":
            path.symlink_to(tmp_path / "nowhere")
        elif case == "directory":
            path.mkdir()
        reason = "no such file" if case == "missing" else "is a directory"
        suffix = BUNDLED_NAMES if kind == "profile" else ""
        _, argv = setup[kind]
        assert run_cli(capsys, *argv(path)) == (
            self.CODES[kind], "", f"error: {path}: {reason}{suffix}\n"
        )

    @needs_unreadable
    @pytest.mark.parametrize("kind", KINDS)
    def test_read_fails_after_open(self, capsys, tmp_path, setup, kind):
        path = UNREADABLE
        if kind == "lexicon":
            path = self.slot(tmp_path, kind)
            path.symlink_to(UNREADABLE)
        suffix = BUNDLED_NAMES if kind == "profile" else ""
        _, argv = setup[kind]
        assert run_cli(capsys, *argv(path)) == (
            self.CODES[kind], "", f"error: {path}: {CANNOT_READ}{suffix}\n"
        )

    @needs_unreadable
    def test_stdin_read_fails(self, capsys, monkeypatch):
        with open(UNREADABLE, "rb") as stream:
            monkeypatch.setattr(sys, "stdin", stream)
            assert run_cli(capsys, "--mode", "assess", "--input", "-") == (
                1, "", f"error: stdin: {CANNOT_READ}\n"
            )

    def test_errors_where_the_lines_are_used_pass_through(self, tmp_path):
        # only reads are guarded: a closed stdout inside the block stays itself
        path = write(tmp_path / "sentences.conllu", "x\n")
        with pytest.raises(BrokenPipeError):
            with open_lines(str(path), InputError) as lines:
                for _ in lines:
                    raise BrokenPipeError

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", ["fifo", "dev_fd"])
    def test_reads_like_a_file(self, capsys, tmp_path, setup, kind, case):
        text, argv = setup[kind]
        path = self.slot(tmp_path, kind)
        write(path, text)
        expected = run_cli(capsys, *argv(path))
        assert expected[0] == 0 and expected[1]
        path.unlink()
        read_end = None
        if case == "fifo":
            os.mkfifo(path)
            writer = _feed(path, text.encode("utf-8"))
        else:
            read_end, write_end = os.pipe()
            writer = _feed(write_end, text.encode("utf-8"))
            if kind == "lexicon":
                path.symlink_to(f"/dev/fd/{read_end}")
            else:
                path = f"/dev/fd/{read_end}"
        try:
            assert run_cli(capsys, *argv(path)) == expected
        finally:
            writer.join(timeout=60)
            if read_end is not None:
                os.close(read_end)
        assert not writer.is_alive()


class TestLineErrorsNamePathAndLine:
    """A bad line in any file is one error line, ``<path>: line N: ...``,
    as it is for --input."""

    @pytest.fixture
    def corpus(self, tmp_path, fixture_text):
        return write(tmp_path / "sentences.conllu", fixture_text)

    def test_config(self, capsys, tmp_path, corpus):
        path = write(tmp_path / "bad.conf", "profile = ud\nprofile\n")
        assert run_cli(
            capsys, "--mode", "assess", "--input", corpus, "--config", path
        ) == (2, "", f"error: {path}: line 2: expected key = value, got 'profile'\n")

    def test_gold(self, capsys, tmp_path, corpus):
        path = write(tmp_path / "bad.gold", "# gold\nt01\tIncompSent\nt02\tNoTheme\n")
        assert run_cli(
            capsys, "--mode", "eval", "--input", corpus, "--gold", path
        ) == (1, "", f"error: {path}: line 3: unknown theme 'NoTheme'\n")

    def test_profile(self, capsys, tmp_path, corpus):
        path = write(tmp_path / "bad.profile", "name p\npos NN noun\nposs NN noun\n")
        assert run_cli(
            capsys, "--mode", "assess", "--input", corpus, "--profile", path
        ) == (2, "", f"error: {path}: line 3: unknown directive 'poss'\n")

    @pytest.mark.parametrize("name, text, message", [
        ("weather_verbs.txt", "regna\nsnöa\tväder\n",
         "line 2: expected one lemma per line, got ('snöa', 'väder')"),
        ("anaphoric_adverbs.txt", "# adverbs\ndär\n",
         "line 2: expected lemma<TAB>type, got ('där',)"),
        ("anaphoric_adverbs.txt", "där\tlocative\nså\tmodal\n",
         "line 2: unknown adverb type 'modal' for 'så'"),
        ("paired_conjunctions.txt", "\n\nbåde\n",
         "line 3: expected first<TAB>second, got ('både',)"),
        ("yes_no_interjections.txt", "ja\n\tnej\n", "line 2: empty field in '\\tnej'"),
    ], ids=["one_lemma", "lemma_type", "adverb_type", "pair", "empty_field"])
    def test_lexicon(self, capsys, tmp_path, corpus, name, text, message):
        directory = tmp_path / "lexicons"
        shutil.copytree(BUNDLED_LEXICONS, directory)
        write(directory / name, text)
        assert run_cli(
            capsys, "--mode", "assess", "--input", corpus, "--lexicons", directory
        ) == (2, "", f"error: {directory / name}: {message}\n")
