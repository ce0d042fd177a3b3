"""tools/ab_sampler.py, run with a stand-in for its children: what it
starts, in which order and environment, and which checkouts it refuses."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_sampler.py"


@pytest.fixture
def ab_sampler():
    spec = importlib.util.spec_from_file_location("ab_sampler", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts holding what the tool looks for: bench/run.py, and
    source without bytecode."""
    made = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("", encoding="utf-8")
        (root / "src" / "solosent").mkdir(parents=True)
        (root / "src" / "solosent" / "__init__.py").write_text("", encoding="utf-8")
        made.append(root)
    return made


@pytest.fixture
def runs(monkeypatch):
    """The children the tool starts, as (cwd, env) pairs; each reports a
    correct run with one metric."""
    started = []
    record = {"correct": True, "metrics": {"sentence_p50_us": {"value": 15.0, "unit": "us"}}}

    def fake_run(argv, cwd, env, **kwargs):
        started.append((Path(cwd), env))
        return subprocess.CompletedProcess(argv, 0, f"table\n{json.dumps(record)}\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    return started


def run_tool(ab_sampler, monkeypatch, checkouts, pairs):
    monkeypatch.setattr(sys, "argv", [
        str(TOOL), *map(str, checkouts), "--pairs", str(pairs),
        "--", "--workload", "eval-short-jobs2",
    ])
    return ab_sampler.main()


def test_children_run_from_source(ab_sampler, monkeypatch, capsys, checkouts, runs):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(checkouts[0] / "cache"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert run_tool(ab_sampler, monkeypatch, checkouts, 1) == 0
    assert len(runs) == 2
    for _, env in runs:
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in env
    assert "from source" in capsys.readouterr().out


def test_checkout_holding_bytecode_is_refused(ab_sampler, monkeypatch, capsys, checkouts, runs):
    cache = checkouts[1] / "src" / "solosent" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        run_tool(ab_sampler, monkeypatch, checkouts, 1)
    assert exit_info.value.code == 2
    assert str(cache) in capsys.readouterr().err
    assert runs == []


def test_pairs_alternate_which_side_runs_first(ab_sampler, monkeypatch, checkouts, runs):
    assert run_tool(ab_sampler, monkeypatch, checkouts, 4) == 0
    parent, change = (path.resolve() for path in checkouts)
    assert [cwd for cwd, _ in runs] == [
        parent, change,  # pair 1
        change, parent,  # pair 2
        parent, change,  # pair 3
        change, parent,  # pair 4
    ]
