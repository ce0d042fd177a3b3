"""A/B pairs of two checkouts on the benchmark: alternating ``bench/run.py`` runs.

Usage, from anywhere::

    python3 tools/ab_sampler.py PARENT CHANGE --pairs 10 -- \\
        --workload eval-short-jobs2 --seed 64 --seconds 35 --trace 0

PARENT and CHANGE are two checkouts of the repository, e.g. made with
``git archive``.  Everything after ``--`` is passed, unchanged, to each
checkout's own ``bench/run.py``, run from that checkout's root.  Each pair
runs one side, then the other: the parent first in odd pairs, the change
first in even ones.  So each run is the benchmark's own measurement,
latency sampler and output checks included; ``--seconds`` below 35 gives a
quicker, noisier look.

Both sides run solosent from source: each child gets
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, and a
checkout that holds a ``__pycache__`` directory under ``src/`` is refused
(exit 2), since its ``.pyc`` files would be loaded instead.  Whether the
program runs from bytecode moves ``peak_rss_mb`` and ``setup_s`` by as
much as a change may claim.  Make the checkouts with ``git archive`` or
``git clone``, not by copying a working tree.

The tool prints each run's table (with the reported-only ``wall_s``), then,
for every metric in the JSON line each run prints last, the pairs, each
side's median and quartiles and in how many pairs the change read lower.
It exits with 1 if a run was not ``correct``, and stops at a run that
failed to report.  Run nothing else on the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def child_environment() -> dict[str, str]:
    """This process's environment, set so that a child writes no bytecode
    and looks for none outside the checkout."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_once(checkout: Path, run_args: list[str], tag: str) -> dict:
    """One ``bench/run.py`` run in one checkout: print its table, return its JSON result."""
    done = subprocess.run([sys.executable, "bench/run.py", *run_args], cwd=checkout,
                          env=child_environment(), capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"error: bench/run.py in {checkout} exited with {done.returncode}:\n"
                 f"{(done.stderr or done.stdout).strip()[-2000:]}")
    print(tag, *lines[:-1], sep="\n", flush=True)
    return json.loads(lines[-1])


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  IQR {q3 - q1:.3g}"


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT", help="PARENT, then CHANGE")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv[:split])
    run_args = argv[split + 1:]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not run_args:
        parser.error("give bench/run.py's arguments after --")
    checkouts = [path.resolve() for path in args.checkouts]
    for path in checkouts:
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{path} holds no bench/run.py")
        cache = next((path / "src").rglob("__pycache__"), None)
        if cache is not None:
            parser.error(f"{cache} holds bytecode: make the checkout with git archive or git clone")
    print("# both sides run from source: PYTHONDONTWRITEBYTECODE=1, no PYTHONPYCACHEPREFIX,"
          " no __pycache__ under src/", flush=True)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            results[side].append(run_once(checkouts[SIDES.index(side)], run_args, f"# pair {pair}, {side}"))
    for name in results["parent"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"{name} ({results['parent'][0]['metrics'][name]['unit']}):")
        print("  pairs   " + "  ".join(f"{p:.4g} -> {c:.4g}" for p, c in zip(parent, change)))
        print(f"  parent  {summary(parent)}")
        print(f"  change  {summary(change)}")
        print(f"  change lower in {lower} of {args.pairs} pairs")
    return 0 if all(r["correct"] for side in SIDES for r in results[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
