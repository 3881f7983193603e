"""Run alternating parent/change pairs of the benchmark and summarise them.

Usage:

    python tools/pairs.py --parent REV --workload W --pairs N --seeds A-B
        [--trace] [--claim METRIC] [--out FILE]

REV is checked out with ``git worktree`` into a temporary directory, and
this tree's ``bench/`` and ``BENCHMARK.json`` are copied over its own, so
both sides run the same benchmark on their own ``src`` and ``configs``.
The change side is this working tree, uncommitted edits included.  Pair
``i`` runs seed ``A + i`` on both sides, the parent first when ``i`` is even;
``bench/run.py`` runs one at a time, each in a fresh work directory, for the
``run_seconds`` of ``BENCHMARK.json``, with ``OPENBLAS_NUM_THREADS=1``.  A
run that exits non-zero or prints no result line stops the tool with exit 2.

The summary follows the ``claim`` and ``workloads`` blocks of the
``BENCH_*.json`` files.  Per side it sums ``failed`` and ``attempted`` over
the runs; per metric of ``BENCHMARK.json`` (the end-to-end ones, or the
per-layer ones with ``--trace``) it gives each side's quartiles (inclusive
method) and median, the relative change of the median, the parent's
interquartile range, the pairs the change wins (a strictly better value)
and, for a metric with a bound, whether the change's median is within it.
``--claim METRIC`` adds a ``claim`` block, ``met`` when the change wins at
least nine pairs in ten and its median is better by more than the parent's
interquartile range.

Without ``--out`` the summary is printed.  With it, the file is read if it
exists and the workload's block is replaced in it (under ``trace.runs``
with ``--trace``), so one file can collect several invocations and keep keys
written by hand, such as ``change``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")


def fail(message: str) -> NoReturn:
    print(f"pairs: {message}", file=sys.stderr)
    raise SystemExit(2)


def declared(trace: bool) -> dict[str, dict]:
    """The metrics ``bench/run.py`` reports in this mode, by name."""
    return {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_once(tree: Path, work: Path, workload: str, seed: int, seconds: float,
             trace: bool, toy: bool) -> dict:
    """One ``bench/run.py`` of ``tree`` in the fresh directory ``work``: its result line."""
    work.mkdir(parents=True)
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv + (["--toy"] if toy else []), cwd=work, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"bench/run.py exited {done.returncode} on {tree} (seed {seed})")
    return json.loads(lines[-1])


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float,
              trace: bool = False, toy: bool = False) -> list[dict[str, dict]]:
    """Alternating pairs, the parent first in even-numbered pairs: each pair's
    result lines by side.  ``toy`` runs ``bench/run.py --toy``, for tests."""
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], Path(tmp) / f"{i}-{side}", workload,
                                      seed, seconds, trace, toy)
                print(f"pairs: {workload} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in pair[side]['metrics'].items()})}",
                      file=sys.stderr)
            pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def metric_summary(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's block: quartiles, change of the median, wins and bound."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    out = {"unit": spec["unit"], "better": spec["better"]}
    if "bound" in spec:
        out["bound"] = spec["bound"]
    out.update({
        "parent": p, "change": c, "median_change_rel": round(rel, 4),
        "parent_iqr": round(p["q3"] - p["q1"], 4),
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
    })
    if "bound" in spec:
        out["within_bound"] = -sign * rel <= spec["bound"]
    out["runs"] = {"parent": [round(v, 4) for v in parent],
                   "change": [round(v, 4) for v in change]}
    return out


def summarise(pairs: list[dict[str, dict]], seeds: list[int], metrics: dict[str, dict]) -> dict:
    """The workload block of a ``BENCH_*.json`` file."""
    return {
        "pairs": len(pairs),
        "seeds": seeds,
        "first_in_pair": [SIDES[i % 2] for i in range(len(pairs))],
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "metrics": {name: metric_summary(spec, *([p[side]["metrics"][name]["value"]
                                                  for p in pairs] for side in SIDES))
                    for name, spec in metrics.items()},
    }


def claim(block: dict, workload: str, metric: str) -> dict:
    """Whether the change wins 9 pairs in 10 and its median moves the better
    way by more than the parent's interquartile range."""
    m = block["metrics"][metric]
    sign = 1.0 if m["better"] == "higher" else -1.0
    gain = sign * (m["change"]["median"] - m["parent"]["median"])
    return {"workload": workload, "metric": metric,
            "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
            "median_change_rel": m["median_change_rel"], "parent_iqr": m["parent_iqr"],
            "change_wins": m["change_wins"], "pairs": block["pairs"],
            "met": 10 * m["change_wins"] >= 9 * block["pairs"] and gain > m["parent_iqr"]}


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"--seeds wants A-B with A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare this tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, one per pair")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics")
    parser.add_argument("--claim", metavar="METRIC", help="add a claim block on this metric")
    parser.add_argument("--out", type=Path, help="JSON file to write or update")
    args = parser.parse_args()
    if args.pairs < 1 or len(args.seeds) != args.pairs:
        parser.error(f"--seeds holds {len(args.seeds)} seeds for {args.pairs} pairs")
    metrics = declared(args.trace)
    seconds = SPEC["run_seconds"]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim {args.claim!r} is not one of {sorted(metrics)}")

    with tempfile.TemporaryDirectory(prefix="pairs-tree-") as tmp:
        parent = Path(tmp) / "parent-tree"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet",
                                "--detach", str(parent), args.parent])
        if added.returncode != 0:
            fail(f"cannot check out {args.parent!r}")
        try:
            shutil.rmtree(parent / "bench", ignore_errors=True)
            shutil.copytree(ROOT / "bench", parent / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", parent / "BENCHMARK.json")
            pairs = run_pairs({"parent": parent, "change": ROOT}, args.workload, args.seeds,
                              seconds, args.trace)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent)], check=True)

    block = summarise(pairs, args.seeds, metrics)
    record = {}
    if args.out is not None and args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    command = (f"python3 bench/run.py --workload W --seed N --seconds {seconds:g}"
               f" --trace {int(args.trace)}")
    record["method"] = (
        f"tools/pairs.py: the parent ({args.parent}, git worktree) and the change (the "
        "working tree) with the change's bench/ and BENCHMARK.json; alternating pairs, "
        "the parent first in even-numbered pairs counting from 0; one run at a time; "
        "OPENBLAS_NUM_THREADS=1. Quartiles are inclusive; a win is a strictly better "
        "value, ties count for neither side; within_bound compares the medians. failed "
        "and attempted are summed over each side's runs.")
    record["environment"] = {"cpus": len(os.sched_getaffinity(0)),
                             "python": platform.python_version(),
                             "numpy": version("numpy"), "OPENBLAS_NUM_THREADS": "1"}
    if args.claim is not None:
        record["claim"] = claim(block, args.workload, args.claim)
    if args.trace:
        record.setdefault("trace", {"command": command, "runs": {}})["runs"][args.workload] = block
    else:
        record["command"] = command
        record.setdefault("workloads", {})[args.workload] = block
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
