"""Record the held-out accuracy of the model, its two ablations and the heuristics.

Usage:

    python tools/ablation.py [--src DIR] [--seeds 0,1,2]

Writes synthetic scenes at ``imprint_rate`` 0 through
``benchkit.synth_generate`` and ``write_dataset``: 1,000 training scenes
(seed 7) and 300 held-out scenes (seed 8).  With no imprint of a context
object on its person's feature, a spatial scene can be solved only through
the object tokens.  Then, for each model seed, it trains the full model, a
``--lambda 0`` run and a ``--no-context-objects`` run on ``configs/toy.cfg``
for 400 steps and evaluates each run on the held-out scenes, and it runs the
four heuristics once on them.

Prints one JSON line: the held-out chance overall and per commonsense
type (``benchkit.expected_chance`` over that type's samples), and the
overall and per-type accuracy of every run and heuristic, each rounded to
four places.  The commands run from ``DIR`` (default: this tree's
``src``), so the same script records both sides of a change, for example
with ``--src`` pointing at a checkout of the parent.  Every command runs
with ``OPENBLAS_NUM_THREADS=1``; nine runs at three seeds take about 30 s
on one CPU core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "toy.cfg"
STEPS = "400"
VARIANTS = {
    "full": [],
    "lambda0": ["--lambda", "0"],
    "no_context_objects": ["--no-context-objects"],
}
HEURISTICS = ("random", "big_to_small", "left_to_right", "left_to_right_biggest")

# writes train.jsonl and held.jsonl and prints the held-out chance
WRITE_DATA = """\
import json
from groundkit import benchkit
from groundkit.core import write_dataset
for out, n, seed in (("train.jsonl", 1000, 7), ("held.jsonl", 300, 8)):
    samples = benchkit.synth_generate(
        benchkit.SynthConfig(n_samples=n, seed=seed, imprint_rate=0.0))
    write_dataset(samples, out)
by_type = {}
for s in samples:
    by_type.setdefault(s.commonsense_type.value, []).append(s)
chance = {"overall": samples}
chance.update(by_type)
print(json.dumps({key: round(benchkit.expected_chance(group), 4)
                  for key, group in chance.items()}))
"""


def accuracies(report: dict) -> dict:
    """Overall and per-type accuracy of one ``evaluate`` report."""
    out = {"overall": report["overall"]}
    out.update(report["by_type"])
    return {key: round(bucket["accuracy"], 4) for key, bucket in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose groundkit runs")
    parser.add_argument("--seeds", default="0,1,2", help="model seeds, comma-separated")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1")

    with tempfile.TemporaryDirectory(prefix="ablation-") as tmp:
        def run(argv: list[str]) -> dict:
            done = subprocess.run([sys.executable] + argv, cwd=tmp, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"ablation: {' '.join(argv)} exited {done.returncode}")
            return json.loads(done.stdout.splitlines()[-1])

        cli = ["-m", "groundkit.cli"]
        record = {"chance": run(["-c", WRITE_DATA]), "runs": {}, "heuristics": {}}
        for variant, flags in VARIANTS.items():
            for seed in seeds:
                out = f"{variant}_{seed}"
                run(cli + ["train", "--data", "train.jsonl", "--config", str(CONFIG),
                           "--steps", STEPS, "--seed", str(seed), "--out", out] + flags)
                report = run(cli + ["eval", "--data", "held.jsonl", "--checkpoint", out])
                record["runs"].setdefault(variant, {})[str(seed)] = accuracies(report)
        for name in HEURISTICS:
            report = run(cli + ["baseline", "--data", "held.jsonl", "--name", name])
            record["heuristics"][name] = accuracies(report)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
