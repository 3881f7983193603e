"""Compare the bytes one fixed list of commands writes on this tree and on a parent.

Usage:

    python tools/identity.py --parent REV

REV is checked out with ``git worktree`` into a temporary directory.  Both
trees (this working tree, uncommitted edits included, and REV) then run the
same list of CLI commands, each from its own ``src``, ``configs`` and
``bench``, with the relative paths below, in a directory of their own:

- ``synth`` of the training set, of two held-out sets and of a crowded set
  (up to 10 persons a scene, so that person placement starts over);
- ``train --steps 30`` and ``--steps 400``, plus ``--steps 400`` with
  ``--lambda 0`` and with ``--no-context-objects``, on ``configs/toy.cfg``;
- ``eval`` of each of those four runs on the training set and on both
  held-out sets;
- ``stats``, ``baseline --name random`` on the training set and
  ``baseline --name random --seed 3`` on the first held-out set, so that a
  seed other than 0 reaches the per-sample draws, and ``gradcheck``;
- a copy of ``configs/toy.cfg`` with ``contrast_layer = 1``, where both
  losses' gradients meet on the final hidden state: ``train --steps 30`` on
  it, ``eval`` of that run on the first held-out set and ``gradcheck``;
- ``transform`` of ``bench/qa_corpus.generate(400, 101)``, then ``filter``
  of its ``train`` split, ``train --steps 30`` on that split and ``eval`` of
  that run on the ``test`` split, so that words the rule pipeline writes
  reach the model;
- a copy of the first held-out set in a layout no writer makes, built with
  plain ``json`` and ``struct``: every other sample id one byte longer, in
  both files, and the ``.cgf`` rows in reverse order; then ``stats``,
  ``baseline --name big_to_small`` and ``eval`` of the 30-step run on it, so
  that rows out of writer order, each sample a run of its own, reach the
  records.

REV runs under ``PYTHONHASHSEED=0`` and this tree under ``PYTHONHASHSEED=1``,
so ``--parent HEAD`` also shows that no output depends on the hash seed.
Every file written, each command's stdout included (as ``stdout/NAME``), is
compared byte for byte, one line per file.  Stderr is not compared: it holds
wall times.  The exit code is 0 when every file is identical, 1 when any file
differs or exists on one side only, and 2 when REV cannot be checked out or a
command fails.

Training, eval and gradcheck bytes depend on the BLAS kernel, so the result
holds for this machine; both trees run with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "configs/toy.cfg"   # read from each tree
RUNS = {
    "run_30": ["--steps", "30"],
    "run_400": ["--steps", "400"],
    "run_400_lambda0": ["--steps", "400", "--lambda", "0"],
    "run_400_no_objects": ["--steps", "400", "--no-context-objects"],
}
SETS = ("data", "held", "held_objects")

WRITE_QA = ("import sys; sys.path.insert(0, sys.argv[1]); import qa_corpus\n"
            "from groundkit.rulekit import write_qa_corpus\n"
            "corpus, _key, header = qa_corpus.generate(400, 101)\n"
            "write_qa_corpus(corpus, sys.argv[2], header)")
WRITE_REVERSED = ("import json, pathlib, struct, sys\n"
                  "src, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])\n"
                  "lines = (src / 'dataset.jsonl').read_text(encoding='utf-8').splitlines()\n"
                  "objs = [json.loads(line) for line in lines[1:]]\n"
                  "longer = {o['sample_id']: o['sample_id'] + 'x' for o in objs[1::2]}\n"
                  "for o in objs[1::2]:\n"
                  "    o['sample_id'] = longer[o['sample_id']]\n"
                  "out.mkdir()\n"
                  "(out / 'dataset.jsonl').write_text('\\n'.join(lines[:1] + [json.dumps(\n"
                  "    o, separators=(',', ':'), ensure_ascii=False) for o in objs]) + '\\n',\n"
                  "    encoding='utf-8')\n"
                  "blob = (src / 'dataset.cgf').read_bytes()\n"
                  "(d_vis,) = struct.unpack_from('<I', blob, 4)\n"
                  "rows, off = [], 8\n"
                  "while off < len(blob):\n"
                  "    (n,) = struct.unpack_from('<I', blob, off)\n"
                  "    sid = blob[off + 4:off + 4 + n].decode('utf-8')\n"
                  "    raw = longer.get(sid, sid).encode('utf-8')\n"
                  "    end = off + 8 + n + 4 * d_vis\n"
                  "    rows.append(struct.pack('<I', len(raw)) + raw + blob[off + 4 + n:end])\n"
                  "    off = end\n"
                  "(out / 'dataset.cgf').write_bytes(blob[:8] + b''.join(rows[::-1]))")
WRITE_LAST_LAYER_CFG = ("import re, sys, pathlib\n"
                        "text, n = re.subn(r'(?m)^contrast_layer = .*$', 'contrast_layer = 1',\n"
                        "                  pathlib.Path(sys.argv[1]).read_text())\n"
                        "assert n == 1, 'no single contrast_layer line'\n"
                        "pathlib.Path(sys.argv[2]).write_text(text)")


def commands(tree: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of each step, in order; ``name`` names its stdout file."""
    cli = [sys.executable, "-m", "groundkit.cli"]
    config = str(tree / CONFIG)
    steps = [
        ("synth_data", cli + ["synth", "--n", "1000", "--seed", "7", "--out", "data"]),
        ("synth_held", cli + ["synth", "--n", "200", "--seed", "8", "--out", "held"]),
        ("synth_held_objects", cli + ["synth", "--n", "100", "--seed", "9",
                                      "--context-rate", "1.0", "--out", "held_objects"]),
        ("synth_crowded", cli + ["synth", "--n", "300", "--max-persons", "10", "--seed", "11",
                                 "--out", "crowded"]),
    ]
    for run, flags in RUNS.items():
        steps.append((f"train_{run}", cli + ["train", "--data", "data", "--config", config,
                                              "--out", run] + flags))
        for data in SETS:
            steps.append((f"eval_{run}_{data}",
                          cli + ["eval", "--data", data, "--checkpoint", run]))
    steps += [
        ("stats", cli + ["stats", "--data", "data"]),
        ("baseline_random", cli + ["baseline", "--data", "data", "--name", "random"]),
        ("baseline_random_seed3", cli + ["baseline", "--data", "held", "--name", "random",
                                         "--seed", "3"]),
        ("gradcheck", cli + ["gradcheck", "--config", config]),
        ("last_layer_cfg", [sys.executable, "-c", WRITE_LAST_LAYER_CFG, config, "last.cfg"]),
        ("train_last", cli + ["train", "--data", "data", "--config", "last.cfg",
                              "--out", "run_last", "--steps", "30"]),
        ("eval_last_held", cli + ["eval", "--data", "held", "--checkpoint", "run_last"]),
        ("gradcheck_last", cli + ["gradcheck", "--config", "last.cfg"]),
        ("qa_corpus", [sys.executable, "-c", WRITE_QA, str(tree / "bench"), "qa.jsonl"]),
        ("transform", cli + ["transform", "--data", "qa.jsonl", "--out", "transformed"]),
        ("filter", cli + ["filter", "--data", "transformed/train.jsonl",
                          "--out", "filtered.jsonl"]),
        ("train_qa", cli + ["train", "--data", "transformed/train.jsonl", "--config", config,
                            "--out", "run_qa", "--steps", "30"]),
        ("eval_qa", cli + ["eval", "--data", "transformed/test.jsonl",
                           "--checkpoint", "run_qa"]),
        ("held_reversed", [sys.executable, "-c", WRITE_REVERSED, "held", "held_reversed"]),
        ("stats_reversed", cli + ["stats", "--data", "held_reversed"]),
        ("baseline_reversed", cli + ["baseline", "--data", "held_reversed",
                                     "--name", "big_to_small"]),
        ("eval_run_30_reversed", cli + ["eval", "--data", "held_reversed",
                                        "--checkpoint", "run_30"]),
    ]
    return steps


def fail(message: str) -> NoReturn:
    print(f"identity: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_all(tree: Path, out: Path, hash_seed: str) -> None:
    """Run every step with ``tree``'s code in ``out``, stdout to ``out/stdout``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED=hash_seed)
    (out / "stdout").mkdir(parents=True)
    for name, argv in commands(tree):
        done = subprocess.run(argv, cwd=out, env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode("utf-8", "replace"))
            fail(f"{name} exited {done.returncode} on {tree}")
        (out / "stdout" / name).write_bytes(done.stdout)


def compare(left: Path, right: Path) -> bool:
    """Print one line per file under either directory; True when all are identical."""
    files = sorted({p.relative_to(root) for root in (left, right)
                    for p in root.rglob("*") if p.is_file()})
    same = True
    for rel in files:
        a, b = left / rel, right / rel
        if not (a.exists() and b.exists()):
            status = "only in this tree" if a.exists() else "only in parent"
        else:
            status = "identical" if filecmp.cmp(a, b, shallow=False) else "DIFFERS"
        same &= status == "identical"
        print(f"{status:<18} {rel.as_posix()}")
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare this tree with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent-tree"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet",
                                "--detach", str(parent), args.parent])
        if added.returncode != 0:
            fail(f"cannot check out {args.parent!r}")
        try:
            run_all(ROOT, tmp / "this", hash_seed="1")
            run_all(parent, tmp / "parent", hash_seed="0")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent)], check=True)
        same = compare(tmp / "this", tmp / "parent")
    print("identical: every file" if same else "DIFFERENT: see the lines above")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
