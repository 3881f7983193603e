"""Golden digests of the command outputs that do no matrix product.

The commands below run in-process at toy size, and the SHA-256 of each file
they write and of their stdout (for ``baseline`` also its stderr) must match
``golden_digests.json``.  These bytes come from the dataset codec, the
synthetic generator, the rule pipeline, the filters, the heuristics and, for
``train``, the config and vocabulary files of the run directory (not its
checkpoint, log or stdout); no BLAS call shapes them, so they are the same on
every machine.  After a change
that alters one of these outputs on purpose, rewrite the manifest with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from groundkit import benchkit
from groundkit.cli import run
from groundkit.core import (PersonLink, Word, read_dataset, read_header, sample_to_json,
                            write_container)
from groundkit.rulekit import write_qa_corpus

from test_rulekit import fixture_corpus

MANIFEST = Path(__file__).with_name("golden_digests.json")
TOY_CFG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"
SPLITS = ("train", "validation", "test")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_prefilter_set(source: str, path: str) -> None:
    """``source``'s scenes, three in every four edited to trip a filter.  New
    tokens make new samples, so that no cached ``link_ids`` goes stale."""
    samples = read_dataset(source)
    for s in samples[1::4]:
        s.image.persons = s.image.persons[:1]
        s.labels = {link: 0 for link in s.labels}
    for i in range(2, len(samples), 4):
        samples[i] = replace(samples[i], tokens=[Word("nobody"), Word("waves")], labels={})
    for i in range(3, len(samples), 4):
        samples[i] = replace(samples[i], tokens=[PersonLink(1), Word("and"), PersonLink(2),
                                                 Word("wave")], labels={1: 0, 2: 1})
    write_container(path, samples, sample_to_json, read_header(source))


def golden_outputs(root: Path) -> dict[str, str]:
    """Run the commands inside ``root``; the digest of each output, by name."""
    digests: dict[str, str] = {}

    def cli(name: str, *argv: str, stdout: bool = True, stderr: bool = False,
            files: tuple[str, ...] = ()) -> None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
        assert code == 0, err.getvalue()
        if stdout:
            digests[f"{name} stdout"] = _sha(out.getvalue().encode("utf-8"))
        if stderr:
            digests[f"{name} stderr"] = _sha(err.getvalue().encode("utf-8"))
        for path in files:
            digests[path] = _sha(Path(path).read_bytes())

    cwd = os.getcwd()
    os.chdir(root)  # relative paths keep the stdout payloads free of ``root``
    try:
        cli("synth", "synth", "--n", "40", "--seed", "5", "--out", "data.jsonl",
            files=("data.jsonl", "data.cgf"))
        cli("stats", "stats", "--data", "data.jsonl")
        for name in sorted(benchkit.BASELINES):
            cli(f"baseline {name}", "baseline", "--data", "data.jsonl", "--name", name,
                stderr=True)
        write_qa_corpus(fixture_corpus(), "qa.jsonl")
        cli("transform", "transform", "--data", "qa.jsonl", "--out", "tr", "--seed", "1",
            files=tuple(f"tr/{s}.{ext}" for s in SPLITS for ext in ("jsonl", "cgf"))
            + ("tr/report.json",))
        _write_prefilter_set("data.jsonl", "prefilter.jsonl")
        cli("filter", "filter", "--data", "prefilter.jsonl", "--out", "filtered.jsonl",
            files=("filtered.jsonl", "filtered.cgf"))
        cli("train", "train", "--data", "data.jsonl", "--config", str(TOY_CFG), "--out", "run",
            "--steps", "1", stdout=False, files=("run/config.cfg", "run/vocab.json"))
    finally:
        os.chdir(cwd)
    return digests


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = golden_outputs(tmp_path)
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert not changed, f"outputs differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_outputs(Path(tmp))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
