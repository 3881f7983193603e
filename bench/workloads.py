"""The three workloads and the closed-loop client that drives them.

One client, in one process and one thread, calls ``groundkit.cli.run`` and
waits for each command before it sends the next.  A workload has a set-up,
which makes its inputs from the seed, and a round: a fixed list of short
requests (commands on small chunk files, or one ``train`` command cut at
its optimizer steps) that is repeated while the run lasts.

Every request is timed on its own, between runs of a fixed calibration
kernel that does not touch groundkit.  On a shared machine the speed of the
CPU drifts by up to a factor of two within minutes and by a tenth within
seconds; the kernel slows down with the program, so each request's time is
divided by the mean time of the kernel runs just before and just after it
(``normalised_seconds``).

Rounds are deterministic, so every round of a run must write the same bytes.
The output checks compare them, and those comparisons are what make the
traced round prove that tracing changed nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import groundkit.benchkit as benchkit
import groundkit.cli as cli
import groundkit.numcore as numcore
from groundkit.core import read_dataset
from groundkit.rulekit import write_qa_corpus

import qa_corpus
from tracing import patch, unpatch

perf = time.perf_counter
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
HELDOUT_SEED_OFFSET = 1_000_003
# a heuristic further than BASELINE_SIGMAS standard deviations from chance
# fails its check (two-sided); the model must clear chance by MODEL_SIGMAS
BASELINE_SIGMAS = 4.0
MODEL_SIGMAS = 3.0
# the kernel's time on the machine the figures are normalised to: about its
# time on a 2-core x86-64 VM with numpy 2.4
KERNEL_REF_S = 0.003
KERNEL_RUNS = 3


def kernel() -> float:
    """Fixed mix of interpreter work, small numpy ops and JSON, like groundkit's."""
    a = np.ones((16, 32))
    w = np.full((32, 32), 0.01)
    acc = 0.0
    for i in range(200):
        acc += float((a @ w).sum())
        d = {str(j): j * i for j in range(8)}
        acc += len(json.dumps(d)) + sum(json.loads(json.dumps(d)).values()) % 3
    return acc


class Session:
    """Runs commands, times requests, counts what was attempted and what failed.

    Three taps are on for the whole run, traced or not, each called once per
    command, epoch or optimizer step.  One keeps the predictions
    ``benchkit.evaluate`` scored, for the bitwise comparison.  One keeps the
    batches ``make_batches`` formed, so throughput counts the samples the
    trainer really used.  One reads the clock at the end of each
    ``optimizer_step`` and then calibrates, as before every command.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        # label -> (phase, units, seconds, index in ``kernels`` where it started)
        self.requests: dict[str, tuple[str, int, float, int]] = {}
        self.kernels: list[float] = []
        self._predictions: list = []
        self._epochs: list[tuple[float, list[list[int]]]] = []
        self._steps: list[tuple[float, float, int]] = []
        self._first_kernel = 0
        self._command = (0.0, 0.0)   # perf() at the start and end of the last command

    def install_taps(self):
        trainer = sys.modules["groundkit.grounder.train"]

        def tap_evaluate(fn):
            def wrapper(predictions, samples):
                self._predictions = predictions
                return fn(predictions, samples)
            return wrapper

        def tap_batches(fn):
            def wrapper(order, lengths, token_budget):
                start = perf()
                batches = fn(order, lengths, token_budget)
                self._epochs.append((start, batches))
                return batches
            return wrapper

        def tap_step(fn):
            def wrapper(*args, **kwargs):
                fn(*args, **kwargs)
                end = perf()
                self.calibrate()
                self._steps.append((end, perf(), len(self.kernels)))
            return wrapper

        undo = patch(benchkit, "evaluate", tap_evaluate)
        undo += patch(trainer, "make_batches", tap_batches)
        undo += patch(numcore, "optimizer_step", tap_step)
        return lambda: unpatch(undo)

    def calibrate(self) -> None:
        for _ in range(KERNEL_RUNS):
            start = perf()
            kernel()
            self.kernels.append(perf() - start)

    def cli(self, *argv: str, phase: str | None = None, label: str | None = None,
            units: int = 0) -> tuple[int, object]:
        """Run one command; with ``phase`` it is a timed request of ``units`` work."""
        out, err = io.StringIO(), io.StringIO()
        self._predictions, self._epochs, self._steps = [], [], []
        self.attempted += 1
        self.calibrate()
        self._first_kernel = len(self.kernels)
        start = perf()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(list(argv))
        except Exception:  # a traceback is a failed command; the run goes on
            rc = -1
            err.write(traceback.format_exc())
        end = perf()
        seconds = end - start
        self._command = (start, end)
        if phase is not None:
            self.requests[label or argv[0]] = (phase, units, seconds, self._first_kernel)
        if rc != 0:
            self.failed += 1
            self.checks.append({"name": f"command {' '.join(argv[:1])}", "ok": False,
                                "detail": f"exit {rc}: {err.getvalue()[-2000:]}"})
            return rc, None
        lines = out.getvalue().strip().splitlines()
        return rc, json.loads(lines[-1]) if lines else None

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def predictions_digest(self) -> str:
        h = hashlib.sha256()
        for pred in self._predictions:
            choices = pred.chosen if hasattr(pred, "chosen") else pred.choices
            h.update(json.dumps(sorted(choices.items())).encode())
            for _link, vec in sorted(getattr(pred, "scores", {}).items()):
                h.update(np.ascontiguousarray(vec).tobytes())
        return h.hexdigest()

    def record_steps(self, phase: str) -> int:
        """Time the last train call as requests, one per step; returns the step count.

        A step runs from the end of the kernel runs after the previous step
        (or from its epoch's start, for the first step of the call) to the end
        of its optimizer update.  Two requests of no samples hold the rest of
        the command: ``train:prologue`` (reading the data, the vocabulary,
        model and optimizer set-up) before the first step, and
        ``train:epilogue`` (saving the run) after the last.  Together they
        cover the whole command except the kernel runs.
        """
        batches = [b for _start, epoch in self._epochs for b in epoch]
        start, end = self._command
        prev = self._epochs[0][0] if self._epochs else end
        first_kernel = self._first_kernel
        self.requests["train:prologue"] = (phase, 0, prev - start, first_kernel)
        for j, (step_end, after, next_kernel) in enumerate(self._steps):
            self.requests[f"step{j:04d}"] = (phase, len(batches[j]), step_end - prev,
                                             first_kernel)
            prev, first_kernel = after, next_kernel
        self.requests["train:epilogue"] = (phase, 0, end - prev, first_kernel)
        return len(self._steps)

    def normalised_seconds(self, request: tuple) -> float:
        """A request's seconds on a machine where the kernel takes KERNEL_REF_S.

        The kernel runs around the request (KERNEL_RUNS before it, and the
        KERNEL_RUNS after it, when there are any) measure how fast the machine
        was at the time.
        """
        _phase, _units, seconds, first = request
        around = self.kernels[first - KERNEL_RUNS:first + KERNEL_RUNS]
        return seconds * KERNEL_REF_S / statistics.fmean(around)


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def chance_band(samples) -> tuple[float, float]:
    """Expected accuracy of a geometry-blind assignment and its standard deviation."""
    links = [(len(s.labels), 1.0 / s.image.n_persons) for s in samples]
    n = sum(k for k, _ in links)
    var = sum(k * p * (1.0 - p) for k, p in links) / (n * n)
    return benchkit.expected_chance(samples), math.sqrt(var)


class Scorer:
    """Pools eval reports over chunk files and checks them against chance."""

    def __init__(self, chunks: list[Path]) -> None:
        samples = [s for c in chunks for s in read_dataset(c / "dataset.jsonl")]
        self.chance, self.sigma = chance_band(samples)

    @staticmethod
    def pool(reports: list) -> float:
        good = [r for r in reports if r]
        if len(good) != len(reports):
            return float("nan")
        return (sum(r["overall"]["correct"] for r in good)
                / sum(r["overall"]["total"] for r in good))

    def above_chance(self, s: Session, name: str, acc: float) -> None:
        s.check(f"{name} accuracy above chance",
                acc > self.chance + MODEL_SIGMAS * self.sigma,
                {"accuracy": acc, "chance": self.chance, "sigma": self.sigma})

    def at_chance(self, s: Session, name: str, acc: float) -> None:
        s.check(f"{name} within {BASELINE_SIGMAS:g} sigma of chance",
                abs(acc - self.chance) <= BASELINE_SIGMAS * self.sigma,
                {"accuracy": acc, "chance": self.chance, "sigma": self.sigma})


def chunk_dirs(d: Path, n_chunks: int) -> list[Path]:
    return [d / f"chunk{k:02d}" for k in range(n_chunks)]


def synth_chunks(s: Session, d: Path, first_seed: int, n_chunks: int, size: int,
                 *extra: str) -> list[Path]:
    paths = chunk_dirs(d, n_chunks)
    for k, path in enumerate(paths):
        s.cli("synth", "--n", str(size), "--seed", str(first_seed + k), *extra,
              "--out", str(path), phase="synth", label=f"synth:{path.name}", units=size)
    return paths


# ---------------------------------------------------------------------------
# workloads


class Train:
    """synth -> train (configs/toy.cfg, token budget 800) -> eval on held-out scenes."""

    name = "train"

    def __init__(self, toy: bool) -> None:
        self.n_train, self.steps = (40, 2) if toy else (1000, 30)
        self.n_chunks, self.chunk = (2, 10) if toy else (10, 100)

    def params(self, seed: int) -> dict:
        return {"synth_seed": seed, "heldout_seeds": f"{seed + HELDOUT_SEED_OFFSET}+k",
                "n_train": self.n_train, "heldout_chunks": self.n_chunks,
                "heldout_chunk_size": self.chunk, "heldout_context_rate": 1.0,
                "steps_per_round": self.steps, "config": "configs/toy.cfg"}

    def setup(self, s: Session, d: Path, seed: int) -> None:
        s.cli("synth", "--n", str(self.n_train), "--seed", str(seed),
              "--out", str(d / "train"), phase="synth", label="synth:train",
              units=self.n_train)
        synth_chunks(s, d / "heldout", seed + HELDOUT_SEED_OFFSET, self.n_chunks,
                     self.chunk, "--context-rate", "1.0")

    def prepare(self, d: Path) -> None:
        self.heldout = chunk_dirs(d / "heldout", self.n_chunks)
        self.scorer = Scorer(self.heldout)

    def round(self, s: Session, d: Path, out: Path) -> tuple[dict, dict]:
        run_dir = out / "run"
        _rc, trained = s.cli("train", "--data", str(d / "train"), "--config", str(CONFIG),
                             "--out", str(run_dir), "--steps", str(self.steps))
        steps = s.record_steps("main")
        reports, digests = [], []
        for chunk in self.heldout:
            _rc, report = s.cli("eval", "--data", str(chunk), "--checkpoint", str(run_dir),
                                phase="aux", label=f"eval:{chunk.name}", units=self.chunk)
            reports.append(report)
            digests.append(s.predictions_digest())
        acc = self.scorer.pool(reports)
        self.scorer.above_chance(s, "model", acc)
        s.check("train ran every step", steps == self.steps, steps)
        outputs = {"run_dir": tree_digest(run_dir) if trained else None,
                   "eval": reports, "predictions": digests}
        details = {"accuracy": acc, "chance": self.scorer.chance,
                   "final_loss": trained["final_loss"] if trained else None}
        return outputs, details


class Infer:
    """Set-up trains a checkpoint; the round evaluates it and the four heuristics."""

    name = "infer"

    def __init__(self, toy: bool) -> None:
        self.n_train, self.ckpt_steps = (40, 2) if toy else (1000, 20)
        self.n_chunks, self.chunk = (2, 10) if toy else (20, 100)

    def params(self, seed: int) -> dict:
        return {"synth_seed": seed, "heldout_seeds": f"{seed + HELDOUT_SEED_OFFSET}+k",
                "n_train": self.n_train, "checkpoint_steps": self.ckpt_steps,
                "heldout_chunks": self.n_chunks, "heldout_chunk_size": self.chunk,
                "heldout_context_rate": 1.0, "baselines": sorted(benchkit.BASELINES),
                "config": "configs/toy.cfg"}

    def setup(self, s: Session, d: Path, seed: int) -> None:
        s.cli("synth", "--n", str(self.n_train), "--seed", str(seed),
              "--out", str(d / "train"), phase="synth", label="synth:train",
              units=self.n_train)
        s.cli("train", "--data", str(d / "train"), "--config", str(CONFIG),
              "--out", str(d / "ckpt"), "--steps", str(self.ckpt_steps))
        synth_chunks(s, d / "heldout", seed + HELDOUT_SEED_OFFSET, self.n_chunks,
                     self.chunk, "--context-rate", "1.0")

    def prepare(self, d: Path) -> None:
        self.heldout = chunk_dirs(d / "heldout", self.n_chunks)
        self.scorer = Scorer(self.heldout)

    def round(self, s: Session, d: Path, out: Path) -> tuple[dict, dict]:
        outputs: dict[str, object] = {}
        accuracies = {}
        for name in ["model"] + sorted(benchkit.BASELINES):
            reports, digests = [], []
            for chunk in self.heldout:
                if name == "model":
                    argv = ("eval", "--data", str(chunk), "--checkpoint", str(d / "ckpt"))
                    phase = "main"
                else:
                    argv = ("baseline", "--data", str(chunk), "--name", name)
                    phase = "aux"
                _rc, report = s.cli(*argv, phase=phase, label=f"{name}:{chunk.name}",
                                    units=self.chunk)
                reports.append(report)
                digests.append(s.predictions_digest())
            outputs[name] = (reports, digests)
            accuracies[name] = self.scorer.pool(reports)
            if name == "model":
                self.scorer.above_chance(s, name, accuracies[name])
            else:
                self.scorer.at_chance(s, f"baseline {name}", accuracies[name])
        return outputs, {"accuracy": accuracies, "chance": self.scorer.chance}


class Build:
    """QA corpus -> transform -> filter and stats on the train split -> synth."""

    name = "build"

    def __init__(self, toy: bool) -> None:
        self.n_chunks, self.chunk, self.synth_chunk = (2, 30, 10) if toy else (8, 400, 200)

    def params(self, seed: int) -> dict:
        return {"qa_seeds": f"{seed * 100}+k", "split_seed": seed,
                "synth_seeds": f"{seed * 100}+k", "chunks": self.n_chunks,
                "qa_per_chunk": self.chunk, "synth_per_chunk": self.synth_chunk}

    def setup(self, s: Session, d: Path, seed: int) -> None:
        d.mkdir(parents=True)
        self.seed = seed
        self.keys = []
        for k in range(self.n_chunks):
            s.calibrate()
            corpus, key, header = qa_corpus.generate(self.chunk, seed * 100 + k)
            write_qa_corpus(corpus, d / f"qa{k:02d}.jsonl", header=header)
            self.keys.append(key)

    def prepare(self, d: Path) -> None:
        pass

    def round(self, s: Session, d: Path, out: Path) -> tuple[dict, dict]:
        outputs: dict[str, object] = {}
        totals = {field: Counter() for field in ("per_question_type", "drops",
                                                 "split_sizes", "forms")}
        for k, key in enumerate(self.keys):
            splits = out / f"splits{k:02d}"
            _rc, report = s.cli("transform", "--data", str(d / f"qa{k:02d}.jsonl"),
                                "--out", str(splits), "--seed", str(self.seed),
                                phase="main", label=f"transform:{k}", units=self.chunk)
            if not report:
                continue
            split = splits / "train.jsonl"
            n_train = report["split_sizes"]["train"]
            _rc, filtered = s.cli("filter", "--data", str(split),
                                  "--out", str(out / f"filtered{k:02d}.jsonl"),
                                  phase="aux", label=f"filter:{k}", units=n_train)
            _rc, stats = s.cli("stats", "--data", str(split))
            outputs[f"chunk{k}"] = (tree_digest(splits), filtered, stats)
            self._check(s, key, report, splits, filtered, stats)
            for field in ("per_question_type", "drops", "split_sizes"):
                totals[field].update(report[field])
            totals["forms"].update(key.forms)
        synth = synth_chunks(s, out / "synth", self.seed * 100, self.n_chunks,
                             self.synth_chunk)
        outputs["synth"] = [tree_digest(p) for p in synth]
        return outputs, {field: dict(sorted(c.items())) for field, c in totals.items()}

    def _check(self, s: Session, key, report: dict, splits: Path, filtered, stats) -> None:
        drops = report["drops"]
        s.check("kept + drops + unmatched == total",
                report["kept"] + sum(drops.values()) + len(report["unmatched_ids"])
                == report["total"] == key.total, report["total"])
        got = (report["per_question_type"], drops, report["unmatched_ids"], report["kept"])
        want = (key.per_question_type, key.drops, key.unmatched_ids, key.kept)
        s.check("pipeline report matches the corpus answer key", got == want,
                {"expected": want, "got": got})
        sizes = report["split_sizes"]
        s.check("split sizes add up to kept", sum(sizes.values()) == report["kept"], sizes)
        for name, size in sorted(sizes.items()):
            try:
                n = len(read_dataset(splits / f"{name}.jsonl", strict=True))
            except Exception as exc:  # any reload failure fails the check
                n = f"{type(exc).__name__}: {exc}"
            s.check(f"split {name} reloads strictly", n == size, {"expected": size, "got": n})
        s.check("filter keeps the whole filtered split",
                bool(filtered) and filtered["kept"] == filtered["input"] == sizes["train"],
                filtered)
        s.check("stats counts the split",
                bool(stats) and stats["n_samples"] == sizes["train"], stats)


WORKLOADS = {w.name: w for w in (Train, Infer, Build)}
