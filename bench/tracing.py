"""Spans around the public functions of each groundkit layer, added at run time.

The program is not edited: ``Tracer.install`` replaces each traced function
in every ``groundkit`` module namespace that holds it (``from x import f``
copies included), and the returned callable puts the originals back.  A
wrapper calls the original and returns its result untouched, so a traced
run computes exactly what an untraced run computes.

A span is ``[name, start, end, parent, tag, units]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``tag`` is the sample id or
the optimizer step, and ``units`` is the work the call did (samples, rows,
QA pairs or tape nodes).  Spans stay in memory until ``write_spans``.
Functions called thousands of times per sample (``iou``, ``match_pattern``)
are counted instead of timed.  The benchmark's own calibration runs, some of
which happen inside a training step, are spans named ``bench.*``: they are
no layer, but as children they come off their parent's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import groundkit.benchkit as benchkit
import groundkit.cli as cli
import groundkit.core as core
import groundkit.geometry as geometry
import groundkit.grounder as grounder
import groundkit.grounder.io as grounder_io
import groundkit.grounder.model as model
import groundkit.numcore as numcore
import groundkit.rulekit as rulekit

perf = time.perf_counter


def patch(owner, attr: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace ``owner.attr`` and every groundkit module global bound to it.

    Returns the (namespace, name, original) triples needed to undo it.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    undo = [(owner, attr, original)]
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("groundkit"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)
    return undo


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _sample_id(args) -> str:
    return args[1].sample_id


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kept = 0
        self.step = 0
        self.batches: list[tuple[int, int]] = []   # (samples, tokens) per step
        self._open: list[int] = []
        self._batch = [0, 0]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, tag_of=None, units_of=None, before=None, after=None):
        spans, stack = self.spans, self._open

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before()
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                       tag_of(args) if tag_of else self.step, None]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf()
                    stack.pop()
                if units_of is not None:
                    rec[5] = units_of(args, result)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _count(self, name, hit=None):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                if hit is not None and hit(result):
                    counts[name + ".hit"] += 1
                return result
            return wrapper
        return make

    # -- hooks that keep per-step and per-run tallies -----------------------

    def _start_train(self) -> None:
        self._batch = [0, 0]

    def _add_tokens(self, args, result) -> None:
        self._batch[1] += result.sequence.data.shape[0]

    def _add_sample(self, args, result) -> None:
        self._batch[0] += 1

    def _end_step(self, args, result) -> None:
        self.batches.append((self._batch[0], self._batch[1]))
        self._batch = [0, 0]
        self.step += 1

    def _add_kept(self, args, result) -> None:
        self.kept += result.report.kept

    def install(self, own: list[tuple[object, str]]):
        """Wrap every traced function; returns the function that unwraps them.

        ``own`` names the benchmark's functions to time as ``bench.<attr>``.
        """
        s, c = self._span, self._count
        n_result = lambda args, result: len(result)
        targets = [
            (cli, "run", s("cli.run", tag_of=lambda a: a[0][0])),
            (core, "read_dataset", s("core.read_dataset", units_of=n_result)),
            (core, "read_feature_file", s(
                "core.read_feature_file",
                units_of=lambda a, r: sum(len(rows) for rows in r[1].values()))),
            (core, "write_dataset", s("core.write_dataset",
                                      units_of=lambda a, r: len(a[0]))),
            (rulekit, "read_qa_corpus", s("rulekit.read_qa_corpus", units_of=n_result)),
            (rulekit, "run_pipeline", s("rulekit.run_pipeline",
                                        units_of=lambda a, r: len(a[0]),
                                        after=self._add_kept)),
            (rulekit, "match_pattern", c("rulekit.match_pattern",
                                         hit=lambda r: r is not None)),
            (benchkit, "synth_generate", s("benchkit.synth_generate", units_of=n_result)),
            (benchkit, "run_baseline", s("benchkit.run_baseline",
                                         units_of=lambda a, r: len(a[1]))),
            (benchkit, "evaluate", s("benchkit.evaluate", units_of=lambda a, r: len(a[1]))),
            (geometry, "iou", c("geometry.iou")),
            (grounder, "train", s("grounder.train", before=self._start_train)),
            (model.GroundingModel, "sample_loss", s("grounder.sample_loss",
                                                    tag_of=_sample_id)),
            (model.GroundingModel, "embed_sample", s("grounder.embed", tag_of=_sample_id,
                                                     after=self._add_tokens)),
            (model.GroundingModel, "predict_sample", s("grounder.predict",
                                                       tag_of=_sample_id)),
            (model, "loss_cls", s("grounder.loss_cls")),
            (model, "loss_con", s("grounder.loss_con")),
            (model, "select_context_objects", s("grounder.select_context_objects",
                                                tag_of=lambda a: a[0].sample_id)),
            (grounder_io, "save_model", s("grounder.save_model")),
            (grounder_io, "load_model", s("grounder.load_model")),
            (numcore, "encode", s("numcore.encode")),
            (numcore.Graph, "backward", s("numcore.backward",
                                          units_of=lambda a, r: len(a[0].nodes),
                                          after=self._add_sample)),
            (numcore, "optimizer_step", s("numcore.optimizer_step", after=self._end_step)),
        ] + [(owner, attr, s(f"bench.{attr}")) for owner, attr in own]
        undo: list = []
        for owner, attr, make in targets:
            undo += patch(owner, attr, make)
        return lambda: unpatch(undo)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Per span name: total self seconds, call count and total units."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _tag, _units in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        units: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _tag, n) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            units[name] += n or 0
        return self_s, calls, units

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, *_ in self.spans if n == name]

    def step_intervals(self) -> list[float]:
        """Seconds between consecutive optimizer-step ends inside one train call.

        Time in ``bench.*`` spans between the two ends does not count.
        """
        out: list[float] = []
        last_end = None
        own = 0.0
        events = sorted((end, name, end - start) for name, start, end, *_ in self.spans
                        if name in ("grounder.train", "numcore.optimizer_step")
                        or name.startswith("bench."))
        for end, name, duration in events:
            if name.startswith("bench."):
                own += duration
            elif name == "grounder.train":
                last_end = None
            else:
                if last_end is not None:
                    out.append(end - last_end - own)
                last_end, own = end, 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag, units in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag, "units": units},
                                    separators=(",", ":")) + "\n")


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced phase; a layer that did not run reads 0."""
    self_s, calls, units = tracer.self_times()
    counts = tracer.counts

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    def per_call(name: str) -> float:
        return _per(ms(name), calls.get(name, 0))

    def per_unit(name: str) -> float:
        return _per(ms(name), units.get(name, 0))

    predict_ms = [1000.0 * d for d in tracer.durations("grounder.predict")]
    step_ms = [1000.0 * d for d in tracer.step_intervals()]
    samples, tokens = zip(*tracer.batches) if tracer.batches else ((0,), (0,))
    qa = units.get("rulekit.run_pipeline", 0)
    iou_samples = (units.get("benchkit.synth_generate", 0)
                   + calls.get("grounder.select_context_objects", 0))
    return {
        "numcore.encode.ms_per_sample": per_call("numcore.encode"),
        "numcore.backward.ms_per_sample": per_call("numcore.backward"),
        "numcore.optimizer_step.ms_per_step": per_call("numcore.optimizer_step"),
        "numcore.tape_nodes_per_sample": _per(units.get("numcore.backward", 0),
                                              calls.get("numcore.backward", 0)),
        "grounder.embed.ms_per_sample": per_call("grounder.embed"),
        "grounder.loss.ms_per_sample": _per(
            ms("grounder.loss_cls", "grounder.loss_con", "grounder.select_context_objects"),
            calls.get("grounder.sample_loss", 0)),
        "grounder.predict.ms_per_sample.p50": percentile(predict_ms, 50),
        "grounder.predict.ms_per_sample.p90": percentile(predict_ms, 90),
        "grounder.step_ms.p50": percentile(step_ms, 50),
        "grounder.step_ms.p90": percentile(step_ms, 90),
        "grounder.batch_samples": statistics.fmean(samples),
        "grounder.batch_tokens": statistics.fmean(tokens),
        "grounder.save_model.ms": per_call("grounder.save_model"),
        "grounder.load_model.ms": per_call("grounder.load_model"),
        "core.read_dataset.ms_per_sample": per_unit("core.read_dataset"),
        "core.read_feature_file.ms_per_row": per_unit("core.read_feature_file"),
        "core.write_dataset.ms_per_sample": per_unit("core.write_dataset"),
        "rulekit.read_qa_corpus.ms_per_qa": per_unit("rulekit.read_qa_corpus"),
        "rulekit.run_pipeline.ms_per_qa": per_unit("rulekit.run_pipeline"),
        "rulekit.match_pattern.calls_per_qa": _per(counts["rulekit.match_pattern"], qa),
        "rulekit.match_yield": _per(counts["rulekit.match_pattern.hit"],
                                    counts["rulekit.match_pattern"]),
        "rulekit.keep_ratio": _per(tracer.kept, qa),
        "benchkit.synth_generate.ms_per_sample": per_unit("benchkit.synth_generate"),
        "benchkit.run_baseline.ms_per_sample": per_unit("benchkit.run_baseline"),
        "benchkit.evaluate.ms_per_sample": per_unit("benchkit.evaluate"),
        "geometry.iou.calls_per_sample": _per(counts["geometry.iou"], iou_samples),
        "cli.self_ms": per_call("cli.run"),
    }
