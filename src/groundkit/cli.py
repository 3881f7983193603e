"""Single command-line entry point.

Subcommands: transform, filter, stats, synth, train, eval, baseline,
gradcheck.  Machine-readable payloads go to stdout; human-readable logs and
tables go to stderr.  Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.  Errors are reported on stderr as one-line JSON
``{"error": ..., "detail": ...}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import benchkit, rulekit
from .core import (DataError, dataset_stats, filter_sample, read_dataset, read_header,
                   replace_file, write_dataset)
from .grounder import ModelConfig, TrainSchedule, read_config, train
from .grounder.gradients import GRADCHECK_THRESHOLD, run_gradient_suite
from .grounder.io import load_model, save_model
from .grounder.workers import blas_held_to_one_thread
from .numcore import CheckpointError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: object) -> None:
    print(json.dumps(payload, sort_keys=True))


def _resolve_dataset(path: str) -> Path:
    p = Path(path)
    return p / "dataset.jsonl" if p.is_dir() else p


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: a parse leaves no state in it."""
    parser = _Parser(prog="groundkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("transform", help="rewrite a QA corpus into grounding datasets")
    p.add_argument("--data", required=True, help="QA corpus .jsonl")
    p.add_argument("--rules", help="rules file (default: built-in rule set)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,validation,test fractions")

    p = sub.add_parser("filter", help="apply the sample filters to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output dataset .jsonl")

    p = sub.add_parser("stats", help="print corpus statistics as JSON")
    p.add_argument("--data", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--max-persons", type=int, default=5)
    p.add_argument("--d-vis", type=int, default=32)
    p.add_argument("--context-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .jsonl (or directory)")

    p = sub.add_parser("train", help="train the grounding model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="model config file (default config if omitted)")
    p.add_argument("--out", required=True, help="run directory for checkpoint+logs")
    p.add_argument("--steps", type=int, help="override training steps")
    p.add_argument("--lr", type=float, help="override learning rate")
    p.add_argument("--token-budget", type=int, help="override batch token budget")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="override the contrastive loss weight")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--no-context-objects", dest="use_context_objects",
                   action="store_false", default=None,
                   help="drop detected context objects from the input sequence")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="run directory produced by train")

    p = sub.add_parser("baseline", help="run a heuristic baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--name", required=True, choices=sorted(benchkit.BASELINES))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p.add_argument("--config", required=True, help="model config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_transform(args) -> int:
    rules = rulekit.load_rules(args.rules) if args.rules else rulekit.default_rules()
    try:
        fractions = [float(x) for x in args.split.split(",")]
        if len(fractions) != 3:
            raise ValueError("need exactly three fractions")
        spec = rulekit.SplitSpec(*fractions, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"bad --split value: {exc}") from None
    corpus = rulekit.read_qa_corpus(args.data)
    header = read_header(args.data)
    result = rulekit.run_pipeline(corpus, rules, spec)
    out = Path(args.out)
    for name, samples in (("train", result.train), ("validation", result.validation),
                          ("test", result.test)):
        write_dataset(samples, out / f"{name}.jsonl", header=header)
    report = asdict(result.report)
    replace_file(out / "report.json",
                 json.dumps(report, sort_keys=True, indent=2).encode("utf-8"))
    _emit(report)
    return EXIT_OK


def _cmd_filter(args) -> int:
    samples = read_dataset(_resolve_dataset(args.data), strict=False)
    header = read_header(_resolve_dataset(args.data))
    reasons = {sample.sample_id: filter_sample(sample) for sample in samples}
    kept = [sample for sample in samples if reasons[sample.sample_id] is None]
    drop_ids = {sid: reason.value for sid, reason in reasons.items() if reason is not None}
    write_dataset(kept, args.out, header=header)
    _emit({"input": len(samples), "kept": len(kept),
           "drops": Counter(drop_ids.values()), "drop_ids": drop_ids})
    return EXIT_OK


def _cmd_stats(args) -> int:
    samples = read_dataset(_resolve_dataset(args.data))
    _emit(dataset_stats(samples))
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        config = benchkit.SynthConfig(n_samples=args.n, max_persons=args.max_persons,
                                      d_vis=args.d_vis, context_rate=args.context_rate,
                                      seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"bad synth option: {exc}") from None
    samples = benchkit.synth_generate(config)
    out = Path(args.out)
    if out.suffix != ".jsonl":
        out = out / "dataset.jsonl"
    write_dataset(samples, out)
    _emit({"path": str(out), "n_samples": len(samples)})
    return EXIT_OK


def _cmd_train(args) -> int:
    data = _resolve_dataset(args.data)
    samples, header = read_dataset(data), read_header(data)
    config, schedule = (read_config(args.config) if args.config
                        else (ModelConfig(), TrainSchedule()))
    # an empty dataset has no features to match (its header may say d_vis
    # 0); train refuses it without the adjustment
    if samples and config.d_vis != header.d_vis:
        try:
            adjusted = replace(config, d_vis=header.d_vis)
        except ValueError as exc:
            raise DataError(f"{data}: header d_vis {header.d_vis} ({exc})") from None
        _log(f"adjusting d_vis {config.d_vis} -> {header.d_vis} to match the dataset")
        config = adjusted
    try:
        config, schedule = _with_flags(config, args), _with_flags(schedule, args)
    except ValueError as exc:
        raise UsageError(f"bad option: {exc}") from None

    # the run directory and its log appear at the first step, once train has
    # accepted the data, so a refused run leaves nothing behind
    out = Path(args.out)
    log_fh = None

    def on_step(step: int, loss: float) -> None:
        nonlocal log_fh
        if log_fh is None:
            out.mkdir(parents=True, exist_ok=True)
            log_fh = open(out / "loss_log.jsonl", "w", encoding="utf-8")
        log_fh.write(json.dumps({"step": step, "loss": loss}) + "\n")
        if step % 25 == 0:
            _log(f"step {step}: loss {loss:.4f}")

    try:
        result = train(samples, config, schedule, on_step=on_step)
    finally:
        if log_fh is not None:
            log_fh.close()
    ckpt = save_model(result.model, out)
    _emit({"checkpoint": str(ckpt), "steps": len(result.losses),
           "final_loss": result.losses[-1]})
    return EXIT_OK


def _with_flags(config, args):
    """``config`` with every field replaced that a given flag of the same name sets."""
    given = {f.name: getattr(args, f.name) for f in fields(config)
             if getattr(args, f.name, None) is not None}
    return replace(config, **given)


def _score(label: str, predictions, samples) -> int:
    """The accuracy report: a table on stderr, the JSON on stdout."""
    report = benchkit.evaluate(predictions, samples)
    _log(benchkit.render_table(label, report))
    _emit(report)
    return EXIT_OK


def _cmd_eval(args) -> int:
    samples = read_dataset(_resolve_dataset(args.data))
    predictions = load_model(args.checkpoint).predict(samples)
    return _score(Path(args.checkpoint).name or "model", predictions, samples)


def _cmd_baseline(args) -> int:
    samples = read_dataset(_resolve_dataset(args.data))
    return _score(args.name, benchkit.run_baseline(args.name, samples, seed=args.seed), samples)


def _cmd_gradcheck(args) -> int:
    config = read_config(args.config)[0]
    try:
        report = run_gradient_suite(config, seed=args.seed, epsilon=args.epsilon, warn=_log)
    except ValueError as exc:
        # the config has passed its checks: what is left to refuse is the
        # flags, an --epsilon outside grad_check's range or a negative --seed
        raise UsageError(f"bad gradcheck option: {exc}") from None
    _emit(report)
    worst = max(report["max_rel_error"].values())
    if worst > GRADCHECK_THRESHOLD:
        _log(f"gradient check FAILED: {worst:.3e} > {GRADCHECK_THRESHOLD}")
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


_COMMANDS = {
    "transform": _cmd_transform,
    "filter": _cmd_filter,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "baseline": _cmd_baseline,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing subcommand")
        # toy-sized products gain no time from more BLAS threads, and
        # train's pass workers need the count at one
        with blas_held_to_one_thread():
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(json.dumps({"error": "data", "detail": str(exc)}), file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
