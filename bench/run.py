"""groundkit benchmark: one workload and one seed per run.

    python3 bench/run.py --workload {train,infer,build} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports groundkit from
``src/`` and works in ``.bench_work/`` under the current directory.  The
set-up makes the workload's inputs from the seed four times, and each
repetition must write the same bytes.  The last repetition runs in a child
process with another ``PYTHONHASHSEED``, so output that depends on the
process, not only on the seed, fails the check.  The timed phase then
repeats the workload's round until ``--seconds`` have passed (at least two
rounds).
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the traced rounds must write what the untraced ones wrote.

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (commands and output checks) and ``metrics``, which holds the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  The full record (environment, every round,
every check) goes to ``.bench_work/<workload>-seed<N>-trace<T>/results.json``,
next to ``spans.jsonl`` when traced.  Without ``src/groundkit`` the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 4   # the last one in a child process
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "infer", "build"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs for the schema smoke test; figures mean nothing")
    p.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str | None:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = REPO / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(params: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": params,
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def rate(session, tables: list[dict[str, tuple]], phase: str) -> float:
    """Units per normalised second of ``phase`` over request tables; 0 if none ran."""
    rows = [r for table in tables for r in table.values() if r[0] == phase]
    seconds = sum(map(session.normalised_seconds, rows))
    return sum(r[1] for r in rows) / seconds if seconds else 0.0


def run_setup(session, workload, d: Path, seed: int) -> dict:
    """One timed set-up into ``d``; its time is normalised by the kernel runs inside it."""
    import workloads

    session.requests = {}
    first_kernel = len(session.kernels)
    start = perf()
    workload.setup(session, d, seed)
    raw = perf() - start - sum(session.kernels[first_kernel:])
    kernel_mean = statistics.fmean(session.kernels[first_kernel:])
    return {"raw_seconds": raw, "kernel_mean_s": kernel_mean,
            "seconds": raw * workloads.KERNEL_REF_S / kernel_mean,
            "requests": session.requests, "outputs": workloads.tree_digest(d)}


def setup_in_child(args, session, d: Path) -> dict | None:
    """Run one set-up in a child process whose ``PYTHONHASHSEED`` differs from ours.

    The child's kernel runs are appended to ``session.kernels`` and its
    requests re-indexed, so they are normalised like the parent's.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--setup-child", str(d)] + (["--toy"] if args.toy else [])
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        session.check("set-up in a child process", False, f"timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        session.check("set-up in a child process", False,
                      f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    offset = len(session.kernels)
    session.kernels.extend(child.pop("kernels"))
    child["requests"] = {label: (phase, units, seconds, first + offset)
                         for label, (phase, units, seconds, first) in child["requests"].items()}
    session.attempted += child.pop("attempted")
    session.failed += child.pop("failed")
    session.checks.extend(child.pop("checks"))
    child["pythonhashseed"] = env["PYTHONHASHSEED"]
    return child


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "groundkit" / "__init__.py").is_file():
        print(f"no groundkit sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))

    import tracing
    import workloads

    if not workloads.CONFIG.is_file():
        print(f"missing model config {workloads.CONFIG}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    workload = workloads.WORKLOADS[args.workload](args.toy)
    session = workloads.Session()
    remove_taps = session.install_taps()
    if args.setup_child:
        try:
            setup = run_setup(session, workload, args.setup_child, args.seed)
            session.calibrate()   # kernel runs after the last request, as in the parent
        finally:
            remove_taps()
        print(json.dumps({**setup, "kernels": session.kernels, "attempted": session.attempted,
                          "failed": session.failed, "checks": session.checks}, default=str))
        return 0

    out_dir = Path.cwd() / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    data = out_dir / "data"
    data.mkdir(parents=True)
    setups: list[dict] = []
    rounds: list[dict] = []
    tracer = None
    try:
        for i in range(SETUP_REPEATS - 1):
            setups.append(run_setup(session, workload, data / f"setup{i}", args.seed))
        child = setup_in_child(args, session, data / f"setup{SETUP_REPEATS - 1}")
        if child is not None:
            setups.append(child)
        session.check("set-up repeats write identical bytes, one in a child process",
                      len(setups) == SETUP_REPEATS
                      and all(s["outputs"] == setups[0]["outputs"] for s in setups),
                      [s.get("pythonhashseed") for s in setups])
        inputs = data / "setup0"
        workload.prepare(inputs)

        def run_rounds(budget: float, min_rounds: int, traced: bool) -> None:
            start = perf()
            last = 0.0
            done = 0
            while done < min_rounds or perf() - start + last <= budget:
                out = data / f"round{len(rounds)}"
                session.requests = {}
                first = len(session.kernels)
                t0 = perf()
                outputs, details = workload.round(session, inputs, out)
                last = perf() - t0
                rounds.append({"traced": traced, "seconds": last,
                               "requests": session.requests, "outputs": outputs,
                               "details": details,
                               "kernel_mean_s": statistics.fmean(session.kernels[first:])})
                shutil.rmtree(out, ignore_errors=True)
                done += 1

        run_rounds(args.seconds / 2 if args.trace else args.seconds,
                   1 if args.trace else 2, False)
        if args.trace:
            tracer = tracing.Tracer()
            remove_trace = tracer.install(own=[(workloads.Session, "calibrate")])
            try:
                run_rounds(args.seconds / 2, 1, True)
            finally:
                remove_trace()
        for i, r in enumerate(rounds[1:], start=1):
            label = "traced round" if r["traced"] else f"round {i}"
            session.check(f"{label} writes what round 0 wrote",
                          r["outputs"] == rounds[0]["outputs"])
    finally:
        remove_taps()
        shutil.rmtree(data, ignore_errors=True)

    untraced = [r["requests"] for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r["requests"] for r in rounds if r["traced"]]

        def round_seconds(tables):
            return sum(session.normalised_seconds(r) for t in tables
                       for r in t.values()) / len(tables)

        values = tracing.layer_metrics(tracer)
        values["trace.overhead_frac"] = round_seconds(traced) / round_seconds(untraced) - 1.0
        units = per_layer
        tracer.write_spans(out_dir / "spans.jsonl")
    else:
        setup_tables = [s["requests"] for s in setups]
        values = {
            "setup_s": statistics.median(s["seconds"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "main.samples_per_s": rate(session, untraced, "main"),
            "aux.samples_per_s": rate(session, untraced, "aux"),
            "synth.samples_per_s": (rate(session, untraced, "synth")
                                    or rate(session, setup_tables, "synth")),
        }
        units = end_to_end
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with "
                         "BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}

    record = {
        "environment": environment({"name": args.workload, "seed": args.seed,
                                    "seconds": args.seconds, "trace": args.trace,
                                    "toy": args.toy, **workload.params(args.seed)}),
        "result": result,
        "fail_rate": session.failed / session.attempted,
        # set-up and round-0 outputs stay, so two runs of a seed can be compared;
        # the checks above compare the later rounds with round 0
        "setups": setups,
        "rounds": rounds[:1] + [{k: v for k, v in r.items() if k != "outputs"}
                                for r in rounds[1:]],
        "checks": session.checks,
    }
    (out_dir / "results.json").write_text(json.dumps(record, indent=1, default=str),
                                          encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    for c in session.checks:
        if not c["ok"]:
            print(f"FAILED {c['name']}: {json.dumps(c['detail'], default=str)[:500]}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
