"""Benchmark of scholarparse: three workloads, end-to-end metrics, and a
traced per-layer breakdown.

Run it from the root of a checkout; it needs nothing built:

    python3 perfbench/run.py --workload extract-batch --seed 0 --seconds 25 --trace 0

Workloads are ``extract-batch``, ``extract-long`` and ``train`` (see
``workloads.py``).  With ``--trace 0`` the run measures the end-to-end
metrics with no tracing; with ``--trace 1`` it alternates untraced and
traced passes, reports per-layer metrics from the traced ones and the
tracing overhead against the untraced ones, and writes every span to
``.bench_out/``.  A report is printed first; the last line of standard
output is one JSON object.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import stats
from reference import REFERENCE_MS, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 7
SETUP_CODE = """\
import time
start = time.perf_counter()
import scholarparse
scholarparse.load_default_models()
print(time.perf_counter() - start)
"""
# Reference kernel calls just before and just after each set-up
# interpreter, which give the machine's slowness while it ran.
SETUP_REFERENCE_CALLS = 10

END_TO_END = {
    "docs_per_s": "docs/s",
    "doc_ms_p50": "ms",
    "doc_ms_tail": "ms",
    "micro_f": "F1",
    "train_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MEANING = {
    "docs_per_s": "completed documents per second of parse -> extract -> TEI",
    "doc_ms_p50": "median per-document latency",
    "micro_f": "micro-averaged token F over all report fields",
    "setup_s": f"fresh interpreter: import + load_default_models, "
               f"median of {SETUP_REPEATS}",
    "peak_rss_mb": "peak resident memory of this process",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(repeats: int) -> list[tuple[float, float]]:
    """(seconds, slowness) of import + model load in fresh interpreters,
    the slowness from reference kernel calls made in this process right
    before and after each; the first run, which also compiles byte code,
    is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    Reference().warm()
    for i in range(repeats + 1):
        ref = Reference()
        for _ in range(SETUP_REFERENCE_CALLS):
            ref.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for _ in range(SETUP_REFERENCE_CALLS):
            ref.sample()
        if i:
            times.append((float(proc.stdout.split()[-1]), ref.slowness()))
    return times


def _unscaled(start=None, end=None) -> float:
    return 1.0


def timings(workload, run, micro_f, setup_s, min_samples, slowness=_unscaled):
    """The end-to-end metrics, each measured interval divided by
    ``slowness(start, end)``: by 1.0 as measured, or by the reference
    kernel's slowness around it (``reference.py``); ``setup_s`` holds set-up
    times already scaled the same way, or not.  The rate is taken
    over all untraced passes together, the median per pass and then over
    passes; the tail uses every sample."""
    untraced = [p for p in run.passes if not p.traced and p.latencies]
    if not untraced:  # every document failed; the checks report it
        return None
    per_pass = [[x / slowness(t, t + x) for t, x in zip(p.starts, p.latencies)]
                for p in untraced]
    latencies = [x for xs in per_pass for x in xs]
    if workload == "train":
        train_s = statistics.median(
            p.train_s / slowness(p.train_start, p.train_start + p.train_s)
            for p in untraced)
    else:
        train_s = statistics.median(
            p.wall / slowness(p.start, p.start + p.wall + p.reference_s)
            for p in untraced)
    return {
        "docs_per_s": len(latencies) / sum(latencies),
        "doc_ms_p50": statistics.median(statistics.median(xs)
                                        for xs in per_pass) * 1e3,
        "doc_ms_tail": stats.percentile(
            latencies, stats.tail_percentile(min_samples)) * 1e3,
        "micro_f": micro_f,
        "train_s": train_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(workload, run, micro_f, setup, min_samples):
    """(scaled metrics, notes, metrics as measured)."""
    raw = timings(workload, run, micro_f, [seconds for seconds, _ in setup],
                  min_samples)
    if raw is None:
        return {name: 0.0 for name in END_TO_END}, {}, {}
    metrics = timings(workload, run, micro_f,
                      [seconds / slow for seconds, slow in setup], min_samples,
                      run.reference.slowness)
    latencies = sum(len(p.latencies) for p in run.passes if not p.traced)
    pct = stats.tail_percentile(min_samples)
    notes = {
        "doc_ms_tail": f"p{pct:g} of {latencies} samples (percentile "
                       f"fixed by the workload's floor of "
                       f"{min_samples} samples)",
        "train_s": ("median wall time of train_all" if workload == "train" else
                    "this workload trains nothing: median wall time of one "
                    "pass over its inputs"),
    }
    if workload == "train":
        notes["docs_per_s"] = "held-out articles, extracted with the new models"
    return metrics, notes, raw


def per_layer(run):
    metrics = layers.mean_metrics(
        [layers.pass_metrics(spans) for spans in layers.split_passes(
            run.tracer.spans)])
    traced = statistics.fmean(p.wall for p in run.passes if p.traced)
    untraced = statistics.fmean(p.wall for p in run.passes if not p.traced)
    metrics["trace.overhead"] = traced / untraced - 1
    metrics["error_rate"] = run.tally.raised / run.tally.attempted
    return metrics


def write_spans(run, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    origin = run.tracer.spans[0].start if run.tracer.spans else 0.0
    with path.open("w", encoding="utf-8") as out:
        for i, s in enumerate(run.tracer.spans):
            out.write(json.dumps({
                "id": i, "name": s.name, "parent": s.parent, "doc": s.doc,
                "start_ms": (s.start - origin) * 1e3,
                "end_ms": (s.end - origin) * 1e3,
                "error": s.error, "attrs": s.attrs}) + "\n")
    return path


def check(workload, inputs_seed, run, micro_f, expected) -> list[str]:
    """The correctness checks beyond those made while documents ran."""
    problems = list(run.tally.problems)
    digests = {p.digest for p in run.passes}
    if len(digests) != 1:
        problems.append(f"passes gave different output: {sorted(digests)}")
    if inputs_seed == DEFAULT_SEED:
        want = expected["digests"][workload]
        got = run.passes[0].digest
        if got != want:
            problems.append(f"digest of the default-seed inputs is {got}, "
                            f"recorded {want}")
    floor = expected["micro_f_floor"][workload]
    if micro_f < floor:
        problems.append(f"micro_f {micro_f:.4f} below the floor {floor}")
    return problems


def pin_to_one_cpu() -> int:
    """Keep this process, and the set-up interpreters it starts, on one
    CPU, so the reference kernel always runs on the CPU whose speed it is
    to measure; the two CPUs of a shared host can run at different speeds
    at the same moment.  Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    if not (SRC / "scholarparse" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/scholarparse",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scholarparse
    if Path(scholarparse.__file__).resolve().parent != SRC / "scholarparse":
        print(f"error: imported scholarparse from {scholarparse.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.MIN_SAMPLES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.MIN_SAMPLES)}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))

    start = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed)
    inputs_s = time.perf_counter() - start
    setup = [] if args.trace else setup_seconds(SETUP_REPEATS)
    run = workloads.run(args.workload, inputs, args.seconds, bool(args.trace))
    micro_f = workloads.micro_f(run.passes[0].results)
    problems = check(args.workload, inputs.seed, run, micro_f, expected)
    correct = not problems and run.tally.failed == 0

    first = run.passes[0]
    untraced = [p for p in run.passes if not p.traced]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  python {sys.version.split()[0]}"
          f"  cpus {os.cpu_count()}, pinned to cpu {cpu}")
    print(f"inputs: {len(inputs.documents)} documents per pass"
          + (f" ({sum(d.truth is None for d in inputs.documents)} damaged)"
             if args.workload == "extract-batch" else "")
          + (f", {len(inputs.training)} training articles"
             if inputs.training else "")
          + (f"; {statistics.mean(first.tokens):.0f} tokens per clean "
             f"document" if first.tokens else "")
          + f"; generated in {inputs_s:.1f} s")
    print(f"passes: {len(untraced)} untraced, {len(run.passes) - len(untraced)}"
          f" traced, in {run.elapsed:.1f} s")
    print(f"operations: {run.tally.attempted} attempted, {run.tally.raised} "
          f"raised, {run.tally.failed} failed; error_rate "
          f"{run.tally.raised / run.tally.attempted:.4f} fraction")
    print(f"digest of pass 1: {first.digest}")

    if args.trace:
        metrics = per_layer(run)
        units = layers.metric_units()
        absent = layers.absent_metrics(sorted(set(run.tracer.absent)))
        wall = metrics["trace.wall_ms"]
        print(f"per-layer self time per traced pass (traced wall "
              f"{wall:.1f} ms, tracing overhead "
              f"{metrics['trace.overhead'] * 100:+.1f}% against untraced "
              f"passes):")
        total = 0.0
        for name in layers.LAYER_METRIC.values():
            total += metrics[name]
            print(f"  {name:<24} {metrics[name]:10.2f} ms "
                  f"{metrics[name] / wall * 100:6.1f}%")
        print(f"  {'sum':<24} {total:10.2f} ms {total / wall * 100:6.1f}%")
        for name in sorted(units):
            note = "  (absent: the function is gone)" if name in absent else ""
            print(f"  {name:<34} {metrics[name]:.6g} {units[name]}{note}")
        print(f"spans written to {write_spans(run, args.workload, args.seed)}")
        out = {name: {"value": metrics[name], "unit": units[name]}
               for name in units}
    else:
        metrics, notes, raw = end_to_end(
            args.workload, run, micro_f, setup,
            workloads.MIN_SAMPLES[args.workload])
        slowness = run.reference.slowness()
        print(f"reference kernel: median {slowness * REFERENCE_MS:.4f} ms over "
              f"{len(run.reference.samples)} calls, slowness {slowness:.4f}; "
              f"set-up slowness median "
              f"{statistics.median(slow for _, slow in setup):.4f}")
        print(f"  {'metric':<12} {'scaled':>12} {'unit':<7} {'measured':>12}")
        for name, unit in END_TO_END.items():
            note = notes.get(name, MEANING.get(name, ""))
            print(f"  {name:<12} {metrics[name]:12.6g} {unit:<7} "
                  f"{raw.get(name, 0.0):12.6g}  {note}")
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END.items()}

    for message in problems:
        print(f"CHECK FAILED: {message}")
    print("checks: " + ("all passed" if correct else "FAILED"))
    print(json.dumps({"correct": correct, "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
