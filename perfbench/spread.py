"""Run the benchmark once per seed and report each metric's median and
quartile spread (interquartile distance as a share of the median), the
figure the end-to-end bounds in BENCHMARK.json are checked against.  Each
run's full report is kept in .bench_out/.

    python3 perfbench/spread.py --workload extract-long --seeds 1-10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]}
    runs = []
    OUT_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        report = OUT_DIR / f"spread-{args.workload}-seed{seed}.txt"
        report.write_text(proc.stdout + proc.stderr, "utf-8")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']}"
              f" in {elapsed:.1f} s (report in {report.name})", flush=True)
        runs.append(result["metrics"])
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        limit = f"  bound {bound}" if bound is not None else ""
        print(f"{name:<34} median {median:<12.6g} spread {spread:7.4f}{limit}"
              f"  values {' '.join(f'{v:.6g}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
