"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload track --seeds 1-10 [--seconds 15]

Runs ``perfbench/run.py`` once per seed, one run at a time, from the root
of the checkout, and prints per metric the values, their median and the
interquartile range as a share of the median (``statistics.quantiles``
with n=4), next to the bound ``BENCHMARK.json`` gives the metric. A
spread at or above the bound is marked ``!``; one at or above a third of
it is marked ``~``. With ``--json PATH`` the runs are also saved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """Interquartile range over the median, as the acceptance rule takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0, statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--json", help="save every run's result object here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = wall
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))

    print(f"\n{'metric':28s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or any(v is None for v in values):
            print(f"{name:28s} {values}")
            continue
        rel, med = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound:
            mark = "!" if rel >= bound else "~" if rel >= bound / 3 else ""
        print(f"{name:28s} {med:12.5g} {rel:8.4f} {bound if bound else '':>6} {mark}")
    walls = [r["wall_s"] for r in runs]
    print(f"{'wall_s':28s} {statistics.median(walls):12.5g} max {max(walls):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
