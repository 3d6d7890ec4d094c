"""Compare two sets of result records of one workload.

    python3 perfbench/compare.py --base perfbench/out/A*.json --new perfbench/out/B*.json

Each file is a record ``run.py`` wrote under ``perfbench/out/``. Results
are comparable only when every record has the same workload, trace mode
and BLAS thread count, and both sides hold the same seeds; otherwise the
comparison is refused with exit code 2. Per metric it prints both
medians and the change as a share of the base median, and marks an
end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` (exit code 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class NotComparable(ValueError):
    """The two sets were measured under different conditions."""


def check_comparable(base, new):
    """Raise NotComparable unless `base` and `new` can be compared."""
    records = base + new
    if not base or not new:
        raise NotComparable("each side needs at least one record")
    for key in ("workload", "trace", "smoke"):
        values = {r.get(key) for r in records}
        if len(values) > 1:
            raise NotComparable(f"records differ in {key}: {sorted(map(str, values))}")
    threads = {r["env"]["blas"]["threads"] for r in records}
    if len(threads) > 1:
        raise NotComparable(f"records differ in BLAS thread count: {sorted(map(str, threads))}")
    base_seeds = sorted(r["seed"] for r in base)
    new_seeds = sorted(r["seed"] for r in new)
    if base_seeds != new_seeds:
        raise NotComparable(f"seeds differ: base {base_seeds}, new {new_seeds}")


def compare(base, new, bench):
    """Rows of (metric, unit, base median, new median, change, verdict)."""
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        if None in b or None in n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / abs(mb) if mb else 0.0
        spec = specs.get(name, {})
        worse = change if spec.get("better", "lower") == "lower" else -change
        bound = spec.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "REGRESSED" if worse > bound else "ok"
        rows.append((name, base[0]["metrics"][name]["unit"], mb, mn, change, verdict))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base = [json.loads(Path(f).read_text()) for f in args.base]
    new = [json.loads(Path(f).read_text()) for f in args.new]
    try:
        check_comparable(base, new)
    except NotComparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, bench)
    print(f"{'metric':28s} {'unit':6s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for name, unit, mb, mn, change, verdict in rows:
        print(f"{name:28s} {unit:6s} {mb:12.5g} {mn:12.5g} {change:+8.2%} {verdict}")
    return 1 if any(r[5] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
