"""handfit benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {train,track,ik,ik_joint} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
BLAS is pinned to one thread before numpy loads. The run sets up its
inputs from the seed (several times when that is cheap, reporting the
median), then measures whole passes of the workload's operations until
at least ``--seconds`` of operation time has been measured, checking
every output outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
untraced and one pass with every layer wrapped, prints the per-layer
metrics and writes the span file. Every run also writes its full record
(environment, latencies, computed counts) under ``perfbench/out/``.
The last line of standard output is always the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
# cheap set-ups repeat until this much set-up time; setup_s is their median
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20

# name -> unit; printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "error_mm": "mm",
    "tip_error_mm": "mm",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# name -> unit; printed with --trace 1 and defined in README.md
PER_LAYER = {
    "depth.render_ms": "ms",
    "depth.frames": "count",
    "forest.sample_s": "s",
    "forest.samples": "count",
    "forest.split_s": "s",
    "forest.build_leaf_s": "s",
    "forest.nodes": "count",
    "forest.leaves": "count",
    "forest.depth": "count",
    "forest.io_ms": "ms",
    "forest.bytes": "bytes",
    "forest.route_ms": "ms",
    "forest.votes_ms": "ms",
    "forest.votes": "count",
    "forest.vote_keep_ratio": "ratio",
    "meanshift.shift_ms": "ms",
    "meanshift.shift_calls": "count",
    "meanshift.shift_points": "count",
    "meanshift.mode_keep_ratio": "ratio",
    "meanshift.groups_s": "s",
    "meanshift.groups_calls": "count",
    "meanshift.groups_points": "count",
    "meanshift.dedup_s": "s",
    "proposals.ms": "ms",
    "proposals.per_joint": "count",
    "fit.stepwise_ms": "ms",
    "fit.joint_ms": "ms",
    "fit.pso_ms": "ms",
    "fit.pso_calls": "count",
    "fit.score_ms": "ms",
    "fit.objective_calls": "count",
    "fit.objective_rows": "count",
    "fit.objective_terms": "count",
    "fit.evals": "count",
    "fit.stepwise_evals": "count",
    "fit.joint_evals": "count",
    "fit.evals_per_s": "1/s",
    "fit.scored_joint_ratio": "ratio",
    "fit.pso_settled_gen_ratio": "ratio",
    "geometry.fk_ms": "ms",
    "geometry.fk_calls": "count",
    "geometry.fk_rows": "count",
    "geometry.fk_rows_per_call": "count",
    "geometry.fk_us_per_row": "us",
    "trace.op_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

# exact counts of work done; they repeat exactly for a seed
COMPUTED = (
    "depth.frames", "forest.samples", "forest.nodes", "forest.leaves",
    "forest.depth", "forest.bytes", "forest.votes", "forest.votes_kept",
    "forest.routed_patches", "meanshift.shift_calls", "meanshift.shift_points",
    "meanshift.modes_found", "meanshift.groups_calls", "meanshift.groups_points",
    "proposals.count", "fit.pso_calls", "fit.objective_calls",
    "fit.objective_rows", "fit.objective_terms", "fit.stepwise_evals",
    "fit.joint_evals", "geometry.fk_calls", "geometry.fk_rows",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "track", "ik", "ik_joint"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def finite(x):
    """JSON has no NaN: a metric with nothing to measure prints as null."""
    return x if x == x and abs(x) != float("inf") else None


class Runner:
    """Set-up, measured passes and checks of one workload.

    While untraced set-ups and operations run, the reference sampler is
    active; its kernel time is left out of each measured time. Reported
    times are wall times multiplied by the reference factor of their own
    span of time (see reference.py).
    """

    def __init__(self, workload_cls, ctx, workdir, sampler):
        self.make = lambda: workload_cls(ctx, workdir)
        self.sampler = sampler
        self.spans = {}    # op id or ("setup", n) -> (start, end, wall seconds)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.outcomes = {}

    def scaled(self, key):
        start, end, wall = self.spans[key]
        return wall * self.sampler.factor(start, end)

    def _timed(self, key, fn, tracer=None):
        """Run fn(), record its wall seconds without reference-kernel time."""
        self.sampler.active = tracer is None
        excluded = self.sampler.excluded
        start = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.span("op", key), tracer.install():
                    out = fn()
        finally:
            self.sampler.active = False
        end = time.perf_counter()
        self.spans[key] = (start, end, end - start - (self.sampler.excluded - excluded))
        return out

    def setup(self, tracer=None):
        """Set up once when traced; else repeat until SETUP_MIN_S of set-up
        time or SETUP_MAX_REPEATS set-ups. Returns their span keys."""
        keys = []
        total = 0.0
        while not keys or (tracer is None and total < SETUP_MIN_S
                           and len(keys) < SETUP_MAX_REPEATS):
            w = self.make()
            keys.append(("setup", len(keys)))
            self._timed(keys[-1], w.setup, tracer)
            total += self.spans[keys[-1]][2]
            self.sampler.sample_now()  # set-ups can be shorter than PERIOD_S
        self.w = w
        return keys

    def op(self, item, tracer=None):
        """Run, time and check one operation; returns its wall seconds."""
        op = self.attempted
        self.attempted += 1
        try:
            out = self._timed(op, lambda: self.w.run(item), tracer)
            outcome = self.w.check(item, out)
        except Exception as exc:  # one bad operation must not end the run
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {op} ({item!r}): "
                                     + "".join(traceback.format_exception_only(exc)).strip())
            self.spans.pop(op, None)
            return 0.0
        self.outcomes.setdefault(item, outcome)
        return self.spans[op][2]

    def one_pass(self, tracer=None):
        """Every operation once; with a tracer each runs untraced, then
        traced. Returns the wall seconds of the untraced ops."""
        untraced = 0.0
        for item in self.w.items():
            untraced += self.op(item)
            if tracer is not None:
                self.op(item, tracer)
        return untraced

    def measure(self, seconds):
        """Whole passes until `seconds` of operation wall time are measured."""
        measured = 0.0
        while measured < seconds:
            measured += self.one_pass()

    def end_to_end(self, setup_keys):
        ops = [k for k in self.spans if not isinstance(k, tuple)]
        lat = [self.scaled(k) for k in ops]
        lat_ms = [1e3 * t for t in lat] or [float("nan")]
        scored = list(self.outcomes.values())
        nan = float("nan")
        return {
            "setup_s": statistics.median(self.scaled(k) for k in setup_keys),
            "op_ms_p50": percentile(lat_ms, 50),
            "op_ms_p90": percentile(lat_ms, 90),
            "ops_per_s": len(lat) / sum(lat) if lat else nan,
            "error_mm": statistics.fmean(o.joint_error for o in scored) if scored else nan,
            "tip_error_mm": statistics.fmean(o.tip_error for o in scored) if scored else nan,
            "ok_frac": 1.0 - self.failed / max(self.attempted, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def layer_metrics(tracer, scale, ops, untraced_s, traced_s, forest_stats, forest_path):
    """Per-layer metrics and computed counts of the traced ops; span times
    are multiplied by their op's reference factor `scale[op]`."""
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    for name, op, self_t, dur in tracer.self_times():
        if isinstance(op, int):
            self_s[name] += self_t * scale[op]
            incl_s[name] += dur * scale[op]
            calls[name] += 1
    c = defaultdict(float)
    for op, counts in tracer.counts.items():
        if isinstance(op, int):
            for key, value in counts.items():
                c[key] += value
    n = max(ops, 1)

    def per_op_ms(*names):
        return 1e3 * sum(self_s[x] for x in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    stats = forest_stats or []
    c["forest.nodes"] = sum(s["nodes"] for s in stats)
    c["forest.leaves"] = sum(s["leaves"] for s in stats)
    c["forest.depth"] = max((s["depth"] for s in stats), default=0)
    c["forest.bytes"] = forest_path.stat().st_size if forest_stats else 0
    fit_s = incl_s["stepwise_fit"] + incl_s["joint_fit"]
    evals = c["fit.stepwise_evals"] + c["fit.joint_evals"]
    m = {
        "depth.render_ms": per_op_ms("render_depth"),
        "depth.frames": c["depth.frames"] / n,
        "forest.sample_s": per_op_ms("build_training_set") / 1e3,
        "forest.samples": c["forest.samples"] / n,
        "forest.split_s": per_op_ms("train_forest", "train_tree") / 1e3,
        "forest.build_leaf_s": per_op_ms("build_leaf") / 1e3,
        "forest.nodes": c["forest.nodes"],
        "forest.leaves": c["forest.leaves"],
        "forest.depth": c["forest.depth"],
        "forest.io_ms": per_op_ms("save_forest", "load_forest"),
        "forest.bytes": c["forest.bytes"],
        "forest.route_ms": per_op_ms("Tree.route"),
        "forest.votes_ms": per_op_ms("accumulate_votes"),
        "forest.votes": c["forest.votes"] / n,
        "forest.vote_keep_ratio": ratio(c["forest.votes_kept"], c["forest.votes"]),
        "meanshift.shift_ms": per_op_ms("mean_shift"),
        "meanshift.shift_calls": c["meanshift.shift_calls"] / n,
        "meanshift.shift_points": c["meanshift.shift_points"] / n,
        "meanshift.mode_keep_ratio": ratio(c["proposals.count"], c["meanshift.modes_found"]),
        "meanshift.groups_s": per_op_ms("mean_shift_groups") / 1e3,
        "meanshift.groups_calls": c["meanshift.groups_calls"] / n,
        "meanshift.groups_points": c["meanshift.groups_points"] / n,
        "meanshift.dedup_s": per_op_ms("dedup") / 1e3,
        "proposals.ms": per_op_ms("proposals_from_votes"),
        "proposals.per_joint": ratio(c["proposals.count"], c["proposals.joints"]),
        "fit.stepwise_ms": 1e3 * ratio(incl_s["stepwise_fit"], calls["stepwise_fit"]),
        "fit.joint_ms": 1e3 * ratio(incl_s["joint_fit"], calls["joint_fit"]),
        "fit.pso_ms": per_op_ms("pso_optimize"),
        "fit.pso_calls": c["fit.pso_calls"] / n,
        "fit.score_ms": per_op_ms("objective"),
        "fit.objective_calls": c["fit.objective_calls"] / n,
        "fit.objective_rows": c["fit.objective_rows"] / n,
        "fit.objective_terms": c["fit.objective_terms"] / n,
        "fit.evals": evals / n,
        "fit.stepwise_evals": ratio(c["fit.stepwise_evals"], c["fit.stepwise_calls"]),
        "fit.joint_evals": ratio(c["fit.joint_evals"], c["fit.joint_calls"]),
        "fit.evals_per_s": ratio(evals, fit_s),
        "fit.scored_joint_ratio": ratio(c["fit.useful_joints"], c["fit.scored_joints"]),
        "fit.pso_settled_gen_ratio": ratio(c["fit.pso_settled_generations"],
                                           c["fit.pso_generations"]),
        "geometry.fk_ms": per_op_ms("fk_batch"),
        "geometry.fk_calls": c["geometry.fk_calls"] / n,
        "geometry.fk_rows": c["geometry.fk_rows"] / n,
        "geometry.fk_rows_per_call": ratio(c["geometry.fk_rows"], c["geometry.fk_calls"]),
        "geometry.fk_us_per_row": 1e6 * ratio(self_s["fk_batch"], c["geometry.fk_rows"]),
        "trace.op_ms": 1e3 * traced_s / n,
        "trace.unattributed_ms": per_op_ms("op"),
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s) / n,
    }
    return m, {k: c[k] for k in COMPUTED}


def layer_self_ms(tracer, factor):
    """Self milliseconds by layer; `factor(op)` scales an op's spans and
    returns None for ops left out."""
    from tracing import LAYERS

    out = defaultdict(float)
    for name, op, self_t, _ in tracer.self_times():
        f = factor(op)
        if f is not None:
            out[LAYERS[name]] += 1e3 * self_t * f
    return dict(out)


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "handfit" / "__init__.py").is_file():
        print(f"error: no handfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import envinfo
    import workloads
    from reference import Reference, Sampler
    from tracing import Tracer

    size = workloads.SMOKE if args.smoke else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "env": envinfo.collect(ROOT, seed=args.seed)}

    sampler = Sampler(Reference())
    with workloads.workdir(OUT) as tmp, sampler.install():
        runner = Runner(cls, workloads.Context(args.seed, size), tmp, sampler)
        if args.trace:
            tracer = Tracer()
            setup_keys = runner.setup(tracer)
            runner.one_pass(tracer)
            # ops alternate untraced, traced: odd ids are the traced ones
            scale = {k: runner.sampler.factor(*runner.spans[k][:2])
                     for k in runner.spans if not isinstance(k, tuple)}
            untraced_s = sum(runner.spans[k][2] * f for k, f in scale.items() if k % 2 == 0)
            traced_s = sum(runner.spans[k][2] * f for k, f in scale.items() if k % 2 == 1)
            ops = len(runner.w.items())
            metrics, computed = layer_metrics(tracer, scale, ops, untraced_s, traced_s,
                                              runner.w.forest_stats(), runner.w.path)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                      "ops": ops, "scale": scale})
            unattributed = metrics["trace.unattributed_ms"] * ops / 1e3
            overhead = traced_s - untraced_s
            record.update({
                "spans": str(spans_path.relative_to(ROOT)),
                "computed": computed,
                "layer_self_ms": layer_self_ms(
                    tracer, lambda op: scale.get(op) if isinstance(op, int) else None),
                "setup_layer_self_ms": layer_self_ms(
                    tracer, lambda op: 1.0 if op == ("setup", 0) else None),
                "untraced_s": untraced_s, "traced_s": traced_s,
                "overhead_s": overhead, "unattributed_s": unattributed,
                # self times account for the traced time when what no layer
                # claims stays within the measured tracing overhead (1 % slack
                # for the noise between paired ops)
                "accounted": unattributed <= max(overhead, 0.0) + 0.01 * traced_s,
            })
            units = PER_LAYER
        else:
            setup_keys = runner.setup()
            runner.measure(args.seconds)
            metrics = runner.end_to_end(setup_keys)
            units = END_TO_END
        finished_ok = runner.w.finish()

    correct = runner.failed == 0 and finished_ok and runner.attempted > 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": finite(metrics[k]), "unit": u}
                          for k, u in units.items()}}
    record.update(result)
    record.update({
        "failures": runner.failures,
        "reference_samples_ms": [1e3 * k for _, k in sampler.samples],
        "setup_raw_s": [runner.spans[k][2] for k in setup_keys],
        "raw_latencies_ms": [1e3 * w for k, (_, _, w) in runner.spans.items()
                             if not isinstance(k, tuple)],
        "errors_mm": {str(item): [o.joint_error, o.tip_error]
                      for item, o in runner.outcomes.items()},
    })
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
