"""Parameter sweeps reproducing the ablation trends: CSV tables + SVG plots."""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from . import fit, metrics, svgplot, workers
from .config import write_csv
from .forest import proposals_from_votes

EXPERIMENTS = ("k", "top-n", "stepwise-vs-joint")


def pso_config(cfg, seed, **overrides):
    """The run config's PsoConfig for `seed`, with `overrides` of its fields."""
    return cfg.build(fit.PsoConfig, "pso", seed=seed, **overrides)


# matched budgets: 64^2 + 5*29^2 = 8301 vs 91^2 = 8281 objective evaluations
MATCHED_BUDGETS = {
    "stepwise": dict(palm_particles=64, palm_generations=64,
                     finger_particles=29, finger_generations=29),
    "joint": dict(joint_particles=91, joint_generations=91),
}


def _arm(psets, gt_list, geom, limits, pso_cfg, mode, threads=1):
    """Fit a sequence in one mode, frames in up to `threads` workers;
    returns (error metrics, mean evals per frame)."""
    joints, fits = fit.fit_frames(psets, geom, limits, pso_cfg, mode, threads)
    results = [metrics.FrameResult.compute(i, pred, gt, sentinel=pso_cfg.d_max_mm)
               for i, (pred, gt) in enumerate(zip(joints, gt_list))]
    curve = metrics.success_rate_curve(results, [20.0, 40.0])
    return {
        "mean_error_mm": metrics.mean_joint_error(results),
        "fingertip_error_mm": metrics.fingertip_error(results),
        "success_20mm": float(curve.fractions[0]),
        "success_40mm": float(curve.fractions[1]),
    }, float(np.mean([r.evals if r else 0 for r in fits]))  # None: fell back


def _oracle_error(psets, gt_list, sentinel):
    results = [metrics.FrameResult.compute(i, metrics.oracle_select(p, gt), gt,
                                           sentinel=sentinel)
               for i, (p, gt) in enumerate(zip(psets, gt_list))]
    return metrics.mean_joint_error(results)


def topn_values(experiment, cfg):
    """The top_n values the experiment's proposals take: the
    `sweep.topn_grid` points for `top-n`, else `forest.top_n` alone."""
    if experiment == "top-n":
        return cfg.int_list("sweep.topn_grid")
    return [cfg["forest.top_n"]]


def votes_read(experiment, cfg):
    """The most votes per joint the experiment's proposals read: its
    largest top_n. Each joint's top votes of that many serve every point."""
    return max(topn_values(experiment, cfg))


def run_sweep(experiment, votes_per_frame, gt_list, geom, limits, cfg,
              out_dir, seeds=None, threads=1):
    """Run one ablation experiment and write table.csv + plot.svg; the
    proposals and each arm's fits take up to `threads` forked workers.

    votes_per_frame: per-frame joint->votes dicts (fixed vote sets, so the
    k sweep sees identical inputs at every k); each joint's top
    `votes_read(experiment, cfg)` votes (`forest.top_votes`) give the same
    tables as all of them.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; pick from {EXPERIMENTS}")
    out_dir = Path(out_dir)
    if seeds is None:
        seeds = list(range(cfg["eval.seeds"]))
    d_max = cfg["pso.d_max_mm"]

    def proposals(top_n, k):
        return workers.map_ordered(functools.partial(
            proposals_from_votes, top_n=top_n, k=k,
            bandwidth_mm=cfg["forest.infer_bandwidth_mm"],
            max_iters=cfg["forest.meanshift_iters"]), votes_per_frame, threads)

    rows = []
    top_ns = topn_values(experiment, cfg)
    if experiment == "stepwise-vs-joint":
        [top_n] = top_ns
        psets = proposals(top_n, cfg["forest.k"])
        for seed in seeds:
            for mode, budget in MATCHED_BUDGETS.items():
                arm, evals = _arm(psets, gt_list, geom, limits,
                                  pso_config(cfg, seed, **budget), mode, threads)
                rows.append({"method": mode, "seed": seed, **arm,
                             "evals_per_frame": evals})
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_table(out_dir / "table.csv", rows)
        _plot_methods(out_dir / "plot.svg", rows)
        return rows

    if experiment == "k":
        [top_n] = top_ns
        param, grid = "k", cfg.int_list("sweep.k_grid")
        full = proposals(top_n, max(grid))
        psets_at = lambda k: [p.top_k(k) for p in full]
        labels = dict(title="error vs proposals per joint", xlabel="k")
    else:
        param, grid = "top_n", top_ns
        psets_at = lambda top_n: proposals(top_n, cfg["forest.k"])
        labels = dict(title="error vs retained votes", xlabel="votes into mean-shift")
    for value in grid:
        psets = psets_at(value)
        oracle = _oracle_error(psets, gt_list, d_max)
        for seed in seeds:
            arm, evals = _arm(psets, gt_list, geom, limits, pso_config(cfg, seed),
                              "stepwise", threads)
            rows.append({param: value, "seed": seed, **arm,
                         "oracle_error_mm": oracle, "evals_per_frame": evals})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "table.csv", rows)
    _plot_grouped(out_dir / "plot.svg", rows, param, "oracle_error_mm", **labels)
    return rows


def _write_table(path, rows):
    if not rows:
        return
    header = list(rows[0])
    write_csv(path, header, ([_cell(row[h]) for h in header] for row in rows))


def _cell(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _plot_grouped(path, rows, param, oracle_key, *, title, xlabel):
    values = sorted({row[param] for row in rows})
    means, stds, oracle = [], [], []
    for v in values:
        errs = [row["mean_error_mm"] for row in rows if row[param] == v]
        means.append(float(np.mean(errs)))
        stds.append(float(np.std(errs)))
        oracle.append([row[oracle_key] for row in rows if row[param] == v][0])
    svgplot.line_plot(path, [
        {"label": "optimised", "x": values, "y": means, "yerr": stds},
        {"label": "oracle", "x": values, "y": oracle},
    ], title=title, xlabel=xlabel, ylabel="mean joint error (mm)")


def _plot_methods(path, rows):
    methods = sorted({row["method"] for row in rows})
    series = []
    for m in methods:
        pts = sorted((row["seed"], row["mean_error_mm"])
                     for row in rows if row["method"] == m)
        series.append({"label": m, "x": [p[0] for p in pts],
                       "y": [p[1] for p in pts]})
    svgplot.line_plot(path, series, title="stepwise vs joint optimisation",
                      xlabel="seed", ylabel="mean joint error (mm)")
