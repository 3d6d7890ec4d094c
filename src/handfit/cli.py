"""Command-line pipeline: synth, train, infer, fit, eval, sweep, pipeline."""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import fit, forest, geometry, metrics, proposals, svgplot, sweeps, synth, workers
from .config import (ConfigError, ForestConfig, RunConfig, csv_floats, read_csv, write_csv,
                     write_keyvalue)
from .depth import CameraIntrinsics, RenderError
from .forest import ForestFormatError

log = logging.getLogger("handfit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

# estimates.csv: frame, then x, y, z of each of the 21 joints
ESTIMATE_COLUMNS = ["frame"] + [f"{n}_{ax}" for n in geometry.JOINT_NAMES
                                for ax in "xyz"]

# --out of eval and sweep; `_run_dir` gives the default
RUN_DIR_HELP = "run directory (default run_<confighash>)"


def _load_config(args):
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for assignment in args.set or []:
        cfg.set_from_text(assignment)
    if args.scale is not None:
        if not 0 < args.scale <= 1:
            raise ConfigError("--scale must be in (0, 1]")
        cfg["synth.articulations"] = max(1, round(4 * args.scale ** 0.5))
    if args.seed is not None:
        cfg["seed"] = args.seed
    env_seed = os.environ.get("HANDFIT_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = env_seed
        except ConfigError as exc:
            raise ConfigError(f"HANDFIT_SEED: {exc}") from None
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    return cfg


def _require(*paths):
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise FileNotFoundError("missing inputs: " + ", ".join(missing))


def _output_file(path):
    """`path` as a file to write, checked before any stage starts work: a
    directory there raises IsADirectoryError, and its parent is made (a
    file in the way raises FileExistsError or NotADirectoryError)."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory, not a file to write")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _run_dir(path, cfg):
    """`path`, or run_<config hash> when not given, as a run directory,
    checked before any stage starts work and made when the outputs are
    written: a file there, or in place of one of its parents, raises
    NotADirectoryError."""
    path = Path(path or f"run_{cfg.content_hash()}")
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(f"{p}: is a file, not a directory to write into")
            break
    return path


def _dataset_geometry(dataset):
    geo_path = Path(dataset) / "geometry.txt"
    lim_path = Path(dataset) / "limits.txt"
    geom = geometry.HandGeometry.from_file(geo_path) if geo_path.exists() \
        else geometry.HandGeometry.default()
    limits = geometry.JointLimits.from_file(lim_path) if lim_path.exists() \
        else geometry.JointLimits.default()
    return geom, limits


def _render_split(name, poses, geom, cam, cfg, rng):
    """The split's frames, rendered with the run's jitter; logs what it took."""
    log.info("rendering %d %s frames", len(poses), name)
    start = time.perf_counter()
    frames = synth.render_poses(poses, geom, cam, jitter_mm=cfg["synth.jitter_mm"], rng=rng)
    wall = time.perf_counter() - start
    log.info("rendered %d %s frames in %.3f s (%.1f frames/s), frame crops %d bytes",
             len(frames), name, wall, len(frames) / max(wall, 1e-9), frames.nbytes)
    return frames


def cmd_synth(args):
    cfg = _load_config(args)
    cam = cfg.build(CameraIntrinsics, "camera")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out} is not empty "
                          "(use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    geom = geometry.HandGeometry.default()
    limits = geometry.JointLimits.default()
    arts = synth.load_articulations()
    views = synth.load_viewpoints()
    translation = (0.0, 0.0, cfg["synth.distance_mm"])

    train_poses = synth.generate_training_poses(
        arts, views, limits=limits, translation=translation,
        per_finger=cfg["synth.articulations"], num_views=cfg["synth.viewpoints"])
    rng = np.random.default_rng((cfg["seed"], 1))
    train_imgs = _render_split("training", train_poses, geom, cam, cfg, rng)
    synth.write_split(out / "train", train_poses, train_imgs)

    key_rng = np.random.default_rng((cfg["seed"], 2))
    view = views[cfg["synth.test_viewpoint"] % len(views)]
    keyposes = synth.make_track_keyposes(
        key_rng, cfg["synth.test_keyposes"],
        articulations=arts[:, :cfg["synth.articulations"]],
        limits=limits, translation=translation, orientation=view)
    seq = synth.generate_sequence(keyposes, cfg["synth.frames_between"],
                                  cfg["synth.subsample"], limits)
    seq_imgs = _render_split("test", seq, geom, cam, cfg, rng)
    synth.write_split(out / "test", seq, seq_imgs)

    cam.save(out / "intrinsics.txt")
    geom.save(out / "geometry.txt")
    limits.save(out / "limits.txt")
    cfg.write(out / "config.txt")
    log.info("dataset written to %s (train %d, test %d)", out,
             len(train_poses), len(seq))
    return EXIT_OK


def cmd_train(args):
    cfg = _load_config(args)
    dataset = Path(args.dataset)
    _require(dataset / "train" / "poses.csv", dataset / "intrinsics.txt")
    out = _output_file(args.out)
    cam = CameraIntrinsics.from_file(dataset / "intrinsics.txt")
    geom, _ = _dataset_geometry(dataset)
    poses, images = synth.read_split(dataset / "train", cam)
    if not poses:
        raise ValueError(f"{dataset / 'train' / 'poses.csv'}: no frames to train on")
    gts = [geometry.forward_kinematics(geom, p) for p in poses]
    rng = np.random.default_rng((cfg["seed"], 3))
    samples = forest.build_training_set(images, gts, cfg["forest.train_stride"],
                                        rng, cap=cfg["forest.train_cap"])
    log.info("training forest on %d samples from %d frames (frame crops %d bytes, "
             "sample table %d bytes)", len(samples), len(poses), samples.images.nbytes,
             samples.table_bytes)
    model = forest.train_forest(samples, cfg.build(ForestConfig, "forest"),
                                np.random.default_rng((cfg["seed"], 4)),
                                threads=args.threads)
    forest.save_forest(out, model)
    stats = model.stats()
    with open(out.with_suffix(".stats.txt"), "w") as fh:
        for i, s in enumerate(stats):
            line = f"tree {i}: depth {s['depth']}, leaves {s['leaves']}, nodes {s['nodes']}"
            fh.write(line + "\n")
            log.info(line)
    return EXIT_OK


def _vote_frames(cfg, model, images, threads, then):
    """`then` of each frame's forest votes, frames in up to `threads` forked
    workers that share the forest and the frames: the one voting call of
    `infer` and `sweep`."""
    vote = functools.partial(forest.accumulate_votes, model,
                             stride=cfg["forest.infer_stride"],
                             depth_sq_weight=cfg["forest.depth_sq_weight"])
    return workers.map_ordered(lambda img: then(vote(img)), images, threads)


def cmd_infer(args):
    cfg = _load_config(args)
    dataset = Path(args.dataset)
    split = dataset / args.split
    _require(args.forest, split / "poses.csv", dataset / "intrinsics.txt")
    out = _output_file(args.out)
    cam = CameraIntrinsics.from_file(dataset / "intrinsics.txt")
    model = forest.load_forest(args.forest)
    _, images = synth.read_split(split, cam)
    log.info("inferring proposals for %d frames", len(images))
    psets = _vote_frames(cfg, model, images, args.threads, then=functools.partial(
        forest.proposals_from_votes, top_n=cfg["forest.top_n"], k=cfg["forest.k"],
        bandwidth_mm=cfg["forest.infer_bandwidth_mm"],
        max_iters=cfg["forest.meanshift_iters"]))
    proposals.write_proposals_csv(out, psets)
    return EXIT_OK


def cmd_fit(args):
    cfg = _load_config(args)
    _require(args.proposals)
    out = _run_dir(args.out, cfg)
    geom = geometry.HandGeometry.from_file(args.geometry) if args.geometry \
        else geometry.HandGeometry.default()
    limits = geometry.JointLimits.from_file(args.limits) if args.limits \
        else geometry.JointLimits.default()
    psets = proposals.read_proposals_csv(args.proposals)

    start = time.perf_counter()
    frames, fit_results = fit.fit_frames(psets, geom, limits,
                                         sweeps.pso_config(cfg, cfg["seed"]), args.mode,
                                         threads=args.threads)
    wall = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    write_joints_csv(out / "estimates.csv", frames)
    if args.mode != "regression-only":  # which fits no pose
        fit.write_fits_csv(out / "poses.csv", fit_results)
        evals = sum(r.evals for r in fit_results if r)
        log.info("fitted %d frames, mean %.0f objective evaluations/frame, "
                 "%.2f s, %.0f evaluations/s", len(fit_results),
                 evals / max(len(fit_results), 1), wall, evals / max(wall, 1e-9))
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
    dataset = Path(args.dataset)
    split = dataset / args.split
    _require(args.estimates, split / "poses.csv")
    out = _run_dir(args.out, cfg)
    geom, _ = _dataset_geometry(dataset)
    gt_poses = geometry.read_poses_csv(split / "poses.csv")
    gt_joints = [geometry.forward_kinematics(geom, p) for p in gt_poses]
    estimates = read_joints_csv(args.estimates)
    if len(estimates) != len(gt_joints):
        raise ValueError(f"{args.estimates}: {len(estimates)} frames, "
                         f"ground truth has {len(gt_joints)}")
    if not gt_joints:
        raise ValueError(f"{split / 'poses.csv'}: no frames to evaluate")
    results = [metrics.FrameResult.compute(i, est, gt, sentinel=cfg["pso.d_max_mm"])
               for i, (est, gt) in enumerate(zip(estimates, gt_joints))]

    out.mkdir(parents=True, exist_ok=True)
    curve = metrics.success_rate_curve(results, cfg.thresholds())
    tips = list(geometry.TIP_INDICES)
    write_csv(out / "frame_errors.csv",
              ["frame", "mean_error_mm", "max_error_mm", "fingertip_error_mm"],
              ([r.frame_id] + [f"{e:.6g}" for e in (r.errors.mean(), r.errors.max(),
                                                     r.errors[tips].mean())]
               for r in results))
    write_csv(out / "success_curve.csv", ["threshold_mm", "fraction"],
              ([f"{t:.6g}", f"{f:.6g}"] for t, f in curve.rows()))
    svgplot.line_plot(out / "success_curve.svg",
                      [{"label": "all joints", "x": curve.thresholds,
                        "y": curve.fractions}],
                      title="frame success rate", xlabel="threshold (mm)",
                      ylabel="fraction of frames")
    joint_err = metrics.mean_joint_error(results)
    tip_err = metrics.fingertip_error(results)
    write_keyvalue(out / "summary.txt", {"frames": len(results),
                                         "mean_joint_error_mm": f"{joint_err:.6g}",
                                         "fingertip_error_mm": f"{tip_err:.6g}"})
    log.info("mean joint error %.2f mm, fingertips %.2f mm", joint_err, tip_err)
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args)
    dataset = Path(args.dataset)
    split = dataset / "test"
    _require(args.forest, split / "poses.csv", dataset / "intrinsics.txt")
    out = _run_dir(args.out, cfg)
    cam = CameraIntrinsics.from_file(dataset / "intrinsics.txt")
    geom, limits = _dataset_geometry(dataset)
    model = forest.load_forest(args.forest)
    poses, images = synth.read_split(split, cam)
    if not poses:
        raise ValueError(f"{split / 'poses.csv'}: no frames to sweep")
    gt_joints = [geometry.forward_kinematics(geom, p) for p in poses]
    log.info("accumulating votes for %d frames", len(images))
    # each worker sends back only the votes the experiment's proposals read
    votes = _vote_frames(cfg, model, images, args.threads, then=functools.partial(
        forest.top_votes, m=sweeps.votes_read(args.experiment, cfg)))
    rows = sweeps.run_sweep(args.experiment, votes, gt_joints, geom, limits,
                            cfg, out / f"sweep_{args.experiment}", threads=args.threads)
    log.info("wrote %d sweep rows under %s", len(rows), out)
    return EXIT_OK


def cmd_pipeline(args):
    out = Path(args.out)
    dataset = out / "dataset"

    def stage(command, **fields):
        command(argparse.Namespace(**{**vars(args), **fields}))

    stage(cmd_synth, out=dataset)
    stage(cmd_train, dataset=dataset, out=out / "forest.bin")
    stage(cmd_infer, dataset=dataset, forest=out / "forest.bin", split="test",
          out=out / "proposals.csv")
    stage(cmd_fit, proposals=out / "proposals.csv", geometry=dataset / "geometry.txt",
          limits=dataset / "limits.txt", out=out / "fit")
    stage(cmd_eval, estimates=out / "fit" / "estimates.csv", dataset=dataset,
          split="test", out=out / "eval")
    return EXIT_OK


def write_joints_csv(path, frames):
    """Per-frame 21-joint estimates; NaN marks joints without a prediction."""
    write_csv(path, ESTIMATE_COLUMNS,
              ([i] + [f"{v:.9g}" for v in np.asarray(joints, dtype=float).reshape(63)]
               for i, joints in enumerate(frames)))


def read_joints_csv(path):
    """Per-frame (21, 3) estimates; frames run 0, 1, 2, ... in file order.
    NaN marks a missing joint; any other value that is not finite or is
    above `config.CSV_LIMIT` in magnitude raises ValueError at `path:line`."""
    frames = []

    def parse(row):
        if row[0] != str(len(frames)):
            raise ValueError(f"frame {row[0]} where frame {len(frames)} comes next; "
                             "frames run 0, 1, 2, ... without gaps")
        frames.append(np.array(csv_floats(row[1:], ESTIMATE_COLUMNS[1:], nan_ok=True))
                      .reshape(21, 3))

    read_csv(path, ESTIMATE_COLUMNS, parse)
    return frames


def _add_common(parser, scale=False, threads=True):
    """The flags every command takes, plus `--scale` where the command
    renders the training grid and `--threads` where it hands work to
    workers; a command without one of these reads its default."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.set_defaults(scale=None, threads=1)
    if scale:
        parser.add_argument("--scale", type=float,
                            help="shrink the training grid (1.0 = full 7168 poses)")
    if threads:
        parser.add_argument("--threads", type=int,
                            help="worker processes for trees, frames and votes "
                                 "(1: inline)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="handfit",
        description="hybrid hand pose estimation: forest proposals + "
                    "stepwise swarm model fit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic train/test dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_common(p, scale=True, threads=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the regression forest")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="forest file path")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="emit joint proposals for a split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="proposals CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("fit", help="fit the hand model to proposals")
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=fit.FIT_MODES, default="stepwise")
    p.add_argument("--geometry")
    p.add_argument("--limits")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    p.add_argument("--estimates", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help=RUN_DIR_HELP)
    _add_common(p, threads=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an ablation sweep")
    p.add_argument("--experiment", choices=sweeps.EXPERIMENTS, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--out", help=RUN_DIR_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="synth, train, infer, fit, eval in one go")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--mode", choices=fit.FIT_MODES, default="stepwise")
    _add_common(p, scale=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError,
            PermissionError) as exc:
        log.error("%s", exc)
        return EXIT_MISSING
    except (RenderError, ForestFormatError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
