import dataclasses
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from handfit import cli, fit, forest, geometry, sweeps, synth
from handfit.config import RunConfig
from handfit.depth import CameraIntrinsics
from handfit.geometry import HandGeometry, JointLimits
from handfit.proposals import ProposalSet, read_proposals_csv, write_proposals_csv

TINY = [
    "--set", "synth.articulations=1", "--set", "synth.viewpoints=2",
    "--set", "synth.test_keyposes=3", "--set", "synth.frames_between=3",
    "--set", "synth.subsample=2",
    "--set", "forest.num_trees=2", "--set", "forest.max_depth=8",
    "--set", "forest.min_samples=15", "--set", "forest.node_subsample=200",
    "--set", "forest.candidates=30", "--set", "forest.train_stride=3",
    "--set", "forest.infer_stride=3", "--set", "forest.top_n=60",
    "--set", "pso.palm_particles=10", "--set", "pso.palm_generations=8",
    "--set", "pso.finger_particles=8", "--set", "pso.finger_generations=6",
    "--set", "pso.joint_particles=12", "--set", "pso.generations=8",
    "--set", "eval.seeds=2",
]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "run"
    rc = cli.main(["pipeline", "--out", str(out), "--seed", "7"] + TINY)
    assert rc == 0
    return out


def test_pipeline_outputs(pipeline_dir):
    assert (pipeline_dir / "dataset" / "train" / "poses.csv").exists()
    assert (pipeline_dir / "dataset" / "train" / "frame_00000.pgm").exists()
    assert (pipeline_dir / "dataset" / "test" / "poses.csv").exists()
    assert (pipeline_dir / "dataset" / "config.txt").exists()
    assert (pipeline_dir / "forest.bin").exists()
    assert (pipeline_dir / "forest.stats.txt").exists()
    assert (pipeline_dir / "proposals.csv").exists()
    assert (pipeline_dir / "fit" / "estimates.csv").exists()
    assert (pipeline_dir / "fit" / "poses.csv").exists()
    assert (pipeline_dir / "eval" / "summary.txt").exists()
    assert (pipeline_dir / "eval" / "success_curve.svg").exists()
    summary = (pipeline_dir / "eval" / "summary.txt").read_text()
    assert "mean_joint_error_mm" in summary
    # train split: 1 articulation x 2 viewpoints
    lines = (pipeline_dir / "dataset" / "train" / "poses.csv").read_text().splitlines()
    assert len(lines) - 1 == 2
    # success curve fractions are monotone
    rows = (pipeline_dir / "eval" / "success_curve.csv").read_text().splitlines()[1:]
    fracs = [float(r.split(",")[1]) for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))


def test_synth_refuses_nonempty_without_force(pipeline_dir):
    rc = cli.main(["synth", "--out", str(pipeline_dir / "dataset")] + TINY)
    assert rc == 2


def test_regression_only_mode(pipeline_dir, tmp_path):
    rc = cli.main(["fit", "--proposals", str(pipeline_dir / "proposals.csv"),
                   "--out", str(tmp_path / "reg"), "--mode", "regression-only"]
                  + TINY)
    assert rc == 0
    assert (tmp_path / "reg" / "estimates.csv").exists()
    assert not (tmp_path / "reg" / "poses.csv").exists()
    rc = cli.main(["eval", "--estimates", str(tmp_path / "reg" / "estimates.csv"),
                   "--dataset", str(pipeline_dir / "dataset"),
                   "--out", str(tmp_path / "regeval")] + TINY)
    assert rc == 0


def test_trailing_empty_frame_survives_fit_and_eval(tmp_path, geom, limits):
    # a last frame without proposals (the hand left the view) must still be
    # a frame of the proposals file, or eval rejects the frame count
    poses = [geometry.random_pose(np.random.default_rng(i), limits,
                                  geometry.DEFAULT_WORKSPACE) for i in range(2)]
    (tmp_path / "ds" / "test").mkdir(parents=True)
    geometry.write_poses_csv(tmp_path / "ds" / "test" / "poses.csv", poses)
    psets = [ProposalSet.from_joints(geometry.forward_kinematics(geom, poses[0])),
             ProposalSet({})]
    write_proposals_csv(tmp_path / "p.csv", psets)
    again = read_proposals_csv(tmp_path / "p.csv")
    assert [len(p) for p in again] == [21, 0]
    assert cli.main(["fit", "--proposals", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "fit"), "--mode", "regression-only"]) == 0
    assert cli.main(["eval", "--estimates", str(tmp_path / "fit" / "estimates.csv"),
                     "--dataset", str(tmp_path / "ds"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert "frames = 2" in (tmp_path / "eval" / "summary.txt").read_text()


def test_eval_of_a_split_with_no_frames_exits_4_before_writing(tmp_path, caplog):
    # header-only poses and estimates used to write two CSVs and then end
    # in a raw IndexError from the success-curve plot
    (tmp_path / "ds" / "test").mkdir(parents=True)
    geometry.write_poses_csv(tmp_path / "ds" / "test" / "poses.csv", [])
    cli.write_joints_csv(tmp_path / "estimates.csv", [])
    out = tmp_path / "eval"
    assert cli.main(["eval", "--estimates", str(tmp_path / "estimates.csv"),
                     "--dataset", str(tmp_path / "ds"), "--out", str(out)]) == 4
    assert "no frames to evaluate" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_a_failed_run_leaves_no_run_directory(pipeline_dir, tmp_path, monkeypatch, caplog,
                                              command):
    # fit and sweep used to make their --out directory before any work, so
    # a run that failed left it behind, empty; a sweep fails here in its
    # first arm's fits
    def fail(*args, **kwargs):
        raise ValueError("stage failed")

    monkeypatch.setattr(fit, "fit_frames", fail)
    monkeypatch.setattr(sweeps, "_arm", fail)
    args = {"fit": ["--proposals", str(pipeline_dir / "proposals.csv")],
            "sweep": ["--experiment", "k", "--dataset", str(pipeline_dir / "dataset"),
                      "--forest", str(pipeline_dir / "forest.bin")]}[command]
    out = tmp_path / "run"
    assert cli.main([command] + args + ["--out", str(out)] + TINY) == cli.EXIT_NUMERIC
    assert "stage failed" in caplog.text
    assert not out.exists()


def test_train_on_a_split_with_no_frames_exits_4_naming_the_split(tmp_path, caplog):
    # a header-only poses.csv used to end in numpy's "need at least one
    # array to stack"
    (tmp_path / "ds" / "train").mkdir(parents=True)
    geometry.write_poses_csv(tmp_path / "ds" / "train" / "poses.csv", [])
    CameraIntrinsics.default().save(tmp_path / "ds" / "intrinsics.txt")
    out = tmp_path / "forest.bin"
    assert cli.main(["train", "--dataset", str(tmp_path / "ds"), "--out", str(out)]) == 4
    split = tmp_path / "ds" / "train" / "poses.csv"
    assert f"{split}: no frames to train on" in caplog.text
    assert not out.exists()


def test_train_logs_frame_stack_and_sample_table_bytes(pipeline_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="handfit")
    assert cli.main(["train", "--dataset", str(pipeline_dir / "dataset"),
                     "--out", str(tmp_path / "forest.bin"), "--seed", "7"] + TINY) == 0
    found = re.search(r"training forest on (\d+) samples from (\d+) frames \(frame crops "
                      r"(\d+) bytes, sample table (\d+) bytes\)", caplog.text)
    samples, frames, crop_bytes, table_bytes = map(int, found.groups())
    # the frames' foreground bounding boxes, 2 bytes a pixel
    _, split = synth.read_split(pipeline_dir / "dataset" / "train", CameraIntrinsics.default())
    assert frames == len(split) == 2
    assert crop_bytes == 2 * sum(img.crop.size for img in split) == split.nbytes
    # pixel, depth, image index, label and patch centre a sample, and each
    # frame's 21 float64 joints once
    assert table_bytes == samples * (16 + 8 + 4 + 2 + 24) + frames * 21 * 3 * 8


@pytest.mark.parametrize("jitter", ["0", "2.5"])
def test_synth_logs_each_splits_render(tmp_path, caplog, jitter):
    caplog.set_level(logging.INFO, logger="handfit")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--out", str(out), "--set", f"synth.jitter_mm={jitter}"]
                    + TINY) == 0
    logged = re.findall(r"rendered (\d+) (\w+) frames in ([\d.]+) s \(([\d.]+) frames/s\), "
                        r"frame crops (\d+) bytes", caplog.text)
    assert [split for _, split, *_ in logged] == ["training", "test"]
    cam = CameraIntrinsics.from_file(out / "intrinsics.txt")
    for (count, split, wall, rate, nbytes), folder in zip(logged, ("train", "test")):
        poses, frames = synth.read_split(out / folder, cam)
        assert int(count) == len(poses) == len(frames) > 0
        assert int(nbytes) == frames.nbytes  # every crop is its frame's foreground box
        assert float(wall) >= 0.0 and float(rate) > 0.0


def test_under_constrained_frame_falls_back_and_is_flagged(tmp_path, geom, limits, caplog):
    # a middle frame with only the palm and one MCP cannot fix the global
    # pose; it takes its top proposals and the other frames are still fitted
    poses = [geometry.random_pose(np.random.default_rng(i), limits,
                                  geometry.DEFAULT_WORKSPACE) for i in range(3)]
    psets = [ProposalSet.from_joints(geometry.forward_kinematics(geom, p)) for p in poses]
    truth = geometry.forward_kinematics(geom, poses[1])
    mcp = geometry.finger_joint_indices(1)[0]
    psets[1] = ProposalSet({geometry.PALM: (truth[[0]], np.ones(1)),
                            mcp: (truth[[mcp]], np.ones(1))})
    write_proposals_csv(tmp_path / "p.csv", psets)
    assert cli.main(["fit", "--proposals", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "fit")] + TINY) == 0
    assert "frame 1: only 2 palm-region proposals" in caplog.text
    estimates = cli.read_joints_csv(tmp_path / "fit" / "estimates.csv")
    assert len(estimates) == 3
    np.testing.assert_allclose(estimates[1][[0, mcp]], truth[[0, mcp]], atol=1e-4)
    assert np.isnan(np.delete(estimates[1], [0, mcp], axis=0)).all()
    rows = (tmp_path / "fit" / "poses.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
    assert header[-1] == "fallback"
    assert [c["fallback"] for c in cells] == ["0", "1", "0"]
    assert cells[1]["score"] == cells[1]["tx"] == "" and cells[1]["evals"] == "0"
    assert cells[0]["score"] != "" and cells[2]["evals"] != "0"


def test_joint_mode(pipeline_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="handfit")
    rc = cli.main(["fit", "--proposals", str(pipeline_dir / "proposals.csv"),
                   "--out", str(tmp_path / "joint"), "--mode", "joint"] + TINY)
    assert rc == 0
    # fit throughput is logged, and only logged: the run directory holds
    # no timing, so reruns stay byte-identical
    assert re.search(r"fitted \d+ frames, mean \d+ objective evaluations/frame, "
                     r"\d+\.\d+ s, \d+ evaluations/s", caplog.text)
    assert sorted(p.name for p in (tmp_path / "joint").iterdir()) == \
        ["estimates.csv", "poses.csv"]


@pytest.mark.parametrize("mode", ["stepwise", "joint"])
def test_fit_frame_i_draws_from_seed_5_i(pipeline_dir, tmp_path, mode):
    argv = ["fit", "--proposals", str(pipeline_dir / "proposals.csv"),
            "--out", str(tmp_path / "fit"), "--mode", mode, "--seed", "3"] + TINY
    assert cli.main(argv) == 0
    cfg = cli._load_config(cli.build_parser().parse_args(argv))
    seed = cfg["seed"]
    fitter = fit.joint_fit if mode == "joint" else fit.stepwise_fit
    geom, limits = HandGeometry.default(), JointLimits.default()
    psets = read_proposals_csv(pipeline_dir / "proposals.csv")
    direct = [fitter(pset, geom, limits, sweeps.pso_config(cfg, seed),
                     rng=np.random.default_rng((seed, 5, i)))
              for i, pset in enumerate(psets)]
    fit.write_fits_csv(tmp_path / "direct.csv", direct)
    assert (tmp_path / "fit" / "poses.csv").read_bytes() == \
        (tmp_path / "direct.csv").read_bytes()


def test_sweep_command(pipeline_dir, tmp_path):
    rc = cli.main(["sweep", "--experiment", "k",
                   "--dataset", str(pipeline_dir / "dataset"),
                   "--forest", str(pipeline_dir / "forest.bin"),
                   "--out", str(tmp_path / "sw"),
                   "--set", "sweep.k_grid=1,2", "--set", "eval.seeds=2"] + TINY)
    assert rc == 0
    table = (tmp_path / "sw" / "sweep_k" / "table.csv").read_text().splitlines()
    assert len(table) - 1 == 4  # 2 sweep points x 2 seeds
    assert (tmp_path / "sw" / "sweep_k" / "plot.svg").exists()


@pytest.mark.parametrize("experiment, kept", [("k", 60), ("stepwise-vs-joint", 60),
                                              ("top-n", 40)])
def test_sweep_votes_are_each_joints_top_votes(pipeline_dir, tmp_path, monkeypatch,
                                               experiment, kept):
    # the voting workers send back only the votes the experiment reads:
    # forest.top_n (60 here), or the largest top_n of its grid
    got = []
    monkeypatch.setattr(sweeps, "run_sweep",
                        lambda experiment, votes, *args, **kwargs: got.extend(votes) or [])
    rc = cli.main(["sweep", "--experiment", experiment,
                   "--dataset", str(pipeline_dir / "dataset"),
                   "--forest", str(pipeline_dir / "forest.bin"), "--out", str(tmp_path / "sw"),
                   "--set", "sweep.topn_grid=10,40", "--threads", "2"] + TINY)
    assert rc == 0 and got
    assert max(len(w) for frame in got for _, w in frame.values()) == kept


def test_exit_codes(tmp_path, pipeline_dir):
    # unknown config key
    assert cli.main(["synth", "--out", str(tmp_path / "x"),
                     "--set", "nope=1"]) == 2
    # missing dataset
    assert cli.main(["train", "--dataset", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "f.bin")]) == 3
    # schema-mismatched CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("frame,joint,x\n0,0,1\n")
    assert cli.main(["fit", "--proposals", str(bad),
                     "--out", str(tmp_path / "fit")]) == 4


# (command, path argument): a directory is given where a file is expected,
# except for the output directories of `fit`, `eval` and `synth`, given a file
WRONG_KIND = [("infer", "--forest"), ("infer", "--out"), ("infer", "--config"),
              ("fit", "--proposals"), ("fit", "--geometry"), ("fit", "--out"),
              ("eval", "--estimates"), ("eval", "--out"), ("sweep", "--forest"),
              ("synth", "--out"), ("train", "--out")]


@pytest.mark.parametrize("command, flag", WRONG_KIND, ids=[f"{c}{f}" for c, f in WRONG_KIND])
def test_path_of_the_wrong_kind_exits_3_before_work(pipeline_dir, tmp_path, capsys, caplog,
                                                    monkeypatch, command, flag):
    caplog.set_level(logging.INFO, logger="handfit")
    if flag == "--out":  # eval reads no estimates before its run directory is checked
        monkeypatch.setattr(cli, "read_joints_csv", lambda path: pytest.fail("estimates read"))
    ds, run = str(pipeline_dir / "dataset"), pipeline_dir
    args = {
        "infer": ["--dataset", ds, "--forest", str(run / "forest.bin"),
                  "--out", str(tmp_path / "p.csv")],
        "fit": ["--proposals", str(run / "proposals.csv"), "--out", str(tmp_path / "fit")],
        "eval": ["--estimates", str(run / "fit" / "estimates.csv"), "--dataset", ds,
                 "--out", str(tmp_path / "eval")],
        "sweep": ["--experiment", "k", "--dataset", ds, "--forest", str(run / "forest.bin"),
                  "--out", str(tmp_path / "sw")],
        "synth": ["--out", str(tmp_path / "ds")],
        "train": ["--dataset", ds, "--out", str(tmp_path / "f.bin")],
    }[command]
    wrong = tmp_path / "wrong"
    if (command, flag) in (("fit", "--out"), ("eval", "--out"), ("synth", "--out")):
        wrong.write_text("a file\n")
    else:
        wrong.mkdir()
    args = args[:args.index(flag) + 1] + [str(wrong)] + args[args.index(flag) + 2:] \
        if flag in args else args + [flag, str(wrong)]
    assert cli.main([command] + args + TINY) == cli.EXIT_MISSING
    assert str(wrong) in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text
    if flag == "--out":  # no stage started work
        for stage in ("training forest", "inferring proposals", "rendering", "fitted"):
            assert stage not in caplog.text


# every path argument of every command, by what it names: an input file or
# directory, or an output file or directory
PATH_ARGS = {
    "synth": {"--out": "out-dir", "--config": "in-file"},
    "train": {"--dataset": "in-dir", "--out": "out-file", "--config": "in-file"},
    "infer": {"--dataset": "in-dir", "--forest": "in-file", "--split": "in-dir",
              "--out": "out-file", "--config": "in-file"},
    "fit": {"--proposals": "in-file", "--geometry": "in-file", "--limits": "in-file",
            "--out": "out-dir", "--config": "in-file"},
    "eval": {"--estimates": "in-file", "--dataset": "in-dir", "--split": "in-dir",
             "--out": "out-dir", "--config": "in-file"},
    "sweep": {"--dataset": "in-dir", "--forest": "in-file", "--out": "out-dir",
              "--config": "in-file"},
    "pipeline": {"--out": "out-dir", "--config": "in-file"},
}
# what each kind of path is given: missing, a directory where a file is
# expected, or a file where a directory is expected (at the path itself,
# or at its parent)
BAD_PATHS = {"in-file": ("missing", "directory"), "in-dir": ("missing", "file"),
             "out-file": ("directory", "file-parent"), "out-dir": ("file", "file-parent")}
BAD_PATH_CASES = [(command, flag, bad) for command, flags in PATH_ARGS.items()
                  for flag, role in flags.items() for bad in BAD_PATHS[role]]
# log lines that show a stage started work
STAGES = ("rendering", "training forest", "inferring proposals", "accumulating votes",
          "fitted", "mean joint error", "sweep rows", "dataset written")


@pytest.mark.parametrize("command, flag, bad", BAD_PATH_CASES,
                         ids=[f"{c}{f}-{b}" for c, f, b in BAD_PATH_CASES])
def test_every_bad_path_exits_with_its_code_and_no_traceback(pipeline_dir, tmp_path, capsys,
                                                             caplog, command, flag, bad):
    caplog.set_level(logging.INFO, logger="handfit")
    ds, run = str(pipeline_dir / "dataset"), pipeline_dir
    args = {
        "synth": ["--out", str(tmp_path / "ds")],
        "train": ["--dataset", ds, "--out", str(tmp_path / "f.bin")],
        "infer": ["--dataset", ds, "--forest", str(run / "forest.bin"),
                  "--out", str(tmp_path / "p.csv")],
        "fit": ["--proposals", str(run / "proposals.csv"), "--out", str(tmp_path / "fit")],
        "eval": ["--estimates", str(run / "fit" / "estimates.csv"), "--dataset", ds,
                 "--out", str(tmp_path / "eval")],
        "sweep": ["--experiment", "k", "--dataset", ds, "--forest", str(run / "forest.bin"),
                  "--out", str(tmp_path / "sw")],
        "pipeline": ["--out", str(tmp_path / "pipe")],
    }[command]
    wrong = tmp_path / "wrong"  # a --split given as an absolute path names it
    if bad == "directory":
        wrong.mkdir()
    elif bad in ("file", "file-parent"):
        wrong.write_text("a file\n")
    if bad == "file-parent":
        wrong = wrong / "out"
    args = args[:args.index(flag) + 1] + [str(wrong)] + args[args.index(flag) + 2:] \
        if flag in args else args + [flag, str(wrong)]
    assert cli.main([command] + args + TINY) == cli.EXIT_MISSING  # one of 2, 3, 4
    assert "Traceback" not in capsys.readouterr().err + caplog.text
    if PATH_ARGS[command][flag].startswith("out"):  # no stage started work
        for stage in STAGES:
            assert stage not in caplog.text


def test_keyvalue_file_missing_a_key_exits_2(tmp_path, caplog):
    geo = tmp_path / "g.txt"
    geo.write_text("wrist.offset.x = 0\n")
    write_proposals_csv(tmp_path / "p.csv", [])
    assert cli.main(["fit", "--proposals", str(tmp_path / "p.csv"),
                     "--geometry", str(geo), "--out", str(tmp_path / "fit")]) == 2
    assert f"{geo}: missing key 'thumb.base.x'" in caplog.text


def test_keyvalue_file_repeated_key_exits_2(tmp_path, caplog):
    geo = tmp_path / "g.txt"
    HandGeometry.default().save(geo)
    lines = geo.read_text().splitlines()
    first = 1 + next(i for i, line in enumerate(lines)
                     if line.startswith("thumb.proximal ="))
    geo.write_text("\n".join(lines + ["thumb.proximal = 2800"]) + "\n")
    write_proposals_csv(tmp_path / "p.csv", [])
    assert cli.main(["fit", "--proposals", str(tmp_path / "p.csv"),
                     "--geometry", str(geo), "--out", str(tmp_path / "fit")]) == 2
    assert (f"config error: {geo}:{len(lines) + 1}: key 'thumb.proximal' "
            f"already set on line {first}") in caplog.text


def test_bad_sweep_grid_exits_2_before_any_work(tmp_path, caplog):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("sweep.k_grid = 1,x\n")
    for source in (["--config", str(cfg)], ["--set", "sweep.k_grid=1,x"]):
        assert cli.main(["sweep", "--experiment", "k",
                         "--dataset", str(tmp_path / "absent"),
                         "--forest", str(tmp_path / "absent.bin")] + source) == 2
    assert f"{cfg}:1: sweep.k_grid: expected integer, got 'x'" in caplog.text


@pytest.mark.parametrize("flag, key, value, message", [
    ("--geometry", "thumb.proximal", "abc", "key 'thumb.proximal': expected number, got 'abc'"),
    ("--geometry", "index.frame_yaw_deg", "nan",
     "key 'index.frame_yaw_deg': expected number, got 'nan'"),
    ("--limits", "ring.pip_flexion.max_deg", "abc",
     "key 'ring.pip_flexion.max_deg': expected number, got 'abc'"),
    ("--limits", "ring.pip_flexion.max_deg", "1e400",
     "key 'ring.pip_flexion.max_deg': expected number, got '1e400'"),
    ("--geometry", "thumb.proximal", "-1", "bone lengths must be strictly positive"),
    ("--limits", "ring.pip_flexion.max_deg", "-90", "every DoF needs min < max"),
], ids=["geometry_abc", "geometry_nan", "limits_abc", "limits_inf",
        "geometry_negative_bone", "limits_max_below_min"])
def test_keyvalue_file_bad_value_exits_2(tmp_path, caplog, flag, key, value, message):
    path = tmp_path / "kv.txt"
    (HandGeometry.default() if flag == "--geometry" else JointLimits.default()).save(path)
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}",
                          path.read_text(), flags=re.M)
    assert count == 1
    path.write_text(text)
    write_proposals_csv(tmp_path / "p.csv", [])
    assert cli.main(["fit", "--proposals", str(tmp_path / "p.csv"),
                     flag, str(path), "--out", str(tmp_path / "fit")]) == 2
    assert f"config error: {path}: {message}" in caplog.text


@pytest.mark.parametrize("command, extra, message", [
    ("fit", ["--set", "pso.palm_particles=1"], "pso.palm_particles: must be >= 2, got 1"),
    ("fit", ["--set", "pso.d_max_mm=0"], "pso.d_max_mm: must be > 0, got 0.0"),
    # these two used to run: the first inverts the translation search box,
    # the second ran the finger stages as if set to 1
    ("fit", ["--set", "pso.translation_margin_mm=-500"],
     "pso.translation_margin_mm: must be >= 0, got -500.0"),
    ("fit", ["--set", "pso.finger_generations=-2"], "pso.finger_generations: must be >= 0, got -2"),
    ("train", ["--set", "forest.leaf_bandwidth_mm=0"],
     "forest.leaf_bandwidth_mm: must be > 0, got 0.0"),
    ("train", ["--set", "forest.num_trees=0"], "forest.num_trees: must be >= 1, got 0"),
    ("train", ["--set", "forest.candidates=0"], "forest.candidates: must be >= 1, got 0"),
    ("train", ["--set", "forest.train_stride=0"], "forest.train_stride: must be >= 1, got 0"),
    ("train", ["--set", "forest.train_cap=0"], "forest.train_cap: must be >= 1, got 0"),
    ("infer", ["--set", "forest.infer_stride=0"], "forest.infer_stride: must be >= 1, got 0"),
    ("infer", ["--set", "forest.infer_stride=-2"],
     "forest.infer_stride: must be >= 1, got -2"),
    ("infer", ["--set", "forest.k=0"], "forest.k: must be >= 1, got 0"),
    ("infer", ["--set", "forest.top_n=0"], "forest.top_n: must be >= 1, got 0"),
    ("infer", ["--set", "forest.infer_bandwidth_mm=0"],
     "forest.infer_bandwidth_mm: must be > 0, got 0.0"),
    ("infer", ["--threads", "0"], "--threads must be >= 1, got 0"),
    ("infer", ["--threads", "-3"], "--threads must be >= 1, got -3"),
], ids=["palm_particles", "d_max_mm", "translation_margin_mm", "finger_generations",
        "leaf_bandwidth_mm", "num_trees", "candidates",
        "train_stride", "train_cap", "infer_stride_0", "infer_stride_neg", "k", "top_n",
        "infer_bandwidth_mm", "threads_0", "threads_neg"])
def test_out_of_range_setting_exits_2_before_any_work(pipeline_dir, tmp_path, caplog,
                                                      command, extra, message):
    out = tmp_path / "out"
    args = {
        "fit": ["--proposals", str(pipeline_dir / "proposals.csv")],
        "train": ["--dataset", str(pipeline_dir / "dataset")],
        "infer": ["--dataset", str(pipeline_dir / "dataset"),
                  "--forest", str(pipeline_dir / "forest.bin")],
    }[command]
    assert cli.main([command, "--out", str(out)] + args + TINY + extra) == 2
    assert f"config error: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("synth.viewpoints=0", "synth.viewpoints: must be >= 1, got 0"),
    ("synth.subsample=0", "synth.subsample: must be >= 1, got 0"),
    ("synth.articulations=-1", "synth.articulations: must be >= 1, got -1"),
    ("synth.test_keyposes=0", "synth.test_keyposes: must be >= 2, got 0"),
    ("synth.jitter_mm=-0.5", "synth.jitter_mm: must be >= 0, got -0.5"),
    ("synth.frames_between=-1", "synth.frames_between: must be >= 1, got -1"),
    ("synth.test_keyposes=1", "synth.test_keyposes: must be >= 2, got 1"),
    ("synth.frames_between=0", "synth.frames_between: must be >= 1, got 0"),
    # numpy refused the seed only after the training frames were rendered
    ("seed=-1", "seed: must be >= 0, got -1"),
])
def test_out_of_range_synth_setting_exits_2_before_rendering(tmp_path, caplog, setting,
                                                            message):
    out = tmp_path / "dataset"
    assert cli.main(["synth", "--out", str(out), "--set", setting]) == 2
    assert f"config error: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("forest.num_trees = 0", "forest.num_trees: must be >= 1, got 0"),
    ("pso.palm_particles = 1", "pso.palm_particles: must be >= 2, got 1"),
    ("camera.fx = -1", "camera.fx: must be > 0, got -1.0"),
], ids=["forest", "pso", "camera"])
def test_out_of_range_config_file_value_names_file_line_and_key(tmp_path, caplog, line,
                                                                message):
    # the forest and pso values used to be reported by the settings object
    # they built, without the file, the line or the full key
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seed = 3\n{line}\n")
    out = tmp_path / "dataset"
    assert cli.main(["synth", "--out", str(out), "--config", str(cfg)]) == 2
    assert f"config error: {cfg}:2: {message}" in caplog.text
    assert not out.exists()


def test_scale_flag_sets_articulations(tmp_path):
    parser = cli.build_parser()
    args = parser.parse_args(["synth", "--out", str(tmp_path), "--scale", "0.25"])
    cfg = cli._load_config(args)
    assert cfg["synth.articulations"] == 2  # 2**5 x 7 = 224 poses
    args = parser.parse_args(["synth", "--out", str(tmp_path), "--scale", "1.0"])
    assert cli._load_config(args)["synth.articulations"] == 4


def test_env_seed_override(tmp_path, monkeypatch):
    parser = cli.build_parser()
    args = parser.parse_args(["synth", "--out", str(tmp_path), "--seed", "5"])
    monkeypatch.setenv("HANDFIT_SEED", "123")
    assert cli._load_config(args)["seed"] == 123
    monkeypatch.setenv("HANDFIT_SEED", "not-a-number")
    from handfit.config import ConfigError

    with pytest.raises(ConfigError):
        cli._load_config(args)
    # a negative seed is refused as it arrives, before any stage renders
    monkeypatch.setenv("HANDFIT_SEED", "-1")
    with pytest.raises(ConfigError, match="HANDFIT_SEED: seed: must be >= 0, got -1"):
        cli._load_config(args)
    monkeypatch.delenv("HANDFIT_SEED")
    args = parser.parse_args(["synth", "--out", str(tmp_path), "--seed", "-1"])
    with pytest.raises(ConfigError, match="^seed: must be >= 0, got -1$"):
        cli._load_config(args)


def test_train_thread_invariance(pipeline_dir, tmp_path):
    # the 2 trees go to forked workers; at 3, one worker more than trees
    for threads in ("2", "3"):
        rc = cli.main(["train", "--dataset", str(pipeline_dir / "dataset"),
                       "--out", str(tmp_path / f"f{threads}.bin"), "--seed", "7",
                       "--threads", threads] + TINY)
        assert rc == 0
        assert (tmp_path / f"f{threads}.bin").read_bytes() == \
            (pipeline_dir / "forest.bin").read_bytes()


def test_infer_thread_invariance(pipeline_dir, tmp_path):
    for threads in ("2", "3"):
        rc = cli.main(["infer", "--dataset", str(pipeline_dir / "dataset"),
                       "--forest", str(pipeline_dir / "forest.bin"),
                       "--out", str(tmp_path / f"p{threads}.csv"), "--seed", "7",
                       "--threads", threads] + TINY)
        assert rc == 0
        assert (tmp_path / f"p{threads}.csv").read_bytes() == \
            (pipeline_dir / "proposals.csv").read_bytes()


@pytest.mark.parametrize("mode", ["stepwise", "joint"])
def test_fit_thread_invariance(pipeline_dir, tmp_path, mode):
    outputs = set()
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["fit", "--proposals", str(pipeline_dir / "proposals.csv"),
                         "--out", str(out), "--mode", mode, "--seed", "7",
                         "--threads", threads] + TINY) == 0
        outputs.add(tuple((out / name).read_bytes() for name in ("poses.csv", "estimates.csv")))
    assert len(outputs) == 1
    if mode == "stepwise":  # the pipeline's own fit, at one worker
        assert outputs == {tuple((pipeline_dir / "fit" / name).read_bytes()
                                 for name in ("poses.csv", "estimates.csv"))}


def test_sweep_thread_invariance(pipeline_dir, tmp_path):
    # sweep votes, condenses and fits its frames in --threads workers
    tables = set()
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        rc = cli.main(["sweep", "--experiment", "k",
                       "--dataset", str(pipeline_dir / "dataset"),
                       "--forest", str(pipeline_dir / "forest.bin"), "--out", str(out),
                       "--set", "sweep.k_grid=1,2", "--threads", threads] + TINY)
        assert rc == 0
        tables.add((out / "sweep_k" / "table.csv").read_bytes())
    assert len(tables) == 1


def test_train_in_forked_workers_under_default_blas_threads(pipeline_dir, tmp_path):
    # forking once BLAS has started its threads can hang a worker; this runs
    # the CLI as a user does, BLAS thread counts left to their defaults
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "OPENBLAS_MAIN_FREE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "handfit.cli", "train", "--dataset",
         str(pipeline_dir / "dataset"), "--out", str(tmp_path / "f.bin"), "--seed", "7",
         "--threads", "2"] + TINY, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "f.bin").read_bytes() == (pipeline_dir / "forest.bin").read_bytes()


def test_infer_with_more_forest_joints_than_the_hand_exits_4(pipeline_dir, tmp_path,
                                                              caplog):
    one_leaf = forest.Tree(
        nodes=np.array([[-1, -1, 0, 0, 0, 0, 0, 0]], "<f4"),
        leaf_modes=np.ones((1, 22, 1, 3), np.float32),
        leaf_weights=np.ones((1, 22, 1), np.float32))
    path = tmp_path / "forest22.bin"
    forest.save_forest(path, forest.Forest([one_leaf], num_joints=22, leaf_modes=1))
    rc = cli.main(["infer", "--dataset", str(pipeline_dir / "dataset"),
                   "--forest", str(path), "--out", str(tmp_path / "p.csv")] + TINY)
    assert rc == 4
    assert re.search(r"joint count 22 .*\(at byte 12\)", caplog.text)
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("change, message", [
    (dict(trees=[]), "header forest.num_trees: must be >= 1, got 0 (at byte 8)"),
    (dict(bg_depth_mm=float("nan")),
     "header forest.bg_depth_mm: must be finite, got nan (at byte 16)"),
], ids=["no_trees", "bg_nan"])
def test_infer_with_a_forest_header_no_training_writes_exits_4(pipeline_dir, tmp_path,
                                                                caplog, change, message):
    # these used to load: no trees failed in accumulate_votes with a numpy
    # message, and a NaN background depth was routed on
    model = forest.load_forest(pipeline_dir / "forest.bin")
    path = tmp_path / "bad.bin"
    forest.save_forest(path, dataclasses.replace(model, **change))
    rc = cli.main(["infer", "--dataset", str(pipeline_dir / "dataset"),
                   "--forest", str(path), "--out", str(tmp_path / "p.csv")] + TINY)
    assert rc == 4
    assert message in caplog.text
    assert not (tmp_path / "p.csv").exists()


def test_infer_on_truncated_frame_exits_4_naming_the_file(pipeline_dir, tmp_path, caplog):
    dataset = tmp_path / "dataset"
    shutil.copytree(pipeline_dir / "dataset", dataset)
    frame = dataset / "test" / "frame_00000.pgm"
    frame.write_bytes(frame.read_bytes()[:100])
    rc = cli.main(["infer", "--dataset", str(dataset),
                   "--forest", str(pipeline_dir / "forest.bin"),
                   "--out", str(tmp_path / "p.csv")] + TINY)
    assert rc == 4
    assert f"{frame}: pixel data truncated" in caplog.text
    assert not (tmp_path / "p.csv").exists()


def test_joints_csv_round_trip(tmp_path, rng):
    frames = [rng.uniform(-100, 100, (21, 3)) for _ in range(3)]
    frames[1][4] = np.nan
    cli.write_joints_csv(tmp_path / "j.csv", frames)
    again = cli.read_joints_csv(tmp_path / "j.csv")
    assert len(again) == 3
    np.testing.assert_allclose(again[0], frames[0], rtol=1e-8)
    assert np.isnan(again[1][4]).all()
