"""The CSV tables the pipeline reads: malformed input fails with a
ValueError located at `path:line`, and the CLI turns it into exit 4."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import cli, geometry
from handfit.config import CSV_LIMIT, RunConfig, read_csv
from handfit.depth import CameraIntrinsics
from handfit.proposals import PROPOSAL_COLUMNS, read_proposals_csv

# table -> (reader, header, one valid data row)
TABLES = {
    "poses": (geometry.read_poses_csv, geometry.POSE_COLUMNS, ["1"] * 27),
    "estimates": (cli.read_joints_csv, cli.ESTIMATE_COLUMNS, ["0"] + ["1"] * 63),
    "proposals": (read_proposals_csv, PROPOSAL_COLUMNS, ["0", "0", "1", "2", "3", "1"]),
}

# case -> ((header, row) -> malformed (header, row), line the error is on)
MALFORMED = {
    "wrong_header": (lambda h, r: (["nope"] + h[1:], r), 1),
    "short_row": (lambda h, r: (h, r[:-1]), 2),
    "non_numeric": (lambda h, r: (h, r[:-1] + ["x"]), 2),
    "huge_field": (lambda h, r: (h, r[:-1] + ["1" * 200_000]), 2),
    "non_utf8": (lambda h, r: (h, r[:-1] + [b"\xff\xfe"]), 2),
}

# the CLI command that reads each table, given the bad file and a work dir
COMMANDS = {
    "estimates": lambda bad, tmp: ["eval", "--estimates", str(bad),
                                   "--dataset", str(tmp / "ds"), "--out", str(tmp / "out")],
    "proposals": lambda bad, tmp: ["fit", "--proposals", str(bad), "--out", str(tmp / "out")],
}


def _csv_bytes(header, rows):
    lines = [",".join(header).encode()]
    lines += [b",".join(c if isinstance(c, bytes) else c.encode() for c in row)
              for row in rows]
    return b"\n".join(lines) + b"\n"


def _write_malformed(path, table, case):
    _, header, row = TABLES[table]
    edit, line = MALFORMED[case]
    bad_header, bad_row = edit(list(header), row)
    path.write_bytes(_csv_bytes(bad_header, [bad_row]))
    return line


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("table", TABLES)
def test_reader_locates_malformed_input(tmp_path, table, case):
    reader, header, row = TABLES[table]
    path = tmp_path / f"{table}.csv"
    path.write_bytes(_csv_bytes(header, [row]))
    assert len(reader(path)) == 1
    line = _write_malformed(path, table, case)
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}:{line}:")


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("table", COMMANDS)
def test_cli_exits_4_on_malformed_table(tmp_path, caplog, table, case):
    (tmp_path / "ds" / "test").mkdir(parents=True)
    geometry.write_poses_csv(tmp_path / "ds" / "test" / "poses.csv",
                             [geometry.PoseParams.rest()])
    bad = tmp_path / f"{table}.csv"
    line = _write_malformed(bad, table, case)
    assert cli.main(COMMANDS[table](bad, tmp_path)) == 4
    assert f"{bad}:{line}:" in caplog.text


@pytest.mark.parametrize("frames, line", [
    pytest.param(["-1", "0"], 2, id="minus_1_then_0"),
    pytest.param(["0", "-1"], 3, id="0_then_minus_1"),
    # one row that would stand for 10^8 frames, all but the last empty
    pytest.param(["100000000"], 2, id="lone_100000000"),
    pytest.param(["1", "0"], 2, id="1_before_0"),
    pytest.param(["0", "0", "2"], 4, id="gap"),
])
def test_proposals_frames_run_from_zero_without_gaps(tmp_path, frames, line):
    path = tmp_path / "p.csv"
    path.write_bytes(_csv_bytes(PROPOSAL_COLUMNS, [[f, "0", "1", "2", "3", "1"]
                                                   for f in frames]))
    with pytest.raises(ValueError) as exc:
        read_proposals_csv(path)
    assert str(exc.value).startswith(f"{path}:{line}: frame ")


@pytest.mark.parametrize("frames, line", [
    pytest.param(["x", "7"], 2, id="x_then_7"),
    pytest.param(["0", "7"], 3, id="0_then_7"),
    pytest.param(["1", "0"], 2, id="swapped"),
    pytest.param(["0", "0"], 3, id="repeat"),
    pytest.param(["0", "1", "3"], 4, id="gap"),
])
def test_estimates_frames_run_from_zero_without_gaps(tmp_path, caplog, frames, line):
    # eval pairs estimate i with ground-truth frame i, so the frame column
    # must read 0, 1, 2, ... like the proposals file
    path = tmp_path / "e.csv"
    path.write_bytes(_csv_bytes(cli.ESTIMATE_COLUMNS, [[f] + ["1"] * 63 for f in frames]))
    expected = f"{path}:{line}: frame {frames[line - 2]} where frame {line - 2} comes next"
    with pytest.raises(ValueError) as exc:
        cli.read_joints_csv(path)
    assert str(exc.value).startswith(expected)
    (tmp_path / "ds" / "test").mkdir(parents=True)
    geometry.write_poses_csv(tmp_path / "ds" / "test" / "poses.csv",
                             [geometry.PoseParams.rest()] * len(frames))
    assert cli.main(COMMANDS["estimates"](path, tmp_path)) == 4
    assert expected in caplog.text


CELLS = st.sampled_from(["", "0", "1", "2", "-1", "20", "-0.5", "1e400", "nan",
                         "inf", "x", "100000000", '"1,2"'])


@pytest.mark.parametrize("table", TABLES)
@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_readers_return_or_raise_value_error_on_any_bytes(tmp_path_factory, table, data):
    reader, header, _ = TABLES[table]
    width = len(header)
    # near-valid rows reach the cell parsing that random bytes rarely do
    rows = st.lists(st.lists(CELLS, min_size=width - 1, max_size=width + 1),
                    max_size=2048 // (11 * width))
    body = data.draw(st.one_of(
        st.binary(max_size=2048),
        rows.map(lambda r: _csv_bytes(header, r).split(b"\n", 1)[1])))
    path = tmp_path_factory.getbasetemp() / f"fuzz_{table}.csv"
    path.write_bytes(",".join(header).encode() + b"\n" + body)
    try:
        reader(path)
    except ValueError:
        pass


def _pose_row(**cells):
    """A valid poses.csv row, some cells by column name replaced."""
    row = ["1"] * len(geometry.POSE_COLUMNS)
    for name, cell in cells.items():
        row[geometry.POSE_COLUMNS.index(name)] = cell
    return row


ZERO_QUATERNION = dict(qw="0", qx="0", qy="0", qz="0")
# case -> (cells replaced in the second row, the error after path:3:)
BAD_POSES = {
    "tx_nan": (dict(tx="nan"), "tx nan is not finite"),
    "tz_minus_inf": (dict(tz="-inf"), "tz -inf is not finite"),
    "first_of_two_named": (dict(qx="nan", **{geometry.POSE_COLUMNS[-1]: "inf"}),
                           "qx nan is not finite"),
    "angle_overflow": ({geometry.POSE_COLUMNS[-1]: "1e400"},
                       f"{geometry.POSE_COLUMNS[-1]} inf is not finite"),
    "zero_quaternion": (ZERO_QUATERNION, "zero-norm quaternion has no orientation"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_POSES)
def test_poses_reader_rejects_a_value_no_pose_has(tmp_path, case):
    # a NaN translation used to read without error and eval charged every
    # joint of its frame the missing-joint sentinel; a zero quaternion
    # failed later in forward kinematics, naming neither file nor row
    cells, message = BAD_POSES[case]
    path = tmp_path / "poses.csv"
    path.write_bytes(_csv_bytes(geometry.POSE_COLUMNS, [_pose_row(), _pose_row(**cells)]))
    with pytest.raises(ValueError) as exc:
        geometry.read_poses_csv(path)
    assert str(exc.value) == f"{path}:3: {message}"


@pytest.mark.filterwarnings("error")
def test_poses_reader_draws_the_quaternion_line_where_normalize_does(tmp_path):
    # norm 2e-12 reads as written; norm 2e-13 is below the 1e-12 that
    # quats.normalize refuses, and used to read without error
    path = tmp_path / "poses.csv"
    small = dict(qw="1e-12", qx="1e-12", qy="1e-12", qz="-1e-12")
    path.write_bytes(_csv_bytes(geometry.POSE_COLUMNS, [_pose_row(**small)]))
    [pose] = geometry.read_poses_csv(path)
    assert pose.orientation.tolist() == [1e-12, 1e-12, 1e-12, -1e-12]
    tiny = {name: value.replace("-12", "-13") for name, value in small.items()}
    path.write_bytes(_csv_bytes(geometry.POSE_COLUMNS, [_pose_row(**tiny)]))
    with pytest.raises(ValueError) as exc:
        geometry.read_poses_csv(path)
    assert str(exc.value) == f"{path}:2: zero-norm quaternion has no orientation"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, split", [("eval", "test"), ("train", "train")])
@pytest.mark.parametrize("case", ["tx_nan", "zero_quaternion"])
def test_cli_exits_4_naming_the_row_of_a_bad_pose(tmp_path, caplog, command, split, case):
    # eval used to score a NaN-translation frame at 100 mm a joint and exit
    # 0; train and eval failed on a zero quaternion without the file
    cells, message = BAD_POSES[case]
    ds = tmp_path / "ds"
    (ds / split).mkdir(parents=True)
    poses = ds / split / "poses.csv"
    poses.write_bytes(_csv_bytes(geometry.POSE_COLUMNS, [_pose_row(), _pose_row(**cells)]))
    CameraIntrinsics.default().save(ds / "intrinsics.txt")
    cli.write_joints_csv(tmp_path / "estimates.csv", [np.zeros((21, 3))] * 2)
    args = {"eval": ["eval", "--estimates", str(tmp_path / "estimates.csv"),
                     "--dataset", str(ds), "--out", str(tmp_path / "out")],
            "train": ["train", "--dataset", str(ds), "--out", str(tmp_path / "f.bin")]}
    assert cli.main(args[command]) == 4
    assert f"{poses}:3: {message}" in caplog.text
    assert not (tmp_path / "out").exists() and not (tmp_path / "f.bin").exists()


# file kind -> (the column a bad value goes in, two data rows with that
# column's cell of the second replaced, the command that reads the file)
LIMITED = {
    "poses": ("tz", lambda v: [_pose_row(), _pose_row(tz=v)],
              lambda bad, est, tmp: ["eval", "--estimates", str(est), "--dataset",
                                     str(tmp / "ds"), "--out", str(tmp / "out")]),
    "estimates": (cli.ESTIMATE_COLUMNS[-1], lambda v: [["0"] + ["1"] * 63,
                                                       ["1"] + ["1"] * 62 + [v]],
                  lambda bad, est, tmp: ["eval", "--estimates", str(bad), "--dataset",
                                         str(tmp / "ds"), "--out", str(tmp / "out")]),
    "proposals": ("x", lambda v: [["0", "0", "1", "2", "3", "1"], ["1", "0", v, "2", "3", "1"]],
                  lambda bad, est, tmp: ["fit", "--proposals", str(bad),
                                         "--out", str(tmp / "out")]),
}


def _limited_files(tmp_path, kind, value):
    """A dataset of two poses and estimates for them, with `value` in one
    cell of the second row of the `kind` file; returns (that file, the
    estimates file)."""
    (tmp_path / "ds" / "test").mkdir(parents=True)
    paths = {"poses": tmp_path / "ds" / "test" / "poses.csv",
             "estimates": tmp_path / "estimates.csv", "proposals": tmp_path / "proposals.csv"}
    headers = {"poses": geometry.POSE_COLUMNS, "estimates": cli.ESTIMATE_COLUMNS,
               "proposals": PROPOSAL_COLUMNS}
    for name, path in paths.items():
        rows = LIMITED[name][1](value if name == kind else "1")
        path.write_bytes(_csv_bytes(headers[name], rows))
    return paths[kind], paths["estimates"]


@pytest.mark.parametrize("value", ["inf", "-inf", "1e308"])
@pytest.mark.parametrize("kind", LIMITED)
def test_cli_exits_4_on_a_value_past_the_csv_limit(tmp_path, kind, value):
    # an inf or 1e308 estimate or pose translation used to make eval print
    # "inf mm" and exit 0, and fit on a 1e308 proposal exited 0 after an
    # overflow warning; warnings are errors here, so any would show
    column, _, command = LIMITED[kind]
    bad, estimates = _limited_files(tmp_path, kind, value)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "handfit.cli",
                           *command(bad, estimates, tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    rule = "finite" if value.endswith("inf") else f"at most {CSV_LIMIT:g} in magnitude"
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{bad}:3: {column} {float(value)!r} is not {rule}" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", LIMITED)
def test_readers_take_values_up_to_the_csv_limit(tmp_path, kind):
    reader = {"poses": geometry.read_poses_csv, "estimates": cli.read_joints_csv,
              "proposals": read_proposals_csv}[kind]
    for value in (CSV_LIMIT, -CSV_LIMIT):
        path, _ = _limited_files(tmp_path / repr(value), kind, repr(value))
        assert len(reader(path)) == 2
    path, _ = _limited_files(tmp_path / "past", kind, repr(1.0000001 * CSV_LIMIT))
    with pytest.raises(ValueError, match=f"^{path}:3: .* is not at most 1e\\+150"):
        reader(path)


@pytest.mark.filterwarnings("error")
def test_a_nan_estimate_still_scores_the_missing_joint_sentinel(tmp_path):
    ds = tmp_path / "ds"
    (ds / "test").mkdir(parents=True)
    pose = geometry.PoseParams.rest((0.0, 0.0, 550.0))
    geometry.write_poses_csv(ds / "test" / "poses.csv", [pose])
    joints = geometry.forward_kinematics(geometry.HandGeometry.default(), pose)
    joints[7] = np.nan
    cli.write_joints_csv(tmp_path / "estimates.csv", [joints])
    assert cli.main(["eval", "--estimates", str(tmp_path / "estimates.csv"),
                     "--dataset", str(ds), "--out", str(tmp_path / "out")]) == 0
    [row] = read_csv(tmp_path / "out" / "frame_errors.csv",
                         ["frame", "mean_error_mm", "max_error_mm", "fingertip_error_mm"],
                         lambda row: row)
    assert float(row[2]) == RunConfig()["pso.d_max_mm"]
