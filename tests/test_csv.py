"""The CSV tables the pipeline reads: malformed input fails with a
ValueError located at `path:line`, and the CLI turns it into exit 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import cli, geometry
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
