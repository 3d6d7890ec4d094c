import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import forest as F, meanshift, metrics, sweeps, synth
from handfit.config import ConfigError, RunConfig, read_keyvalue
from handfit.depth import CameraIntrinsics
from handfit.geometry import HandGeometry, JointLimits
from handfit.fit import PsoConfig
from handfit.forest import ForestConfig


def test_core_defaults_present():
    cfg = RunConfig()
    assert cfg["forest.max_depth"] == 23
    assert cfg["forest.min_samples"] == 40
    assert cfg["forest.num_trees"] == 3
    assert cfg["forest.top_n"] == 200
    assert cfg["forest.k"] == 3
    assert cfg["pso.generations"] == 50


def test_unknown_keys_rejected(tmp_path):
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="unknown"):
        cfg["definitely.not.a.key"]
    with pytest.raises(ConfigError, match="unknown"):
        cfg["forest.depht"] = 3
    path = tmp_path / "bad.txt"
    path.write_text("forest.max_depth = 10\nnope.nope = 1\n")
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.load(path)


def test_typed_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("forest.max_depth = 12\npso.d_max_mm = 80\n"
                    "forest.depth_sq_weight = false\n")
    cfg = RunConfig.load(path)
    assert cfg["forest.max_depth"] == 12
    assert cfg["pso.d_max_mm"] == 80.0
    assert cfg["forest.depth_sq_weight"] is False
    path.write_text("forest.max_depth = twelve\n")
    with pytest.raises(ConfigError, match="integer"):
        RunConfig.load(path)


def test_run_config_errors_name_file_and_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# run\nforest.k = 2\nnope.nope = 1\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:3: unknown config key 'nope.nope'"
    path.write_text("forest.k = abc\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:1: forest.k: expected integer, got 'abc'"


def test_repeated_key_names_both_lines(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("forest.k = 3\n\nseed = 4\nforest.k = 5\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:4: key 'forest.k' already set on line 1"


@pytest.mark.parametrize("grid, message", [
    ("1,x", "sweep.k_grid: expected integer, got 'x'"),
    ("1,2.5", "sweep.k_grid: expected integer, got '2.5'"),
    (" , ", "sweep.k_grid: expected comma-separated integers, got ','"),
], ids=["letter", "fraction", "empty"])
def test_bad_grid_is_config_error(tmp_path, grid, message):
    path = tmp_path / "cfg.txt"
    path.write_text(f"seed = 2\nsweep.k_grid = {grid}\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:2: {message}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig().set_from_text(f"sweep.k_grid={grid}")


def test_set_from_text_and_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.set_from_text("forest.k = 5")
    assert cfg["forest.k"] == 5
    cfg.write(tmp_path / "out.txt")
    again = RunConfig.load(tmp_path / "out.txt")
    assert again["forest.k"] == 5
    assert again.content_hash() == cfg.content_hash()


def test_hash_tracks_content():
    a = RunConfig()
    b = RunConfig()
    assert a.content_hash() == b.content_hash()
    b["seed"] = 99
    assert a.content_hash() != b.content_hash()


def test_config_txt_is_the_hashed_text(tmp_path):
    # written sorted by key, so the file is the text the run hash covers
    cfg = RunConfig({"seed": 7, "pso.generations": 9})
    cfg.write(tmp_path / "config.txt")
    text = (tmp_path / "config.txt").read_text()
    assert text == "# effective run configuration\n" + cfg.canonical()
    assert RunConfig.load(tmp_path / "config.txt").canonical() == cfg.canonical()
    # run directories are named run_<hash>: the defaults' hash must not move
    assert RunConfig().content_hash() == "43fa0431c76a"


def test_malformed_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("this line has no equals sign\n")
    with pytest.raises(ConfigError, match="key = value"):
        RunConfig.load(path)


def test_missing_key_names_file_and_key(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("fx = 280\n")
    kv = read_keyvalue(path)
    assert kv["fx"] == "280"
    assert "fy" not in kv and kv.get("fy") is None and kv.get("fy", "1") == "1"
    with pytest.raises(ConfigError) as exc:
        kv["fy"]
    assert str(exc.value) == f"{path}: missing key 'fy'"
    with pytest.raises(ConfigError, match="missing key 'fy'"):
        CameraIntrinsics.from_file(path)


@pytest.mark.parametrize("key, value, message", [
    ("fx", "abc", "key 'fx': expected number, got 'abc'"),
    ("cy", "inf", "key 'cy': expected number, got 'inf'"),
    ("width", "320.5", "key 'width': expected integer, got '320.5'"),
    ("fy", "-1", "focal lengths must be positive"),
], ids=["fx_abc", "cy_inf", "width_320.5", "fy_negative"])
def test_intrinsics_bad_value_names_file(tmp_path, key, value, message):
    path = tmp_path / "intrinsics.txt"
    CameraIntrinsics.default().save(path)
    assert CameraIntrinsics.from_file(path) == CameraIntrinsics.default()
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", path.read_text(),
                           flags=re.M))
    with pytest.raises(ConfigError) as exc:
        CameraIntrinsics.from_file(path)
    assert str(exc.value) == f"{path}: {message}"


def test_keyvalue_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"a = 1\nb = \xff\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
        read_keyvalue(path)


# reader -> the model object whose saved file seeds the near-valid inputs
KEYVALUE_READERS = {
    "read_keyvalue": (read_keyvalue, HandGeometry.default),
    "geometry": (HandGeometry.from_file, HandGeometry.default),
    "limits": (JointLimits.from_file, JointLimits.default),
    "intrinsics": (CameraIntrinsics.from_file, CameraIntrinsics.default),
}

VALUES = st.sampled_from(["", "0", "1", "-1", "90", "-90", "0.5", "320", "1e400",
                          "nan", "-inf", "abc", "1 = 2", "0x10", "\u0661"])


@pytest.mark.parametrize("reader", KEYVALUE_READERS)
@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_keyvalue_readers_return_or_raise_config_error_on_any_bytes(
        tmp_path_factory, reader, data):
    read, model = KEYVALUE_READERS[reader]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{reader}.txt"
    model().save(path)
    lines = path.read_text().splitlines()
    # a valid file with a few lines dropped (None) or given another value
    # reaches the number parsing and the model's checks, which random
    # bytes rarely do
    edits = st.dictionaries(st.integers(0, len(lines) - 1), st.none() | VALUES,
                            max_size=3)
    near_valid = edits.map(lambda ed: "\n".join(
        line if i not in ed else f"{line.split('=')[0]}= {ed[i]}"
        for i, line in enumerate(lines) if ed.get(i, "") is not None).encode())
    path.write_bytes(data.draw(st.binary(max_size=2048) | near_valid))
    try:
        read(path)
    except ConfigError:
        pass


CONFIG_KEYS = st.sampled_from(["seed", "forest.k", "forest.depth_sq_weight",
                               "pso.d_max_mm", "sweep.k_grid", "camera.width",
                               "nope.nope", "", "forest.k = 2"])
CONFIG_VALUES = VALUES | st.sampled_from(["true", "no", "1,2", "1,x", ",", "3.0"])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_run_config_load_returns_or_raises_config_error_on_any_bytes(
        tmp_path_factory, data):
    # near-valid files: known and unknown keys, repeats and bad values
    lines = st.lists(st.tuples(CONFIG_KEYS, CONFIG_VALUES).map(" = ".join),
                     max_size=6).map(lambda ls: "\n".join(ls).encode())
    path = tmp_path_factory.getbasetemp() / "fuzz_run_config.txt"
    path.write_bytes(data.draw(st.binary(max_size=1024) | lines))
    try:
        RunConfig.load(path)
    except ConfigError:
        pass


def test_grid_helpers():
    cfg = RunConfig()
    assert cfg.int_list("sweep.k_grid") == [1, 2, 3, 5]
    thresholds = cfg.thresholds()
    assert thresholds[0] == 5.0 and thresholds[-1] == 80.0
    assert len(thresholds) == 16


# inference keyword -> the run-config key its default reads
INFERENCE_KEYS = {"stride": "forest.infer_stride", "top_n": "forest.top_n",
                  "k": "forest.k", "bandwidth_mm": "forest.infer_bandwidth_mm",
                  "max_iters": "forest.meanshift_iters",
                  "depth_sq_weight": "forest.depth_sq_weight"}


def test_run_config_defaults_match_dataclass_defaults():
    # config.py writes each run-setting default once; the settings objects,
    # keyword defaults and constants that read it equal the run config's
    cfg = RunConfig()
    assert cfg.build(ForestConfig, "forest") == ForestConfig()
    for seed in (0, 1, 17):
        assert sweeps.pso_config(cfg, seed) == PsoConfig(seed=seed)
    assert cfg.build(CameraIntrinsics, "camera") == CameraIntrinsics.default()
    defaults = [(p.default, INFERENCE_KEYS[name])
                for fn in (F.accumulate_votes, F.proposals_from_votes)
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty]
    assert len(defaults) == 6
    defaults.append((inspect.signature(meanshift.mean_shift).parameters["max_iters"].default,
                     "forest.meanshift_iters"))
    forest = F.Forest([])
    defaults += [(forest.leaf_modes, "forest.leaf_modes"),
                 (forest.bg_depth_mm, "forest.bg_depth_mm"),
                 (metrics.MISSING_JOINT_ERROR_MM, "pso.d_max_mm")]
    defaults += [(inspect.signature(fn).parameters["translation"].default[2],
                  "synth.distance_mm")
                 for fn in (synth.generate_training_poses, synth.make_track_keyposes)]
    for value, key in defaults:
        assert (type(value), value) == (type(cfg[key]), cfg[key]), key


@pytest.mark.parametrize("key, value, ok", [
    ("synth.viewpoints", 0, 1), ("synth.articulations", 0, 1),
    ("synth.subsample", -5, 1), ("synth.test_keyposes", 0, 1),
    ("eval.threshold_step_mm", 0.0, 0.5), ("eval.threshold_step_mm", -5.0, 0.5),
    ("eval.seeds", 0, 1), ("synth.jitter_mm", -1.0, 0.0),
    ("synth.frames_between", -1, 0),
])
def test_synth_and_eval_keys_are_range_checked(tmp_path, key, value, ok):
    with pytest.raises(ConfigError, match=re.escape(key)):
        RunConfig({key: value}).thresholds()
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:1: {key}: must")):
        RunConfig.load(path)
    assert RunConfig({key: ok})[key] == ok


def test_out_of_range_value_is_config_error_when_loaded_or_built(tmp_path):
    # the CLI cases cover --set; a --config file and the camera build too
    path = tmp_path / "cfg.txt"
    path.write_text("seed = 3\nforest.k = 0\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:2: forest.k: must be positive, got 0"
    with pytest.raises(ConfigError) as exc:
        RunConfig({"camera.fx": -1.0}).build(CameraIntrinsics, "camera")
    assert str(exc.value) == "camera: focal lengths must be positive"
