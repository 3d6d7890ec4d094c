import dataclasses
import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import forest as F, meanshift, metrics, sweeps, synth
from handfit import config
from handfit.config import DEFAULTS, ConfigError, RunConfig, check_setting, read_keyvalue
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
    ("fy", "-1", "camera.fy: must be >= 1, got -1.0"),
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
    defaults += [(F.Forest([]).bg_depth_mm, "forest.bg_depth_mm"),
                 (metrics.MISSING_JOINT_ERROR_MM, "pso.d_max_mm")]
    defaults += [(inspect.signature(fn).parameters["translation"].default[2],
                  "synth.distance_mm")
                 for fn in (synth.generate_training_poses, synth.make_track_keyposes)]
    for value, key in defaults:
        assert (type(value), value) == (type(cfg[key]), cfg[key]), key


@pytest.mark.parametrize("key, value, ok", [
    ("synth.viewpoints", 0, 1), ("synth.articulations", 0, 1),
    ("synth.subsample", -5, 1), ("synth.test_keyposes", 0, 2),
    ("eval.threshold_step_mm", 0.0, 0.5), ("eval.threshold_step_mm", -5.0, 0.5),
    ("eval.seeds", 0, 1), ("synth.jitter_mm", -1.0, 0.0),
    ("synth.frames_between", -1, 1),
    # a sequence needs two keyposes and a frame between each pair: these
    # used to load, and `handfit synth` failed only after writing train/
    ("synth.test_keyposes", 1, 2), ("synth.frames_between", 0, 1),
])
def test_synth_and_eval_keys_are_range_checked(tmp_path, key, value, ok):
    with pytest.raises(ConfigError, match=re.escape(key)):
        RunConfig({key: value}).thresholds()
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:1: {key}: must")):
        RunConfig.load(path)
    assert RunConfig({key: ok})[key] == ok


@pytest.mark.parametrize("field, value, message", [
    ("translation_margin_mm", -500.0, "pso.translation_margin_mm: must be >= 0, got -500.0"),
    ("translation_margin_mm", float("nan"), "pso.translation_margin_mm: must be finite, got nan"),
    ("palm_generations", -1, "pso.palm_generations: must be >= 0, got -1"),
    ("finger_generations", -2, "pso.finger_generations: must be >= 0, got -2"),
    ("joint_generations", -1, "pso.generations: must be >= 0, got -1"),
    ("inertia", float("nan"), "pso.inertia: must be finite, got nan"),
    ("cognitive", float("inf"), "pso.cognitive: must be finite, got inf"),
    ("social", float("-inf"), "pso.social: must be finite, got -inf"),
    ("d_max_mm", float("nan"), "pso.d_max_mm: must be finite, got nan"),
    ("d_max_mm", float("inf"), "pso.d_max_mm: must be finite, got inf"),
    ("seed", -1, "seed: must be >= 0, got -1"),
    ("seed", 1.5, "seed: must be an integer, got 1.5"),
], ids=["translation_margin_mm--500.0-translation_margin_mm must not be negative",
        "translation_margin_mm-nan-translation_margin_mm must be finite",
        "palm_generations--1-palm_generations must be >= 0",
        "finger_generations--2-finger_generations must be >= 0",
        "joint_generations--1-joint_generations must be >= 0",
        "inertia-nan-inertia must be finite", "cognitive-inf-cognitive must be finite",
        "social--inf-social must be finite", "d_max_mm-nan-d_max_mm must be finite",
        "d_max_mm-inf-d_max_mm must be finite", "seed--1-seed must be >= 0",
        "seed-1.5-seed must be an integer"])
def test_pso_config_rejects_settings_that_wreck_the_fit(field, value, message):
    # each of these used to build: a negative margin inverts the search
    # box, negative generations ran as one, a non-finite coefficient or
    # d_max turns every score or position into NaN or a constant, and a bad
    # seed failed in `fit_frames` with numpy's words
    with pytest.raises(ValueError, match=re.escape(message)):
        PsoConfig(**{field: value})
    with pytest.raises(ConfigError) as exc:
        RunConfig().build(PsoConfig, "pso", **{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("cls, field, value, message", [
    # each of these used to build: a fractional depth grew a deeper tree,
    # an infinite background depth gave NaN features and an inf file
    # header, and the others failed later with a raw TypeError or
    # OverflowError, or after the whole split search
    (ForestConfig, "max_depth", 2.5, "forest.max_depth: must be an integer, got 2.5"),
    (ForestConfig, "candidates", 2.5, "forest.candidates: must be an integer, got 2.5"),
    (ForestConfig, "leaf_cap", 10.5, "forest.leaf_cap: must be an integer, got 10.5"),
    (ForestConfig, "num_trees", 3.0, "forest.num_trees: must be an integer, got 3.0"),
    (ForestConfig, "meanshift_iters", True,
     "forest.meanshift_iters: must be an integer, got True"),
    (ForestConfig, "bg_depth_mm", float("inf"), "forest.bg_depth_mm: must be finite, got inf"),
    (ForestConfig, "probe_range_px_m", float("inf"),
     "forest.probe_range_px_m: must be finite, got inf"),
    (ForestConfig, "leaf_bandwidth_mm", float("inf"),
     "forest.leaf_bandwidth_mm: must be finite, got inf"),
    (ForestConfig, "leaf_bandwidth_mm", float("nan"),
     "forest.leaf_bandwidth_mm: must be finite, got nan"),
    (PsoConfig, "palm_particles", 4.5, "pso.palm_particles: must be an integer, got 4.5"),
    (PsoConfig, "joint_generations", 2.0, "pso.generations: must be an integer, got 2.0"),
    (PsoConfig, "d_max_mm", True, "pso.d_max_mm: must be a number, got True"),
    pytest.param(ForestConfig, "bg_depth_mm", 10**400,
                 f"forest.bg_depth_mm: must be finite, got {10**400}",
                 id="ForestConfig-bg_depth_mm-10**400"),
])
def test_settings_reject_fractional_counts_and_non_finite_lengths(cls, field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{field: value})
    prefix = "forest" if cls is ForestConfig else "pso"
    with pytest.raises(ConfigError) as exc:
        RunConfig().build(cls, prefix, **{field: value})
    assert str(exc.value) == message  # named once, not prefixed again


@pytest.mark.parametrize("field, value, message", [
    ("fx", float("nan"), "camera.fx: must be finite, got nan"),
    ("fy", float("inf"), "camera.fy: must be finite, got inf"),
    ("fx", float("-inf"), "camera.fx: must be finite, got -inf"),
    ("cx", float("nan"), "camera.cx: must be finite, got nan"),
    ("width", 2.5, "camera.width: must be an integer, got 2.5"),
    ("height", 240.0, "camera.height: must be an integer, got 240.0"),
    ("width", 0, "camera.width: must be >= 1, got 0"),
    ("fy", 0.0, "camera.fy: must be >= 1, got 0.0"),
])
def test_intrinsics_reject_non_finite_focal_lengths_and_fractional_sizes(field, value,
                                                                         message):
    # the non-finite and fractional values used to build a camera
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(CameraIntrinsics.default(), **{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value, message", [
    # each of these used to be accepted, and failed only at a build or never
    ("forest.num_trees", 0, "forest.num_trees: must be >= 1, got 0"),
    ("camera.fx", -1.0, "camera.fx: must be >= 1, got -1.0"),
    ("pso.inertia", float("nan"), "pso.inertia: must be finite, got nan"),
    ("synth.distance_mm", float("inf"), "synth.distance_mm: must be finite, got inf"),
    ("pso.d_max_mm", True, "pso.d_max_mm: must be a number, got True"),
    ("forest.k", 2.0, "forest.k: must be an integer, got 2.0"),
    ("forest.depth_sq_weight", 1, "forest.depth_sq_weight: must be a bool, got 1"),
    ("seed", -1, "seed: must be >= 0, got -1"),
    # past float32's range, it overflowed where the split features cast it
    ("forest.bg_depth_mm", 1e308, "forest.bg_depth_mm: must be <= 1e+06, got 1e+308"),
])
def test_run_config_rejects_a_bad_value_when_it_is_set(key, value, message):
    cfg = RunConfig()
    with pytest.raises(ConfigError) as exc:
        cfg[key] = value
    assert str(exc.value) == message
    assert cfg[key] == DEFAULTS[key]


def test_every_default_is_in_range():
    assert set(config._RANGES) <= set(DEFAULTS)
    assert set(config._CEILINGS) | set(v for v in config._CEILINGS.values()
                                       if isinstance(v, str)) <= set(DEFAULTS)
    for key, value in DEFAULTS.items():
        assert check_setting(key, value) == value, key
    assert RunConfig().canonical() == RunConfig(DEFAULTS).canonical()


def test_settings_take_numpy_integer_counts():
    import numpy as np

    assert ForestConfig(max_depth=np.int64(5)).max_depth == 5
    assert PsoConfig(palm_particles=np.int32(4)).palm_particles == 4
    # kept as the plain values a config file gives, so the hash is the same
    cfg = RunConfig()
    cfg["forest.k"] = np.int64(4)
    cfg["pso.inertia"] = np.float64(0.5)
    assert type(cfg["forest.k"]) is int and type(cfg["pso.inertia"]) is float
    assert cfg.content_hash() == RunConfig({"forest.k": 4, "pso.inertia": 0.5}).content_hash()
    assert type(ForestConfig(max_depth=np.int64(5)).max_depth) is int


def test_pso_config_keeps_zero_generations_and_zero_margin():
    cfg = PsoConfig(palm_generations=0, finger_generations=0, joint_generations=0,
                    translation_margin_mm=0.0)
    assert (cfg.palm_generations, cfg.translation_margin_mm) == (0, 0.0)


def test_out_of_range_value_is_config_error_when_loaded_or_built(tmp_path):
    # the CLI cases cover --set; a --config file and the camera build too
    path = tmp_path / "cfg.txt"
    path.write_text("seed = 3\nforest.k = 0\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.load(path)
    assert str(exc.value) == f"{path}:2: forest.k: must be >= 1, got 0"
    with pytest.raises(ConfigError) as exc:
        RunConfig().build(CameraIntrinsics, "camera", fx=-1.0)
    assert str(exc.value) == "camera.fx: must be >= 1, got -1.0"


@pytest.mark.parametrize("changes, message", [
    ({"fx": 0.5}, "camera.fx: must be >= 1, got 0.5"),
    ({"fy": 1e-300}, "camera.fy: must be >= 1, got 1e-300"),
    ({"fx": 2e6}, "camera.fx: must be <= 1e+06, got 2000000.0"),
    ({"cx": -0.5}, "camera.cx: must be >= 0, got -0.5"),
    ({"cx": 320.5}, "camera.cx: must be <= camera.width (320), got 320.5"),
    ({"cy": 100.0, "height": 99}, "camera.cy: must be <= camera.height (99), got 100.0"),
])
def test_intrinsics_keep_every_camera_product_finite(changes, message):
    # a focal length of 1 to 1e6 px and a principal point inside the image
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(CameraIntrinsics.default(), **changes)
    assert str(exc.value) == message


def test_intrinsics_take_the_bounds_themselves():
    cam = dataclasses.replace(CameraIntrinsics.default(), fx=1.0, fy=1e6, cx=0.0, cy=240.0)
    assert (cam.fx, cam.fy, cam.cx, cam.cy) == (1.0, 1e6, 0.0, 240.0)
    cfg = RunConfig()
    with pytest.raises(ConfigError, match=re.escape("camera.fx: must be <= 1e+06, got 10000000.0")):
        cfg["camera.fx"] = 1e7
    cfg["camera.cx"] = 400.0  # the image size is checked with it when the camera is built
    with pytest.raises(ConfigError, match=re.escape("camera.cx: must be <= camera.width")):
        cfg.build(CameraIntrinsics, "camera")


@pytest.mark.parametrize("field, index, key", [
    ("bone_lengths", (0, 0), "thumb.proximal"),
    ("bone_lengths", (4, 2), "pinky.distal"),
    ("finger_base_offsets", (2, 1), "middle.base.y"),
    ("palm_root_to_wrist", (2,), "wrist.offset.z"),
])
@pytest.mark.parametrize("value", [1000.5, -1e300])
def test_geometry_lengths_past_the_limit_name_their_key(field, index, key, value):
    geom = HandGeometry.default()
    values = getattr(geom, field).copy()
    values[index] = value
    if field == "bone_lengths" and value < 0:
        message = "bone lengths must be strictly positive"
    else:
        message = f"key {key!r}: must be at most 1000 mm in magnitude, got {value!r}"
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(geom, **{field: values})
    assert str(exc.value) == message
    values[index] = config.GEOMETRY_LIMIT_MM if field == "bone_lengths" else -1000.0
    assert getattr(dataclasses.replace(geom, **{field: values}), field)[index] == values[index]
