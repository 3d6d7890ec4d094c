"""Flat `key = value` run configuration shared by every pipeline stage,
the settings objects built from it, and the two text formats the stages
exchange: `key = value` files and CSV tables."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path


class ConfigError(ValueError):
    """Unknown key, malformed line, or unparsable value."""


class _KeyValues(dict):
    """str->str dict whose missing-key lookup names the file it came from;
    `lines` maps each key to its line in that file."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.lines = {}

    def __missing__(self, key):
        raise ConfigError(f"{self.path}: missing key {key!r}")

    def number(self, key, default=None, kind=float):
        """The value of `key`, or `default` when given and the file lacks
        the key, as a finite `kind`; ConfigError naming file and key."""
        text = self[key] if default is None else self.get(key, default)
        return parse_number(text, kind, f"{self.path}: key {key!r}")


def parse_number(text, kind, where):
    """`kind(text)` (float or int) when finite, else ConfigError at `where`."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    expected = "integer" if kind is int else "number"
    raise ConfigError(f"{where}: expected {expected}, got {text!r}")


def _read_text(path, error):
    """The UTF-8 text of the file at `path`; other bytes raise
    `error("path:line: not UTF-8 text (reason)")`."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def read_keyvalue(path):
    """Parse a `key = value` text file into an ordered str->str dict.

    Blank lines and lines starting with '#' are ignored. A key set twice,
    and text that is not UTF-8, raise ConfigError("path:line: ..."); looking
    up a key the file lacks raises ConfigError naming the file and the key.
    """
    out = _KeyValues(path)
    for lineno, raw in enumerate(_read_text(path, ConfigError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set "
                              f"on line {out.lines[key]}")
        out[key] = value
        out.lines[key] = lineno
    return out


def load_keyvalue(path, build):
    """`build(kv)` for the `read_keyvalue` dict of the file at `path`.

    A ValueError from `build`, such as a value the built object rejects,
    becomes a ConfigError naming the file.
    """
    kv = read_keyvalue(path)
    try:
        return build(kv)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_keyvalue(path, mapping, header=None):
    lines = []
    if header:
        lines.extend("# " + h for h in header.splitlines())
    lines.extend(f"{k} = {v}" for k, v in mapping.items())
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, header, rows):
    """Write a CSV table: the header row, then rows of already-formatted cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header, parse):
    """`parse(row)` for each data row of a CSV table whose first row is `header`.

    A wrong header, a row whose width differs from the header's, text that
    is not UTF-8 or not CSV, and a ValueError from `parse` all raise
    ValueError("path:line: ...").
    """
    reader = csv.reader(io.StringIO(_read_text(path, ValueError), newline=""))
    out = []
    try:
        if next(reader, None) != list(header):
            raise ValueError("expected the header " + ",".join(header))
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(row)}")
            out.append(parse(row))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return out


@dataclass(frozen=True)
class ForestConfig:
    """Forest training settings; field `f` is run-config key `forest.f`."""

    num_trees: int = 3
    max_depth: int = 23
    min_samples: int = 40
    node_subsample: int = 800
    candidates: int = 200
    probe_range_px_m: float = 60.0
    bg_depth_mm: float = 10000.0
    leaf_modes: int = 2
    leaf_bandwidth_mm: float = 20.0
    leaf_cap: int = 256
    meanshift_iters: int = 50

    def __post_init__(self):
        check_fields(self, "forest")


@dataclass(frozen=True)
class PsoConfig:
    """Swarm sizes per optimisation stage plus canonical PSO coefficients."""

    palm_particles: int = 26
    palm_generations: int = 26
    finger_particles: int = 23
    finger_generations: int = 23
    joint_particles: int = 67
    joint_generations: int = field(default=50, metadata={"key": "pso.generations"})
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    d_max_mm: float = 100.0
    translation_margin_mm: float = 150.0
    seed: int = field(default=0, metadata={"key": None})  # given by the caller

    def __post_init__(self):
        check_fields(self, "pso")
        # the caller's seed has the range of the run config's
        object.__setattr__(self, "seed", check_setting("seed", self.seed))


def _field_keys(cls, prefix):
    """(field, run-config key) of each field `f` of settings dataclass `cls`:
    key `prefix.f`, or the key its metadata names; metadata key None skips it."""
    pairs = ((f, f.metadata.get("key", f"{prefix}.{f.name}")) for f in fields(cls))
    return [(f, key) for f, key in pairs if key is not None]


# Every run setting's default, written once: the forest.* and pso.* entries
# are the field defaults of ForestConfig and PsoConfig above.
DEFAULTS = {
    "seed": 1,
    "camera.width": 320,
    "camera.height": 240,
    "camera.fx": 280.0,
    "camera.fy": 280.0,
    "camera.cx": 160.0,
    "camera.cy": 120.0,
    "synth.articulations": 4,
    "synth.viewpoints": 7,
    "synth.distance_mm": 550.0,
    "synth.jitter_mm": 0.0,
    "synth.test_keyposes": 51,
    "synth.test_viewpoint": 5,
    "synth.frames_between": 9,
    "synth.subsample": 5,
    **{key: f.default for f, key in _field_keys(ForestConfig, "forest")},
    "forest.train_stride": 4,
    "forest.train_cap": 400,
    "forest.infer_stride": 2,
    "forest.infer_bandwidth_mm": 15.0,
    "forest.top_n": 200,
    "forest.k": 3,
    "forest.depth_sq_weight": True,
    **{key: f.default for f, key in _field_keys(PsoConfig, "pso")},
    "eval.threshold_start_mm": 5.0,
    "eval.threshold_stop_mm": 80.0,
    "eval.threshold_step_mm": 5.0,
    "eval.seeds": 5,
    "sweep.topn_grid": "25,50,100,200,400",
    "sweep.k_grid": "1,2,3,5",
}

# Each bounded numeric key's lowest value and whether that value itself is
# allowed; the other numeric keys take any value of their `_KINDS` type.
_RANGES = {
    "camera.width": (1, True), "camera.height": (1, True),
    "camera.fx": (0, False), "camera.fy": (0, False),
    "synth.articulations": (1, True), "synth.viewpoints": (1, True),
    "synth.jitter_mm": (0, True), "synth.subsample": (1, True),
    # a test sequence interpolates between keyposes: two or more, with
    # frames between each pair
    "synth.test_keyposes": (2, True), "synth.frames_between": (1, True),
    "forest.num_trees": (1, True), "forest.max_depth": (0, True),
    "forest.min_samples": (1, True), "forest.node_subsample": (1, True),
    "forest.candidates": (1, True), "forest.probe_range_px_m": (0, False),
    "forest.bg_depth_mm": (0, False), "forest.leaf_modes": (1, True),
    "forest.leaf_bandwidth_mm": (0, False), "forest.leaf_cap": (1, True),
    "forest.meanshift_iters": (0, True), "forest.train_stride": (1, True),
    "forest.train_cap": (1, True), "forest.infer_stride": (1, True),
    "forest.infer_bandwidth_mm": (0, False), "forest.top_n": (1, True),
    "forest.k": (1, True),
    "pso.palm_particles": (2, True), "pso.finger_particles": (2, True),
    "pso.joint_particles": (2, True),
    # zero generations is the best of the initial swarm; fewer is no run
    "pso.palm_generations": (0, True), "pso.finger_generations": (0, True),
    "pso.generations": (0, True), "pso.d_max_mm": (0, False),
    # a negative margin inverts the search box around the proposals
    "pso.translation_margin_mm": (0, True),
    "eval.threshold_step_mm": (0, False), "eval.seeds": (1, True),
    "seed": (0, True),  # numpy seeds its generators from non-negative integers
}


# per default type: the values a setting of that type takes, and their name
_KINDS = {bool: (bool, "a bool"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "comma-separated integers")}


def check_setting(key, value):
    """`value` as a plain value of its default's type, when it is valid for
    run-config key `key` by `_KINDS`, finite, and in `_RANGES`; else
    ConfigError naming `key`. Only bool keys take bools."""
    kind = type(DEFAULTS[key])
    accepted, name = _KINDS[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key}: must be {name}, got {value!r}")
    if kind is str:  # every string-valued key is an integer grid
        _int_list(key, value)
    try:
        finite = kind is not float or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    value = kind(value)
    if key in _RANGES:
        low, allowed = _RANGES[key]
        if not (value >= low if allowed else value > low):
            raise ConfigError(f"{key}: must be {'>=' if allowed else '>'} {low}, "
                              f"got {value!r}")
    return value


def check_fields(settings, prefix):
    """`check_setting` of each field of frozen settings dataclass `settings`
    under its `_field_keys` key; the field keeps the plain value returned."""
    for f, key in _field_keys(type(settings), prefix):
        object.__setattr__(settings, f.name, check_setting(key, getattr(settings, f.name)))


def _int_list(key, text):
    """The comma-separated integers of `text`; ConfigError naming `key`."""
    values = [parse_number(tok, int, key) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}")
    return values


def _parse(key, text):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected boolean, got {text!r}")
    if isinstance(default, (int, float)):
        return parse_number(text, type(default), key)
    return text


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a plain float's str is its repr


class RunConfig:
    """All tunables of the pipeline, flat dotted keys, typed by their defaults."""

    def __init__(self, values=None):
        self._values = dict(DEFAULTS)
        if values:
            for key, val in values.items():
                self[key] = val

    @classmethod
    def load(cls, path):
        cfg = cls()
        kv = read_keyvalue(path)
        for key, text in kv.items():
            try:
                cfg[key] = text
            except ConfigError as exc:
                raise ConfigError(f"{path}:{kv.lines[key]}: {exc}") from None
        return cfg

    def __getitem__(self, key):
        if key not in self._values:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def __setitem__(self, key, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = _parse(key, value)
        self._values[key] = check_setting(key, value)

    def set_from_text(self, assignment):
        """Apply one 'key=value' override string (CLI --set)."""
        if "=" not in assignment:
            raise ConfigError(f"expected key=value, got {assignment!r}")
        key, text = assignment.split("=", 1)
        self[key.strip()] = text.strip()

    def items(self):
        return self._values.items()

    def build(self, cls, prefix, **given):
        """`cls(**given)`, each other field read from its key under `prefix`;
        a given value out of range is `cls`'s ConfigError naming its key."""
        kw = {f.name: self[key] for f, key in _field_keys(cls, prefix)}
        return cls(**{**kw, **given})

    def int_list(self, key):
        return _int_list(key, str(self[key]))

    def thresholds(self):
        import numpy as np

        return np.arange(self["eval.threshold_start_mm"],
                         self["eval.threshold_stop_mm"] + 1e-9,
                         self["eval.threshold_step_mm"])

    def canonical(self):
        return "\n".join(f"{k} = {_format(self._values[k])}"
                         for k in sorted(self._values)) + "\n"

    def content_hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    def write(self, path):
        Path(path).write_text("# effective run configuration\n" + self.canonical())
