"""Flat `key = value` run configuration shared by every pipeline stage,
and the two text formats every stage exchanges: `key = value` files and
CSV tables."""

from __future__ import annotations

import csv
import hashlib
import io
import math
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


def read_keyvalue(path):
    """Parse a `key = value` text file into an ordered str->str dict.

    Blank lines and lines starting with '#' are ignored. A key set twice,
    and text that is not UTF-8, raise ConfigError("path:line: ..."); looking
    up a key the file lacks raises ConfigError naming the file and the key.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
    out = _KeyValues(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
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


# Defaults: tree depth 23, min 40 samples per node, 3 trees, 200 retained
# votes, k = 3 proposals per joint, 50 PSO generations; the rest are
# artifact tunables.
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
    "forest.num_trees": 3,
    "forest.max_depth": 23,
    "forest.min_samples": 40,
    "forest.node_subsample": 800,
    "forest.candidates": 200,
    "forest.probe_range_px_m": 60.0,
    "forest.bg_depth_mm": 10000.0,
    "forest.train_stride": 4,
    "forest.train_cap": 400,
    "forest.leaf_modes": 2,
    "forest.leaf_bandwidth_mm": 20.0,
    "forest.leaf_cap": 256,
    "forest.infer_stride": 2,
    "forest.infer_bandwidth_mm": 15.0,
    "forest.meanshift_iters": 50,
    "forest.top_n": 200,
    "forest.k": 3,
    "forest.depth_sq_weight": True,
    "pso.d_max_mm": 100.0,
    "pso.inertia": 0.7298,
    "pso.cognitive": 1.49618,
    "pso.social": 1.49618,
    "pso.generations": 50,
    "pso.palm_particles": 26,
    "pso.palm_generations": 26,
    "pso.finger_particles": 23,
    "pso.finger_generations": 23,
    "pso.joint_particles": 67,
    "pso.translation_margin_mm": 150.0,
    "eval.threshold_start_mm": 5.0,
    "eval.threshold_stop_mm": 80.0,
    "eval.threshold_step_mm": 5.0,
    "eval.seeds": 5,
    "sweep.topn_grid": "25,50,100,200,400",
    "sweep.k_grid": "1,2,3,5",
}


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
    _int_list(key, text)  # every string-valued key is an integer grid
    return text


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
            where = f"{path}:{kv.lines[key]}"
            if key not in DEFAULTS:
                raise ConfigError(f"{where}: unknown config key {key!r}")
            try:
                cfg._values[key] = _parse(key, text)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None
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
        expected = type(DEFAULTS[key])
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool) != isinstance(DEFAULTS[key], bool):
            raise ConfigError(f"{key}: expected {expected.__name__}, got {value!r}")
        self._values[key] = value

    def set_from_text(self, assignment):
        """Apply one 'key=value' override string (CLI --set)."""
        if "=" not in assignment:
            raise ConfigError(f"expected key=value, got {assignment!r}")
        key, text = assignment.split("=", 1)
        self[key.strip()] = text.strip()

    def items(self):
        return self._values.items()

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
        write_keyvalue(path, {k: _format(v) for k, v in self._values.items()},
                       header="effective run configuration")
