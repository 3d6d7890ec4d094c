"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_hash(root):
    """sha256 over the package sources and data, identifying the code measured."""
    h = hashlib.sha256()
    pkg = Path(root) / "src" / "handfit"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_sizes():
    """L2/L3 sizes of cpu0 as the kernel reports them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _blas(np):
    """BLAS library name/version from numpy's build, live thread count."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    return info


def collect(root, seed):
    import numpy as np

    return {
        "commit": _git_commit(root),
        "source_hash": _source_hash(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "executable": Path(sys.executable).name,
        "seed": seed,
    }
