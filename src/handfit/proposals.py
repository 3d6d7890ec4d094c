"""Per-joint 3D position proposals with normalized confidence weights."""

from __future__ import annotations

import numpy as np

from . import geometry
from .config import csv_floats, read_csv, write_csv


class ProposalSet:
    """Up to k weighted position proposals per joint.

    Confidences are normalized to sum to one per joint so they behave like
    probabilities; proposals are kept sorted by weight descending. Joints
    absent from the mapping simply have no proposals.
    """

    def __init__(self, entries, num_joints=geometry.NUM_JOINTS):
        self.num_joints = num_joints
        self._entries = {}
        for j, (positions, weights) in sorted(entries.items()):
            positions = np.atleast_2d(np.asarray(positions, dtype=float))
            weights = np.atleast_1d(np.asarray(weights, dtype=float))
            if len(positions) == 0:
                continue
            if not (0 <= j < num_joints):
                raise ValueError(f"joint index {j} out of range")
            if positions.shape != (len(weights), 3):
                raise ValueError(f"joint {j}: positions/weights shape mismatch")
            if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(weights)):
                raise ValueError(f"joint {j}: non-finite proposal")
            if np.any(weights < 0):
                raise ValueError(f"joint {j}: negative weight")
            total = weights.sum()
            if total <= 0:
                continue
            order = np.argsort(-weights, kind="stable")
            self._entries[j] = (positions[order].copy(), weights[order] / total)
        self._padded_cache = None
        self._held_cache = None

    @classmethod
    def from_joints(cls, joints, joint_indices=None):
        """Single exact proposal per joint with weight 1 (oracle input)."""
        joints = np.asarray(joints, dtype=float)
        if joint_indices is None:
            joint_indices = range(len(joints))
        return cls({j: (joints[j][None, :], np.ones(1)) for j in joint_indices})

    @property
    def joints(self):
        return sorted(self._entries)

    def __contains__(self, j):
        return j in self._entries

    def __len__(self):
        return len(self._entries)

    def positions(self, j):
        return self._entries[j][0]

    def weights(self, j):
        return self._entries[j][1]

    def top(self, j):
        """The highest-confidence position for joint j."""
        return self._entries[j][0][0]

    def count(self):
        """Total number of proposals over all joints."""
        return sum(len(p) for p, _ in self._entries.values())

    def top_k(self, k):
        """Keep the k strongest proposals per joint, renormalized."""
        return ProposalSet({j: (p[:k], w[:k]) for j, (p, w) in self._entries.items()},
                           num_joints=self.num_joints)

    def only(self, joints):
        """The entries of `joints` alone, weights as they are (renormalizing moves bits)."""
        out = ProposalSet({}, num_joints=self.num_joints)
        out._entries = {j: e for j, e in self._entries.items() if j in joints}
        return out

    def padded(self):
        """Dense (J, K, 3) positions and (J, K) weights, zero weight = absent."""
        if self._padded_cache is None:
            k_max = max((len(w) for _, w in self._entries.values()), default=1)
            pos = np.zeros((self.num_joints, k_max, 3))
            wts = np.zeros((self.num_joints, k_max))
            for j, (p, w) in self._entries.items():
                pos[j, :len(w)] = p
                wts[j, :len(w)] = w
            pos.flags.writeable = False
            wts.flags.writeable = False
            self._padded_cache = (pos, wts)
        return self._padded_cache

    def held(self):
        """(joints, positions, weights): the joints with proposals in index
        order and their rows of `padded()`, (J_held, K, 3) and (J_held, K).
        Cached and shared between calls: read them, do not change them."""
        if self._held_cache is None:
            joints = self.joints
            pos, wts = (a[joints] for a in self.padded())
            pos.flags.writeable = False
            wts.flags.writeable = False
            self._held_cache = (joints, pos, wts)
        return self._held_cache


PROPOSAL_COLUMNS = ["frame", "joint", "x", "y", "z", "confidence"]


def write_proposals_csv(path, proposal_sets):
    """Persist per-frame proposal sets as frame,joint,x,y,z,confidence rows.

    A frame without proposals gets one `frame,,,,,` row, so the file keeps
    the frame count even when the last frames are empty.
    """
    rows = []
    for frame, pset in enumerate(proposal_sets):
        if len(pset) == 0:
            rows.append([frame, "", "", "", "", ""])
        for j in pset.joints:
            for pos, w in zip(pset.positions(j), pset.weights(j)):
                rows.append([frame, j] + [f"{v:.9g}" for v in (*pos, w)])
    write_csv(path, PROPOSAL_COLUMNS, rows)


def read_proposals_csv(path):
    """Per-frame ProposalSets from the rows `write_proposals_csv` writes.

    Frames run 0, 1, 2, ... in file order without gaps; a frame without
    proposals is its `frame,,,,,` row. A value that is not finite or is
    above `config.CSV_LIMIT` in magnitude raises ValueError at `path:line`.
    """
    frames = []  # per frame: joint -> (positions, weights)

    def parse(row):
        frame = int(row[0])
        if frame == len(frames):
            frames.append({})
        elif frame < 0 or frame != len(frames) - 1:
            raise ValueError(f"frame {frame} where frame {len(frames)} comes next; "
                             "frames run 0, 1, 2, ... without gaps")
        if any(row[1:]):
            j, x, y, z, conf = int(row[1]), *csv_floats(row[2:], PROPOSAL_COLUMNS[2:])
            positions, weights = frames[frame].setdefault(j, ([], []))
            positions.append([x, y, z])
            weights.append(conf)

    read_csv(path, PROPOSAL_COLUMNS, parse)
    sets = []
    for frame, entries in enumerate(frames):
        try:
            sets.append(ProposalSet({j: (np.asarray(p), np.asarray(w))
                                     for j, (p, w) in entries.items()}))
        except ValueError as exc:
            raise ValueError(f"{path}: frame {frame}: {exc}") from exc
    return sets
