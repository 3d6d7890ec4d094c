"""Pose-error metrics: per-frame joint errors, success curves, oracle baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .config import DEFAULTS

# error charged to joints without any prediction; matches the objective's
# clamping distance so a miss saturates the same way
MISSING_JOINT_ERROR_MM = DEFAULTS["pso.d_max_mm"]


@dataclass(frozen=True)
class FrameResult:
    frame_id: int
    predicted: np.ndarray     # (21, 3), NaN rows mark missing joints
    ground_truth: np.ndarray  # (21, 3)
    errors: np.ndarray        # (21,) mm

    @classmethod
    def compute(cls, frame_id, predicted, ground_truth,
                sentinel=MISSING_JOINT_ERROR_MM):
        predicted = np.asarray(predicted, dtype=float).reshape(21, 3)
        ground_truth = np.asarray(ground_truth, dtype=float).reshape(21, 3)
        errors = np.linalg.norm(predicted - ground_truth, axis=1)
        errors = np.where(np.isnan(errors), sentinel, errors)
        return cls(frame_id, predicted, ground_truth, errors)


def mean_joint_error(results):
    """Average error (mm) over all joints of all frames."""
    if not results:
        raise ValueError("no frames to evaluate")
    return float(np.mean([r.errors for r in results]))


def fingertip_error(results):
    """Average error (mm) over the five TIP keypoints only."""
    if not results:
        raise ValueError("no frames to evaluate")
    tips = list(geometry.TIP_INDICES)
    return float(np.mean([r.errors[tips] for r in results]))


@dataclass(frozen=True)
class SuccessCurve:
    thresholds: np.ndarray
    fractions: np.ndarray

    def rows(self):
        return list(zip(self.thresholds.tolist(), self.fractions.tolist()))


def success_rate_curve(results, thresholds):
    """Fraction of frames whose worst joint error stays under each threshold."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be sorted ascending")
    worst = np.array([r.errors.max() for r in results])
    fractions = np.array([(worst <= t).mean() for t in thresholds])
    return SuccessCurve(thresholds, fractions)


def oracle_select(proposal_set, ground_truth):
    """Per joint, the proposal closest to ground truth; NaN where absent.

    An upper bound on what proposal selection alone could achieve; the
    missing-joint sentinel is charged downstream by FrameResult.
    """
    ground_truth = np.asarray(ground_truth, dtype=float)
    out = np.full((geometry.NUM_JOINTS, 3), np.nan)
    for j in proposal_set.joints:
        pos = proposal_set.positions(j)
        d = np.linalg.norm(pos - ground_truth[j], axis=1)
        out[j] = pos[int(np.argmin(d))]
    return out


def top_proposal_joints(proposal_set):
    """The plain-regression estimate: each joint's highest-weight proposal."""
    out = np.full((geometry.NUM_JOINTS, 3), np.nan)
    for j in proposal_set.joints:
        out[j] = proposal_set.top(j)
    return out
