"""Hybrid 3D hand pose estimation from single depth frames.

A Hough regression forest proposes multiple confidence-weighted 3D
positions per hand joint; a stepwise particle-swarm optimiser then fits a
26-DoF anatomically constrained skeleton to those proposal distributions.
"""

from .config import ConfigError, ForestConfig, PsoConfig, RunConfig
from .depth import CameraIntrinsics, DepthImage, RenderError, foreground_mask, render_depth
from .fit import (FitResult, UnderConstrainedError, fit_frames, joint_fit, objective,
                  pso_optimize, stepwise_fit)
from .forest import (Forest, ForestFormatError, build_training_set, extract_samples,
                     load_forest, save_forest, train_forest, train_tree)
from .geometry import (HandGeometry, JointLimits, PoseParams, clamp_to_limits,
                       forward_kinematics, random_pose, validate_pose)
from .meanshift import mean_shift
from .metrics import (FrameResult, SuccessCurve, fingertip_error, mean_joint_error,
                      oracle_select, success_rate_curve)
from .proposals import ProposalSet, read_proposals_csv, write_proposals_csv
from .synth import generate_sequence, generate_training_poses

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics", "ConfigError", "DepthImage", "FitResult", "Forest",
    "ForestConfig", "ForestFormatError", "FrameResult", "HandGeometry",
    "JointLimits", "PoseParams", "ProposalSet", "PsoConfig", "RenderError",
    "RunConfig", "SuccessCurve", "UnderConstrainedError", "build_training_set",
    "clamp_to_limits", "extract_samples", "fingertip_error", "fit_frames",
    "foreground_mask", "forward_kinematics", "generate_sequence",
    "generate_training_poses", "joint_fit", "load_forest", "mean_joint_error",
    "mean_shift", "objective", "oracle_select",
    "pso_optimize", "random_pose", "read_proposals_csv", "render_depth",
    "save_forest", "stepwise_fit", "success_rate_curve", "train_forest",
    "train_tree", "validate_pose", "write_proposals_csv",
]
