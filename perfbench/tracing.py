"""In-memory span tracer that wraps handfit's public functions from outside.

Every wrapped call records one span: name, start, end, parent span and op
id. Spans stay in memory and are written out once, when the run ends.
Wrappers are installed at the module attributes the callers resolve at
call time, so nothing under ``src/`` changes. ``Tracer.install`` returns a
context manager that puts the original attributes back.

Count hooks run after a call returns and add exact work counts (rows,
votes, evaluations) to ``Tracer.counts`` under the op being traced.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from handfit import fit, forest, geometry, synth

# span name -> layer (the module under src/handfit/ the code lives in)
LAYERS = {
    "op": "bench",
    "render_depth": "depth",
    "build_training_set": "forest",
    "train_forest": "forest",
    "train_tree": "forest",
    "build_leaf": "forest",
    "save_forest": "forest",
    "load_forest": "forest",
    "accumulate_votes": "forest",
    "Tree.route": "forest",
    "mean_shift": "meanshift",
    "mean_shift_groups": "meanshift",
    "dedup": "meanshift",
    "proposals_from_votes": "proposals",
    "stepwise_fit": "fit",
    "joint_fit": "fit",
    "pso_optimize": "fit",
    "objective": "fit",
    "fk_batch": "geometry",
}


def _settled_generation(trace):
    """1-based generation of the last global-best improvement."""
    trace = np.asarray(trace)
    gains = np.nonzero(np.diff(trace) > 0)[0]
    return int(gains[-1]) + 2 if gains.size else 1


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> n
        self.op = None
        self._stack = []
        self._present = {}  # id(ProposalSet) -> joints with proposals
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.op]
            if hook is not None:
                hook(self.counts[self.op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name, op):
        """Root span of one workload operation; calls outside any op (the
        output checks) are recorded with op None and left out of metrics."""
        self.op = op
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, start, end, parent, op]
            self.op = None

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced attribute; restore the originals on exit."""
        targets = [
            (synth, "render_depth", "render_depth", self._count_render),
            (forest, "build_training_set", "build_training_set", self._count_samples),
            (forest, "train_forest", "train_forest", None),
            (forest, "train_tree", "train_tree", None),
            (forest, "build_leaf", "build_leaf", None),
            (forest, "save_forest", "save_forest", None),
            (forest, "load_forest", "load_forest", None),
            (forest, "accumulate_votes", "accumulate_votes", self._count_votes),
            (forest.Tree, "route", "Tree.route", self._count_route),
            (forest, "mean_shift", "mean_shift", self._count_shift),
            (forest, "mean_shift_groups", "mean_shift_groups", self._count_groups),
            (forest, "_dedup", "dedup", None),
            (forest, "proposals_from_votes", "proposals_from_votes",
             self._count_proposals),
            (fit, "stepwise_fit", "stepwise_fit", self._count_fit("stepwise")),
            (fit, "joint_fit", "joint_fit", self._count_fit("joint")),
            (fit, "pso_optimize", "pso_optimize", self._count_pso),
            (fit, "objective", "objective", self._count_objective),
            (geometry, "fk_batch", "fk_batch", self._count_fk),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, hook in targets:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- count hooks: c is the count dict of the current op ----------------

    @staticmethod
    def _count_render(c, args, kwargs, result):
        c["depth.frames"] += 1

    @staticmethod
    def _count_samples(c, args, kwargs, result):
        c["forest.samples"] += len(result)

    @staticmethod
    def _count_votes(c, args, kwargs, result):
        c["forest.votes"] += sum(len(w) for _, w in result.values())

    @staticmethod
    def _count_route(c, args, kwargs, result):
        c["forest.routed_patches"] += len(result)

    @staticmethod
    def _count_shift(c, args, kwargs, result):
        points = args[0]
        c["meanshift.shift_calls"] += 1
        c["meanshift.shift_points"] += len(points)
        c["meanshift.modes_found"] += len(result[0])

    @staticmethod
    def _count_groups(c, args, kwargs, result):
        c["meanshift.groups_calls"] += 1
        c["meanshift.groups_points"] += int(np.count_nonzero(args[1]))

    @staticmethod
    def _count_proposals(c, args, kwargs, result):
        top_n = kwargs.get("top_n", args[1] if len(args) > 1 else 200)
        c["forest.votes_kept"] += sum(min(len(w), top_n) for _, w in args[0].values())
        c["proposals.sets"] += 1
        c["proposals.joints"] += len(result)
        c["proposals.count"] += result.count()

    @staticmethod
    def _count_fit(kind):
        def hook(c, args, kwargs, result):
            c[f"fit.{kind}_calls"] += 1
            c[f"fit.{kind}_evals"] += result.evals
        return hook

    @staticmethod
    def _count_pso(c, args, kwargs, result):
        c["fit.pso_calls"] += 1
        c["fit.pso_generations"] += len(result.trace)
        c["fit.pso_settled_generations"] += _settled_generation(result.trace)

    def _count_objective(self, c, args, kwargs, result):
        pset = args[0]
        rows = 1 if np.ndim(args[1]) == 1 else len(args[1])
        subset = kwargs.get("joint_subset", args[4] if len(args) > 4 else None)
        present = self._present.get(id(pset))
        if present is None or present[0] is not pset:
            weights = pset.padded()[1]
            present = (pset, weights.sum(axis=1) > 0, weights.shape)
            self._present[id(pset)] = present
        _, has, (n_joints, k) = present
        useful = int(has.sum()) if subset is None else int(has[list(subset)].sum())
        c["fit.objective_calls"] += 1
        c["fit.objective_rows"] += rows
        c["fit.objective_terms"] += rows * n_joints * k
        c["fit.scored_joints"] += rows * n_joints
        c["fit.useful_joints"] += rows * useful

    @staticmethod
    def _count_fk(c, args, kwargs, result):
        c["geometry.fk_calls"] += 1
        c["geometry.fk_rows"] += len(result)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[4], (s[2] - s[1]) - child[i], s[2] - s[1])
                for i, s in enumerate(self.spans)]

    def write(self, path, meta):
        """Span file: metadata plus one [name, layer, start_us, end_us,
        parent, op] row per span, times relative to tracer creation."""
        rows = [[name, LAYERS[name], round((start - self.t0) * 1e6, 3),
                 round((end - self.t0) * 1e6, 3), parent, op]
                for name, start, end, parent, op in self.spans]
        doc = {"meta": meta,
               "fields": ["name", "layer", "start_us", "end_us", "parent", "op"],
               "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
