"""Reference kernel: fixed work of the benchmark's own, timed during each run.

On a shared 2-vCPU VM the same computation runs up to ~1.7x slower while
other tenants load the core, in spells from sub-second to many minutes
long. Raw wall times of identical runs then spread by 25 % and more. So
the benchmark times this kernel every PERIOD_S seconds while it measures,
from inside the calls the workloads spend their time in (see `Sampler`),
and reports every time multiplied by ``NOMINAL_S / kernel time`` over the
kernel samples taken during and next to it: the time on the reference
machine in its usual state. A change to handfit does not touch the
kernel, so it moves scaled times as it moves raw ones, while a slow
spell of the machine moves the kernel and the workload alike and
cancels. Kernel time is left out of every measured operation, and raw
times are kept in every result record.

The kernel mixes what the workloads do: small-array numpy calls with
Python overhead (fit, FK), a Gaussian kernel over a few hundred points
(mean-shift) and a random gather from a depth image (forest features).
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# median kernel time on the 2-vCPU Intel Xeon VM the bounds were set on
NOMINAL_S = 0.0115
# seconds between kernel samples while a workload runs
PERIOD_S = 0.25
# samples a run takes at its end when its operations gave none
MIN_SAMPLES = 10


class Reference:
    NOMINAL_S = NOMINAL_S

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rot = rng.random((23, 3, 3))
        self.rot2 = rng.random((23, 3, 3))
        self.joints = rng.random((23, 21, 3)) * 100.0
        self.props = rng.random((21, 3, 3)) * 100.0
        self.points = rng.random((200, 3)) * 50.0
        self.image = rng.integers(0, 1000, size=(240, 320)).astype(np.uint16)
        self.v = rng.integers(0, 240, size=(200, 400))
        self.u = rng.integers(0, 320, size=(200, 400))

    def kernel(self):
        """One fixed unit of work; returns a value so nothing is skipped."""
        acc = 0.0
        for _ in range(75):
            r = np.einsum("nij,njk->nik", self.rot, self.rot2)
            diff = self.joints[:, :, None, :] - self.props[None, :, :, :]
            d = np.sqrt((diff * diff).sum(axis=3)) / 100.0
            acc += float((1.0 - np.minimum(d, 1.0) ** 2).max(axis=2).sum()) + r[0, 0, 0]
        p = self.points
        d2 = (p * p).sum(axis=1)[:, None] + (p * p).sum(axis=1)[None, :] - 2.0 * p @ p.T
        k = np.exp(-np.maximum(d2, 0.0) / 450.0)
        acc += float((k @ p).sum())
        acc += float(self.image[self.v, self.u].astype(float).sum())
        return acc

    def time_once(self):
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


class Sampler:
    """Times the reference kernel every PERIOD_S seconds, from inside the
    functions the workloads call often, while `active` is set.

    Wrapping these few functions costs a clock read per call; the kernel
    time is summed in `excluded` so callers can leave it out of theirs.
    """

    def __init__(self, ref):
        self.ref = ref
        self.samples = []  # (time taken, kernel seconds)
        self.excluded = 0.0
        self.active = False
        self._last = time.perf_counter()

    def poll(self):
        if self.active and time.perf_counter() - self._last >= PERIOD_S:
            self.sample_now()

    def sample_now(self):
        t = self.ref.time_once()
        self.samples.append((time.perf_counter(), t))
        self.excluded += t
        self._last = time.perf_counter()

    def factor(self, start, end):
        """Scale factor for a span of time: NOMINAL_S over the mean kernel
        time of the samples within PERIOD_S of it, or of the nearest one."""
        if not self.samples:
            for _ in range(MIN_SAMPLES):
                self.samples.append((time.perf_counter(), self.ref.time_once()))
        near = [k for t, k in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                         abs(s[0] - end)))[1]]
        return self.ref.NOMINAL_S * len(near) / sum(near)

    @contextlib.contextmanager
    def install(self):
        from handfit import forest, geometry, synth

        hooks = [(synth, "render_depth"), (forest, "build_leaf"),
                 (forest.Tree, "route"), (forest, "mean_shift"),
                 (geometry, "fk_batch")]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in hooks]
        try:
            for owner, attr, fn in saved:
                setattr(owner, attr, self._wrap(fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _wrap(self, fn):
        poll = self.poll

        def sampled(*args, **kwargs):
            result = fn(*args, **kwargs)
            poll()
            return result

        sampled.__wrapped__ = fn
        return sampled
