"""Gaussian-kernel mean-shift mode seeking for weighted 3D point sets.

`mean_shift` takes one point set, or a sequence of sets of any lengths.
Every set is pooled on a grid in one pass keyed by set, and merged into
modes in one keyed pass. In between, one lockstep kernel shifts every
set: per iteration each set's exponents come from one small product and
its weighted sums from another, while one exp and the convergence
bookkeeping run over all sets at once, with no padding. Each set gets,
bit for bit, the modes a call on it alone returns. The forest uses it
twice: a tree condenses its leaves' offsets, 21 joint sets a leaf, and
inference condenses a frame's 21 joint vote sets in one call.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULTS

# starting points closer than bandwidth / DEDUP_DIVISOR are pooled into one
# weighted kernel; exact duplicates (common for accumulated votes) collapse
# losslessly and the worst-case kernel displacement stays far below the
# merge radius. Leaf building pools on this grid, so forest files depend on it.
DEDUP_DIVISOR = 20.0
# inference pools its retained votes on the coarser bandwidth / 2 grid. A
# pooled cell carries its summed weight, so a mode's support still counts the
# votes that converge to it, and a cell's points lie within bandwidth / 4 of
# its centre per axis, small against the kernel width. On the fine grid
# almost every vote stays its own kernel (~199 of 200) in an iteration that
# is O(points^2).
INFER_DEDUP_DIVISOR = 2.0
# converged points closer than MERGE_FACTOR * bandwidth join one mode; a
# point stops shifting once an update moves it less than TOL_FACTOR * bandwidth
MERGE_FACTOR = 0.5
TOL_FACTOR = 1e-3


def _cell_index(cell):
    """Index of each integer cell row (n, d) among the sorted distinct rows,
    and the number of distinct rows: the inverse of
    np.unique(cell, axis=0, return_inverse=True), by one lexsort.

    With a group id as the first column, rows of different groups never
    share a cell and each group's cells form one run of indices, in the
    order the group's rows alone would give them.
    """
    order = np.lexsort(cell.T[::-1])  # first column most significant
    ranked = cell[order]
    new_run = np.zeros(len(cell), dtype=np.int64)
    new_run[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rank = np.cumsum(new_run)
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return inverse, int(rank[-1]) + 1


def _keyed(group_sizes, cell):
    """`cell` rows with their group id as the leading column; the rows of
    a single group are returned as they are."""
    if len(group_sizes) == 1:
        return cell
    return np.column_stack([np.repeat(np.arange(len(group_sizes)), group_sizes), cell])


def _cell_sums(inverse, n_cells, weights, points):
    """Total weight (c,) and weighted point sum (c, d) of every cell; each
    cell adds its points in input order."""
    w = np.bincount(inverse, weights=weights, minlength=n_cells)
    sums = np.stack([np.bincount(inverse, weights=weights * points[:, d],
                                 minlength=n_cells)
                     for d in range(points.shape[1])], axis=1)
    return w, sums


def _pool(points, weights, sizes, bandwidth, divisor):
    """One grid pass keyed by group over the concatenated groups (N, d) of
    `sizes`: each group's first cell and cell count, and every cell's total
    weight and weighted point sum; None when no two points share a cell."""
    cell = np.round(points * (divisor / bandwidth)).astype(np.int64)
    inverse, n_cells = _cell_index(_keyed(sizes, cell))
    if n_cells == len(points):
        return None
    first = np.minimum.reduceat(inverse, np.cumsum([0] + sizes[:-1]))
    counts = np.diff(first, append=n_cells)
    return (first, counts) + _cell_sums(inverse, n_cells, weights, points)


def _dedup(points, weights, bandwidth, divisor=DEDUP_DIVISOR):
    """Pool each of the non-empty (n_i, d) sets `points`, with its (n_i,)
    `weights`, on a grid of bandwidth / divisor, all in one keyed pass.

    Returns two lists, (means, summed weights): each set gets what it
    would get pooled alone, the input itself when none of its points pool.
    """
    sizes = [len(w) for w in weights]
    cells = _pool(np.concatenate(points), np.concatenate(weights), sizes,
                  bandwidth, divisor)
    if cells is None:
        return list(points), list(weights)
    first, counts, w, sums = cells
    out_p, out_w = [], []
    for p, wt, size, lo, count in zip(points, weights, sizes, first, counts):
        if count < size:
            mine = slice(lo, lo + count)
            p, wt = sums[mine] / w[mine, None], w[mine]
        out_p.append(p)
        out_w.append(wt)
    return out_p, out_w


def _sq_norms(x, out):
    """Squared norm of every row of x (n, d) into out (n,), summed column
    by column in (x0^2 + x1^2) + x2^2 order."""
    np.multiply(x[:, 0], x[:, 0], out=out)
    for c in range(1, x.shape[1]):
        out += x[:, c] * x[:, c]
    return out


def _shift_sets(points, weights, bandwidth, max_iters, tol):
    """Shift every point of every (n_i, d) set uphill on its own set's
    weighted density until an update moves it less than tol; returns the
    shifted sets.

    The sets move in lockstep, none padded. Each set works centred at its
    mean. The exponents -|m - p_j|^2 / 2h^2 + log w_j of a set's active
    rows m come from one (a, d + 2) @ (d + 2, n) product of [m, |m|^2, 1]
    with [p / h^2; -1 / 2h^2; log w - |p|^2 / 2h^2], written into the set's
    slab of one flat buffer; one exp runs over every slab, and one
    (a, n) @ (n, d + 1) product with [p, 1] gives each row's weighted point
    sum and total weight. The convergence test, the write-back and the
    compaction of the active rows run once over all sets. A set's products
    have the same shapes in any call, so each set gets the bits it gets
    alone. Weights must be positive, so that log w is finite.
    """
    if max_iters < 1:
        return list(points)
    sizes = [len(p) for p in points]
    starts = np.cumsum([0] + sizes)
    bounds = list(zip(starts[:-1], starts[1:]))
    dim = points[0].shape[1]
    inv_bw2 = 1.0 / (bandwidth * bandwidth)
    centres = np.stack([p.mean(axis=0) for p in points])
    cur = np.concatenate(points) - np.repeat(centres, sizes, axis=0)
    lifted_t = np.empty((len(cur), dim + 2))
    lifted_t[:, :dim] = cur * inv_bw2
    lifted_t[:, dim] = -0.5 * inv_bw2
    lifted_t[:, dim + 1] = np.log(np.concatenate(weights)) \
        - (0.5 * inv_bw2) * _sq_norms(cur, np.empty(len(cur)))
    lifted = [lifted_t[lo:hi].T.copy() for lo, hi in bounds]
    with_one = np.empty((len(cur), dim + 1))
    with_one[:, :dim] = cur
    with_one[:, dim] = 1.0
    with_one = [with_one[lo:hi] for lo, hi in bounds]

    set_of = np.repeat(np.arange(len(sizes)), sizes)
    aug = np.empty((len(cur), dim + 2))
    aug[:, dim + 1] = 1.0
    sums = np.empty((len(cur), dim + 1))
    slabs = np.empty(sum(n * n for n in sizes))
    rows = np.arange(len(cur))
    for _ in range(max_iters):
        if rows.size == 0:
            break
        a = rows.size
        m = cur[rows]
        aug[:a, :dim] = m
        _sq_norms(m, aug[:a, dim])
        jobs = []
        lo = off = 0
        for s, count in enumerate(np.bincount(set_of[rows], minlength=len(sizes)).tolist()):
            if count:
                e = slabs[off:off + count * sizes[s]].reshape(count, sizes[s])
                np.dot(aug[lo:lo + count], lifted[s], out=e)
                jobs.append((e, s, lo, count))
                lo += count
                off += e.size
        np.exp(slabs[:off], out=slabs[:off])
        for e, s, lo, count in jobs:
            np.dot(e, with_one[s], out=sums[lo:lo + count])
        new = sums[:a, :dim] / sums[:a, dim:]
        step = np.abs(new - m)
        moved = step[:, 0] >= tol  # column by column: max(axis=1) is slow on a short axis
        for c in range(1, dim):
            moved |= step[:, c] >= tol
        cur[rows] = new
        rows = rows[moved]
    cur += np.repeat(centres, sizes, axis=0)
    return np.split(cur, starts[1:-1])


def _is_sets(points):
    """True for a sequence of (n, d) sets: a list or tuple of 2-D arrays
    (an empty one included) or a (g, n, d) array."""
    if isinstance(points, np.ndarray):
        return points.ndim == 3
    return isinstance(points, (list, tuple)) and all(np.ndim(p) == 2 for p in points)


def mean_shift(points, weights=None, *, bandwidth, dedup_divisor=DEDUP_DIVISOR,
               max_iters=DEFAULTS["forest.meanshift_iters"]):
    """Modes of the weighted kernel density of `points`.

    Points closer than bandwidth / dedup_divisor are first pooled into one
    weighted point (see DEDUP_DIVISOR and INFER_DEDUP_DIVISOR). Mean-shift
    iterations start from every pooled point; converged points lying
    within MERGE_FACTOR * bandwidth of each other are merged into one mode
    whose position is the weighted mean of its members and whose support
    is their total weight. Points of zero weight are dropped first; a NaN
    or infinite point or weight raises ValueError.

    Returns (modes (m, d), supports (m,)) sorted by support descending.
    A sequence of sets of any lengths, with None or one weight array per
    set, returns a list of one (modes, supports) per set, each bit for bit
    what a call on that set alone returns: the sets are pooled in one keyed
    pass, shifted in lockstep by `_shift_sets` and merged in one keyed pass.
    """
    if not 0 < bandwidth < np.inf:  # NaN fails both comparisons
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if not _is_sets(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return mean_shift([points], None if weights is None else [weights],
                          bandwidth=bandwidth, dedup_divisor=dedup_divisor,
                          max_iters=max_iters)[0]
    sets = [np.asarray(p, dtype=float) for p in points]
    if weights is None:
        weights = [np.ones(len(p)) for p in sets]
    else:
        weights = [np.asarray(w, dtype=float) for w in weights]
    out = [(np.empty((0, p.shape[1])), np.empty(0)) for p in sets]
    if not sets:
        return out
    # one check over all sets, not one per set: a leaf call holds 16 x 21 sets
    all_w = np.concatenate(weights)
    if not (np.isfinite(all_w).all()
            and np.isfinite(np.concatenate([p.ravel() for p in sets])).all()):
        raise ValueError("mean_shift points and weights must be finite")
    if not (all_w > 0).all():
        keep = [w > 0 for w in weights]
        sets = [p[k] for p, k in zip(sets, keep)]
        weights = [w[k] for w, k in zip(weights, keep)]
    live = [i for i, p in enumerate(sets) if p.size]
    if not live:
        return out
    pooled = _dedup([sets[i] for i in live], [weights[i] for i in live],
                    bandwidth, dedup_divisor)
    tol = TOL_FACTOR * bandwidth
    shifted = _shift_sets(*pooled, bandwidth, max_iters, tol)
    for i, modes in zip(live, _merge_modes(list(zip(shifted, pooled[1])),
                                           MERGE_FACTOR * bandwidth)):
        out[i] = modes
    return out


def _single_mode(shifted, weights, merge_radius):
    """(centroid (1, d), total weight (1,)) when every converged point lies
    within half the merge radius of the weighted centroid, else None.

    Such points provably collapse to one mode under the greedy merge.
    """
    total = weights.sum()
    center = (weights[:, None] * shifted).sum(axis=0) / total
    spread2 = ((shifted - center) ** 2).sum(axis=1).max()
    if spread2 <= 0.25 * merge_radius * merge_radius:
        return center[None, :], np.array([total])
    return None


def _merge_modes(groups, merge_radius):
    """Modes of each (converged points, weights) group: a list of
    (modes, supports), heaviest first.

    An empty group has no modes. A group that passes the spread test of
    `_single_mode` is one mode. The others are collapsed on a fine grid (a
    quarter of the merge radius), all of them in one pass keyed by group,
    so each group's greedy merge only walks a handful of cells.
    """
    out = [(s[:0], w[:0]) if len(w) == 0 else _single_mode(s, w, merge_radius)
           for s, w in groups]
    walking = [k for k, single in enumerate(out) if single is None]
    if not walking:
        return out
    sizes = [len(groups[k][1]) for k in walking]
    pts = np.concatenate([groups[k][0] for k in walking])
    wts = np.concatenate([groups[k][1] for k in walking])
    cell = np.round(pts / (0.25 * merge_radius)).astype(np.int64)
    inverse, n_cells = _cell_index(_keyed(sizes, cell))
    cell_w, cell_sum = _cell_sums(inverse, n_cells, wts, pts)
    first = np.minimum.reduceat(inverse, np.cumsum([0] + sizes[:-1]))
    for k, lo, hi in zip(walking, first, np.append(first[1:], n_cells)):
        out[k] = _greedy_merge(cell_w[lo:hi], cell_sum[lo:hi], merge_radius)
    return out


def _greedy_merge(cell_w, cell_sum, merge_radius):
    """Walk the grid cells heaviest first; a cell joins the nearest mode
    within the merge radius or starts a new one. Returns (modes, supports)
    sorted by support descending."""
    order = np.argsort(-cell_w, kind="stable")
    mode_sum = []
    mode_w = []
    r2 = merge_radius * merge_radius
    for c in order:
        p = cell_sum[c] / cell_w[c]
        if mode_sum:
            centers = np.asarray(mode_sum) / np.asarray(mode_w)[:, None]
            d2 = ((centers - p) ** 2).sum(axis=1)
            nearest = int(np.argmin(d2))
            if d2[nearest] <= r2:
                mode_sum[nearest] = mode_sum[nearest] + cell_sum[c]
                mode_w[nearest] += cell_w[c]
                continue
        mode_sum.append(cell_sum[c].copy())
        mode_w.append(cell_w[c])

    modes = np.asarray(mode_sum) / np.asarray(mode_w)[:, None]
    supports = np.asarray(mode_w)
    order = np.argsort(-supports, kind="stable")
    return modes[order], supports[order]
