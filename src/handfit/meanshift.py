"""Gaussian-kernel mean-shift mode seeking for weighted 3D point sets.

`mean_shift` takes a sequence of point sets of any lengths and keeps them
as one concatenated array, with their weights and set sizes, from its
input check to the merge. It is two steps: `pool_sets` pools every set in
one keyed grid pass (`_cells`), and `pooled_modes` shifts and merges the
pooled sets, of one call or of many. One lockstep kernel shifts every set:
per iteration each set's exponents come from one small product and its
weighted sums, through their exp, from another, while the convergence
bookkeeping runs over all sets at once; the sets of a size that many sets
share go through one stacked matmul per product instead. Another keyed
grid pass merges every set's converged points into modes: it tests every
set for a single mode at once, and the sets that fail the test walk their
grid cells, heaviest first, in lockstep. Each set gets, bit for bit, the modes
a call on it alone returns. The forest uses it twice: a tree pools its
leaves' offsets, 21 joint sets a leaf, and shifts and merges them in
blocks of sets ordered by pooled size; inference condenses a frame's 21
joint vote sets in one `mean_shift` call.
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
# `_shift_sets` stacks the sets of a size that at least this many sets of a
# call share, and of a stack the sets left with one active row, or with
# more, while at least this many are. A stacked product costs a dozen numpy
# calls per iteration that a few sets do not repay. On a 2-vCPU Xeon VM
# (BLAS 1 thread), against 8: at 2 the benchmark `track` frames' proposals
# took 1.27x the CPU time, at 4 the benchmark `train` tree's leaf models
# took 1.03x, and at 16 neither moved.
STACK_MIN = 8


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


def _cells(cell, sizes, weights, points):
    """One grid pass keyed by set over the concatenated non-empty sets of
    `sizes`: points (N, d), weights (N,) and their integer cells (N, d).
    Returns each set's first cell and cell count, and each cell's total
    weight and weighted point sum. A set's cells form one run, in the order
    its points alone give them, and a cell adds its points in input order.
    """
    keyed = np.column_stack([np.repeat(np.arange(len(sizes)), sizes), cell])
    inverse, n_cells = _cell_index(keyed)
    first = np.minimum.reduceat(inverse, np.cumsum(sizes) - sizes)
    w = np.bincount(inverse, weights=weights, minlength=n_cells)
    sums = np.stack([np.bincount(inverse, weights=weights * points[:, d],
                                 minlength=n_cells)
                     for d in range(points.shape[1])], axis=1)
    return first, np.diff(first, append=n_cells), w, sums


def _dedup(points, weights, sizes, bandwidth, divisor=DEDUP_DIVISOR):
    """Pool the concatenated non-empty sets of `sizes`, points (N, d) with
    weights (N,), on a grid of bandwidth / divisor in one keyed pass.
    Returns (cell means, cell weights, cells per set), set after set, each
    set's cells in grid order."""
    cell = np.round(points * (divisor / bandwidth)).astype(np.int64)
    _, counts, w, sums = _cells(cell, sizes, weights, points)
    return sums / w[:, None], w, counts


def _sq_norms(x, out):
    """Squared norm of every row of x (n, d) into out (n,), summed column
    by column in (x0^2 + x1^2) + x2^2 order."""
    np.multiply(x[:, 0], x[:, 0], out=out)
    for c in range(1, x.shape[1]):
        out += x[:, c] * x[:, c]
    return out


def _shift_sets(points, weights, sizes, bandwidth, max_iters, tol):
    """Shift every point of the concatenated sets of `sizes`, points (N, d)
    with weights (N,), uphill on its own set's weighted density until an
    update moves it less than tol; returns the shifted points (N, d).

    The sets move in lockstep. Each set works centred at its mean. The
    exponents -|m - p_j|^2 / 2h^2 + log w_j of a set's active rows m come
    from one (a, d + 2) @ (d + 2, n) product of [m, |m|^2, 1] with
    [p / h^2; -1 / 2h^2; log w - |p|^2 / 2h^2], and one (a, n) @ (n, d + 1)
    product of their exp with [p, 1] gives each row's weighted point sum and
    total weight. The convergence test, the write-back and the compaction
    of the active rows run once over all sets.

    The sets of a size that at least STACK_MIN sets share go as one stack:
    per iteration one (g, a, d + 2) @ (g, d + 2, n) matmul, one exp and one
    (g, a, n) @ (g, n, d + 1) matmul, a being the most active rows of any of
    its g sets. A set with fewer repeats its last active row up to a rows,
    and the repeats' results are dropped. BLAS computes a one-row product
    with gemv and a longer one with gemm, whose rows have the same bits in a
    product of any number of rows; so the sets down to one active row go in
    a stack of their own, and every set keeps the routine, and the bits, it
    gets alone. Every other set goes one by one, through its own two
    products and exp, and so do the sets of a stack while fewer than
    STACK_MIN of them have one active row, or more than one; a call holds
    one such set's exponents at a time. Weights must be positive, so that
    log w is finite.
    """
    if max_iters < 1:
        return points
    sizes = np.asarray(sizes)
    dim = points.shape[1]
    inv_bw2 = 1.0 / (bandwidth * bandwidth)
    starts = np.cumsum(sizes) - sizes
    set_of = np.repeat(np.arange(len(sizes)), sizes)
    # each set's mean: bincount adds a set's rows in order, as mean(axis=0) does
    sums = np.bincount((set_of[:, None] * dim + np.arange(dim)).ravel(), points.ravel())
    centres = (sums.reshape(-1, dim) / sizes[:, None])[set_of]
    cur = points - centres
    lifted_t = np.empty((len(cur), dim + 2))
    lifted_t[:, :dim] = cur * inv_bw2
    lifted_t[:, dim] = -0.5 * inv_bw2
    lifted_t[:, dim + 1] = np.log(weights) - (0.5 * inv_bw2) * _sq_norms(cur, np.empty(len(cur)))
    with_one = np.empty((len(cur), dim + 1))
    with_one[:, :dim] = cur
    with_one[:, dim] = 1.0

    # a set's operands C-ordered, so that its products sum as they do alone
    sets_of_size = np.bincount(sizes)
    stacks = []
    for n in np.flatnonzero(sets_of_size >= STACK_MIN).tolist():
        ids = np.flatnonzero(sizes == n)
        rows = (starts[ids, None] + np.arange(n)).ravel()
        g = len(ids)
        stacks.append((ids, lifted_t[rows].reshape(g, n, dim + 2).transpose(0, 2, 1).copy(),
                       with_one[rows].reshape(g, n, dim + 1)))
    lone_ids = np.flatnonzero(sets_of_size[sizes] < STACK_MIN)
    lone = [(lifted_t[lo:lo + n].T.copy(), with_one[lo:lo + n])
            for lo, n in zip(starts[lone_ids].tolist(), sizes[lone_ids].tolist())]
    del lifted_t

    aug = np.empty((len(cur), dim + 2))
    aug[:, dim + 1] = 1.0
    sums = np.empty((len(cur), dim + 1))
    rows = np.arange(len(cur))
    for _ in range(max_iters):
        if rows.size == 0:
            break
        a = rows.size
        m = cur[rows]
        aug[:a, :dim] = m
        _sq_norms(m, aug[:a, dim])
        count = np.bincount(set_of[rows], minlength=len(sizes))
        first = np.cumsum(count) - count  # each set's first row in aug
        one_by_one = [(lifted, ones, lo, c) for (lifted, ones), lo, c
                      in zip(lone, first[lone_ids].tolist(), count[lone_ids].tolist()) if c]
        for ids, lifted, ones in stacks:
            c = count[ids]
            for k in (np.flatnonzero(c == 1), np.flatnonzero(c > 1)):
                if k.size >= STACK_MIN:
                    _stacked_sums(aug, sums, first[ids[k]], c[k],
                                  lifted if k.size == len(ids) else lifted[k],
                                  ones if k.size == len(ids) else ones[k])
                else:  # too few left to repay a stack
                    one_by_one += [(lifted[i], ones[i], lo, c_i) for i, lo, c_i
                                   in zip(k.tolist(), first[ids[k]].tolist(), c[k].tolist())]
        for lifted, ones, lo, c in one_by_one:
            e = np.dot(aug[lo:lo + c], lifted)
            np.exp(e, out=e)
            np.dot(e, ones, out=sums[lo:lo + c])
        new = sums[:a, :dim] / sums[:a, dim:]
        step = np.abs(new - m)
        moved = step[:, 0] >= tol  # column by column: max(axis=1) is slow on a short axis
        for c in range(1, dim):
            moved |= step[:, c] >= tol
        cur[rows] = new
        rows = rows[moved]
    return cur + centres


def _stacked_sums(aug, sums, first, count, lifted, ones):
    """Weighted point sums and total weights into `sums` for the active rows
    of g sets of one size, row i of a set at aug[first + i] for i < count:
    one stacked product of the rows, padded to the longest set by repeating
    a set's last row, with `lifted` (g, d + 2, n), exp, and one with `ones`
    (g, n, d + 1); the padding's results are dropped."""
    width = int(count.max())
    at = first[:, None] + np.minimum(np.arange(width), count[:, None] - 1)
    # np.take along axis 0 is a row copy; fancy and boolean indexing are slower
    e = np.matmul(np.take(aug, at.ravel(), axis=0).reshape(at.shape + aug.shape[1:]), lifted)
    np.exp(e, out=e)
    found = np.matmul(e, ones).reshape(-1, sums.shape[1])
    keep = np.flatnonzero(np.arange(width) < count[:, None])
    sums[at.ravel()[keep]] = np.take(found, keep, axis=0)


def mean_shift(points, weights=None, *, bandwidth, dedup_divisor=DEDUP_DIVISOR,
               max_iters=DEFAULTS["forest.meanshift_iters"]):
    """Modes of the weighted kernel density of each of the (n_i, d) point
    sets `points` (a sequence of sets of any lengths, or a (g, n, d) array
    of g sets), with None for unit weights or one (n_i,) array per set.

    A set's points closer than bandwidth / dedup_divisor are first pooled
    into one weighted point (see DEDUP_DIVISOR and INFER_DEDUP_DIVISOR).
    Mean-shift iterations start from every pooled point; converged points
    lying within MERGE_FACTOR * bandwidth of each other are merged into one
    mode whose position is the weighted mean of its members and whose
    support is their total weight. Points of zero weight are dropped first.
    Weights that do not match their sets, a NaN or infinite point or
    weight, or a bare (n, d) array raise ValueError.

    Returns a list of one (modes (m, d), supports (m,)) per set, sorted by
    support descending; each is bit for bit what a call on that set alone
    returns. It is `pooled_modes(*pool_sets(...))`: the call's sets stay one
    (N, d) array with (N,) weights and the set sizes throughout, pooled in
    one keyed grid pass, shifted in lockstep by `_shift_sets` and merged in
    one keyed grid pass.
    """
    pooled = pool_sets(points, weights, bandwidth=bandwidth, dedup_divisor=dedup_divisor)
    modes, supports, n_modes = pooled_modes(*pooled, bandwidth=bandwidth, max_iters=max_iters)
    ends = np.cumsum(n_modes).tolist()
    return [(modes[lo:hi], supports[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def pool_sets(points, weights=None, *, bandwidth, dedup_divisor=DEDUP_DIVISOR):
    """The pooling step of `mean_shift`, which checks its arguments and
    raises its errors: each set's points of positive weight pooled on a grid
    of bandwidth / dedup_divisor. Returns (pooled points (P, d), their weights
    (P,), pooled points per set (S,)), set after set; a set with no point
    of positive weight has none. A set's pooled points are the same in any
    call, so pooled sets from many calls can be shifted together.
    """
    if not 0 < bandwidth < np.inf:  # NaN fails both comparisons
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    sets = [np.asarray(p, dtype=float) for p in points]
    if any(p.ndim != 2 for p in sets):
        raise ValueError("mean_shift takes a sequence of (n, d) point sets")
    if weights is not None:
        weights = [np.asarray(w, dtype=float) for w in weights]
        if len(weights) != len(sets) or any(w.shape != (len(p),) for p, w in zip(sets, weights)):
            raise ValueError("mean_shift needs one (n,) weight array per (n, d) set")
    if not sets:
        return np.empty((0, 0)), np.empty(0), np.zeros(0, dtype=np.int64)
    pts = np.concatenate(sets)
    wts = np.ones(len(pts)) if weights is None else np.concatenate(weights)
    if not (np.isfinite(wts).all() and np.isfinite(pts).all()):
        raise ValueError("mean_shift points and weights must be finite")
    sizes = np.array([len(p) for p in sets])
    keep = wts > 0
    if not keep.all():
        pts, wts = pts[keep], wts[keep]
        sizes = np.bincount(np.repeat(np.arange(len(sets)), sizes)[keep], minlength=len(sets))
    counts = np.zeros(len(sets), dtype=np.int64)
    live = sizes > 0
    if not live.any():
        return pts, wts, counts
    pooled, pooled_w, counts[live] = _dedup(pts, wts, sizes[live], bandwidth, dedup_divisor)
    return pooled, pooled_w, counts


def pooled_modes(points, weights, counts, *, bandwidth,
                 max_iters=DEFAULTS["forest.meanshift_iters"]):
    """The modes step of `mean_shift` over pooled sets, the output of one
    `pool_sets` call or of many concatenated: (modes (K, d), supports (K,),
    modes per set (S,)), each set's modes one run, heaviest first; a set of
    no points has none. The sets are shifted in lockstep by `_shift_sets`
    and merged by `_merge_modes`, each to its own bits.
    """
    live = np.flatnonzero(counts)
    n_modes = np.zeros(len(counts), dtype=np.int64)
    if not live.size:
        return np.empty((0, points.shape[1])), np.empty(0), n_modes
    sizes = np.asarray(counts)[live]
    shifted = _shift_sets(points, weights, sizes, bandwidth, max_iters, TOL_FACTOR * bandwidth)
    modes, supports, n_modes[live] = _merge_modes(shifted, weights, sizes,
                                                  MERGE_FACTOR * bandwidth)
    return modes, supports, n_modes


def _single_modes(points, weights, sizes, merge_radius):
    """Each set's weighted centroid (S, d) and total weight (S,), and
    whether every one of its converged points lies within half the merge
    radius of the centroid (S,): such a set provably collapses to one mode
    under the greedy merge.

    Every set is summed as it sums alone. A weighted point sum adds the
    rows in order, as `np.bincount` does; a total is a pairwise sum whose
    grouping depends on the set's size, so sets of one size are summed as
    the rows of one (g, n) array.
    """
    set_of = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    total = np.empty(len(sizes))
    by_size = np.argsort(sizes, kind="stable")
    for sel in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        total[sel] = weights[starts[sel, None] + np.arange(sizes[sel[0]])].sum(axis=1)
    center = np.stack([np.bincount(set_of, weights=weights * points[:, d],
                                   minlength=len(sizes))
                       for d in range(points.shape[1])], axis=1) / total[:, None]
    spread2 = ((points - center[set_of]) ** 2).sum(axis=1)
    single = np.maximum.reduceat(spread2, starts) <= 0.25 * merge_radius * merge_radius
    return center, total, single


def _merge_modes(points, weights, sizes, merge_radius):
    """Modes of each of the concatenated non-empty sets of `sizes`,
    converged points (N, d) with weights (N,): (modes (K, d), supports (K,),
    modes per set (S,)), each set's modes one run, heaviest first.

    A set that passes the spread test of `_single_modes` is one mode. The
    others are collapsed on a fine grid (a quarter of the merge radius),
    all of them in one keyed grid pass, and `_greedy_walk` merges their
    cells, all of them in lockstep.
    """
    center, total, single = _single_modes(points, weights, sizes, merge_radius)
    n_modes = np.ones(len(sizes), dtype=np.int64)
    walking = np.flatnonzero(~single)
    if not walking.size:
        return center, total, n_modes
    rows = np.repeat(~single, sizes)
    pts, wts = points[rows], weights[rows]
    cell = np.round(pts / (0.25 * merge_radius)).astype(np.int64)
    first, counts, cell_w, cell_sum = _cells(cell, sizes[walking], wts, pts)
    walked, walked_w, n_modes[walking] = _greedy_walk(cell_w, cell_sum, first, counts,
                                                      merge_radius)
    ends = np.cumsum(n_modes)
    modes, supports = np.empty((ends[-1], points.shape[1])), np.empty(ends[-1])
    one = ends[single] - 1
    modes[one], supports[one] = center[single], total[single]
    rows = np.flatnonzero(np.repeat(~single, n_modes))
    modes[rows], supports[rows] = walked, walked_w
    return modes, supports, n_modes


def _greedy_walk(cell_w, cell_sum, first, counts, merge_radius):
    """Greedy merge of each set's grid cells, a run of `counts` cells from
    `first`, all sets in lockstep: step k takes the k-th heaviest cell of
    every set that has one, and it joins the nearest of its set's modes
    within the merge radius or starts a new one.

    A set's modes take the slots of its own run of cells, as it has at most
    one per cell. Returns (modes, supports, mode count per set), each set's
    modes one run, sorted by support descending, ties in order of creation.
    """
    set_of = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((-cell_w, set_of))  # each set's cells heaviest first, stably
    mode_sum = np.zeros_like(cell_sum)
    mode_w = np.zeros_like(cell_w)
    n_modes = np.zeros(len(counts), dtype=np.int64)
    r2 = merge_radius * merge_radius
    sets = np.arange(len(counts))
    for k in range(int(counts.max())):
        sets = sets[counts[sets] > k]
        base = first[sets]
        c = order[base + k]
        slot = base + n_modes[sets]  # a new mode's
        if k:
            m = int(n_modes[sets].max())
            live = np.arange(m) < n_modes[sets, None]
            held = np.where(live, base[:, None] + np.arange(m), base[:, None])
            centers = mode_sum[held] / mode_w[held][:, :, None]
            d2 = ((centers - (cell_sum[c] / cell_w[c][:, None])[:, None]) ** 2).sum(axis=2)
            d2[~live] = np.inf
            nearest = d2.argmin(axis=1)
            join = d2[np.arange(len(sets)), nearest] <= r2
            slot[join] = base[join] + nearest[join]
            n_modes[sets] += ~join
        else:
            n_modes[sets] = 1
        # a new mode's slot holds zeros, and 0 + x is x: np.bincount gave the
        # cell sums, and it never gives -0.0
        mode_sum[slot] += cell_sum[c]
        mode_w[slot] += cell_w[c]
    held = np.flatnonzero(np.arange(len(cell_w)) - np.repeat(first, counts)
                          < np.repeat(n_modes, counts))
    held = held[np.lexsort((-mode_w[held], set_of[held]))]
    return mode_sum[held] / mode_w[held][:, None], mode_w[held], n_modes
