"""Penalized multiple change-point detection.

Breaks are located by minimizing the sum of within-segment squared
deviations about each segment mean plus a fixed penalty per break. Both
searches -- the exact dynamic program and the single split -- minimize
that same cost through one kernel: each takes the cumulative sums of x
and x**2 once (_prefix_sums), and _segment_costs turns them into the O(1)
cost of any candidate segment, clamped at 0 against rounding. The exact
DP runs one recursion, _dp_columns, which drops
candidate starts that can never win again and returns the same breaks as
the unpruned recursion, bit for bit. It keeps its live starts as
contiguous columns of position, prior cost and prefix sums, and it tests
them once per min_segment steps, not at every step, by two exact rules.
PELT pruning drops a start whose candidate already exceeds the newest
start's prior. Functional pruning writes each candidate as the minimum
over a segment mean mu of a quadratic h_t(mu), from start t's own prior
and prefix sums, plus a term in mu that every start shares; it drops a
start whose h_t lies above the lower envelope of the other starts up to
the check, by a rounding margin, at every mu a segment mean can take
(the range of x, widened by the prefix sums' rounding). That test runs
only once the live set has grown since its last run. Between two checks
the live set only grows, so the DP scores those steps together: one
contiguous (steps x live starts) block of at most BLOCK_CELLS cells, in a
few NumPy calls in place of a dozen per step, with each start masked out
on the rows before it joins. Without a cap on the number of breaks it
runs once, over its own column; with max_breaks it runs once per break
count below the cap, each layer reading the one before, and the last
layer is scored at the whole series alone. The envelope keeps a few
hundred starts at most on the regime, noise and random-walk series
measured (n = 20480), so the DP is near-linear there; it stays quadratic
in the series length in the worst case, where the envelope keeps every
start. It is the one search for more than one break.

Precision limit: the cost of a segment is a difference of sums that carry
the series' level, so it loses the digits the level and the spread share.
On pure noise 1e6 + 1e-3 * N(0, 1) (400 samples, min_segment 8, default
penalty) the exact DP puts breaks in 197 of 400 inputs (seeds 0-399).

Index convention: a break h is the first sample of the new regime and is
reported 1-based, so a result with breaks (h,) splits x into x[1..h-1] and
x[h..N] in 1-based terms. ``ChangePointResult.offsets`` exposes the same
breaks as 0-based array positions for slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError, finite_1d


@dataclass(frozen=True)
class ChangePointConfig:
    penalty: float | None = None  # None: 2 * sigma2_hat * log N, sigma2 from first differences
    max_breaks: int | None = None
    min_segment: int = 32

    def __post_init__(self):
        for name in ("min_segment", "max_breaks"):
            value = getattr(self, name)
            if value is None and name == "max_breaks":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a NumPy integer as an int
        if self.penalty is not None and not self.penalty >= 0:
            raise InputError("penalty must be nonnegative")
        if self.penalty == math.inf:
            raise InputError("penalty must be finite")
        if self.min_segment < 2:
            raise InputError("min_segment must be >= 2")
        if self.max_breaks is not None and self.max_breaks < 0:
            raise InputError("max_breaks must be >= 0")


@dataclass(frozen=True)
class ChangePointResult:
    breaks: tuple[int, ...]          # 1-based, first sample of each new regime
    segment_costs: tuple[float, ...]
    total_cost: float                # sum of segment costs + penalty * n_breaks
    config_used: ChangePointConfig   # with the penalty actually applied
    n: int

    @property
    def offsets(self) -> tuple[int, ...]:
        """Breaks as 0-based array positions (h - 1)."""
        return tuple(h - 1 for h in self.breaks)

    @property
    def n_breaks(self) -> int:
        return len(self.breaks)


def _cost_input(values) -> np.ndarray:
    """values as a finite 1-d array with length * max|x| at most sqrt(largest
    float) / 4, so that no sum of squares of the cost or penalty overflows."""
    x = finite_1d(values)
    if x.size * np.abs(x).max(initial=0.0) > math.sqrt(np.finfo(float).max) / 4:
        raise InputError(f"values as large as {np.abs(x).max():g} overflow the change-point "
                         "sums of squares")
    return x


def segment_cost(values: Sequence[float] | np.ndarray) -> float:
    """Within-segment cost: sum of squared deviations about the segment mean,
    which equals length * population variance."""
    x = _cost_input(values)
    if x.size == 0:
        raise InputError("segment_cost: empty segment")
    d = x - x.mean()
    return float(np.dot(d, d))


def default_penalty(values: np.ndarray) -> float:
    """BIC-like default penalty 2 * sigma2_hat * log N with the noise variance
    estimated from first differences (Var(diff)/2)."""
    x = _cost_input(values)
    n = x.size
    if n < 3:
        return 0.0
    sigma2 = float(np.var(np.diff(x), ddof=1)) / 2.0
    return 2.0 * sigma2 * math.log(n)


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sums of x and x**2, each with a leading 0."""
    return np.concatenate([[0.0], np.cumsum(x)]), np.concatenate([[0.0], np.cumsum(x * x)])


def _segment_costs(s1: np.ndarray, s2: np.ndarray, i, j, head=None, out=None):
    """O(1) cost of x[i:j] (0-based half-open) from the prefix sums of x,
    vectorised over i or j, or broadcast over both: a column of ends j
    against a row of starts i gives the (ends x starts) table; clamped at 0
    against rounding. A caller that holds s1[i] and s2[i] already passes
    them as `head` (i may then be float positions), and `out`, shaped like
    the result, receives the costs in place of a new array."""
    a1, a2 = (s1[i], s2[i]) if head is None else head
    tot = s1[j] - a1
    tot *= tot
    tot /= np.subtract(j, i, dtype=float, out=out)
    cost = np.subtract(s2[j], a2, out=out)
    cost -= tot
    return np.maximum(cost, 0.0, out=out)


def _result_from_offsets(
    x: np.ndarray, offsets: Sequence[int], config: ChangePointConfig, penalty: float
) -> ChangePointResult:
    # Segment costs are recomputed with segment_cost on the final slices so
    # the reported total matches a direct evaluation bit-for-bit.
    edges = [0] + list(offsets) + [x.size]
    costs = tuple(segment_cost(x[a:b]) for a, b in zip(edges, edges[1:]))
    total = float(sum(costs) + penalty * len(offsets))
    used = replace(config, penalty=penalty)
    return ChangePointResult(
        breaks=tuple(b + 1 for b in offsets),
        segment_costs=costs,
        total_cost=total,
        config_used=used,
        n=x.size,
    )


def _best_split(s1: np.ndarray, s2: np.ndarray, lo: int, hi: int, ms: int) -> tuple[int, float]:
    """Best 0-based split b of x[lo:hi] with both sides >= ms, scored from
    the prefix sums of x; returns (b, left+right cost), ties to the
    smallest b. Needs hi - lo >= 2 * ms."""
    cuts = np.arange(lo + ms, hi - ms + 1)
    d = _segment_costs(s1, s2, lo, cuts) + _segment_costs(s1, s2, cuts, hi)
    k = int(d.argmin())
    return int(cuts[k]), float(d[k])


def detect_single(
    values: Sequence[float] | np.ndarray, config: ChangePointConfig = ChangePointConfig()
) -> ChangePointResult:
    """Locate the single break minimizing the two-segment cost (no penalty)."""
    x = _cost_input(values)
    ms = config.min_segment
    if x.size < 2 * ms:
        raise InputError(f"series of length {x.size} too short for min_segment {ms}")
    s1, s2 = _prefix_sums(x)
    b, _ = _best_split(s1, s2, 0, x.size, ms)
    return _result_from_offsets(x, [b], config, penalty=0.0)


# Most cells (steps x live starts) that one block of _dp_columns scores:
# 2**16 doubles, 512 KiB, so a block and its one temporary stay in cache
BLOCK_CELLS = 2**16
# Points of the uniform mu grid of the envelope test; as many segment means
# of sampled live starts at most join them
ENVELOPE_GRID = 32


def _quadratic(a, s, t, mu, out=None):
    """a + mu (2 s - t mu): start t's function h_t(mu) from a = prior[t] -
    s2[t] and s = s1[t], or the difference of two such functions from the
    differences of a, s and t."""
    h = np.multiply(t, mu, out=out)
    np.subtract(s, h, out=h)
    h += s
    h *= mu
    h += a
    return h


def _above_envelope(cols, k: int, lo: float, hi: float, margin: float, work) -> np.ndarray:
    """Which of the first k starts in cols (columns of position, prior, s1
    and s2) lie above the lower envelope of all of them by more than margin
    at every mu in [lo, hi]; the last column is the start the others'
    sampled segment means end at. Scores in chunks of at most BLOCK_CELLS
    cells, the owner search in `work`. See _dp_columns for why it is exact."""
    pos, b, c1, c2 = cols
    # the grid: uniform over [lo, hi] plus the means of the segments from a
    # sample of the candidates to the last start
    step = -(-k // ENVELOPE_GRID)
    means = (c1[-1] - c1[:k:step]) / (pos[-1] - pos[:k:step])
    grid = np.sort(np.concatenate([np.linspace(lo, hi, ENVELOPE_GRID), np.clip(means, lo, hi)]))
    # the owner of each grid point: the start lowest there
    rows = max(1, BLOCK_CELLS // grid.size)
    best = np.full(grid.size, np.inf)
    owner = np.zeros(grid.size, dtype=int)
    for i in range(0, pos.size, rows):
        t = slice(i, i + rows)
        out = work[:min(rows, pos.size - i) * grid.size].reshape(-1, grid.size)
        h = _quadratic((b[t] - c2[t])[:, None], c1[t, None], pos[t, None], grid, out)
        low = h.argmin(axis=0)
        val = h[low, np.arange(grid.size)]
        better = val < best
        best[better] = val[better]
        owner[better] = low[better] + i
    # pieces: runs of grid points with one owner, cut where the functions
    # of the two owners cross between their grid points (else midway)
    cut = np.flatnonzero(owner[1:] != owner[:-1])
    own = owner[np.concatenate([[0], cut + 1])]
    ao, so, to = b[own] - c2[own], c1[own], pos[own]
    ca, cb, cc = ao[:-1] - ao[1:], so[:-1] - so[1:], to[:-1] - to[1:]
    root = np.sqrt(np.maximum(cb * cb + ca * cc, 0.0))  # of ca + mu (2 cb - cc mu) = 0
    left, right = grid[cut], grid[cut + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = (cb - root) / cc, (cb + root) / cc
    edge = np.where((left <= r1) & (r1 <= right), r1,
                    np.where((left <= r2) & (r2 <= right), r2, (left + right) / 2))
    edges = np.concatenate([[lo], edge, [hi]])
    # candidate i goes if d = h_i - h_o exceeds margin on each piece, o its
    # owner: d is quadratic in mu, so its least value on the piece is at an
    # edge or at its stationary point clipped into the piece. At most seven
    # (rows x pieces) arrays at once, so rows keep them under BLOCK_CELLS cells
    gone = np.empty(k, dtype=bool)
    rows = max(1, BLOCK_CELLS // (8 * own.size))
    for i in range(0, k, rows):
        t = slice(i, min(k, i + rows))
        da = (b[t] - c2[t])[:, None] - ao
        ds = c1[t, None] - so
        dt = pos[t, None] - to
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.clip(ds / dt, edges[:-1], edges[1:])
        least = np.minimum(_quadratic(da, ds, dt, edges[:-1]), _quadratic(da, ds, dt, edges[1:]))
        np.minimum(least, _quadratic(da, ds, dt, vertex), out=least)
        gone[t] = (least > margin).all(axis=1)
    return gone


def _dp_columns(s1, s2, prior, out, prev, theta: float, ms: int, margins) -> None:
    """One layer of the exact change-point recursion, pruned: fills
    out[j] = min over live starts t of prior[t] + cost(t, j) + theta, with
    segments >= ms, and prev[j] = the minimizing t (the smallest on ties).
    A step with no live start leaves out[j] = inf. The uncapped DP passes
    its own column as prior (out is prior); the capped DP runs it once per
    break count, each layer reading the one before.

    Start t joins at step t + ms if prior[t] is finite. Pruning (PELT;
    Killick, Fearnhead & Eckley, JASA 107:1590, 2012): splitting a segment
    never raises its cost, so a start i whose candidate at step j exceeds
    prior[j] + theta scores above start j at every step s >= j + ms, as
    prior[i] + c(i, s) + theta >= prior[i] + c(i, j) + c(j, s) + theta >
    prior[j] + c(j, s) + theta. Start j only becomes admissible at step
    j + ms, so i is dropped then, not at step j: with a minimum segment
    length, pruning at step j would lose optima. When out is prior this is
    the pruned optimal partitioning; with theta = 0 and out the layer after
    prior it prunes the segment-neighbourhood recursion (Auger & Lawrence,
    Bull. Math. Biol. 51:39, 1989) by the same argument. PELT prunes
    nothing in its layers for 0 and 1 breaks: the first has the one start
    0, and the second reads one segment, c(0, j) >= c(0, i) + c(i, j), so
    no candidate exceeds prior[j] by more than rounding. The envelope test
    below prunes the second as it prunes the others.

    `margins` is (delta, margin, lo, hi) from _delta. The rounding margin
    delta makes the dropped set exact in floating point. With u = 2**-53
    and W = max|x| * sum|x| (a bound on every segment's sum(x**2) and
    sum(x)**2 / length, and so on every sum of segment costs, prior[j]
    included), superadditivity holds exactly for costs taken from the
    stored prefix sums; the clamp at 0 breaks it by at most 12 n u W, and
    the three candidates compared plus the threshold are off by at most
    u (36 W + 11 theta) together. delta = 64 eps (n + 1) (W + theta),
    eps = 2u, exceeds that sum at least 6-fold while n**2 u << 1, so a
    dropped start scores strictly above its dominator at every later step.

    Functional pruning (Maidstone, Hocking, Rigaill & Fearnhead, Stat.
    Comput. 27:519, 2017; for the layers of the capped DP, Rigaill's pDPA,
    J. SFdS 156(4), 2015) drops more at the same checks. The candidate of
    start t at step s is min over mu of h_t(mu) + g_s(mu), with
    h_t(mu) = prior[t] - s2[t] + mu (2 s1[t] - t mu) and the term every
    start shares, g_s(mu) = theta + s2[s] - 2 mu s1[s] + s mu**2; the
    minimizing mu is the mean of x[t:s]. So a start i whose h_i lies above
    the lower envelope of a set T of starts, at every mu a segment mean can
    take, scores above some start of T at every step where all of T are
    admissible. At a check step j0, T is the live starts and start j0
    itself, all <= j0 with a finite prior, so all admissible from step
    j0 + ms on, when i is dropped with PELT's drops (_above_envelope). Any pieces that bound the envelope
    from above serve: on a piece owned by start o, h_i - h_o is quadratic
    in mu, and its least value on the piece lies at an edge or at its
    stationary point clipped into the piece. The owners of a grid of mu
    (ENVELOPE_GRID uniform points plus as many means of segments from
    sampled live starts to j0) give the pieces, cut where the functions of
    adjacent owners cross; pieces that follow the envelope's breakpoints
    are what prune, but any are exact.

    Rounding: the identity above holds exactly for the stored prefix sums.
    A stored segment mean (s1[s] - s1[t]) / (s - t) is the mean of the
    stored steps s1[k + 1] - s1[k], each within 2 gamma_n sum|x| of x[k]
    (gamma_n = n u / (1 - n u)), so every mean lies in [lo, hi] =
    [min x - eta, max x + eta], eta = 4 eps (n + 1) sum|x|, which exceeds
    that 4-fold. Two computed candidates are off by less than delta / 5
    together (the bound above), and d = h_i - h_o, computed at a point of
    [lo, hi], by at most eps (16 M S + 2 n M**2 + 3 theta) + u |d|, with
    M = max(|lo|, |hi|) and S = sum|x|. The margin delta + 64 eps (n + 1)
    M (M + S) exceeds the two together at least 4-fold; the stationary
    point, off by a few u, raises d there by at most n (4 u M)**2, far less.
    So a start the test drops scores strictly above the owner of the piece
    its segment mean falls in, at every step from its drop on.

    The dominance test runs only on steps j that are multiples of ms, and
    what it finds is dropped ms steps later, so the live starts are
    compacted at most once per ms steps. This stays exact: checking on a
    subset of steps drops a subset of the starts the every-step rule
    drops, each under the same test, so a dropped start still scores
    strictly above its dominator from its drop on, and a start at the
    minimum is never dropped. For the same reason the envelope test may
    skip checks: it runs only where the live starts number at least
    max(4 ms, twice what its last run left), so its cost is paid once the
    live set has grown. The live starts are kept, in ascending order, as
    the columns of `cols`: position (a float, exact below 2**53), prior,
    s1 and s2 at the start, each written once when the start joins.

    The steps of one run [j0, j1), from a multiple of ms up to the next,
    are scored together as one contiguous (steps x live starts) block
    through _segment_costs, with no gather and no per-step NumPy calls. A
    run whose block would exceed BLOCK_CELLS cells is split into shorter
    blocks, so the memory stays bounded whatever n and ms. This is exact:
    every start that joins inside the run has t = j - ms < j0, so its
    prior[t] is final before the block is scored, in both the uncapped
    and the capped DP. A start that joins inside the block scores inf on
    the rows before its join; joined starts come last in the column order,
    so the smallest index still wins ties. Compaction happens only at run
    starts, and the dominance check reads row j0 after out[j0] is written.
    Surviving starts are scored by the unpruned recursion's expression,
    element by element, so out, prev, the smallest-index tie rule and the
    breaks equal it bit for bit.
    """
    delta, margin, lo, hi = margins
    n = out.size - 1
    cols = np.empty((4, n + 1))
    buf = np.empty(max(BLOCK_CELLS, n + 1, 2 * ENVELOPE_GRID))
    gone = np.zeros(0, dtype=bool)  # dominated starts, over cols[:, :gone.size]
    m = 0
    survivors = 0  # live starts left by the last envelope test
    j0 = ms
    while j0 <= n:
        if j0 % ms == 0 and gone.any():  # drop what the check at step j0 - ms found
            keep = np.ones(m, dtype=bool)
            keep[:gone.size] = ~gone
            kept = cols[:, :m][:, keep]
            m = kept.shape[1]
            cols[:, :m] = kept
        # up to the next multiple of ms; at most ms starts join, so the
        # block holds at most BLOCK_CELLS cells, or one row of n + 1
        j1 = min(n + 1, (j0 // ms + 1) * ms, j0 + max(1, BLOCK_CELLS // (m + ms)))
        rows = j1 - j0
        joins = np.flatnonzero(prior[j0 - ms:j1 - ms] < np.inf)  # the row each start joins at
        t = joins + (j0 - ms)
        live = m + joins.size
        cols[:, m:live] = t, prior[t], s1[t], s2[t]
        first = 0 if m else (int(joins[0]) if joins.size else rows)  # first row with a live start
        if first < rows:
            pos, b, c1, c2 = cols[:, :live]
            c = _segment_costs(s1, s2, pos, np.arange(j0, j1)[:, None], head=(c1, c2),
                               out=buf[:rows * live].reshape(rows, live))
            c += b
            c += theta
            c[:, m:][np.arange(rows)[:, None] < joins] = np.inf  # not joined yet
            k = c.argmin(axis=1)  # smallest index wins ties
            out[j0 + first:j1] = c[np.arange(first, rows), k[first:]]
            prev[j0 + first:j1] = pos[k[first:]]
            if j0 % ms == 0 and first == 0:
                at_j0 = m + int(joins.size > 0 and joins[0] == 0)  # live at step j0
                gone = c[0, :at_j0] > prior[j0] + theta + delta
                if at_j0 >= max(4 * ms, 2 * survivors):
                    cols[:, live] = j0, prior[j0], s1[j0], s2[j0]  # start j0 competes too
                    gone |= _above_envelope(cols[:, :live + 1], at_j0, lo, hi, margin, buf)
                    survivors = at_j0 - int(np.count_nonzero(gone))
        m = live
        j0 = j1


def _delta(x: np.ndarray, theta: float) -> tuple[float, float, float, float]:
    """The rounding margins of _dp_columns for x under penalty theta:
    (delta, the envelope margin, lo, hi), [lo, hi] the mu range."""
    eps = np.finfo(float).eps
    total = float(np.abs(x).sum())
    delta = 64 * eps * (x.size + 1) * (float(np.abs(x).max()) * total + theta)
    eta = 4 * eps * (x.size + 1) * total
    lo, hi = float(x.min()) - eta, float(x.max()) + eta
    top = max(-lo, hi)
    return delta, delta + 64 * eps * (x.size + 1) * top * (top + total), lo, hi


def _dp_unbounded(x: np.ndarray, theta: float, ms: int) -> list[int]:
    """Penalized optimal partitioning: global minimizer of
    sum(segment costs) + theta * n_breaks with all segments >= ms, by the
    pruned recursion of _dp_columns over its own column."""
    n = x.size
    s1, s2 = _prefix_sums(x)
    best = np.full(n + 1, np.inf)
    prev = np.zeros(n + 1, dtype=int)
    best[0] = -theta  # cancels the per-segment theta of the first segment
    _dp_columns(s1, s2, best, best, prev, theta, ms, _delta(x, theta))
    cuts = []
    j = int(prev[n])
    while j > 0:
        cuts.append(j)
        j = int(prev[j])
    return sorted(cuts)


def _dp_capped(x: np.ndarray, theta: float, ms: int, hmax: int) -> list[int]:
    """Exact DP over break counts 0..hmax (segment neighbourhood): layer k
    holds the best unpenalized cost of every prefix split into k + 1
    segments, filled by _dp_columns from layer k - 1 with no penalty and
    pruned like the uncapped DP (in the layer for 1 break by the envelope
    test alone). Of the last layer only the whole series is read, so its
    one cell is scored over every admissible start, with _dp_columns'
    expression and tie rule. Picks the count minimizing the penalized
    objective (ties to the smaller count)."""
    n = x.size
    s1, s2 = _prefix_sums(x)
    # cost[k][j]: best unpenalized cost of x[:j] split into k+1 segments
    cost = np.full((hmax + 1, n + 1), np.inf)
    back = np.zeros((hmax + 1, n + 1), dtype=int)
    prior = np.concatenate([[0.0], np.full(n, np.inf)])  # the empty prefix only
    margins = _delta(x, 0.0)
    for k in range(hmax):
        _dp_columns(s1, s2, prior, cost[k], back[k], 0.0, ms, margins)
        prior = cost[k]
    starts = np.flatnonzero(prior[:n - ms + 1] < np.inf)
    if starts.size:
        c = _segment_costs(s1, s2, starts, n)
        c += prior[starts]
        c += 0.0  # the layer's penalty, as _dp_columns adds it
        best = int(np.argmin(c))  # smallest start wins ties
        cost[hmax, n], back[hmax, n] = c[best], starts[best]
    totals = cost[:, n] + theta * np.arange(hmax + 1)
    k_best = int(np.argmin(totals))  # ties to fewer breaks
    cuts = []
    j = n
    for k in range(k_best, 0, -1):
        j = int(back[k, j])
        cuts.append(j)
    return sorted(cuts)


def detect_multiple(
    values: Sequence[float] | np.ndarray, config: ChangePointConfig = ChangePointConfig()
) -> ChangePointResult:
    """Detect an unknown number of breaks under a per-break penalty.

    The returned break set is the global minimizer of sum(segment costs) +
    penalty * H over all admissible placements, found by the exact DP: H
    is free (_dp_unbounded) unless max_breaks caps it (_dp_capped).
    """
    x = _cost_input(values)
    ms = config.min_segment
    if config.max_breaks is not None and x.size < (config.max_breaks + 1) * ms:
        raise InputError(
            f"series of length {x.size} cannot hold {config.max_breaks + 1} segments of >= {ms}"
        )
    if x.size < ms:
        raise InputError(f"series of length {x.size} shorter than min_segment {ms}")
    theta = config.penalty if config.penalty is not None else default_penalty(x)
    if config.max_breaks is not None:
        cuts = _dp_capped(x, theta, ms, config.max_breaks)
    else:
        cuts = _dp_unbounded(x, theta, ms)
    return _result_from_offsets(x, cuts, config, penalty=theta)
