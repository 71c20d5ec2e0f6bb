"""Penalized multiple change-point detection.

Breaks are located by minimizing the sum of within-segment squared
deviations about each segment mean plus a fixed penalty per break. Every
search -- the exact dynamic program, binary segmentation and the single
split -- minimizes that same cost through one kernel: each takes the
cumulative sums of x and x**2 once (_prefix_sums), and _segment_costs turns
them into the O(1) cost of any candidate segment, clamped at 0 against
rounding. Without a cap on the number of breaks the exact DP drops
candidate starts that can never win again (PELT pruning), which returns the
same breaks as the unpruned recursion, bit for bit. It is quadratic in the
series length in the worst case (no breaks) and near-linear when the
regimes grow with the series. A faster dichotomous (binary segmentation)
alternative splits greedily while the penalized objective keeps improving.

Precision limit: the cost of a segment is a difference of sums that carry
the series' level, so it loses the digits the level and the spread share.
On pure noise 1e6 + 1e-3 * N(0, 1) (400 samples, min_segment 8, default
penalty) even the exact DP puts breaks in 197 of 400 inputs (seeds 0-399).

Index convention: a break h is the first sample of the new regime and is
reported 1-based, so a result with breaks (h,) splits x into x[1..h-1] and
x[h..N] in 1-based terms. ``ChangePointResult.offsets`` exposes the same
breaks as 0-based array positions for slicing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError, finite_1d

METHODS = ("exact-dp", "binary-segmentation")


@dataclass(frozen=True)
class ChangePointConfig:
    penalty: float | None = None  # None: 2 * sigma2_hat * log N, sigma2 from first differences
    max_breaks: int | None = None
    min_segment: int = 32
    method: str = "exact-dp"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")
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


def _segment_costs(s1: np.ndarray, s2: np.ndarray, i, j):
    """O(1) cost of x[i:j] (0-based half-open) from the prefix sums of x,
    vectorised over i or j; clamped at 0 against rounding."""
    lens = np.subtract(j, i, dtype=float)
    tot = s1[j] - s1[i]
    return np.maximum((s2[j] - s2[i]) - tot * tot / lens, 0.0)


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


def _dp_unbounded(x: np.ndarray, theta: float, ms: int) -> list[int]:
    """Penalized optimal partitioning: global minimizer of
    sum(segment costs) + theta * n_breaks with all segments >= ms.

    Exact pruned DP (PELT; Killick, Fearnhead & Eckley, JASA 107:1590,
    2012). Splitting a segment never raises its cost, so a start tau whose
    candidate at step t exceeds best[t] + theta scores above start t at
    every step s >= t + ms. Start t only becomes admissible at step t + ms,
    so tau is dropped then, not at step t: with a minimum segment length,
    pruning at step t would lose optima.

    The rounding margin `delta` makes the dropped set exact in floating
    point. With u = 2**-53 and W = max|x| * sum|x| (a bound on every
    segment's sum(x**2) and sum(x)**2 / length), superadditivity holds
    exactly for costs taken from the stored prefix sums; the clamp at 0
    breaks it by at most 12 n u W, and the three candidates compared plus
    the threshold are off by at most u (36 W + 11 theta) together. delta =
    64 eps (n + 1) (W + theta), eps = 2u, exceeds that sum at least 6-fold
    while n**2 u << 1, so a dropped start scores strictly above its
    dominator at every later step. Surviving starts stay in ascending
    order and are scored by the same expression, so best, prev, the
    smallest-index tie rule and the breaks equal the unpruned recursion bit
    for bit.
    """
    n = x.size
    s1, s2 = _prefix_sums(x)
    best = np.full(n + 1, np.inf)
    prev = np.zeros(n + 1, dtype=int)
    best[0] = -theta  # cancels the per-segment theta of the first segment
    w = float(np.abs(x).max()) * float(np.abs(x).sum())
    delta = 64 * np.finfo(float).eps * (n + 1) * (w + theta)
    alive = np.ones(n + 1, dtype=bool)
    buf = np.zeros(n + 1, dtype=int)  # buf[:m]: admissible starts, ascending
    m = 1  # start 0; starts 1..ms-1 have best == inf and never join
    dominated: dict[int, np.ndarray] = {}  # t -> starts to drop when t joins
    for j in range(ms, n + 1):
        t = j - ms
        if t >= ms:
            gone = dominated.pop(t, None)
            if gone is not None:
                alive[gone] = False
                kept = buf[:m][alive[buf[:m]]]
                m = kept.size
                buf[:m] = kept
            buf[m] = t
            m += 1
        starts = buf[:m]
        cand = best[starts] + _segment_costs(s1, s2, starts, j) + theta
        k = int(cand.argmin())  # smallest index wins ties
        best[j] = cand[k]
        prev[j] = int(starts[k])
        gone = starts[cand > best[j] + theta + delta]
        if gone.size:
            dominated[j] = gone
    cuts = []
    j = n
    while j > 0:
        i = prev[j]
        if i > 0:
            cuts.append(i)
        j = i
    return sorted(cuts)


def _dp_capped(x: np.ndarray, theta: float, ms: int, hmax: int) -> list[int]:
    """Exact DP over break counts 0..hmax; picks the count minimizing the
    penalized objective (ties to the smaller count)."""
    n = x.size
    s1, s2 = _prefix_sums(x)
    # cost[k][j]: best unpenalized cost of x[:j] split into k+1 segments
    cost = np.full((hmax + 1, n + 1), np.inf)
    back = np.zeros((hmax + 1, n + 1), dtype=int)
    cost[0, ms:] = _segment_costs(s1, s2, 0, np.arange(ms, n + 1))
    for k in range(1, hmax + 1):
        lo = (k + 1) * ms
        for j in range(lo, n + 1):
            i = np.arange(k * ms, j - ms + 1)
            cand = cost[k - 1, i] + _segment_costs(s1, s2, i, j)
            idx = int(np.argmin(cand))
            cost[k, j] = cand[idx]
            back[k, j] = int(i[idx])
    totals = cost[:, n] + theta * np.arange(hmax + 1)
    k_best = int(np.argmin(totals))  # ties to fewer breaks
    cuts = []
    j = n
    for k in range(k_best, 0, -1):
        j = int(back[k, j])
        cuts.append(j)
    return sorted(cuts)


def _binary_segmentation(x: np.ndarray, theta: float, ms: int, hmax: int | None) -> list[int]:
    """Greedy dichotomous splitting: repeatedly take the split with the
    largest penalized improvement until none improves (or the cap binds)."""
    s1, s2 = _prefix_sums(x)
    cuts: list[int] = []
    heap = []  # (-gain, split, lo, hi)
    counter = 0

    def push(lo: int, hi: int):
        nonlocal counter
        if hi - lo < 2 * ms:
            return
        b, split_cost = _best_split(s1, s2, lo, hi, ms)
        gain = float(_segment_costs(s1, s2, lo, hi)) - split_cost - theta
        if gain > 0:
            heapq.heappush(heap, (-gain, counter, b, lo, hi))
            counter += 1

    push(0, x.size)
    while heap:
        if hmax is not None and len(cuts) >= hmax:
            break
        _, _, b, lo, hi = heapq.heappop(heap)
        cuts.append(b)
        push(lo, b)
        push(b, hi)
    return sorted(cuts)


def detect_multiple(
    values: Sequence[float] | np.ndarray, config: ChangePointConfig = ChangePointConfig()
) -> ChangePointResult:
    """Detect an unknown number of breaks under a per-break penalty.

    With method "exact-dp" the returned break set is the global minimizer of
    sum(segment costs) + penalty * H over all admissible placements (H free
    unless max_breaks caps it). "binary-segmentation" applies the single
    change-point scan recursively, accepting a split only while it lowers
    the penalized objective.
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
    if config.method == "binary-segmentation":
        cuts = _binary_segmentation(x, theta, ms, config.max_breaks)
    elif config.max_breaks is not None:
        cuts = _dp_capped(x, theta, ms, config.max_breaks)
    else:
        cuts = _dp_unbounded(x, theta, ms)
    return _result_from_offsets(x, cuts, config, penalty=theta)
