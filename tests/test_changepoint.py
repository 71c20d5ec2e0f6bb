"""Penalized change-point detection: exactness against brute force."""

import json
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smfdfa import (
    ChangePointConfig,
    ChangePointResult,
    InputError,
    default_penalty,
    detect_multiple,
    detect_single,
    segment_cost,
)
from smfdfa import changepoint
from smfdfa.serialize import changepoints_to_dict


def brute_force_best_cost(x: np.ndarray, theta: float, ms: int, hmax: int) -> float:
    """Independent oracle: enumerate every admissible break placement with
    0..hmax breaks (each segment >= ms) and return the minimal penalized
    cost. Per-segment costs reuse segment_cost, which is verified by hand
    below, so the independent part is the optimization over placements.
    The winning placement's total is composed as sum(segment costs) +
    theta * breaks in one place, so equality with the library total is
    exact rather than 1-ulp-of-summation-order apart."""
    n = x.size
    cache: dict[tuple[int, int], float] = {}

    def c(i: int, j: int) -> float:
        if (i, j) not in cache:
            cache[(i, j)] = segment_cost(x[i:j])
        return cache[(i, j)]

    def total(cuts: tuple[int, ...]) -> float:
        edges = (0, *cuts, n)
        return float(sum(c(a, b) for a, b in zip(edges, edges[1:])) + theta * len(cuts))

    best = total(())  # zero breaks
    best_cuts: tuple[int, ...] = ()

    def recurse(start: int, remaining: int, acc: tuple[int, ...]):
        nonlocal best, best_cuts
        # place the next cut at b, leaving >= ms on both sides of every cut
        for b in range(start + ms, n - ms + 1):
            cuts = acc + (b,)
            t = total(cuts)
            if t < best:
                best, best_cuts = t, cuts
            if remaining > 1:
                recurse(b, remaining - 1, cuts)

    if hmax >= 1 and n >= 2 * ms:
        recurse(0, hmax, ())
    return best


def dense_dp_table(x: np.ndarray, theta: float, ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the unpruned optimal-partitioning recursion, which scores
    every admissible start at every step. best[j] is the best penalized
    cost of x[:j] (less one theta), and prev[j] the start of its last
    segment (the smallest on ties)."""
    n = x.size
    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])
    best = np.full(n + 1, np.inf)
    prev = np.zeros(n + 1, dtype=int)
    best[0] = -theta  # cancels the per-segment theta of the first segment
    for j in range(ms, n + 1):
        i = np.arange(0, j - ms + 1)
        lens = (j - i).astype(float)
        tot = s1[j] - s1[i]
        seg = np.maximum((s2[j] - s2[i]) - tot * tot / lens, 0.0)
        cand = best[i] + seg + theta
        k = int(np.argmin(cand))  # smallest index wins ties
        best[j] = cand[k]
        prev[j] = int(i[k])
    return best, prev


def dense_dp_offsets(x: np.ndarray, theta: float, ms: int) -> list[int]:
    """Reference: the breaks of the unpruned recursion (dense_dp_table).
    The library's pruned DP must return the same 0-based offsets."""
    prev = dense_dp_table(x, theta, ms)[1]
    cuts = []
    j = x.size
    while j > 0:
        i = prev[j]
        if i > 0:
            cuts.append(i)
        j = i
    return sorted(cuts)


def dense_capped_layers(x: np.ndarray, ms: int, hmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the unpruned segment-neighbourhood recursion, which scores
    every admissible start of every break count at every step. cost[k, j]
    is the best unpenalized cost of x[:j] split into k + 1 segments, and
    back[k, j] the start of the last one (the smallest on ties)."""
    n = x.size
    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])
    cost = np.full((hmax + 1, n + 1), np.inf)
    back = np.zeros((hmax + 1, n + 1), dtype=int)
    for k in range(hmax + 1):
        for j in range((k + 1) * ms, n + 1):
            i = np.arange(k * ms, j - ms + 1) if k else np.zeros(1, dtype=int)
            lens = (j - i).astype(float)
            tot = s1[j] - s1[i]
            seg = np.maximum((s2[j] - s2[i]) - tot * tot / lens, 0.0)
            cand = (cost[k - 1, i] if k else 0.0) + seg
            idx = int(np.argmin(cand))  # smallest index wins ties
            cost[k, j] = cand[idx]
            back[k, j] = int(i[idx])
    return cost, back


def dense_capped_offsets(x: np.ndarray, theta: float, ms: int, hmax: int,
                         layers: tuple[np.ndarray, np.ndarray] | None = None) -> list[int]:
    """Reference: the break count in 0..hmax minimizing the penalized total
    over the unpruned layers (ties to fewer breaks), and its breaks. The
    library's capped DP must return the same 0-based offsets. Layer k does
    not depend on the cap, so `layers` from dense_capped_layers with any
    cap >= hmax may be passed to save computing them again."""
    cost, back = layers or dense_capped_layers(x, ms, hmax)
    k_best = int(np.argmin(cost[:hmax + 1, x.size] + theta * np.arange(hmax + 1)))
    cuts = []
    j = x.size
    for k in range(k_best, 0, -1):
        j = int(back[k, j])
        cuts.append(j)
    return sorted(cuts)


def penalized_total(x: np.ndarray, offsets, theta: float) -> float:
    """sum(segment costs) + theta * breaks, composed as the library does."""
    edges = (0, *offsets, x.size)
    costs = sum(segment_cost(x[a:b]) for a, b in zip(edges, edges[1:]))
    return float(costs + theta * len(offsets))


@st.composite
def dp_instances(draw, min_segments=st.integers(2, 12), ragged=False):
    """(x, theta, min_segment) over the inputs where rounding and ties
    decide the optimum: Gaussian noise, piecewise-constant steps (exact
    zero costs when noiseless), small integers (many tied candidates) and
    a 1e6 offset with 1e-3 noise (costs near the rounding floor). With
    `ragged`, the length is never a multiple of min_segment."""
    ms = draw(min_segments, label="min_segment")
    n = draw(st.integers(ms, 400), label="n")
    if ragged and n % ms == 0:
        n += 1
    kind = draw(st.sampled_from(["gaussian", "steps", "integer", "offset"]), label="kind")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "gaussian":
        x = gen.standard_normal(n)
    elif kind == "steps":
        edges = np.sort(gen.integers(0, n, size=gen.integers(0, 6)))
        x = np.zeros(n)
        for e in edges:
            x[e:] += float(gen.integers(-3, 4))
        x += draw(st.sampled_from([0.0, 0.3]), label="noise") * gen.standard_normal(n)
    elif kind == "integer":
        x = gen.integers(0, 3, n).astype(float)
    else:
        x = 1e6 + 1e-3 * gen.standard_normal(n)
    penalty = draw(st.sampled_from(["zero", "default", "uniform"]), label="penalty")
    if penalty == "zero":
        theta = 0.0
    elif penalty == "default":
        theta = default_penalty(x)
    else:  # uniform over [0, 3] times the default
        theta = draw(st.floats(0.0, 3.0), label="scale") * default_penalty(x)
    return x, theta, ms


@st.composite
def rounding_instances(draw):
    """(x, theta, min_segment) where the envelope test's rounding margin and
    mu range decide what it may drop: a 1e6 level with 1e-3 noise (costs
    near the rounding floor), nonnegative values with exact zeros and a few
    values 1e3 times the rest (n * max(x)**2 far above max(x) * sum(x)),
    and all-equal values (a mu range of one value, widened only by the
    prefix sums' rounding; every cost near 0, so ties decide)."""
    ms = draw(st.integers(2, 12), label="min_segment")
    n = draw(st.integers(ms, 400), label="n")
    kind = draw(st.sampled_from(["level", "spikes", "equal"]), label="kind")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "level":
        x = 1e6 + 1e-3 * gen.standard_normal(n)
    elif kind == "spikes":
        x = np.abs(gen.standard_normal(n)) * (gen.random(n) < 0.5)
        x[gen.integers(0, n, size=gen.integers(1, 4))] *= 1e3
    else:
        x = np.full(n, draw(st.sampled_from([0.1, 7.0, 1e6 + 0.3, -2.5]), label="value"))
    penalty = draw(st.sampled_from(["zero", "default", "uniform"]), label="penalty")
    if penalty == "zero":
        theta = 0.0
    elif penalty == "default":
        theta = default_penalty(x)
    else:  # uniform over [0, 3] times the default
        theta = draw(st.floats(0.0, 3.0), label="scale") * default_penalty(x)
    return x, theta, ms


class TestSegmentCost:
    def test_hand_values(self):
        # [TRIVIAL] [1,2,3]: deviations (-1,0,1) -> 2; constant -> 0
        assert segment_cost([1.0, 2.0, 3.0]) == 2.0
        assert segment_cost([7.0, 7.0, 7.0, 7.0]) == 0.0
        assert segment_cost([4.0]) == 0.0

    def test_equals_length_times_population_variance(self, rng):
        x = rng.standard_normal(37)
        assert math.isclose(segment_cost(x), 37 * np.var(x), rel_tol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            segment_cost([])


class TestDetectSingle:
    def test_obvious_step_found_exactly(self):
        # [TRIVIAL] noiseless step: the cost of the true split is 0
        x = np.array([0.0] * 40 + [5.0] * 40)
        r = detect_single(x, ChangePointConfig(min_segment=5))
        assert r.offsets == (40,)
        assert r.breaks == (41,)  # 1-based: first sample of the new regime
        assert r.segment_costs == (0.0, 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dp_instances())
    def test_split_is_the_best_two_segment_split(self, instance):
        # [DERIVED] the scan scores splits with the DP's clamped kernel, so
        # the split it returns costs at most the brute-force best split
        # plus the DP's rounding margin delta (see _dp_columns)
        x, _, ms = instance
        assume(x.size >= 2 * ms)
        b = detect_single(x, ChangePointConfig(min_segment=ms)).offsets[0]
        best = min(segment_cost(x[:c]) + segment_cost(x[c:]) for c in range(ms, x.size - ms + 1))
        w = float(np.abs(x).max()) * float(np.abs(x).sum())
        delta = 64 * np.finfo(float).eps * (x.size + 1) * w
        assert segment_cost(x[:b]) + segment_cost(x[b:]) <= best + delta

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            detect_single(np.zeros(10), ChangePointConfig(min_segment=8))


class TestDetectMultiple:
    def test_exact_dp_matches_brute_force_small(self, rng):
        # [DERIVED] 12 random instances (the 50-instance sweep runs in the
        # acceptance suite); totals must agree exactly because both sides
        # evaluate final costs through the same verified leaf
        for i in range(12):
            gen = np.random.default_rng(100 + i)
            n = int(gen.integers(30, 120))
            ms = int(gen.integers(2, max(3, n // 8)))
            hmax = int(gen.integers(0, 4))
            x = np.cumsum(gen.standard_normal(n))
            theta = float(gen.uniform(0.0, 5.0))
            cfg = ChangePointConfig(penalty=theta, min_segment=ms, max_breaks=hmax)
            got = detect_multiple(x, cfg)
            want = brute_force_best_cost(x, theta, ms, hmax)
            assert got.total_cost == want, f"instance {i}: {got.total_cost} != {want}"

    def test_unbounded_dp_matches_brute_force_at_full_capacity(self, rng):
        # [DERIVED] with no break cap, enumerate up to the packing limit
        for i in range(6):
            gen = np.random.default_rng(200 + i)
            n = int(gen.integers(36, 70))
            ms = 12
            x = gen.standard_normal(n) + np.repeat([0.0, 4.0], [n // 2, n - n // 2])
            theta = float(gen.uniform(0.5, 10.0))
            got = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms))
            want = brute_force_best_cost(x, theta, ms, hmax=n // ms - 1)
            assert got.total_cost == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dp_instances())
    def test_pruned_dp_equals_unpruned_recursion(self, instance):
        # [DERIVED] pruning only drops starts that can never win again, so
        # the breaks equal the full recursion's, ties and rounding included
        x, theta, ms = instance
        got = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms))
        assert list(got.offsets) == dense_dp_offsets(x, theta, ms)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_pruned_dp_equals_unpruned_recursion_at_benchmark_size(self, seed):
        # [DERIVED] the benchmark's shape: |r| over four 1024-sample regimes
        # of sigma 0.005, 0.02, 0.008 and 0.03. Under the default penalty
        # about 500 starts stay live per step (up to about 1080), so the
        # column compaction and the dominance check every min_segment steps
        # act on hundreds of starts, which the small instances above never
        # reach (measured). Penalty 0 packs breaks close to min_segment
        # apart, where dropping a start at its check step instead of ms
        # steps later loses the optimum on both seeds
        gen = np.random.default_rng(seed)
        x = np.abs(np.concatenate([gen.standard_normal(1024) * s
                                   for s in (0.005, 0.02, 0.008, 0.03)]))
        for theta in (default_penalty(x), 0.0):
            for ms in (32, 37):
                got = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms))
                assert got.n_breaks >= 3
                assert list(got.offsets) == dense_dp_offsets(x, theta, ms)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dp_instances(), st.data())
    def test_capped_dp_equals_unpruned_layered_recursion(self, instance, data):
        # [DERIVED] the capped DP prunes each break count's layer by the
        # uncapped DP's rule with no penalty, so its breaks and total equal
        # the unpruned layers', ties and rounding included
        x, theta, ms = instance
        hmax = data.draw(st.integers(0, min(8, x.size // ms - 1)), label="max_breaks")
        got = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms, max_breaks=hmax))
        want = dense_capped_offsets(x, theta, ms, hmax)
        assert list(got.offsets) == want
        assert got.total_cost == penalized_total(x, want, theta)

    def test_capped_dp_equals_unpruned_layered_recursion_at_benchmark_size(self):
        # [DERIVED] the benchmark's shape (see the uncapped case above) with
        # a break cap at and above the three planted breaks. The layer for
        # one break prunes nothing (about 2000 live starts per step, up to
        # about 4000); the layers for 2, 3 and 4-8 breaks keep about 880,
        # 450 and 240-350 (measured). Under the default penalty cap 8 does
        # not bind (4 breaks); under penalty 0 both caps do, so the deepest
        # layer decides the breaks
        gen = np.random.default_rng(0)
        x = np.abs(np.concatenate([gen.standard_normal(1024) * s
                                   for s in (0.005, 0.02, 0.008, 0.03)]))
        for ms in (32, 37):
            layers = dense_capped_layers(x, ms, 8)
            for theta in (default_penalty(x), 0.0):
                for hmax in (3, 8):
                    cfg = ChangePointConfig(penalty=theta, min_segment=ms, max_breaks=hmax)
                    got = detect_multiple(x, cfg)
                    want = dense_capped_offsets(x, theta, ms, hmax, layers)
                    assert got.n_breaks >= 3
                    assert list(got.offsets) == want
                    assert got.total_cost == penalized_total(x, want, theta)

    @pytest.mark.parametrize("hmax", [0, 1, 3, 8])
    def test_capped_dp_fills_no_layer_past_the_last_read(self, hmax):
        # [TRIVIAL] of the layer for hmax breaks only the whole series'
        # cell is read, so the column kernel fills the hmax layers below it
        # and that one cell is scored on its own; the breaks stay the
        # unpruned layers'
        gen = np.random.default_rng(3)
        x = np.abs(np.concatenate([gen.standard_normal(160) * s for s in (0.005, 0.02, 0.008)]))
        cfg = ChangePointConfig(penalty=0.0, min_segment=16, max_breaks=hmax)
        with mock.patch.object(changepoint, "_dp_columns", wraps=changepoint._dp_columns) as dp:
            got = detect_multiple(x, cfg)
        assert dp.call_count == hmax
        assert list(got.offsets) == dense_capped_offsets(x, 0.0, 16, hmax)
        assert got.n_breaks == hmax

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dp_instances(st.sampled_from([2, 3, 7, 37]), ragged=True), st.data())
    def test_block_edges_match_unpruned_recursions(self, instance, data):
        # [DERIVED] the DP scores the steps from one multiple of min_segment
        # to the next as one block, split further by the cell cap. The
        # length here is never a multiple of min_segment, so the last block
        # is short; a capped layer k reads priors that are inf below
        # k * min_segment, so its first starts join in the middle of a
        # block; and caps of 1 and 97 cells split the runs into one-step
        # and few-step blocks. Breaks and totals equal the unpruned
        # recursions' either way
        x, theta, ms = instance
        hmax = data.draw(st.none() | st.integers(0, min(8, x.size // ms - 1)), label="max_breaks")
        cells = data.draw(st.sampled_from([changepoint.BLOCK_CELLS, 97, 1]), label="cells")
        if hmax is None:
            want = dense_dp_offsets(x, theta, ms)
        else:
            want = dense_capped_offsets(x, theta, ms, hmax)
        cfg = ChangePointConfig(penalty=theta, min_segment=ms, max_breaks=hmax)
        with mock.patch.object(changepoint, "BLOCK_CELLS", cells):
            got = detect_multiple(x, cfg)
        assert list(got.offsets) == want
        assert got.total_cost == penalized_total(x, want, theta)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rounding_instances(), st.data())
    def test_envelope_margin_and_mu_range(self, instance, data):
        # [DERIVED] the envelope test drops a start only where its function
        # clears the others' envelope by the rounding margin at every mu a
        # stored segment mean can take. On these inputs rounding decides
        # many comparisons, so with no margin the breaks and totals leave
        # the unpruned recursions' (measured); the widened range is checked
        # directly below, since no input found here needs it
        x, theta, ms = instance
        hmax = data.draw(st.none() | st.integers(0, min(8, x.size // ms - 1)), label="max_breaks")
        if hmax is None:
            want = dense_dp_offsets(x, theta, ms)
        else:
            want = dense_capped_offsets(x, theta, ms, hmax)
        got = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms, max_breaks=hmax))
        assert list(got.offsets) == want
        assert got.total_cost == penalized_total(x, want, theta)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dp_instances(st.integers(2, 37)), st.data())
    def test_tables_equal_unpruned_recursions(self, instance, data):
        # [DERIVED] a dropped start never wins or ties again, so every cell
        # of the cost table and every back-pointer equals the unpruned
        # recursion's, off the optimal path too. Two faults leave the
        # breaks of random inputs as they are but change these cells: a
        # start dropped before min_segment steps have passed since its
        # check, and a competitor of the envelope test that is not yet
        # admissible when the drop takes effect
        x, theta, ms = instance
        hmax = data.draw(st.none() | st.integers(0, min(8, x.size // ms - 1)), label="max_breaks")
        s1, s2 = changepoint._prefix_sums(x)
        n = x.size
        if hmax is None:
            best = np.full(n + 1, np.inf)
            prev = np.zeros(n + 1, dtype=int)
            best[0] = -theta
            changepoint._dp_columns(s1, s2, best, best, prev, theta, ms,
                                    changepoint._delta(x, theta))
            want_best, want_prev = dense_dp_table(x, theta, ms)
            np.testing.assert_array_equal(best, want_best)
            np.testing.assert_array_equal(prev, want_prev)
            return
        cost = np.full((hmax + 1, n + 1), np.inf)
        back = np.zeros((hmax + 1, n + 1), dtype=int)
        prior = np.concatenate([[0.0], np.full(n, np.inf)])
        for k in range(hmax + 1):
            changepoint._dp_columns(s1, s2, prior, cost[k], back[k], 0.0, ms,
                                    changepoint._delta(x, 0.0))
            prior = cost[k]
        want_cost, want_back = dense_capped_layers(x, ms, hmax)
        np.testing.assert_array_equal(cost, want_cost)
        np.testing.assert_array_equal(back, want_back)

    @pytest.mark.parametrize("kind", ["equal", "level", "spikes"])
    def test_every_stored_segment_mean_lies_in_the_mu_range(self, kind):
        # [DERIVED] the envelope test covers [lo, hi] only, so every mean
        # (s1[j] - s1[i]) / (j - i) taken from the stored prefix sums must
        # lie in it. Summing rounds, so on 400 copies of 0.1 79971 of the
        # 80200 means fall outside [min x, max x] = [0.1, 0.1] (measured):
        # the range must be widened
        gen = np.random.default_rng(0)
        if kind == "equal":
            x = np.full(400, 0.1)
        elif kind == "level":
            x = 1e6 + 1e-3 * gen.standard_normal(400)
        else:
            x = np.abs(gen.standard_normal(400)) * (gen.random(400) < 0.5)
            x[[5, 200]] *= 1e3
        s1 = changepoint._prefix_sums(x)[0]
        i, j = np.triu_indices(x.size + 1, 1)
        means = (s1[j] - s1[i]) / (j - i)
        _, _, lo, hi = changepoint._delta(x, 0.0)
        assert lo <= means.min() and means.max() <= hi
        if kind == "equal":
            assert np.count_nonzero(means != 0.1) > 10**4

    @pytest.mark.parametrize("seed", [0, 2])
    def test_envelope_test_prunes(self, seed):
        # [DERIVED] on the benchmark's shape (see the uncapped case above)
        # PELT alone keeps up to about 1080 live starts uncapped and about
        # 4030 in the capped layer for one break, which it cannot prune.
        # The envelope test keeps the widest block at 189-327 starts
        # (measured), so a silent fall-back to PELT alone fails here. The
        # blocks are the kernel calls that write into the block buffer; the
        # capped DP's one scored cell of its last layer is not one
        gen = np.random.default_rng(seed)
        x = np.abs(np.concatenate([gen.standard_normal(1024) * s
                                   for s in (0.005, 0.02, 0.008, 0.03)]))
        for ms in (32, 37):
            for hmax in (None, 3):
                cfg = ChangePointConfig(min_segment=ms, max_breaks=hmax)
                with mock.patch.object(changepoint, "_segment_costs",
                                       wraps=changepoint._segment_costs) as kernel:
                    got = detect_multiple(x, cfg)
                widths = [call.args[2].size for call in kernel.call_args_list
                          if call.kwargs.get("out") is not None]
                assert len(widths) >= x.size // ms  # a block per check at least
                assert got.n_breaks >= 3
                assert max(widths) < 400, (ms, hmax, max(widths))

    def test_block_memory_is_bounded(self):
        # [DERIVED] with penalty 0 the layer for one break prunes nothing,
        # so its live starts grow to n. Each block holds at most
        # BLOCK_CELLS cells, so the layer's peak is its per-start columns
        # (four doubles and the one-byte dominance mask) plus the block,
        # its one temporary, and NumPy's ufunc buffers, whatever n and
        # min_segment; a block of min_segment full rows would take 49 MB
        n, ms = 20480, 300
        x = np.abs(np.random.default_rng(0).standard_normal(n))
        s1, s2 = changepoint._prefix_sums(x)
        delta = changepoint._delta(x, 0.0)
        layers = np.full((2, n + 1), np.inf)
        back = np.zeros((2, n + 1), dtype=int)
        empty_prefix = np.concatenate([[0.0], np.full(n, np.inf)])
        changepoint._dp_columns(s1, s2, empty_prefix, layers[0], back[0], 0.0, ms, delta)
        tracemalloc.start()
        try:
            changepoint._dp_columns(s1, s2, layers[0], layers[1], back[1], 0.0, ms, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = (4 * 8 + 1) * (n + 1)
        assert peak < columns + 2 * 8 * changepoint.BLOCK_CELLS + 2 * 8 * np.getbufsize()
        # the same layer as the capped search runs it
        cfg = ChangePointConfig(penalty=0.0, min_segment=ms, max_breaks=1)
        assert list(detect_multiple(x, cfg).offsets) == [int(back[1, n])]

    def test_noise_near_the_rounding_floor(self):
        # [DERIVED] on pure noise at a 1e6 level the segment costs sit near
        # the rounding floor, and the kernel's clamp at 0 keeps them from
        # going negative. Measured on these 20 inputs: the exact DP puts 33
        # breaks, and the best split's cost is never negative; without the
        # clamp the DP puts 105, and 9 best splits cost less than 0
        breaks = 0
        for seed in range(20):
            x = 1e6 + 1e-3 * np.random.default_rng(seed).standard_normal(400)
            cfg = ChangePointConfig(min_segment=8)
            breaks += detect_multiple(x, cfg).n_breaks
            s1, s2 = changepoint._prefix_sums(x)
            split, cost = changepoint._best_split(s1, s2, 0, x.size, 8)
            assert cost >= 0.0
            assert detect_single(x, cfg).offsets == (split,)
        assert breaks <= 50

    def test_three_sigma_step_localized(self):
        # [DERIVED] classic detectability regime: unit noise, 3 sigma shift
        hits = 0
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.standard_normal(1000)
            x[500:] += 3.0
            r = detect_multiple(x, ChangePointConfig(max_breaks=1, min_segment=32))
            if r.n_breaks == 1 and abs(r.offsets[0] - 500) <= 5:
                hits += 1
        assert hits >= 9

    def test_total_cost_identity(self, rng):
        # invariant: total = sum of segment costs + penalty * n_breaks
        x = rng.standard_normal(300)
        x[150:] += 2.5
        r = detect_multiple(x, ChangePointConfig(penalty=10.0))
        assert math.isclose(
            r.total_cost, sum(r.segment_costs) + 10.0 * r.n_breaks, rel_tol=1e-12
        )
        assert all(b2 > b1 for b1, b2 in zip(r.breaks, r.breaks[1:]))
        assert all(0 < h <= r.n for h in r.breaks)

    def test_min_segment_respected(self, rng):
        x = rng.standard_normal(200)
        x[100:] += 4.0
        r = detect_multiple(x, ChangePointConfig(penalty=1.0, min_segment=40))
        edges = (0, *r.offsets, 200)
        assert min(b - a for a, b in zip(edges, edges[1:])) >= 40

    def test_max_breaks_cap_binds(self):
        # four obvious steps but at most 2 breaks allowed
        x = np.repeat([0.0, 10.0, 0.0, 10.0, 0.0], 50).astype(float)
        r = detect_multiple(x, ChangePointConfig(penalty=0.1, max_breaks=2, min_segment=10))
        assert r.n_breaks <= 2

    def test_huge_penalty_yields_no_breaks(self, rng):
        x = rng.standard_normal(200)
        x[100:] += 3.0
        r = detect_multiple(x, ChangePointConfig(penalty=1e12))
        assert r.n_breaks == 0
        assert math.isclose(r.total_cost, segment_cost(x), rel_tol=1e-12)

    def test_result_round_trips_to_dict(self, rng):
        x = rng.standard_normal(100)
        x[50:] += 5.0
        r = detect_multiple(x, ChangePointConfig(penalty=1.0))
        d = changepoints_to_dict(r)
        assert d["breaks"] == [h for h in r.breaks]
        assert d["break_offsets"] == [h - 1 for h in r.breaks]
        assert d["config"]["penalty"] == 1.0


class TestDefaultPenalty:
    def test_scales_with_noise_level(self, rng):
        x = rng.standard_normal(500)
        small = default_penalty(x)
        large = default_penalty(10.0 * x)
        assert large > small > 0
        assert math.isclose(large / small, 100.0, rel_tol=1e-9)

    def test_formula(self):
        # [TRIVIAL] 2 * (Var(diff)/2) * log n with the sample variance
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        want = 2.0 * (np.var(np.diff(x), ddof=1) / 2.0) * math.log(5)
        assert math.isclose(default_penalty(x), want, rel_tol=1e-12)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            ChangePointConfig(penalty=-1.0)
        with pytest.raises(InputError):
            ChangePointConfig(penalty=math.inf)
        with pytest.raises(InputError):
            ChangePointConfig(min_segment=1)

    @pytest.mark.parametrize("field, value", [
        ("min_segment", 32.0), ("min_segment", 32.5), ("max_breaks", 2.0),
        ("min_segment", True), ("max_breaks", np.False_), ("min_segment", "32"),
    ])
    def test_non_integer_settings_named(self, field, value):
        # a float once reached the searches, which raised a bare TypeError
        # (exact DP) or IndexError (single split)
        with pytest.raises(InputError, match=f"{field} must be an integer, got "):
            ChangePointConfig(**{field: value})

    def test_numpy_integer_settings_become_ints(self, rng):
        cfg = ChangePointConfig(min_segment=np.int64(16), max_breaks=np.int32(2))
        assert type(cfg.min_segment) is int and type(cfg.max_breaks) is int
        x = rng.standard_normal(200)
        x[100:] += 4.0
        used = detect_multiple(x, cfg).config_used
        assert (used.min_segment, used.max_breaks) == (16, 2)
        assert type(used.min_segment) is int and type(used.max_breaks) is int

    def test_series_too_short_for_cap(self):
        with pytest.raises(InputError):
            detect_multiple(np.zeros(50), ChangePointConfig(max_breaks=2, min_segment=32))


# detect_single, and detect_multiple uncapped and capped under the default
# penalty and an explicit one
DETECTORS = [detect_single] + [
    partial(detect_multiple, config=ChangePointConfig(penalty=penalty, max_breaks=max_breaks))
    for penalty in (None, 1.0) for max_breaks in (None, 3)
]


class TestBreakTypes:
    @pytest.mark.parametrize("detect", DETECTORS)
    def test_breaks_are_python_ints(self, detect, rng):
        # the exact DP once returned NumPy integers, which json.dumps rejects
        x = rng.standard_normal(300)
        x[150:] += 4.0
        r = detect(x)
        assert r.n_breaks >= 1
        assert all(type(h) is int for h in r.breaks + r.offsets)
        assert json.loads(json.dumps([r.breaks, r.offsets])) == [list(r.breaks), list(r.offsets)]


class TestInputValidation:
    @pytest.mark.parametrize("detect", DETECTORS)
    def test_non_finite_value_named(self, detect, rng):
        # a NaN once passed as a "negative penalty", or gave no breaks
        x = rng.standard_normal(300)
        x[40] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 40"):
            detect(x)

    @pytest.mark.parametrize("detect", DETECTORS)
    def test_two_dimensional_input_rejected(self, detect, rng):
        with pytest.raises(InputError, match=r"1-d array, got shape \(2, 300\)"):
            detect(rng.standard_normal((2, 300)))

    @pytest.mark.parametrize("detect", DETECTORS)
    def test_overflowing_values_named(self, detect):
        # 200 values near 1e160 and 2e160: their squares overflow, which
        # once surfaced as an infinite default penalty or a null total cost
        x = np.where(np.arange(200) % 2, 2e160, 1e160)
        with pytest.raises(InputError, match="values as large as 2e\\+160 overflow"):
            detect(x)

    @pytest.mark.parametrize("public", [segment_cost, default_penalty])
    def test_public_cost_and_penalty_check_their_input(self, public, rng):
        # they take input through the detectors' check: a NaN once gave nan,
        # and values near 1e160 gave inf with an overflow warning
        x = rng.standard_normal(300)
        x[40] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 40"):
            public(x)
        with pytest.raises(InputError, match=r"1-d array, got shape \(2, 300\)"):
            public(rng.standard_normal((2, 300)))
        with pytest.raises(InputError, match="values as large as 2e\\+160 overflow"):
            public(np.where(np.arange(200) % 2, 2e160, 1e160))

    @pytest.mark.parametrize("max_breaks", [None, 3], ids=["exact-dp", "capped-dp"])
    def test_large_values_within_bound_scale_exactly(self, max_breaks):
        # [TRIVIAL] scaling by a power of two is exact in floating point, so
        # a series scaled up to ~1e148 (length * max|x| ~ 2e150, inside the
        # bound) has the breaks, and the scaled costs, of the original
        gen = np.random.default_rng(4)
        x = np.concatenate([gen.normal(0, 1, 100), gen.normal(3, 1, 100)])
        big = x * 2.0**490
        small_r = detect_multiple(x, ChangePointConfig(max_breaks=max_breaks))
        big_r = detect_multiple(big, ChangePointConfig(max_breaks=max_breaks))
        assert big_r.breaks == small_r.breaks and big_r.n_breaks >= 1
        assert big_r.total_cost == small_r.total_cost * 2.0**980
