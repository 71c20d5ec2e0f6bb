"""Penalized change-point detection: exactness against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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


def dense_dp_offsets(x: np.ndarray, theta: float, ms: int) -> list[int]:
    """Reference: the unpruned optimal-partitioning recursion, which scores
    every admissible start at every step. The library's pruned DP must
    return the same 0-based offsets."""
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
    cuts = []
    j = n
    while j > 0:
        i = prev[j]
        if i > 0:
            cuts.append(i)
        j = i
    return sorted(cuts)


@st.composite
def dp_instances(draw):
    """(x, theta, min_segment) over the inputs where rounding and ties
    decide the optimum: Gaussian noise, piecewise-constant steps (exact
    zero costs when noiseless), small integers (many tied candidates) and
    a 1e6 offset with 1e-3 noise (costs near the rounding floor)."""
    ms = draw(st.integers(2, 12), label="min_segment")
    n = draw(st.integers(ms, 400), label="n")
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dp_instances())
    def test_binary_segmentation_never_beats_exact_dp(self, instance):
        # [DERIVED] greedy splits are admissible placements, so their
        # penalized total cannot undercut the global optimum by more than
        # the DP's rounding margin delta (see _dp_unbounded)
        x, theta, ms = instance
        exact = detect_multiple(x, ChangePointConfig(penalty=theta, min_segment=ms))
        greedy = detect_multiple(
            x, ChangePointConfig(penalty=theta, min_segment=ms, method="binary-segmentation")
        )
        edges = (0, *greedy.offsets, x.size)
        assert min(b - a for a, b in zip(edges, edges[1:])) >= ms
        assert all(b2 > b1 for b1, b2 in zip(greedy.breaks, greedy.breaks[1:]))
        w = float(np.abs(x).max()) * float(np.abs(x).sum())
        delta = 64 * np.finfo(float).eps * (x.size + 1) * (w + theta)
        assert greedy.total_cost >= exact.total_cost - delta

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

    def test_binary_segmentation_agrees_on_well_separated_steps(self, rng):
        x = rng.standard_normal(600)
        x[200:400] += 6.0
        exact = detect_multiple(x, ChangePointConfig(min_segment=32))
        greedy = detect_multiple(
            x, ChangePointConfig(min_segment=32, method="binary-segmentation")
        )
        assert exact.offsets == greedy.offsets

    def test_result_round_trips_to_dict(self, rng):
        x = rng.standard_normal(100)
        x[50:] += 5.0
        r = detect_multiple(x, ChangePointConfig(penalty=1.0))
        d = r.to_dict()
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
            ChangePointConfig(method="genetic")
        with pytest.raises(InputError):
            ChangePointConfig(penalty=-1.0)
        with pytest.raises(InputError):
            ChangePointConfig(min_segment=1)

    def test_series_too_short_for_cap(self):
        with pytest.raises(InputError):
            detect_multiple(np.zeros(50), ChangePointConfig(max_breaks=2, min_segment=32))
