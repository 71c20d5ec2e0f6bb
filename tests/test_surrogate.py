"""Tests for surrogate generation and the spectrum-width significance test.

Oracle notes per test are tagged [TRIVIAL] / [DERIVED] as in conftest.py.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children, cpus
from smfdfa import surrogate as surrogate_module
from smfdfa.errors import InputError, NumericalError
from smfdfa.mfdfa import MfdfaConfig, _detrending_operator, default_scale_grid, generate_cascade
from smfdfa.serialize import clean, surrogate_to_dict
from smfdfa.surrogate import (
    KINDS,
    SurrogateComparison,
    make_ensemble,
    phase_surrogate,
    shuffle,
    surrogate_test,
)


def ar1(n: int, phi: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for i in range(1, n):
        x[i] = phi * x[i - 1] + rng.standard_normal()
    return x


def lag_autocorr(values: np.ndarray, lag: int) -> float:
    v = values - values.mean()
    return float(np.dot(v[lag:], v[:-lag]) / np.dot(v, v))


# ---------------------------------------------------------------- shuffle


class TestShuffle:
    def test_preserves_multiset(self):
        # [TRIVIAL] a permutation must keep exactly the same values.
        x = np.random.default_rng(0).standard_normal(257)
        s = shuffle(x, seed=4)
        assert s.shape == x.shape
        np.testing.assert_array_equal(np.sort(s), np.sort(x))

    def test_deterministic_and_seed_sensitive(self):
        # [TRIVIAL] same seed replays the permutation; a different seed
        # almost surely produces a different order for 100 distinct values.
        x = np.arange(100, dtype=float)
        np.testing.assert_array_equal(shuffle(x, 9), shuffle(x, 9))
        assert not np.array_equal(shuffle(x, 9), shuffle(x, 10))

    def test_actually_permutes(self):
        # [TRIVIAL] for 200 distinct values the identity permutation has
        # probability 1/200!; any fixed seed should reorder something.
        x = np.arange(200, dtype=float)
        assert not np.array_equal(shuffle(x, 0), x)

    def test_destroys_linear_correlation(self):
        # [DERIVED] AR(1) with phi=0.8 has lag-1 autocorrelation near 0.8
        # (measured 0.810 for this seed); after shuffling, values are in
        # exchangeable order so the sample autocorrelation is O(1/sqrt(n))
        # (measured -0.019 at n=4096).
        x = ar1(4096, 0.8, seed=7)
        assert lag_autocorr(x, 1) > 0.7
        assert abs(lag_autocorr(shuffle(x, 5), 1)) < 0.05

    def test_length_guard(self):
        with pytest.raises(InputError, match="at least 2"):
            shuffle(np.array([1.0]), seed=0)


# ---------------------------------------------------------- phase surrogate


class TestPhaseSurrogate:
    def test_preserves_periodogram(self):
        # [DERIVED] phase randomization rewrites phases but not amplitudes,
        # so |rfft| must match bin-for-bin (measured relative error 5e-14).
        x = ar1(1024, 0.6, seed=3)
        p = phase_surrogate(x, seed=11)
        a_x = np.abs(np.fft.rfft(x))
        a_p = np.abs(np.fft.rfft(p))
        rel = np.max(np.abs(a_p - a_x) / np.maximum(a_x, 1e-300))
        assert rel <= 1e-8

    def test_preserves_mean_and_length(self):
        # [TRIVIAL] the DC bin is untouched, so the mean survives exactly
        # up to inverse-FFT rounding; the output is real with equal length.
        x = ar1(512, 0.5, seed=2)
        p = phase_surrogate(x, seed=1)
        assert p.shape == x.shape
        assert p.dtype == np.float64
        assert abs(p.mean() - x.mean()) < 1e-10

    def test_preserves_autocorrelation_structure(self):
        # [DERIVED] matching periodograms imply matching circular
        # autocovariance; at n=8192 the ordinary sample autocorrelation of
        # an AR(1) agrees within 1% for lags 1..10 (measured max 0.9%).
        x = ar1(8192, 0.8, seed=7)
        p = phase_surrogate(x, seed=11)
        for lag in range(1, 11):
            orig = lag_autocorr(x, lag)
            surr = lag_autocorr(p, lag)
            assert abs(surr - orig) <= 0.05 * abs(orig)

    def test_deterministic_and_differs_from_input(self):
        # [TRIVIAL] seeded phases replay exactly; fresh phases almost surely
        # change the sample path even though its spectrum is identical.
        x = ar1(256, 0.4, seed=9)
        np.testing.assert_array_equal(phase_surrogate(x, 5), phase_surrogate(x, 5))
        assert not np.allclose(phase_surrogate(x, 5), x)

    def test_odd_length_supported(self):
        # [TRIVIAL] odd n has no Nyquist bin; the round trip must still be
        # real-valued with the periodogram preserved.
        x = ar1(257, 0.5, seed=4)
        p = phase_surrogate(x, seed=8)
        assert p.shape == (257,)
        a_x = np.abs(np.fft.rfft(x))
        a_p = np.abs(np.fft.rfft(p))
        assert np.max(np.abs(a_p - a_x) / np.maximum(a_x, 1e-300)) <= 1e-8

    def test_length_guard(self):
        with pytest.raises(InputError, match="at least 16"):
            phase_surrogate(np.arange(15, dtype=float), seed=0)


# ---------------------------------------------------------------- ensemble


class TestMakeEnsemble:
    def test_member_count_and_shapes(self):
        x = ar1(128, 0.3, seed=1)
        ens = make_ensemble(x, kind="shuffle", n=7, seed=42)
        assert ens.n_surrogates == 7
        assert len(ens) == 7
        assert all(m.shape == x.shape for m in ens)

    def test_members_are_distinct(self):
        # [TRIVIAL] member i uses seed ^ i, so all members draw from
        # different generators and (for distinct values) differ pairwise.
        x = np.arange(64, dtype=float)
        ens = make_ensemble(x, kind="shuffle", n=5, seed=3)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(ens[i], ens[j])

    def test_member_seed_contract(self):
        # [TRIVIAL] the documented schedule-independence contract: member i
        # equals a standalone surrogate built with seed ^ i.
        x = ar1(64, 0.2, seed=6)
        ens = make_ensemble(x, kind="shuffle", n=4, seed=17)
        for i in range(4):
            np.testing.assert_array_equal(ens[i], shuffle(x, 17 ^ i))

    def test_phase_kind(self):
        x = ar1(128, 0.5, seed=2)
        ens = make_ensemble(x, kind="phase", n=3, seed=9)
        for i in range(3):
            np.testing.assert_array_equal(ens[i], phase_surrogate(x, 9 ^ i))

    def test_members_are_a_read_only_sequence_built_on_access(self):
        # [TRIVIAL] indexing, negative indexing and iteration all give
        # member i = shuffle(x, seed ^ i); the sequence has no setter, and
        # the ensemble keeps its own read-only copy of the series
        x = np.arange(64, dtype=float)
        ens = make_ensemble(x, kind="shuffle", n=5, seed=3)
        x[:] = 0.0
        expected = [shuffle(np.arange(64, dtype=float), 3 ^ i) for i in range(5)]
        np.testing.assert_array_equal(ens[-1], expected[4])
        assert len(ens) == 5
        for got, want in zip(ens, expected, strict=True):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(IndexError):
            ens[5]
        with pytest.raises(TypeError):
            ens[0] = x

    @pytest.mark.parametrize("kind, size, match", [("shuffle", 1, "at least 2"),
                                                   ("phase", 15, "at least 16")])
    def test_short_series_rejected_when_the_ensemble_is_made(self, kind, size, match):
        with pytest.raises(InputError, match=match):
            make_ensemble(np.arange(size, dtype=float), kind=kind, n=3, seed=0)

    def test_kind_validation(self):
        with pytest.raises(InputError, match="kind must be one of"):
            make_ensemble(np.arange(32, dtype=float), kind="wavelet", n=3, seed=0)

    def test_count_validation(self):
        with pytest.raises(InputError, match="at least 1 surrogate"):
            make_ensemble(np.arange(32, dtype=float), kind="shuffle", n=0, seed=0)


# ----------------------------------------------------------- surrogate test


@pytest.fixture(scope="module")
def cascade_comparison():
    # deterministic binomial cascade, 4096 cells: strongly multifractal
    # from its correlation structure, which shuffling destroys.
    measure = generate_cascade(0.75, 0.25, 12)
    return surrogate_test(
        measure, kind="shuffle", n=12, mf_config=MfdfaConfig(), seed=3
    )


class TestSurrogateTest:
    def test_cascade_beats_all_shuffles(self, cascade_comparison):
        # [DERIVED] measured: original width 1.545, largest shuffled width
        # 1.326, so the original ranks above every surrogate and the rank
        # quantile is exactly (1 + 12) / (12 + 1) = 1.0.
        c = cascade_comparison
        assert c.n_failed == 0
        assert c.original_delta_alpha > max(c.surrogate_delta_alphas)
        assert c.quantile == 1.0

    def test_quantile_consistent_with_reported_widths(self, cascade_comparison):
        # [TRIVIAL] the quantile must equal the rank formula recomputed
        # from the returned widths: (1 + #below) / (n_ok + 1).
        c = cascade_comparison
        widths = np.asarray(c.surrogate_delta_alphas)
        rank = 1 + int(np.sum(widths < c.original_delta_alpha))
        assert c.quantile == rank / (widths.size + 1)
        assert widths.size + c.n_failed == 12

    def test_quantile_bounds(self, cascade_comparison):
        # [TRIVIAL] rank lies in [1, n_ok + 1].
        c = cascade_comparison
        n_ok = len(c.surrogate_delta_alphas)
        assert 1 / (n_ok + 1) <= c.quantile <= 1.0

    def test_deterministic(self):
        # [TRIVIAL] everything downstream of (series, kind, n, seed) is
        # seeded, so two runs return equal comparisons field-for-field.
        x = np.abs(ar1(2048, 0.5, seed=21)) + 1e-6
        a = surrogate_test(x, kind="shuffle", n=10, seed=5)
        b = surrogate_test(x, kind="shuffle", n=10, seed=5)
        assert a == b

    def test_phase_kind_runs(self):
        # [TRIVIAL] phase surrogates can go slightly negative even for a
        # positive input; the analysis is on the values as given, so the
        # comparison must still return a bounded quantile.
        x = np.abs(ar1(2048, 0.5, seed=13)) + 1e-6
        c = surrogate_test(x, kind="phase", n=10, seed=2)
        assert c.kind == "phase"
        assert 0.0 < c.quantile <= 1.0

    def test_detrending_operators_built_once_per_scale(self):
        # [TRIVIAL] the original and its 10 members share one length, hence
        # one scale grid: each scale's operator is built once, then reused
        x = np.abs(ar1(4096, 0.5, seed=21)) + 1e-6
        _detrending_operator.cache_clear()
        with cpus(1):
            surrogate_test(x, kind="shuffle", n=10, seed=5)
        n_scales = len(default_scale_grid(4096))
        info = _detrending_operator.cache_info()
        assert info.misses == n_scales
        assert info.hits == 10 * n_scales

    def test_forked_children_inherit_the_detrending_operators(self):
        # [TRIVIAL] the original is analysed before the fork, so this
        # process builds each operator once and its share 0 (members 0, 2,
        # .., 8) reuses them; the child's lookups stay in the child
        x = np.abs(ar1(4096, 0.5, seed=21)) + 1e-6
        _detrending_operator.cache_clear()
        with cpus(2):
            surrogate_test(x, kind="shuffle", n=10, seed=5)
        n_scales = len(default_scale_grid(4096))
        info = _detrending_operator.cache_info()
        assert info.misses == n_scales
        assert info.hits == 5 * n_scales
        assert_no_children()

    def test_minimum_count_guard(self):
        with pytest.raises(InputError, match="at least 10 surrogates"):
            surrogate_test(np.abs(ar1(1024, 0.3, seed=1)) + 1e-6, n=9)

    def test_to_dict_shape(self, cascade_comparison):
        # [TRIVIAL] serialization keeps every field and converts the widths
        # tuple to a JSON-friendly list.
        d = clean(surrogate_to_dict(cascade_comparison, {"detrend_order": 1}))
        assert set(d) == {
            "kind",
            "original_delta_alpha",
            "surrogate_delta_alphas",
            "quantile",
            "seed",
            "n_failed",
            "mf_config",
        }
        assert d["kind"] == "shuffle"
        assert isinstance(d["surrogate_delta_alphas"], list)
        assert d["mf_config"] == {"detrend_order": 1}
        assert len(d["surrogate_delta_alphas"]) == 12
        assert d["quantile"] == cascade_comparison.quantile

    def test_comparison_is_frozen(self):
        # [TRIVIAL] results are immutable records.
        c = SurrogateComparison(
            kind="shuffle",
            original_delta_alpha=1.0,
            surrogate_delta_alphas=(0.5,),
            quantile=0.5,
            seed=0,
        )
        with pytest.raises(AttributeError):
            c.quantile = 0.9


# ------------------------------------------------- members in forked children


def outcome(x: np.ndarray, kind: str, n: int, config: MfdfaConfig, seed: int):
    """The comparison, or the type and message of the error it raised."""
    try:
        return surrogate_test(x, kind, n, config, seed)
    except NumericalError as exc:
        return type(exc), str(exc)


def failing_member(x: np.ndarray, seed: int, member: int, fail):
    """Patch the member analysis so that member `member` of shuffle(x, seed ^
    i) calls fail() instead; every other call runs as before."""
    target = shuffle(x, seed ^ member)
    real = surrogate_module.analyze_segment

    def analyze(values, config):
        if values.shape == target.shape and np.array_equal(values, target):
            fail()
        return real(values, config)

    return mock.patch.object(surrogate_module, "analyze_segment", analyze)


class TestForkedMembers:
    # scales small enough for 64 samples; zeros give members (and at times
    # the original) a flat window, so some analyses fail
    CONFIG = MfdfaConfig(scale_grid=(6, 8, 11, 16))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(length=st.integers(64, 2048), kind=st.sampled_from(KINDS),
           n=st.integers(10, 13), workers=st.integers(1, 3),
           zero_share=st.sampled_from([0.0, 0.5, 0.8]), seed=st.integers(0, 2**32 - 1))
    def test_result_does_not_depend_on_the_worker_count(self, length, kind, n, workers,
                                                        zero_share, seed):
        # [TRIVIAL] member i is built from seed ^ i and analysed by the same
        # code in whichever process runs its share, and the widths go back
        # in member order: every field equals the one-worker result
        rng = np.random.default_rng(seed)
        x = np.abs(rng.standard_t(3, length))
        x[rng.random(length) < zero_share] = 0.0
        with cpus(1):
            expected = outcome(x, kind, n, self.CONFIG, seed)
        with cpus(workers):
            got = outcome(x, kind, n, self.CONFIG, seed)
        assert got == expected
        assert_no_children()

    def test_a_member_failing_in_a_child_is_counted_at_that_member(self):
        # [TRIVIAL] with two workers member 3 runs in the child; its
        # NumericalError drops that width alone, as it does in-process
        x = np.abs(ar1(1024, 0.5, seed=4)) + 1e-6
        with cpus(1):
            clean_run = surrogate_test(x, "shuffle", 11, seed=9)

        def fail():
            raise NumericalError("planted")

        with failing_member(x, 9, 3, fail):
            with cpus(2):
                forked = surrogate_test(x, "shuffle", 11, seed=9)
            with cpus(1):
                serial = surrogate_test(x, "shuffle", 11, seed=9)
        assert forked == serial
        assert forked.n_failed == 1
        widths = list(clean_run.surrogate_delta_alphas)
        del widths[3]
        assert forked.surrogate_delta_alphas == tuple(widths)
        assert_no_children()

    @pytest.mark.parametrize("member, workers", [(1, 2), (5, 3), (0, 2), (3, 3)])
    def test_an_error_in_any_share_reaches_the_caller(self, member, workers):
        # [TRIVIAL] member i runs in share i mod workers: share 0 is this
        # process, the others are children; either way the ValueError
        # reaches the caller with its message, and no child is left
        x = np.abs(ar1(1024, 0.5, seed=4)) + 1e-6

        def fail():
            raise ValueError(f"planted in member {member}")

        with failing_member(x, 9, member, fail), cpus(workers):
            with pytest.raises(ValueError, match=f"planted in member {member}"):
                surrogate_test(x, "shuffle", 11, seed=9)
        assert_no_children()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lowest_failing_member_raises_on_any_worker_count(self, workers):
        # [TRIVIAL] members 1 and 2 both raise; the serial loop stops at
        # member 1, and so does every worker count, although on two workers
        # member 2 fails in this process while member 1 fails in the child
        x = np.abs(ar1(1024, 0.5, seed=4)) + 1e-6

        def fail(member):
            def raise_error():
                raise ValueError(f"planted in member {member}")
            return raise_error

        with failing_member(x, 9, 1, fail(1)), failing_member(x, 9, 2, fail(2)), cpus(workers):
            with pytest.raises(ValueError, match="planted in member 1"):
                surrogate_test(x, "shuffle", 11, seed=9)
        assert_no_children()

    def test_a_child_that_exits_without_a_result_names_its_status(self):
        # [TRIVIAL] member 1 runs in the child, which ends at once with
        # status 7 and sends nothing
        x = np.abs(ar1(1024, 0.5, seed=4)) + 1e-6
        with failing_member(x, 9, 1, lambda: os._exit(7)), cpus(2):
            with pytest.raises(RuntimeError, match=r"without a result \(exit status 7\)"):
                surrogate_test(x, "shuffle", 11, seed=9)
        assert_no_children()
