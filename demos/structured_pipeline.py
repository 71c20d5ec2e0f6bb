"""Segment first, then measure multifractality per regime.

A single spectrum over a series that switches character mid-stream blends
the regimes into one washed-out answer. This demo builds a price series
whose return magnitudes are strongly multifractal in the first half
(cascade-modulated) and featureless in the second, then shows that

  1. penalized change-point detection on the return magnitudes finds the
     switch without being told it exists, and
  2. the per-segment spectra separate cleanly where the whole-series
     spectrum muddles them.

Run: python3 demos/structured_pipeline.py
"""

import numpy as np

from smfdfa.changepoint import ChangePointConfig
from smfdfa.mfdfa import MfdfaConfig, analyze_segment, generate_cascade, s_mfdfa
from smfdfa.series import TimeSeries, to_fluctuations

rng = np.random.default_rng(2024)

# --- build the two-regime price path -------------------------------------
# Return magnitudes: a multiplicative cascade (bursty, clustered) followed
# by thin Gaussian noise of similar average size but no structure.
cascade_mags = generate_cascade(0.75, 0.25, 11)          # 2048 values
noise_mags = np.abs(rng.standard_normal(2048)) * 3e-3 + 1e-5
magnitudes = np.concatenate([cascade_mags, noise_mags])

# Integrate into a price path: random signs, cumulative log-price.
signs = rng.choice([-1.0, 1.0], size=magnitudes.size)
log_price = np.concatenate([[0.0], np.cumsum(signs * magnitudes)])
prices = 10.0**log_price
timestamps = np.datetime64("2000-01-01") + np.arange(prices.size)
series = TimeSeries(timestamps=timestamps, values=prices, label="two-regime")

# --- whole-series analysis blurs the regimes ------------------------------
flucts = to_fluctuations(series)
_, _, blended = analyze_segment(flucts, MfdfaConfig(), label="whole")
print(f"whole-series spectrum width: {blended.delta_alpha:.3f} "
      "(one number for two very different regimes)\n")

# --- structured analysis: detect, split, analyze --------------------------
report = s_mfdfa(series, ChangePointConfig(min_segment=256), MfdfaConfig())
offsets = [int(o) for o in report.changepoints.offsets]
print(f"detected {report.changepoints.n_breaks} break(s) at fluctuation "
      f"offset(s) {offsets} (true switch at 2048)\n")

print(f"{'segment':<16} {'start':>6} {'stop':>6} {'width':>7}")
for seg in report.segments:
    width = f"{seg.spectrum.delta_alpha:.3f}" if seg.spectrum else "-"
    print(f"{seg.label:<16} {seg.start:>6} {seg.stop:>6} {width:>7}")

widths = [s.spectrum.delta_alpha for s in report.segments if s.spectrum]
print(f"\nEvery cascade-driven segment is ~{min(widths[:-1]) / widths[-1]:.0f}x "
      "wider than the noise segment.\nThe detector also splits the cascade "
      "half internally (its dyadic halves really do\ncarry different mass) "
      "- but the regime boundary at 2048 is recovered exactly,\nand the "
      "per-segment widths separate what the whole-series number blends.")
