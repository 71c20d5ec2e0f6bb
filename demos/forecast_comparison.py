"""Global vs per-segment fractional differencing for one-step forecasting.

Fractionally differencing a long-memory series makes it friendlier for a
small autoregressive network — but a single global memory parameter is a
compromise when the memory itself switches regimes. This demo builds a
series whose integration order flips from persistent (d = 0.4) to
anti-persistent (d = −0.2) at a known break, then compares:

  * FD-NAR: one global d-hat, one global differencing pass, a network per
    segment on the globally differenced values;
  * LFD-NAR: d-hat re-estimated and re-applied inside each segment.

Scores are in-sample one-step MAPE on reintegrated levels; each network
trains on the first 85% of its segment and stops early on the last 15%.

Run: python3 demos/forecast_comparison.py  (about 0.5 s on a 2-core x86-64
host: it trains eight small networks by full-batch Levenberg-Marquardt)
"""

import numpy as np

from smfdfa.forecast import METHOD_FD, METHOD_LFD, pipeline_compare
from smfdfa.longmemory import arfima_generate, gph_estimate

SEG_LEN = 1536
SEEDS = (0, 1)

persistent = arfima_generate(0.4, SEG_LEN, seed=1000)
antipersistent = arfima_generate(-0.2, SEG_LEN, seed=2000)
levels = np.concatenate([persistent, antipersistent]) + 100.0

d_global = gph_estimate(levels).d_hat
d_first = gph_estimate(levels[:SEG_LEN]).d_hat
d_second = gph_estimate(levels[SEG_LEN:]).d_hat
print(f"true memory: d = +0.4 then -0.2, break at {SEG_LEN}")
print(f"estimated:   global d-hat {d_global:+.3f}; per-segment "
      f"{d_first:+.3f} and {d_second:+.3f}")
print("The global estimate splits the difference - exactly the compromise "
      "local\ndifferencing avoids.\n")

report = pipeline_compare(levels, [SEG_LEN], seeds=SEEDS)

print(f"{'segment':<14} {'seed':>4} {'method':>8} {'d used':>8} {'MAPE %':>8}")
for row in report.rows:
    print(f"{row.segment_label:<14} {row.seed:>4} {row.method:>8} "
          f"{row.d_used:>+8.3f} {row.mape:>8.4f}")

aggregate = report.aggregate()
print(f"\nmean MAPE: {METHOD_FD} {aggregate[METHOD_FD]:.4f}%  vs  "
      f"{METHOD_LFD} {aggregate[METHOD_LFD]:.4f}%")
wins = sum(
    1
    for seed in SEEDS
    for label in {r.segment_label for r in report.rows}
    if next(r.mape for r in report.rows
            if r.segment_label == label and r.seed == seed
            and r.method == METHOD_LFD)
    <= next(r.mape for r in report.rows
            if r.segment_label == label and r.seed == seed
            and r.method == METHOD_FD)
)
print(f"local differencing wins {wins}/{len(SEEDS) * 2} (segment, seed) pairs "
      "here;\nacross many seeds the advantage concentrates in the segment "
      "whose memory sits\nfarthest from the global estimate.")
