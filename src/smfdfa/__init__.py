"""Structured multifractal detrended fluctuation analysis toolkit.

Core pipeline: load a price series, transform it to absolute log
fluctuations, detect mean/variance change-points with a penalized cost,
run MF-DFA independently on every regime, and report per-segment
singularity spectra. Companion tools cover surrogate-data attribution,
long-memory estimation and fractional differencing, and an FD-NAR vs
LFD-NAR forecasting comparison.

Importing it loads NumPy with one BLAS thread unless the caller set a BLAS
variable or loaded NumPy first: surrogate_test and pipeline_compare fork
a process per CPU, which they do only from a process that runs one OS
thread, and a BLAS pool in each would oversubscribe them.
"""

import os

_UNSET = [var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
          if var not in os.environ]
os.environ.update(dict.fromkeys(_UNSET, "1"))
try:
    import numpy  # BLAS reads the variables when it loads, and only then
finally:
    for _var in _UNSET:
        del os.environ[_var]

from .changepoint import (
    ChangePointConfig,
    ChangePointResult,
    default_penalty,
    detect_multiple,
    detect_single,
    segment_cost,
)
from .errors import InputError, NumericalError
from .forecast import (
    ForecastReport,
    ForecastRow,
    NarModel,
    mape,
    pipeline_compare,
    reconstruct,
    train_nar,
)
from .longmemory import (
    FracDiffResult,
    LongMemoryEstimate,
    arfima_generate,
    fgn_generate,
    frac_diff,
    frac_diff_weights,
    gph_estimate,
)
from .mfdfa import (
    FluctuationSurface,
    HurstCurve,
    MfdfaConfig,
    PartitionFunction,
    SegmentReport,
    SingularitySpectrum,
    StructuredReport,
    analytic_delta_alpha,
    analytic_rho,
    analyze_segment,
    default_scale_grid,
    fa_partition,
    fluctuation_surface,
    generalized_hurst,
    generate_cascade,
    hurst_dfa,
    s_mfdfa,
    scaling_and_spectrum,
)
from .series import (
    CsvConfig,
    DescriptiveStats,
    OutlierCensus,
    TimeSeries,
    describe,
    load_csv,
    outlier_census,
    to_fluctuations,
)
from .surrogate import (
    SurrogateComparison,
    SurrogateEnsemble,
    make_ensemble,
    phase_surrogate,
    shuffle,
    surrogate_test,
)

__version__ = "0.1.0"

__all__ = [
    "ChangePointConfig",
    "ChangePointResult",
    "CsvConfig",
    "DescriptiveStats",
    "FluctuationSurface",
    "ForecastReport",
    "ForecastRow",
    "FracDiffResult",
    "HurstCurve",
    "InputError",
    "LongMemoryEstimate",
    "MfdfaConfig",
    "NarModel",
    "NumericalError",
    "OutlierCensus",
    "PartitionFunction",
    "SegmentReport",
    "SingularitySpectrum",
    "StructuredReport",
    "SurrogateComparison",
    "SurrogateEnsemble",
    "TimeSeries",
    "analytic_delta_alpha",
    "analytic_rho",
    "analyze_segment",
    "arfima_generate",
    "default_penalty",
    "default_scale_grid",
    "describe",
    "detect_multiple",
    "detect_single",
    "fa_partition",
    "fgn_generate",
    "fluctuation_surface",
    "frac_diff",
    "frac_diff_weights",
    "generalized_hurst",
    "generate_cascade",
    "gph_estimate",
    "hurst_dfa",
    "load_csv",
    "make_ensemble",
    "mape",
    "outlier_census",
    "phase_surrogate",
    "pipeline_compare",
    "reconstruct",
    "s_mfdfa",
    "scaling_and_spectrum",
    "segment_cost",
    "shuffle",
    "surrogate_test",
    "to_fluctuations",
    "train_nar",
    "__version__",
]
