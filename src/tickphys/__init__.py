"""Tick-scale statistics of price paths and order-book imbalance.

Three pipelines over integer-tick market data, plus the synthetic
generators used to calibrate them:

* local Hurst exponents by detrended fluctuation analysis,
* first-passage (exit-time) statistics and optimal horizons,
* order-book imbalance relaxation with stretched-exponential fits.
"""

__version__ = "0.1.0"

from .errors import (
    TickphysError,
    DataError,
    ParseError,
    MalformedRow,
    NonMonotonicTime,
    TickSizeViolation,
    LadderOrderViolation,
    CrossedBook,
    EmptyDay,
    SeriesTooShort,
    DegenerateSeries,
    WindowTooLarge,
    TooFewSamples,
    TooFewBins,
    TooManyBins,
    PriceRangeTooWide,
    EmptySide,
    FitError,
    FitDiverged,
    EmptyInput,
    DegenerateX,
    NonFiniteObjective,
    EmbeddingNotDefinite,
    MaxDepthExceeded,
    UsageError,
)
from .market_data import (
    Ticks,
    BookSnapshot,
    Book,
    Session,
    RegularSeries,
    parse_ticks,
    parse_book,
    serialize_book,
    sessionize,
    resample,
    parse_regular_series,
    serialize_regular_series,
)
from .synth import FbmSpec, gen_brownian, gen_fbm, gen_tick_walk
from .hurst import (
    DfaConfig,
    HurstEstimate,
    HurstSeries,
    hurst_exponent,
    local_hurst,
    hurst_pdf,
    avg_hurst_vs_scale,
)
from .invstat import (
    CrossingIndex,
    ExitTimeConfig,
    ExitTimes,
    FirstPassageFit,
    exit_times,
    first_passage_hist,
    passage_density,
    log_passage_density,
    sample_first_passage,
    fit_first_passage,
    optimal_horizon,
    horizon_scaling,
    fit_horizon_power_law,
    fit_tail_power_law,
    entry_time_distribution,
)
from .obrelax import (
    ImbalanceSeries,
    RelaxationSamples,
    StretchedExpFit,
    imbalance_series,
    entry_times,
    relaxation_times,
    relaxation_hist,
    fit_stretched_exp,
    mean_relaxation_from_fit,
    sample_stretched_exp,
)
from .numerics import (
    LogBinnedPdf,
    LinFit,
    log_bin,
    linfit,
    minimize,
    quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
