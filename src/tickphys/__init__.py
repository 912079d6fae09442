"""Tick-scale statistics of price paths and order-book imbalance.

Three pipelines over integer-tick market data, plus the synthetic
generators used to calibrate them:

* local Hurst exponents by detrended fluctuation analysis,
* first-passage (exit-time) statistics and optimal horizons,
* order-book imbalance relaxation with stretched-exponential fits.
"""

__version__ = "0.1.0"

# Each public name is declared once, in its module's ``__all__``.
from .errors import *
from .market_data import *
from .synth import *
from .hurst import *
from .invstat import *
from .obrelax import *
from .numerics import *

__all__ = [name for name in dir() if not name.startswith("_")]
