"""State-level forest sector forecasting toolkit.

Quarterly panel ingestion, location quotients, unit-root pretests, lag-order
selection, Johansen cointegration, VECM estimation with forecasting and
impulse responses, residual diagnostics, and a batch pipeline over all
configured state-industry models.
"""

# linalg first: it starts numpy's OpenBLAS with one thread, which it can
# only do if it is the first to import numpy.
from . import linalg
from .diagnostics import lm_autocorrelation, normality_tests
from .johansen import DeterministicCase, beta_normalize, johansen_test
from .lagselect import select_lags
from .panel import PanelDataset, ingest_panel, location_quotient, summarize
from .quarters import QuarterDate
from .unitroot import adf_test
from .vecm import ModelSpec, backtest, fit_vecm, forecast, irf, to_level_var

__version__ = "0.1.0"

__all__ = [
    "DeterministicCase",
    "ModelSpec",
    "PanelDataset",
    "QuarterDate",
    "adf_test",
    "backtest",
    "beta_normalize",
    "fit_vecm",
    "forecast",
    "ingest_panel",
    "irf",
    "johansen_test",
    "lm_autocorrelation",
    "location_quotient",
    "normality_tests",
    "select_lags",
    "summarize",
    "to_level_var",
]
