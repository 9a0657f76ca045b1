"""Analysis: scaling-law fitting, model validation, report tables.

The §4 validation argument is quantitative: measured conflict series
should be straight lines of predicted slope on log-log axes, with
constant separation between families. :mod:`repro.analysis.fitting`
estimates those slopes; :mod:`repro.analysis.validate` compares model
predictions against measurements (including the actual-concurrency
compensation of Figure 6b); :mod:`repro.analysis.tables` renders the
rows/series the benches and the experiments report print.  The
reproduction report itself is :mod:`repro.experiments`
(``repro experiments run``).
"""

from repro.analysis.fitting import PowerLawFit, fit_power_law, pairwise_ratios
from repro.analysis.plots import ascii_bars, ascii_plot
from repro.analysis.tables import format_series, format_table
from repro.analysis.validate import (
    ValidationReport,
    compare_exponent,
    validate_concurrency_scaling,
    validate_footprint_scaling,
    validate_table_size_scaling,
)

__all__ = [
    "PowerLawFit",
    "ValidationReport",
    "ascii_bars",
    "ascii_plot",
    "compare_exponent",
    "fit_power_law",
    "format_series",
    "format_table",
    "pairwise_ratios",
    "validate_concurrency_scaling",
    "validate_footprint_scaling",
    "validate_table_size_scaling",
]
