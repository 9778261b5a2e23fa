"""Powered maxima of Maxwell samples: exact laws, expansions, diagnostics.

Every record the package takes or returns is a typing.NamedTuple: immutable,
shown as ``Name(field=value, ...)``, and a tuple, so it iterates, indexes
and compares equal to a plain tuple of its values. ``_fields`` names the
fields and ``_replace`` makes a changed copy. MaxwellParams, ErrorRow and
SimulationConfig check and convert their values whenever one is built,
through ``_replace`` too.
"""

from .errors import (
    ConfigurationError,
    DegenerateError,
    DiagnosticsError,
    DomainError,
    MaxextError,
    NoRootError,
)
from .exact import (
    ErrorRow,
    adjudicate_density_coeffs,
    compare_schemes,
    error_table,
    exact_powered_cdf,
    exact_powered_pdf,
    hall_rate_check,
    rate_diagnostic,
)
from .expansions import (
    cdf_approx,
    cdf_approx_tabulated,
    hall_error_leading,
    pdf_approx,
    pdf_approx_tabulated,
)
from .maxwell import MaxwellParams
from .montecarlo import SimulationConfig, ks_distance, simulate_powered_maxima
from .norming import (
    NormingBase,
    PoweredNorming,
    Scheme,
    hall_base,
    powered_constants,
    solve_bn,
)
from .special import erf, erfc, gumbel_cdf, gumbel_pdf

__version__ = "0.1.0"

__all__ = [
    "MaxextError", "DomainError", "NoRootError", "ConfigurationError",
    "DegenerateError", "DiagnosticsError",
    "erf", "erfc", "gumbel_cdf", "gumbel_pdf",
    "MaxwellParams",
    "Scheme", "NormingBase", "PoweredNorming",
    "solve_bn", "powered_constants", "hall_base",
    "cdf_approx", "pdf_approx", "cdf_approx_tabulated", "pdf_approx_tabulated",
    "hall_error_leading",
    "ErrorRow", "exact_powered_cdf", "exact_powered_pdf",
    "error_table", "rate_diagnostic",
    "hall_rate_check", "compare_schemes", "adjudicate_density_coeffs",
    "SimulationConfig", "simulate_powered_maxima", "ks_distance",
    "__version__",
]
