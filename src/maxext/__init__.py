"""Powered maxima of Maxwell samples: exact laws, expansions, diagnostics.

Every record the package takes or returns is a typing.NamedTuple: immutable,
shown as ``Name(field=value, ...)``, and a tuple, so it iterates, indexes
and compares equal to a plain tuple of its values. ``_fields`` names the
fields and ``_replace`` makes a changed copy. MaxwellParams, ErrorRow and
SimulationConfig check and convert their values whenever one is built,
through ``_replace`` too.

The namespace is lazy (PEP 562): ``import maxext`` loads no submodule. A
public name, or a submodule such as ``maxext.exact``, loads its home module
on first access, so a CLI call compiles only the modules it runs. A public
name is bound in the package from its home module's value at that first
access: a later patch of the home module does not reach ``maxext.<name>``.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "MaxextError DomainError NoRootError ConfigurationError DiagnosticsError",
    "special": "erfc gumbel_cdf gumbel_pdf",
    "maxwell": "MaxwellParams",
    "norming": "Scheme NormingBase PoweredNorming solve_bn powered_constants hall_base",
    "expansions": "cdf_approx pdf_approx",
    "exact": "ErrorRow exact_powered_cdf exact_powered_pdf error_table rate_diagnostic "
             "hall_rate_check compare_schemes adjudicate_density_coeffs",
    "montecarlo": "SimulationConfig simulate_powered_maxima ks_distance",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__, unlike importlib.import_module, is seen by -X importtime;
        # importing the submodule binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
