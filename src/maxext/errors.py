"""Exception hierarchy shared by all maxext modules, and the rules every public
number is checked by: `_real` for x, sigma and t, `_integer` for n, counts and seeds.
A value outside its rule is a DomainError wherever it enters, a record included.
`_echo` is the rule by which a message shows a caller's value."""
import math
import numbers
import operator
import reprlib


class MaxextError(Exception):
    """Base class for all maxext errors."""


class DomainError(MaxextError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NoRootError(DomainError):
    """The norming equation has no root on the admissible branch."""


class ConfigurationError(MaxextError, ValueError):
    """Mutually incompatible options (scheme/power mismatch, bad order, ...)."""


class DiagnosticsError(MaxextError, ValueError):
    """A diagnostic was requested on a grid too poor to support it."""


def _echo(value) -> str:
    """A caller's value as every message shows it: its repr, shortened by reprlib
    where long (a 10**400 or a 5,000-character name would swamp the message)."""
    return reprlib.repr(value)


def _domain_error(name: str, rule: str, value) -> DomainError:
    return DomainError(f"{name} must be {rule}, got {_echo(value)}")


def _real(value, name: str, positive: bool = False) -> float:
    """`value` as a float; DomainError unless it is a numbers.Real other than a bool
    that a float holds, not NaN and, with positive=True, finite and > 0.

    A plain float that passes is returned as it is, so a per-point hot path tests
    that case in-line and calls this only for any other value:
    `if type(x) is not float or x != x: x = _real(x, name)`, and with
    positive=True `if type(t) is not float or not 0.0 < t < math.inf`. The x of
    special.gumbel_cdf, expansions.cdf_approx, expansions.pdf_approx and
    exact._powered_argument, and the t of norming.validate_scheme and of both
    exact laws, are tested so."""
    if type(value) is not float:  # skips the abstract-class lookup, the costly part
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise _domain_error(name, "a real number", value)
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction beyond float range
            raise _domain_error(name, "a positive finite real" if positive
                                else "a real number within float range", value) from None
    if 0.0 < value < math.inf if positive else value == value:
        return value
    if value != value:
        raise DomainError(f"{name}: NaN input")
    raise _domain_error(name, "a positive finite real", value)


def _integer(value, name: str) -> int:
    """`value` as an exact int; DomainError unless operator.index takes it (a bool aside)
    or it is an integral float or Rational. Fraction(10**400) stays exact."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
        if isinstance(value, numbers.Rational):
            if value.denominator == 1:
                return int(value)
        elif isinstance(value, numbers.Real) and float(value).is_integer():
            return int(float(value))
    raise _domain_error(name, "an integer", value)
