"""Exception hierarchy shared across the package, and the value rules whose
failure is a ConfigurationError."""

import numbers
import sys


class ConftrajError(Exception):
    """Base class for all package errors."""


class SchemaError(ConftrajError):
    """CSV schema does not match the declared column roles."""


class DataError(ConftrajError):
    """Input data violates an invariant (duplicates, missing labels, ...)."""


class ConfigurationError(ConftrajError):
    """A configuration value is out of its admissible range."""


class NumericalError(ConftrajError):
    """A numerical routine failed beyond recoverable tolerances."""


def is_int(v):
    """An integer that is not a bool, as a JSON integer is read, or a numpy int."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v):
    """A real number that is not a bool, as a JSON number is read, or a numpy one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v):
    """A number that converts to a finite float (NaN fails the comparison)."""
    return is_number(v) and abs(v) <= sys.float_info.max


def is_numbers(v, test=is_number):
    """A non-empty list, tuple or 1-D array whose every item passes test."""
    return ((isinstance(v, (list, tuple)) or getattr(v, "ndim", None) == 1)
            and len(v) > 0 and all(map(test, v)))


# (what it must be, test): the rule of a miscoverage or a test fraction
FRACTION = ("a number in (0,1)", lambda v: is_number(v) and 0 < v < 1)


def check_rules(rules, values, prefix=""):
    """Raise a ConfigurationError naming prefix + name for the first value in
    values (name -> value) that fails its rule (what it must be, test) in rules."""
    for name, value in values.items():
        expected, ok = rules[name]
        if not ok(value):
            raise ConfigurationError(f"{prefix}{name} must be {expected}, got {value!r}")
