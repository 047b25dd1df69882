"""Exception hierarchy shared across the package, and the value rules whose
failure is a ConfigurationError."""

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
    """An int that is not a bool, as a JSON integer is read."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    """An int or float that is not a bool, as a JSON number is read."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite(v):
    """A number that converts to a finite float (NaN fails the comparison)."""
    return is_number(v) and abs(v) <= sys.float_info.max


def is_numbers(v, test=is_number):
    """A non-empty list or tuple whose every item passes test."""
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))


def check_rules(rules, values, prefix=""):
    """Raise a ConfigurationError naming prefix + name for the first value in
    values (name -> value) that fails its rule (what it must be, test) in rules."""
    for name, value in values.items():
        expected, ok = rules[name]
        if not ok(value):
            raise ConfigurationError(f"{prefix}{name} must be {expected}, got {value!r}")
