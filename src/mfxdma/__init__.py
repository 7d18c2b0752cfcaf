"""Multifractal detrending moving-average cross-correlation analysis.

Estimates joint scaling exponents of two return series with
moving-average detrending, tests lagged cross-correlation significance
against chi-square critical values, fits the quadratic mass-exponent
model, and judges intrinsic joint multifractality with IAAFT surrogate
ensembles.
"""

import logging
import operator

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())


def _require_integer(error, name, value, least=None):
    """Raise error, naming the setting, unless value is an integer (numpy
    integers pass, a bool does not) and, when least is given, >= least."""
    try:
        operator.index(value)
        integer = not isinstance(value, bool)
    except TypeError:
        integer = False
    if not integer:
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")
