"""The count and range rules; each raises a ValueError naming the field."""

import numbers

import numpy as np


def check_count(name, value, low):
    """Reject ``value`` unless it is an integer >= ``low``, bool excluded."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}")


def check_seed(seed):
    """Reject ``seed`` unless it is an integer >= 0 or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        check_count("seed", seed, 0)


def check_range(name, value, low, high=np.inf, closed=True):
    """Reject ``value`` unless it is real, or an array of reals, with every
    entry in [low, high) (``closed``) or (low, high); NaN never passes."""
    value = np.asarray(value)
    inside = value.dtype.kind in "iuf" and np.all(
        ((value >= low) if closed else (value > low)) & (value < high))
    if not inside:
        top = "finite" if high == np.inf else f"< {high:g}"
        raise ValueError(f"{name} must be {'>=' if closed else '>'} {low:g} "
                         f"and {top}")
