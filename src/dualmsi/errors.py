"""Exception types shared across the toolkit.

Everything user-facing derives from :class:`DualMsiError`.  Contract
violations (bad inputs, malformed files, mismatched shapes) derive from
:class:`ValidationError` so the CLI can map them to exit code 2, keeping
exit code 3 for plain IO failures.

:func:`check_number` is the one check of a numeric parameter: every
range rule on a number the toolkit is given goes through it, so every
such error reads ``<name> must be <rule>, got <value>``.
"""

import math
import numbers


class DualMsiError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DualMsiError):
    """Input violates a documented precondition or invariant."""


def check_number(name: str, value, low=None, high=None, *, strict=False, optional=False,
                 integer=False):
    """``value``, or -0.0 as 0.0 (``Generator.normal`` refuses a
    negative-zero scale), if it is a real number, never a bool, that is
    finite as a float, an integer when ``integer`` (numpy integers too),
    >= ``low`` (> ``low`` when ``strict``) and <= ``high``; a bound of None
    is no bound, and None itself passes when ``optional``.  Anything else
    raises ValidationError reading ``<name> must be <rule>, got <value>``.
    """
    if value is None and optional:
        return None
    try:
        valid = (
            isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
            and (low is None or (value > low if strict else value >= low))
            and (high is None or value <= high)
        )
    except OverflowError:  # an int beyond the float range, such as 10**400
        valid = False
    if valid:
        return value + 0
    rule = "an integer" if integer else "a finite number"
    if low is not None and high is not None:
        rule += f" in {'(' if strict else '['}{low}, {high}]"
    elif low is not None:
        rule += f" {'>' if strict else '>='} {low}"
    elif high is not None:
        rule += f" <= {high}"
    raise ValidationError(f"{name} must be {'null or ' if optional else ''}{rule}, got {value!r}")


class MissingFrameError(ValidationError):
    """A manifest references a band frame file that does not exist."""

    def __init__(self, wavelength_nm: int, path=None):
        self.wavelength_nm = wavelength_nm
        self.path = path
        msg = f"missing frame for band {wavelength_nm} nm"
        if path is not None:
            msg += f": {path}"
        super().__init__(msg)


class DimensionMismatchError(ValidationError):
    """Frame dimensions disagree with the manifest or with each other."""


class ModeMismatchError(ValidationError):
    """Samples of mixed illumination modes fed to a single-mode operation."""


class UnpairedSampleError(ValidationError):
    """Reflectance/transmittance matrices do not cover the same samples."""


class DegenerateReferenceError(ValidationError):
    """White reference is unusable (all-zero or zero-mean band)."""


class EmptyDataError(ValidationError):
    """An operation that needs at least one value received none."""


class HandshakeTimeoutError(DualMsiError):
    """A simulated party failed to respond within its step budget."""

    def __init__(self, message, transcript=None):
        self.transcript = transcript or []
        super().__init__(message)
