"""Privacy parameters and noise calibration for the Gaussian/Laplace mechanisms."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import ParameterError


def _check_in_range(name: str, value, low: float, high: float) -> None:
    """Refuse anything but a finite real number, not a bool, strictly inside ``(low, high)``."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = number and math.isfinite(value) and low < value < high
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be a finite number in ({low:g}, {high:g}), got {value!r}")


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _check_in_range("epsilon", self.epsilon, 0.0, math.inf)
        _check_in_range("delta", self.delta, 0.0, 1.0)


@dataclass(frozen=True)
class RowBound:
    """A certified upper bound B on the l2 norm of every data row."""

    B: float

    def __post_init__(self):
        _check_in_range("row bound B", self.B, 0.0, math.inf)


def finite_calibration(name: str, compute: Callable[[], float]) -> float:
    """``compute()``, refused with a ``ParameterError`` naming ``name`` unless finite.

    A tiny ``epsilon`` or a huge ``B`` pushes a noise scale past the float
    range: a quotient turns ``inf`` and ``B**2`` raises ``OverflowError``.
    Both are refused here, before anything is drawn or printed.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{name} overflows a float; raise epsilon or lower the row bound B")
    return value


def gaussian_sigma(sensitivity: float, pp: PrivacyParams) -> float:
    """Gaussian-mechanism noise level sigma = Delta/eps * sqrt(2 ln(1.25/delta))."""
    if sensitivity < 0:
        raise ParameterError("sensitivity must be nonnegative")
    return finite_calibration(
        "noise sigma",
        lambda: sensitivity / pp.epsilon * math.sqrt(2.0 * math.log(1.25 / pp.delta)),
    )


def bucket_sensitivity(bound: RowBound, footprint: int) -> float:
    """l2 sensitivity ``2B * sqrt(footprint)`` of a noised bucket-sum release.

    One changed row moves each of the at most ``footprint`` buckets it sits
    in by at most ``2B``: footprint 1 for a CountSketch, ``s + h_m`` for the
    multi-level l1 sketch.
    """
    if footprint < 1:
        raise ParameterError(f"footprint must be at least 1, got {footprint}")
    return 2.0 * bound.B * math.sqrt(footprint)
