"""Scalar special functions used by the shadowed-Rician statistics.

Everything here is pure and stateless.  The confluent hypergeometric
series is evaluated by its ascending power series only, to a fixed
relative tolerance within a term budget, so callers feeding it arguments
outside the convergent regime get a SeriesConvergenceError instead of a
silently degraded value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SeriesConvergenceError",
    "ln_gamma",
    "kummer_1f1",
    "whittaker_m_ln",
]


class SeriesConvergenceError(ArithmeticError):
    """A power series failed to reach tolerance within its term budget."""


_REL_TOLERANCE = 1e-12
# Sized for moderate arguments: 500 terms covers z up to roughly 100.
_MAX_TERMS = 500


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _check_1f1_domain(b: float, z) -> None:
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"1F1 undefined for nonpositive-integer b = {b}")
    if np.any(np.asarray(z) < 0.0):
        raise ValueError("1F1 series restricted to z >= 0 here")


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) by ascending series.

    Uses Neumaier-compensated summation and stops once the latest term is
    below 1e-12 of the running sum (or the series terminates exactly, as
    it does for nonpositive-integer a); raises SeriesConvergenceError
    after 500 terms.
    """
    _check_1f1_domain(b, z)
    total = 1.0
    comp = 0.0
    term = 1.0
    for n in range(_MAX_TERMS):
        term *= (a + n) * z / ((b + n) * (n + 1))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if term == 0.0 or abs(term) <= _REL_TOLERANCE * abs(total + comp):
            return total + comp
    raise SeriesConvergenceError(f"1F1({a}; {b}; {z}) did not converge within {_MAX_TERMS} terms")


_RESCALE_AT = 1e250


def _kummer_1f1_ln_grid(
    a: float, b: float, z: np.ndarray, max_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized log-scaled 1F1 over an array of nonnegative z.

    Returns (sign, ln|1F1|).  A running per-element rescale keeps the
    partial sums finite even where 1F1 ~ e^z would overflow, so the
    convergent regime is limited by max_terms rather than float range.
    """
    _check_1f1_domain(b, z)
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    ln_scale = np.zeros_like(z)
    done = np.zeros(z.shape, dtype=bool)
    for n in range(max_terms):
        term = term * ((a + n) / ((b + n) * (n + 1))) * z
        total = total + np.where(done, 0.0, term)
        done |= np.abs(term) <= _REL_TOLERANCE * np.abs(total)
        done |= term == 0.0
        if done.all():
            with np.errstate(divide="ignore"):
                return np.sign(total), np.log(np.abs(total)) + ln_scale
        big = np.abs(total) > _RESCALE_AT
        if big.any():
            s = np.where(big, np.abs(total), 1.0)
            total = total / s
            term = term / s
            ln_scale = ln_scale + np.log(s)
    raise SeriesConvergenceError(
        f"1F1({a}; {b}; z) did not converge within {max_terms} terms "
        f"(max z = {z.max():g})"
    )


def whittaker_m_ln(mu: float, nu: float, z: float) -> tuple[float, float]:
    """Log-scaled Whittaker function M_{mu,nu}(z) for z > 0.

    Returns (sign, ln|M|) so that M = sign * exp(ln|M|).  The log form
    survives the e^{z/2} growth / z^{nu+1/2} decay that makes the plain
    value overflow for the large arguments the sum-CDF produces.
    """
    if z <= 0.0:
        raise ValueError(f"whittaker_m_ln requires z > 0, got {z}")
    f = kummer_1f1(nu - mu + 0.5, 1.0 + 2.0 * nu, z)
    if f == 0.0:
        return 0.0, -math.inf
    sign = math.copysign(1.0, f)
    ln_mag = -0.5 * z + (nu + 0.5) * math.log(z) + math.log(abs(f))
    return sign, ln_mag
