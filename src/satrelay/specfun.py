"""Special functions used by the shadowed-Rician statistics.

Everything here is pure and stateless.  The confluent hypergeometric
function has one implementation, `_kummer_1f1_ln_grid`: its ascending
power series over an array of z, log-scaled, to a fixed relative
tolerance within a term budget.  `channel.sum_cdf` runs it on its
Whittaker arguments, and `kummer_1f1` and `whittaker_m_ln` read it at one
z.  Callers feeding it arguments outside the convergent regime get a
SeriesConvergenceError instead of a silently degraded value.
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


def _kummer_1f1_ln(a: float, b: float, z: float) -> tuple[float, float]:
    """(sign, ln|1F1(a; b; z)|) at one z: the grid series within 500 terms."""
    sign, ln_mag = _kummer_1f1_ln_grid(a, b, np.array([z], dtype=float), _MAX_TERMS)
    return float(sign[0]), float(ln_mag[0])


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) from the series `channel.sum_cdf`
    runs; raises SeriesConvergenceError after 500 terms and OverflowError
    where the value is beyond float range."""
    sign, ln_mag = _kummer_1f1_ln(a, b, z)
    return sign * math.exp(ln_mag)


def whittaker_m_ln(mu: float, nu: float, z: float) -> tuple[float, float]:
    """Log-scaled Whittaker function M_{mu,nu}(z) for z > 0.

    Returns (sign, ln|M|) so that M = sign * exp(ln|M|), from
    M = e^{-z/2} z^{nu+1/2} 1F1(nu - mu + 1/2; 1 + 2 nu; z) with the log
    of 1F1 read off the same series as `kummer_1f1`.  The log form
    survives the e^{z/2} growth / z^{nu+1/2} decay that makes the plain
    value overflow for the large arguments the sum-CDF produces.
    """
    if z <= 0.0:
        raise ValueError(f"whittaker_m_ln requires z > 0, got {z}")
    # A zero 1F1 has sign 0 and ln -inf, so M comes out as (0, -inf).
    sign, ln_f = _kummer_1f1_ln(nu - mu + 0.5, 1.0 + 2.0 * nu, z)
    return sign, -0.5 * z + (nu + 0.5) * math.log(z) + ln_f
