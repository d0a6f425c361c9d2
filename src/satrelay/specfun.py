"""Special functions used by the shadowed-Rician statistics.

Everything here is pure and stateless.  The confluent hypergeometric
function has one implementation, `_kummer_1f1_ln_grid`: its ascending
power series, log-scaled, to a fixed relative tolerance within a term
budget, run for rows of parameters (a_i, b_i) over one array of z as one
batch.  `channel.sum_cdf` runs it once per call, on all (m-1)K+1 of its
Whittaker arguments, and `kummer_1f1` and `whittaker_m_ln` read it at one
row and one z.  Callers feeding it arguments outside the convergent regime
get a SeriesConvergenceError instead of a silently degraded value."""

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


def _check_1f1_domain(b: np.ndarray, z: np.ndarray) -> None:
    bad = (b <= 0.0) & (b == np.floor(b))
    if bad.any():
        raise ValueError(f"1F1 undefined for nonpositive-integer b = {float(b[bad][0])}")
    if np.any(z < 0.0):
        raise ValueError("1F1 series restricted to z >= 0 here")


_RESCALE_AT = 1e250
# Elements a block of series carries at once: the working arrays stay in
# cache and their memory stays bounded whatever the size of the table.
_BLOCK = 1 << 13


def _kummer_1f1_ln_grid(a, b, z, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-scaled 1F1(a_i; b_i; z_j) over rows of parameters and one array of z >= 0.

    Returns (sign, ln|1F1|) tables of shape (rows, z.size).  Every element
    runs its own ascending series: term *= (a + n) / ((b + n)(n + 1)) * z,
    stopping once |term| <= 1e-12 |total| or the term is 0.  A running
    per-element rescale keeps the partial sums finite even where 1F1 ~ e^z
    would overflow, so the convergent regime is limited by max_terms rather
    than float range.  The elements run in row-major blocks of at most
    2^13, and a block drops its finished elements once they are half of
    it, so the work follows each element's own term count rather than
    the longest series in the table.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    _check_1f1_domain(b, z)
    cols = z.size
    sign = np.empty((a.size, cols))
    ln_mag = np.empty((a.size, cols))
    flat_sign = sign.reshape(-1)
    flat_ln = ln_mag.reshape(-1)
    for start in range(0, sign.size, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, sign.size))
        row, col = np.divmod(flat, cols)
        z_el = z[col]
        total = np.ones(flat.size)
        term = np.ones(flat.size)
        ln_scale = np.zeros(flat.size)
        done = np.zeros(flat.size, dtype=bool)
        # The body is the one-row series loop's, step for step, with each
        # element's (a, b) read from its row; finished elements are read
        # out and dropped once they are half of the block.
        for n in range(max_terms):
            term *= ((a + n) / ((b + n) * (n + 1)))[row]
            term *= z_el
            total += np.where(done, 0.0, term)
            done |= np.abs(term) <= _REL_TOLERANCE * np.abs(total)
            done |= term == 0.0
            n_done = np.count_nonzero(done)
            if n_done < flat.size:
                big = np.abs(total) > _RESCALE_AT
                if big.any():
                    s = np.where(big, np.abs(total), 1.0)
                    total /= s
                    term /= s
                    ln_scale += np.log(s)
                if 2 * n_done < flat.size:
                    continue
            out = flat[done]
            flat_sign[out] = np.sign(total[done])
            with np.errstate(divide="ignore"):
                flat_ln[out] = np.log(np.abs(total[done])) + ln_scale[done]
            if n_done == flat.size:
                break
            left = ~done
            flat, row, z_el, done = flat[left], row[left], z_el[left], done[left]
            total, term, ln_scale = total[left], term[left], ln_scale[left]
        else:
            i = row[np.argmin(done)]
            raise SeriesConvergenceError(
                f"1F1({a[i]}; {b[i]}; z) did not converge within {max_terms} terms "
                f"(max z = {z.max():g})"
            )
    return sign, ln_mag


def _kummer_1f1_ln(a: float, b: float, z: float) -> tuple[float, float]:
    """(sign, ln|1F1(a; b; z)|) at one z: the grid series at one row within 500 terms."""
    sign, ln_mag = _kummer_1f1_ln_grid([a], [b], [z], _MAX_TERMS)
    return float(sign[0, 0]), float(ln_mag[0, 0])


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
