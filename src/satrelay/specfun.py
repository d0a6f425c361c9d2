"""Special functions used by the shadowed-Rician statistics.

Everything here is pure and stateless.  The confluent hypergeometric
function has one implementation, `_kummer_1f1_ln_grid`: its ascending
power series, log-scaled, to a fixed relative tolerance within a term
budget, run for rows of parameters (a_i, b_i) over one array of z as one
batch.  `channel.sum_cdf` runs it once per chunk of at most
`channel._CELLS` cells, each chunk all (m-1)K+1 of its Whittaker rows over
consecutive abscissae, and `kummer_1f1` and `whittaker_m_ln` read it at
one row and one z.  Callers feeding it arguments outside the convergent
regime get a SeriesConvergenceError instead of a silently degraded value,
and non-finite arguments get a ValueError naming the argument.

The kernel runs each block of series in one of two regimes, chosen by the
number of series still active, which it observes as it goes.  Above 2^10
it advances them one term per numpy call (the step loop); from 2^10 down,
`_scan` advances each of them many terms per call, with one
`np.multiply.accumulate` for the terms and one `np.add.accumulate` for the
partial sums.  Accumulate runs strictly in sequence, and the scan stops or
rescales each series at exactly the step the loop would, so both regimes
give the same bits.  The scan computes some steps past a series' stop or
rescale point and discards them; those steps may overflow, so the scan
runs with numpy's overflow and invalid-value warnings off, and non-finite
arguments are refused before any series starts."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SeriesConvergenceError",
    "kummer_1f1",
    "whittaker_m_ln",
]


class SeriesConvergenceError(ArithmeticError):
    """A power series failed to reach tolerance within its term budget."""


_REL_TOLERANCE = 1e-12
# Sized for moderate arguments: 500 terms covers z up to roughly 100.
_MAX_TERMS = 500


def _check_1f1_domain(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> None:
    for name, v in (("a", a), ("b", b), ("z", z)):
        if not np.isfinite(v).all():
            raise ValueError(f"1F1 requires finite {name}, got {float(v[~np.isfinite(v)][0])}")
    bad = (b <= 0.0) & (b == np.floor(b))
    if bad.any():
        raise ValueError(f"1F1 undefined for nonpositive-integer b = {float(b[bad][0])}")
    if np.any(z < 0.0):
        raise ValueError("1F1 series restricted to z >= 0 here")


_RESCALE_AT = 1e250
# Elements a block of series carries at once: the working arrays stay in
# cache and their memory stays bounded whatever the size of the table.
_BLOCK = 1 << 13
# A block whose active set is this small advances many steps per numpy
# call (`_scan`); one pass computes at most _SCAN_BUDGET element-steps.
# The scan's scratch, 4 floats per element-step, is then at most 256 KB:
# less than the step loop holds for a full block of 2^13 elements.
_SCAN_AT = 1 << 10
_SCAN_BUDGET = 1 << 13


def _nonconvergence(a: float, b: float, max_terms: int, z: np.ndarray) -> SeriesConvergenceError:
    return SeriesConvergenceError(
        f"1F1({a}; {b}; z) did not converge within {max_terms} terms (max z = {z.max():g})"
    )


def _kummer_1f1_ln_grid(a, b, z, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-scaled 1F1(a_i; b_i; z_j) over rows of parameters and one array of z >= 0.

    Returns (sign, ln|1F1|) tables of shape (rows, z.size).  Every element
    runs its own ascending series: term *= (a + n) / ((b + n)(n + 1)) * z,
    stopping once |term| <= 1e-12 |total| or the term is 0.  A running
    per-element rescale keeps the partial sums finite even where 1F1 ~ e^z
    would overflow, so the convergent regime is limited by max_terms rather
    than float range.  The elements run in row-major blocks of at most
    2^13.  While more than 2^10 of a block's series are active, the step
    loop advances all of them one term per pass and drops the finished ones
    once they are half of the block.  Once 2^10 or fewer are active, `_scan`
    advances each of them many terms per pass.  Both regimes perform each
    element's additions, multiplications, stop test and rescale in the same
    order, so every element gets the same bits whichever regime and block
    it ran in.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    _check_1f1_domain(a, b, z)
    cols = z.size
    sign = np.empty((a.size, cols))
    ln_mag = np.empty((a.size, cols))
    flat_sign = sign.reshape(-1)
    flat_ln = ln_mag.reshape(-1)
    for start in range(0, sign.size, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, sign.size))
        row = flat // cols
        z_el = z[flat % cols]
        total = np.ones(flat.size)
        term = np.ones(flat.size)
        ln_scale = np.zeros(flat.size)
        n = 0
        if flat.size > _SCAN_AT:
            done = np.zeros(flat.size, dtype=bool)
            # The body is the one-row series loop's, step for step, with each
            # element's (a, b) read from its row; finished elements are read
            # out and dropped once they are half of the block, or once the
            # active set is small enough for the scan.
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
                    if 2 * n_done < flat.size and flat.size - n_done > _SCAN_AT:
                        continue
                out = flat[done]
                flat_sign[out] = np.sign(total[done])
                with np.errstate(divide="ignore"):
                    flat_ln[out] = np.log(np.abs(total[done])) + ln_scale[done]
                left = ~done
                flat, row, z_el, done = flat[left], row[left], z_el[left], done[left]
                total, term, ln_scale = total[left], term[left], ln_scale[left]
                if flat.size <= _SCAN_AT:
                    n += 1
                    break
            else:
                i = row[np.argmin(done)]
                raise _nonconvergence(a[i], b[i], max_terms, z)
        if flat.size:
            failed = _scan(
                a[row], b[row], z_el, term, total, ln_scale, n, max_terms, flat, flat_sign, flat_ln
            )
            if failed is not None:
                i = failed // cols
                raise _nonconvergence(a[i], b[i], max_terms, z)
    return sign, ln_mag


def _scan(a, b, z, term, total, ln_scale, n, max_terms, flat, flat_sign, flat_ln):
    """Run a block's remaining series from step n on, C steps per pass.

    Element i carries (a[i], b[i], z[i]) and its loop state (term, total,
    ln_scale) at step n, and writes its result at flat[i].  A pass lays
    each element's next C coefficients between copies of its z, so one
    `np.multiply.accumulate` forms its C terms in the loop's order (term
    times the coefficient, then times z), and one `np.add.accumulate`
    seeded by the running total forms its C partial sums.  Accumulate runs
    strictly in sequence, so these are the loop's roundings exactly.  The
    first step of the pass that meets the stop test reads the element out;
    the first that passes 1e250 rescales it there, and the element goes on
    from the next step, so step numbers are per element.  Every later step
    of the pass is discarded; those steps may overflow, silently.  C grows
    with the step number (waste stays a fraction of the work done) and is
    capped by _SCAN_BUDGET element-steps (memory stays bounded).

    Returns the smallest flat index whose series did not converge within
    max_terms, or None.
    """
    # Rows: a, b, z, term, total, ln_scale and the element's step number,
    # in one table so that dropping finished elements is one copy.
    state = np.stack([a, b, z, term, total, ln_scale, np.full(flat.size, float(n))])
    # One scratch buffer for the whole run: a pass of e elements and c
    # steps takes 4ec + 2e floats of it, and ec never passes the budget.
    work = np.empty(4 * min(_SCAN_BUDGET, flat.size * max_terms) + 2 * flat.size)
    lanes = np.arange(flat.size)
    failed = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while flat.size:
            a, b, z, term, total, ln_scale, steps = state
            if steps.max() >= max_terms:
                exhausted = steps >= max_terms
                first_out = int(flat[exhausted].min())
                failed = first_out if failed is None else min(failed, first_out)
                np.logical_not(exhausted, out=exhausted)
                state, flat = state[:, exhausted], flat[exhausted]
                continue
            e = flat.size
            c = int(min(steps.min() // 2 + 4, _SCAN_BUDGET // e, max_terms - steps.max()))
            ec = e * c
            # Step-major tables, row k holding step n + k of every element:
            # prod = [term; coef_n; z; coef_n+1; z; ...] with
            # coef = (a + n) / ((b + n)(n + 1)), and sums = [total; partial sums].
            prod = work[: 2 * ec + e].reshape(2 * c + 1, e)
            sums = work[2 * ec + e : 3 * ec + 2 * e].reshape(c + 1, e)
            nums = work[3 * ec + 2 * e : 4 * ec + 2 * e].reshape(c, e)
            ks = np.arange(c)[:, None]
            coef, dens = prod[1::2], sums[1:]
            np.add(ks, steps, out=nums)
            np.add(nums, a, out=coef)
            np.add(nums, b, out=dens)
            nums += 1.0
            dens *= nums
            coef /= dens
            prod[0] = term
            prod[2::2] = z
            np.multiply.accumulate(prod, axis=0, out=prod)
            terms = prod[2::2]
            sums[0] = total
            sums[1:] = terms
            np.add.accumulate(sums, axis=0, out=sums)
            totals = sums[1:]
            # The loop's tests, step by step; |term| goes where the
            # coefficients were, which the pass no longer needs.
            mag = np.abs(totals, out=nums)
            event = mag > _RESCALE_AT
            mag *= _REL_TOLERANCE
            stop = np.abs(terms, out=coef) <= mag
            stop |= terms == 0.0
            event |= stop
            # Each element's first event, or the pass's last step if none.
            at = np.where(event, ks, c).min(axis=0)
            hit = at < c
            np.minimum(at, c - 1, out=at)
            steps += at + 1
            el = lanes[:e]
            ended = stop[at, el]
            ended &= hit
            hit ^= ended  # hit now marks the elements to rescale at `at`
            term[...] = terms[at, el]
            total[...] = totals[at, el]
            if hit.any():
                s = np.where(hit, np.abs(total), 1.0)
                total /= s
                term /= s
                ln_scale += np.log(s)
            if ended.any():
                out = flat[ended]
                flat_sign[out] = np.sign(total[ended])
                flat_ln[out] = np.log(np.abs(total[ended])) + ln_scale[ended]
                np.logical_not(ended, out=ended)
                state, flat = state[:, ended], flat[ended]
    return failed


def _kummer_1f1_ln(a: float, b: float, z: float) -> tuple[float, float]:
    """(sign, ln|1F1(a; b; z)|) at one z: the grid series at one row within 500 terms."""
    sign, ln_mag = _kummer_1f1_ln_grid([a], [b], [z], _MAX_TERMS)
    return float(sign[0, 0]), float(ln_mag[0, 0])


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z): one row and one z of the series
    kernel that `channel.sum_cdf` runs chunk by chunk; raises
    SeriesConvergenceError after 500 terms and OverflowError where the
    value is beyond float range."""
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
    for name, v in (("mu", mu), ("nu", nu)):
        if not math.isfinite(v):
            raise ValueError(f"whittaker_m_ln requires finite {name}, got {v}")
    if z <= 0.0:
        raise ValueError(f"whittaker_m_ln requires z > 0, got {z}")
    # A zero 1F1 has sign 0 and ln -inf, so M comes out as (0, -inf).
    sign, ln_f = _kummer_1f1_ln(nu - mu + 0.5, 1.0 + 2.0 * nu, z)
    return sign, -0.5 * z + (nu + 0.5) * math.log(z) + ln_f
