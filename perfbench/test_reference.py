"""The benchmark's reference against 50-digit mpmath evaluations.

Run with ``python3 -m pytest perfbench/test_reference.py``.  The mpmath side
takes the K-fold sum weights from their binomial closed form, not from the
convolution, and the one-hop density is checked against the confluent
hypergeometric form of Abdi et al.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import reference as ref

mp.mp.dps = 50


def mp_law(params, eta, k):
    """(weights, shapes, scale) of the K-fold sum, in mpmath numbers."""
    m, b, omega = (mp.mpf(v) for v in params)
    c2 = 2 * b + omega / m
    r = 2 * b / c2
    n = k * (int(m) - 1)
    weights = [mp.binomial(n, j) * (1 - r) ** j * r ** (n - j) for j in range(n + 1)]
    return weights, [k + j for j in range(n + 1)], mp.mpf(eta) * c2


def mp_pdf(law, x):
    w, shapes, s = law
    return mp.fsum(wj * x ** (a - 1) * mp.exp(-x / s) / (mp.gamma(a) * s**a) for wj, a in zip(w, shapes))


def mp_cdf(law, x):
    w, shapes, s = law
    return mp.fsum(wj * mp.gammainc(a, 0, x / s, regularized=True) for wj, a in zip(w, shapes))


def mp_sf(law, x):
    w, shapes, s = law
    return mp.fsum(wj * mp.gammainc(a, x / s, mp.inf, regularized=True) for wj, a in zip(w, shapes))


def mp_hyperbola(u, v, a_u, a_v, c, success=False):
    """Pr[(U - a_u)(V - a_v) <= c], or its complement when success=True."""
    a_u, a_v, c = mp.mpf(a_u), mp.mpf(a_v), mp.mpf(c)
    tail = mp_sf if success else mp_cdf
    mean_excess = u[2] * mp.fsum(wj * a for wj, a in zip(u[0], u[1])) - a_u
    edges = sorted({mp.mpf(0), mp.sqrt(c), max(mean_excess, 2 * mp.sqrt(c))}) + [mp.inf]
    integral = mp.quad(lambda t: mp_pdf(u, a_u + t) * tail(v, a_v + c / t), edges)
    return integral if success else mp_cdf(u, a_u) + integral


def _eta(snr_db):
    return mp.power(10, mp.mpf(snr_db) / 10)


@pytest.mark.parametrize("params", [ref.HEAVY, ref.AVERAGE])
def test_hop_density_matches_abdi_form(params):
    """alpha e^{-beta x} 1F1(m; 1; delta x), the shadowed-Rician density of |h|^2."""
    m, b, omega = params
    law = ref.hop_law(m, b, omega)
    alpha = (2 * b * m / (2 * b * m + omega)) ** m / (2 * b)
    beta, delta = 1 / (2 * b), omega / (2 * b * (2 * b * m + omega))
    for x in (1e-6, 0.01, 0.3, 1.0, 4.0):
        abdi = alpha * mp.exp(-beta * x) * mp.hyp1f1(m, 1, delta * x)
        assert law.pdf(x) == pytest.approx(float(abdi), rel=1e-12)
    assert law.density_at_zero() == pytest.approx(alpha, rel=1e-13)
    assert law.mean() == pytest.approx(2 * b + omega, rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_sum_weights_are_binomial(k):
    law = ref.sum_law(ref.hop_law(*ref.AVERAGE), k)
    w, shapes, _ = mp_law(ref.AVERAGE, 1.0, k)
    np.testing.assert_allclose(law.weights, [float(v) for v in w], rtol=1e-12, atol=1e-300)
    assert list(law.shapes) == shapes


@pytest.mark.parametrize(
    "cond, snr_db",
    [("HA", 20.0), ("HH", 0.0), ("AA", 9.0), ("AH", -6.0)],
)
def test_single_satellite(cond, snr_db):
    ns_p, sg_p = ref.CONDITIONS[cond]
    ns, sg = (ref.hop_law(*p, eta=10.0 ** (snr_db / 10.0)) for p in (ns_p, sg_p))
    g = ref.GAMMA_TH
    op, ps = ref._hyperbola(sg, ns, g, g, g * g + g)
    mp_ns, mp_sg = (mp_law(p, _eta(snr_db), 1) for p in (ns_p, sg_p))
    exact_ps = mp_hyperbola(mp_sg, mp_ns, g, g, g * g + g, success=True)
    # Check the small side of the pair, where the relative error shows.
    if exact_ps < 0.5:
        assert ps == pytest.approx(float(exact_ps), rel=1e-9, abs=0.0)
    else:
        assert op == pytest.approx(float(1 - exact_ps), rel=1e-9, abs=0.0)
    assert ref.outage("SS", cond, 5, snr_db) == op


@pytest.mark.parametrize(
    "cond, k, snr_db",
    [("AH", 5, 1.5), ("AA", 16, -6.0), ("HH", 16, 12.0), ("HA", 5, 18.0)],
)
def test_mrc(cond, k, snr_db):
    ns_p, sg_p = ref.CONDITIONS[cond]
    mp_ns, mp_sg = (mp_law(p, _eta(snr_db), k) for p in (ns_p, sg_p))
    m, b, omega = ns_p
    c_m = (1 + _eta(snr_db) * (2 * mp.mpf(b) + mp.mpf(omega))) / k
    g = ref.GAMMA_TH
    exact = mp_hyperbola(mp_ns, mp_sg, g, 0, c_m * g)
    assert ref.outage("MRC", cond, k, snr_db) == pytest.approx(float(exact), rel=1e-9, abs=0.0)


def test_selection_combining_is_branch_power():
    ss = ref.outage("SS", "HA", 5, 20.0)
    assert ref.outage("SC", "HA", 5, 20.0) == pytest.approx(ss**5, rel=1e-14)
    # Near 1 the SC value comes from the branch success, not from rounding.
    assert ref.outage("SC", "HH", 5, 0.0) < ref.outage("SS", "HH", 5, 0.0) < 1.0
    assert math.isfinite(ref.outage("SC", "AH", 16, -6.0))
