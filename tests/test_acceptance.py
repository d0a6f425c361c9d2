"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -s`).

Criteria 4-7 check the paper's claims about the SC/MRC outage curves at
the reference staircase configuration (M = 50, L = 15 gamma).  Their
status and its measured causes:

- 6 (strict ordering MRC < SC < SS) passes at all 44 points.  Where
  1 - OP_SS is ~1e-33 and ~1e-23 (A-H at -6 and -4.5 dB), OP_SS and
  OP_SC both round to 1.0, so the strict SC < SS ordering is checked on
  the directly summed success probabilities instead.
- 4 (analytic inside the Monte Carlo CI) checks all points at a
  family-wise 99% level: each of the N intervals is built at
  1 - 0.01/N, since per-point 99% intervals would miss ~N/100 points even
  for exact values.  Converged quadrature values miss 0 of the 117
  points under that level; the staircase values miss 79 (over-cover
  bias up to +29% at the lower-edge rule, plus truncation at the fixed
  depth), so it stays red on the program's own fault.
- 5 (M = 200, L = 30 gamma moves every point by < 1%) stays red on the
  same bias plus truncation at L = 15 gamma (up to 14% for MRC A-A 9 dB
  even with a bias-free rule).
- 7 (SC needs 6 +- 1.5 dB more SNR than MRC at 1e-2) stays red: the
  converged model gives 8.38 dB under H-H.  No standard reading of MRC
  gives the claim: at K = 5 the SC-MRC gaps (H-H / H-A) are 8.36 / 5.72 dB
  for this package's fixed-gain sum, 2.46 / 3.19 dB for per-branch fixed
  gain and 3.36 / 3.53 dB for per-branch variable gain (README,
  "Acceptance status").
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import integrate

from satrelay import channel, cli, linkbudget, mcsim, outage
from satrelay.channel import (
    AVERAGE_SHADOWING,
    CONDITIONS,
    HEAVY_SHADOWING,
    LinkSNR,
    SumSRContext,
)
from satrelay.mcsim import MCConfig
from satrelay.outage import HopPair, StaircaseConfig, Threshold
from satrelay.specfun import whittaker_m_ln

from conftest import ks_statistic, quad_upper

THR = Threshold(gamma_th=1.0)
CFG = StaircaseConfig(steps_m=50, depth_l=15.0)

# (params, eta) combinations behind the four reference shadowing conditions
PARAM_GRID = [
    (HEAVY_SHADOWING, 1.0),
    (HEAVY_SHADOWING, 10.0),
    (AVERAGE_SHADOWING, 1.0),
    (AVERAGE_SHADOWING, 10.0),
]

FIG_GRIDS = {
    "HH": tuple(np.arange(0.0, 20.1, 2.0)),
    "HA": tuple(np.arange(0.0, 20.1, 2.0)),
    "AH": tuple(np.arange(-6.0, 9.1, 1.5)),
    "AA": tuple(np.arange(-6.0, 9.1, 1.5)),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _hops(cond: str, db: float, k: int) -> list[HopPair]:
    ns, sg = CONDITIONS[cond]
    link = LinkSNR.from_db(db)
    return [HopPair(ns=(ns, link), sg=(sg, link))] * k


def test_criterion_01_distribution_correctness():
    t0 = time.time()
    problems = []
    for p, eta in PARAM_GRID:
        link = LinkSNR(eta)
        total, _ = integrate.quad(
            lambda t: channel.pdf(p, link, t), 0.0, quad_upper(p, link),
            epsabs=1e-10, limit=200,
        )
        if abs(total - 1.0) >= 1e-6:
            problems.append(f"normalization m={p.m} eta={eta}: {total}")
        # probe across the body of the distribution (the far tail saturates
        # the CDF at 1.0 in double precision, where no finite difference of
        # stored CDF values can resolve the density)
        for c in (0.05, 0.2, 0.5, 1.0):
            x = c * eta
            h = 1e-5 * x
            fd = (channel.cdf(p, link, x + h) - channel.cdf(p, link, x - h)) / (2 * h)
            ref = channel.pdf(p, link, x)
            if abs(fd - ref) / ref >= 1e-4:
                problems.append(f"fd m={p.m} eta={eta} x={x}")
        rng = np.random.default_rng(1000 + p.m + int(eta))
        draws = np.sort(channel.sample(p, link, rng, size=1_000_000))
        ks = ks_statistic(draws, channel.cdf(p, link, draws))
        if ks >= 0.005:
            problems.append(f"KS m={p.m} eta={eta}: {ks:.4f}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(1, not problems, f"distribution correctness ({elapsed:.1f}s)"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_02_moment_identity():
    problems = []
    for p, eta in PARAM_GRID:
        link = LinkSNR(eta)
        want, _ = integrate.quad(
            lambda t: t * channel.pdf(p, link, t), 0.0, quad_upper(p, link),
            epsabs=1e-10, limit=200,
        )
        closed = channel.mean_snr(p, link)
        if abs(closed - want) / want >= 1e-8:
            problems.append(f"quad m={p.m} eta={eta}")
        rng = np.random.default_rng(2000 + p.m + int(eta))
        sample_mean = float(channel.sample(p, link, rng, size=10_000_000).mean())
        if abs(closed - sample_mean) / closed >= 0.01:
            problems.append(f"sample m={p.m} eta={eta}: {sample_mean} vs {closed}")
    _report(2, not problems, "moment identity"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_03_sum_cdf():
    problems = []
    link = LinkSNR(10.0)
    for p in (HEAVY_SHADOWING, AVERAGE_SHADOWING):
        for k in (2, 5):
            ctx = SumSRContext.for_fading(p, k)
            rng = np.random.default_rng(3000 + 10 * p.m + k)
            n = 1_000_000
            draws = np.zeros(n)
            for _ in range(k):
                draws += channel.sample(p, link, rng, size=n)
            draws.sort()
            ks = ks_statistic(draws, channel.sum_cdf(p, link, ctx, draws))
            if ks >= 0.005:
                problems.append(f"KS m={p.m} K={k}: {ks:.4f}")
        ctx1 = SumSRContext.for_fading(p, 1)
        xs = np.linspace(0.25, 30.0, 20)
        rel = np.max(
            np.abs(channel.sum_cdf(p, link, ctx1, xs) - channel.cdf(p, link, xs))
            / channel.cdf(p, link, xs)
        )
        if rel >= 1e-6:
            problems.append(f"K=1 m={p.m}: rel {rel:.2e}")
    _report(3, not problems, "sum CDF vs Monte Carlo and K=1 reduction"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_04_staircase_vs_monte_carlo():
    t0 = time.time()
    # First pass: the analytic values decide which points are checked.
    points = []
    for cond, grid in FIG_GRIDS.items():
        for db in grid:
            hop = _hops(cond, db, 1)[0]
            hops5 = _hops(cond, db, 5)
            analytic = {
                "SS": outage.op_ss(hop, THR, CFG),
                "SC": outage.op_sc(hops5, THR, CFG),
                "MRC": outage.op_mrc(hops5, THR, CFG),
            }
            for scheme, value in analytic.items():
                if value >= 1e-4:
                    points.append((scheme, cond, db, hop, hops5, value))
    # A 99% interval covers one point with 99% probability, not all N at
    # once; building each at 1 - 0.01/N (Bonferroni) makes the whole family
    # cover with probability >= 99%.
    checked = len(points)
    ci_level = 1.0 - 0.01 / checked
    failures = []
    for i, (scheme, cond, db, hop, hops5, value) in enumerate(points, start=1):
        cfg = MCConfig(trials=10_000_000, seed=4000 + i, ci_level=ci_level)
        if scheme == "SS":
            est = mcsim.simulate_ss(hop, THR, cfg, workers=2)
        elif scheme == "SC":
            est = mcsim.simulate_sc(hops5, THR, cfg, workers=2)
        else:
            est = mcsim.simulate_mrc(hops5, THR, cfg, workers=2)
        if not est.ci_low <= value <= est.ci_high:
            failures.append(
                f"{scheme} {cond} {db:g}dB: analytic {value:.4e} "
                f"outside [{est.ci_low:.4e}, {est.ci_high:.4e}]"
            )
    elapsed = time.time() - t0
    ok = not failures and elapsed < 900.0
    detail = (
        f"staircase vs MC family-wise 99% CI (per point {ci_level:.6f}) at "
        f"1e7 trials: {checked} points checked, "
        f"{len(failures)} outside CI in {elapsed:.0f}s"
    )
    if failures:
        detail += "; e.g. " + "; ".join(failures[:6])
    _report(4, ok, detail)


def test_criterion_05_staircase_self_convergence():
    coarse = StaircaseConfig(steps_m=50, depth_l=15.0)
    fine = StaircaseConfig(steps_m=200, depth_l=30.0)
    failures = []
    for cond, grid in FIG_GRIDS.items():
        for db in grid:
            hop = _hops(cond, db, 1)[0]
            hops5 = _hops(cond, db, 5)
            for scheme, fn in (
                ("SS", lambda c: outage.op_ss(hop, THR, c)),
                ("SC", lambda c: outage.op_sc(hops5, THR, c)),
                ("MRC", lambda c: outage.op_mrc(hops5, THR, c)),
            ):
                a, b = fn(coarse), fn(fine)
                if a > 0.0 and abs(a - b) / a >= 0.01:
                    failures.append(f"{scheme} {cond} {db:g}dB: {abs(a - b) / a:.2%}")
    detail = f"(M=200, L=30g) vs (M=50, L=15g) < 1%: {len(failures)} grid points exceed"
    if failures:
        detail += "; worst: " + "; ".join(
            sorted(failures, key=lambda s: -float(s.split()[-1].rstrip("%")))[:6]
        )
    _report(5, not failures, detail)


def test_criterion_06_scheme_ordering():
    failures = []
    for cond, grid in FIG_GRIDS.items():
        for db in grid:
            hop = _hops(cond, db, 1)[0]
            hops5 = _hops(cond, db, 5)
            ss = outage.op_ss(hop, THR, CFG)
            sc = outage.op_sc(hops5, THR, CFG)
            mrc = outage.op_mrc(hops5, THR, CFG)
            # Where 1 - OP_SS is below half an ulp of 1 (~1e-33 at A-H
            # -6 dB), OP_SS and OP_SC both round to 1.0 and no float outage
            # can order them strictly; there the strict SC < SS ordering
            # rests on the success probabilities 1 - OP, which stay
            # representable and are checked at every point.
            ps_ss = outage.ps_ss(hop, THR, CFG)
            ps_sc = outage.ps_sc(hops5, THR, CFG)
            if not (mrc < sc and (sc < ss or ss == 1.0) and ps_sc > ps_ss):
                failures.append(
                    f"{cond} {db:g}dB: MRC={mrc:.6e} SC={sc:.6e} SS={ss:.6e} "
                    f"1-SC={ps_sc:.6e} 1-SS={ps_ss:.6e}"
                )
    detail = (
        f"strict OP(MRC) < OP(SC) < OP(SS), SC < SS on 1 - OP: "
        f"{len(failures)} violations"
    )
    if failures:
        detail += "; " + "; ".join(failures[:4])
    _report(6, not failures, detail)


def _snr_at_op(scheme: str, cond: str, target: float) -> float:
    dbs = np.arange(0.0, 20.01, 0.5)
    ops = []
    for db in dbs:
        hops = _hops(cond, db, 5)
        ops.append(
            outage.op_sc(hops, THR, CFG)
            if scheme == "SC"
            else outage.op_mrc(hops, THR, CFG)
        )
    ly, lt = np.log10(ops), math.log10(target)
    for i in range(len(dbs) - 1):
        if (ly[i] - lt) * (ly[i + 1] - lt) <= 0.0:
            return float(dbs[i] + (lt - ly[i]) * (dbs[i + 1] - dbs[i]) / (ly[i + 1] - ly[i]))
    raise AssertionError(f"{scheme} {cond} never crosses {target}")


def test_criterion_07_fig2_gap_claims():
    at = {
        (scheme, cond): _snr_at_op(scheme, cond, 1e-2)
        for scheme in ("SC", "MRC")
        for cond in ("HH", "HA")
    }
    gap_hh = at[("SC", "HH")] - at[("MRC", "HH")]
    gap_ha = at[("SC", "HA")] - at[("MRC", "HA")]
    gap_sc = at[("SC", "HH")] - at[("SC", "HA")]
    problems = []
    if abs(gap_hh - 6.0) > 1.5:
        problems.append(f"SC-MRC gap under HH: {gap_hh:.2f} dB vs 6 +- 1.5")
    if abs(gap_ha - 6.0) > 1.5:
        problems.append(f"SC-MRC gap under HA: {gap_ha:.2f} dB vs 6 +- 1.5")
    if abs(gap_sc - 3.0) > 1.5:
        problems.append(f"SC HH-HA gap: {gap_sc:.2f} dB vs 3 +- 1.5")
    detail = (
        f"SNR@1e-2 gaps: SC-MRC HH {gap_hh:.2f} dB, HA {gap_ha:.2f} dB, "
        f"SC HH-HA {gap_sc:.2f} dB"
    )
    if problems:
        detail += "; out of tolerance: " + "; ".join(problems)
    _report(7, not problems, detail)


def test_criterion_08_diversity_order():
    problems = []
    for k in (2, 5):
        for fn in (outage.asymp_op_sc, outage.asymp_op_mrc):
            v35 = fn(_hops("HH", 35.0, k), THR)
            v40 = fn(_hops("HH", 40.0, k), THR)
            slope = (math.log10(v40) - math.log10(v35)) / 0.5
            if abs(slope + k) > 1e-10:
                problems.append(f"asymptote slope K={k}: {slope}")
        for cond in CONDITIONS:
            for scheme, fn in (("SC", outage.op_sc), ("MRC", outage.op_mrc)):
                v35 = fn(_hops(cond, 35.0, k), THR, CFG)
                v40 = fn(_hops(cond, 40.0, k), THR, CFG)
                slope = (math.log10(v40) - math.log10(v35)) / 0.5
                if abs(slope + k) > 0.15 * k:
                    problems.append(f"exact slope {scheme} {cond} K={k}: {slope:.3f}")
    _report(8, not problems, "diversity order (asymptote exact, analytic within 15%)"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_09_fig4_behavior():
    problems = []
    for cond, db in (("HH", 13.5), ("HA", 13.5), ("AH", 7.5), ("AA", 7.5)):
        sc = [outage.op_sc(_hops(cond, db, k), THR, CFG) for k in range(2, 7)]
        mrc = [outage.op_mrc(_hops(cond, db, k), THR, CFG) for k in range(2, 7)]
        if not all(a > b for a, b in zip(sc, sc[1:])):
            problems.append(f"SC not decreasing in K under {cond}")
        if not all(a > b for a, b in zip(mrc, mrc[1:])):
            problems.append(f"MRC not decreasing in K under {cond}")
        ratio = [m / s for m, s in zip(mrc, sc)]
        if not all(a > b for a, b in zip(ratio, ratio[1:])):
            problems.append(f"MRC/SC ratio not shrinking under {cond}")
    _report(9, not problems, "outage decreasing in K and MRC/SC ratio shrinking"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_10_whittaker_identities():
    problems = []
    for z in (0.5, 2.0, 10.0, 40.0):
        sign, ln_mag = whittaker_m_ln(0.0, 0.5, z)
        want = 2.0 * math.sinh(z / 2.0)
        if sign != 1.0 or abs(sign * math.exp(ln_mag) - want) / want >= 1e-10:
            problems.append(f"sinh identity z={z}")
        nu = 1.5
        sign, ln_mag = whittaker_m_ln(nu + 0.5, nu, z)
        want = z ** (nu + 0.5) * math.exp(-z / 2.0)
        if sign != 1.0 or abs(sign * math.exp(ln_mag) - want) / want >= 1e-10:
            problems.append(f"power identity z={z}")
    _report(10, not problems, "Whittaker reductions at z in {0.5, 2, 10, 40}"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_11_link_budget():
    problems = []
    lo, hi = linkbudget.feasible_range(linkbudget.reference_grid())
    if not abs(lo - (-9.0)) < 6.0:
        problems.append(f"min {lo:.2f} dB not within 6 dB of -9")
    if not abs(hi - 20.0) < 6.0:
        problems.append(f"max {hi:.2f} dB not within 6 dB of 20")
    if not lo <= hi:
        problems.append("min > max")
    base = linkbudget.LinkBudget(
        altitude_km=800.0, frequency_hz=950e6, elevation_deg=30.0,
        eirp_dbm=23.0, g_over_t_dbk=-10.0, bandwidth_hz=15e3,
    )
    ref = linkbudget.snr_db(base)
    checks = [
        linkbudget.snr_db(replace(base, g_over_t_dbk=-9.0)) > ref,
        linkbudget.snr_db(replace(base, eirp_dbm=24.0)) > ref,
        linkbudget.snr_db(replace(base, bandwidth_hz=30e3)) < ref,
        linkbudget.snr_db(replace(base, frequency_hz=1.9e9)) < ref,
        linkbudget.snr_db(replace(base, altitude_km=1600.0)) < ref,
    ]
    if not all(checks):
        problems.append("monotonicity violated")
    _report(11, not problems, f"feasible range ({lo:.1f}, {hi:.1f}) dB vs (-9, 20) +- 6"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_12_reproducibility(tmp_path):
    outputs = {}
    for tag, workers in (("a", 1), ("b", 2)):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        rc = cli.main(
            [
                "run", "--preset", "fig3", "--trials", "200000", "--seed", "4242",
                "--csv", str(csv), "--svg", str(svg), "--workers", str(workers),
            ]
        )
        assert rc == 0
        outputs[tag] = (csv.read_bytes(), svg.read_bytes())
    ok = outputs["a"] == outputs["b"]
    _report(12, ok, "byte-identical CSV and SVG across worker counts")
