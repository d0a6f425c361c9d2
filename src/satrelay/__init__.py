"""Outage-probability analysis of LEO-satellite direct-access IoT uplinks.

Shadowed-Rician per-hop fading, amplify-and-forward relaying, and three
receive schemes at the ground station: single satellite, selection
combining, and maximal ratio combining.  Closed-form staircase outage
expressions, their high-SNR asymptotes, a seeded Monte Carlo oracle, and
a link-budget calculator, all exposed through one CLI.
"""

from .channel import (
    AVERAGE_SHADOWING,
    HEAVY_SHADOWING,
    LinkSNR,
    SRDerived,
    SRParams,
    SumSRContext,
    asymptotic_cdf,
    asymptotic_sum_cdf,
    cdf,
    derive,
    mean_snr,
    pdf,
    sample,
    sf,
    sum_cdf,
)
from .linkbudget import LinkBudget, feasible_range, slant_range_km, snr_db
from .mcsim import (
    MCConfig,
    OutageEstimate,
    simulate_mrc,
    simulate_mrc_curve,
    simulate_sc,
    simulate_sc_curve,
    simulate_ss,
)
from .outage import (
    HopPair,
    StaircaseConfig,
    Threshold,
    asymp_op_mrc,
    asymp_op_sc,
    c_mrc,
    coding_gains,
    op_mrc,
    op_sc,
    op_ss,
    ps_sc,
    ps_ss,
    staircase_probability,
    staircase_success_probability,
    staircase_truncation_bound,
)
from .specfun import SeriesConvergenceError, kummer_1f1, ln_gamma, whittaker_m_ln

__version__ = "0.1.0"
