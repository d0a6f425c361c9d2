"""Outage-probability analysis of LEO-satellite direct-access IoT uplinks.

Shadowed-Rician per-hop fading, amplify-and-forward relaying, and three
receive schemes at the ground station: single satellite, selection
combining, and maximal ratio combining.  Closed-form staircase outage
expressions, their high-SNR asymptotes, a seeded Monte Carlo oracle, and
a link-budget calculator, all exposed through one CLI.

The analytic names load with the package.  The Monte Carlo and
link-budget names, and the `cli`, `mcsim`, `linkbudget` and `validate`
submodules, load on first use (`_LAZY`), so a run without Monte Carlo
never imports them.
"""

from importlib import import_module

from .channel import (
    AVERAGE_SHADOWING,
    HEAVY_SHADOWING,
    LinkSNR,
    SRParams,
    SumSRContext,
    asymptotic_cdf,
    asymptotic_sum_cdf,
    cdf,
    mean_snr,
    pdf,
    sample,
    sf,
    sum_cdf,
)
from .outage import (
    HopPair,
    StaircaseConfig,
    Threshold,
    asymp_op_mrc,
    asymp_op_sc,
    asymp_op_sc_rows,
    c_mrc,
    coding_gains,
    op_mrc,
    op_mrc_rows,
    op_sc,
    op_sc_rows,
    op_ss,
    ps_sc,
    ps_ss,
    staircase_probability,
    staircase_success_probability,
    staircase_truncation_bound,
)
from .specfun import SeriesConvergenceError, kummer_1f1, whittaker_m_ln

__version__ = "0.1.0"

# Name -> submodule it is read from on first use; a submodule maps to itself.
_LAZY = {
    "cli": "cli",
    "linkbudget": "linkbudget",
    "mcsim": "mcsim",
    "validate": "validate",
    "LinkBudget": "linkbudget",
    "feasible_range": "linkbudget",
    "slant_range_km": "linkbudget",
    "snr_db": "linkbudget",
    "MCConfig": "mcsim",
    "OutageEstimate": "mcsim",
    "simulate_mrc": "mcsim",
    "simulate_sc": "mcsim",
    "simulate_ss": "mcsim",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
