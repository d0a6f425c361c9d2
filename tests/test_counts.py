"""Every count of the package (m, K, M, trials, seed, workers, k_values, a
curve's ks and `OutageEstimate.trials`) passes one rule, `channel._count`,
and the public surface resolves."""

import importlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

import satrelay
from satrelay import channel, cli, mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR, SRParams, SumSRContext
from satrelay.mcsim import MCConfig, OutageEstimate
from satrelay.outage import HopPair, StaircaseConfig, Threshold

LINK = LinkSNR.from_db(10.0)
XS = np.linspace(0.0, 30.0, 7)
HOP = HopPair(ns=(HEAVY_SHADOWING, LINK), sg=(AVERAGE_SHADOWING, LINK))
THR = Threshold(gamma_th=1.0)
MC = MCConfig(trials=2000, seed=3)
TABLE = {"schemes": "SC, MRC", "conditions": "HA", "k_values": "1", "snr_db": "10", "mc": "false"}


# Each use(count) builds or calls its site with the count and returns
# (the count the site stored, or None where it stores none; its output).
def _m(m):
    p = SRParams(m=m, b=0.063, omega=0.0005)
    return p.m, channel.cdf(p, LINK, XS)


def _sum_context(k):
    ctx = SumSRContext(k)
    return ctx.K, channel.sum_cdf(HEAVY_SHADOWING, LINK, ctx, XS)


def _sample_sum(k):
    return None, channel.sample_sum(AVERAGE_SHADOWING, LINK, k, np.random.default_rng(1), size=8)


def _asymptote(k):
    return None, channel.asymptotic_sum_cdf(HEAVY_SHADOWING, LINK, k, XS)


def _steps(m):
    cfg = StaircaseConfig(m, 15.0)
    return cfg.steps_m, outage.op_sc([HOP] * 2, THR, cfg)


def _trials(n):
    cfg = MCConfig(trials=n, seed=3)
    return cfg.trials, mcsim.simulate_ss(HOP, THR, cfg)


def _seed(s):
    cfg = MCConfig(trials=2000, seed=s)
    return cfg.seed, mcsim.simulate_ss(HOP, THR, cfg)


def _workers(w):
    return None, mcsim.simulate_curves([("MRC", [HOP] * 2, [2], [1.0], MC)], THR, w)


def _ks(k):
    return None, mcsim.simulate_curves([("SC", [HOP] * 5, [k], [1.0, 2.0], MC)], THR)


def _estimate_trials(n):
    est = OutageEstimate(0.25, 0.2, 0.3, trials=n)
    return est.trials, est


def _k_values(k):
    spec = replace(cli._spec_from_table(TABLE)[0], k_values=(k,))
    return spec.k_values[0], cli.run(spec)


# (field named by the error, use, a valid count, an out-of-range one or None)
SITES = [
    ("m", _m, 5, 0),
    ("K", _sum_context, 5, 0),
    ("K", _sample_sum, 5, 0),
    ("K", _asymptote, 5, -1),
    ("steps_m", _steps, 50, StaircaseConfig.MAX_STEPS_M + 1),
    ("trials", _trials, 2000, 0),
    ("seed", _seed, 7, None),
    ("workers", _workers, 2, 0),
    ("ks", _ks, 5, 0),
    ("trials", _estimate_trials, 2000, 0),
    ("k_values", _k_values, 5, 0),
]
IDS = [use.__name__.lstrip("_") for _, use, _, _ in SITES]


@pytest.mark.parametrize("field, use, valid, out_of_range", SITES, ids=IDS)
def test_numpy_integer_is_the_int_it_equals(field, use, valid, out_of_range):
    stored, want = use(valid)
    np_stored, got = use(np.int64(valid))
    if stored is not None:
        assert type(np_stored) is int and np_stored == stored == valid
    # pickle writes every float's bits, so equal bytes are equal bits.
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("field, use, valid, out_of_range", SITES, ids=IDS)
def test_bool_float_and_out_of_range_refused(field, use, valid, out_of_range):
    bad = [True, np.True_, float(valid)] + ([] if out_of_range is None else [out_of_range])
    for value in bad:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            use(value)


@pytest.mark.parametrize(
    "module, name",
    [
        ("mcsim", "simulate_sc_curve"),
        ("mcsim", "simulate_mrc_curve"),
        ("mcsim", "_thread_count"),
        ("specfun", "ln_gamma"),
        ("channel", "_check_k"),
    ],
)
def test_retired_names_resolve_nowhere(module, name):
    assert not hasattr(importlib.import_module(f"satrelay.{module}"), name)
    assert not hasattr(satrelay, name)


@pytest.mark.parametrize("module", ["channel", "cli", "linkbudget", "mcsim", "outage", "specfun"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"satrelay.{module}")
    for name in mod.__all__:
        assert getattr(mod, name) is not None


def test_every_lazy_name_resolves():
    for name in satrelay._LAZY:
        assert getattr(satrelay, name) is not None
