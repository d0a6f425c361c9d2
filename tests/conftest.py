import numpy as np
import pytest

from satrelay import channel
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR


@pytest.fixture(params=["heavy", "average"], ids=["heavy", "average"])
def sr_params(request):
    return {"heavy": HEAVY_SHADOWING, "average": AVERAGE_SHADOWING}[request.param]


@pytest.fixture
def link10():
    return LinkSNR(10.0)


def ks_statistic(sorted_draws: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact two-sided KS distance between an ECDF and a continuous CDF."""
    n = len(sorted_draws)
    i = np.arange(1, n + 1)
    return max(
        float(np.max(i / n - cdf_values)),
        float(np.max(cdf_values - (i - 1) / n)),
    )


def quad_upper(p, link) -> float:
    """Upper limit for scipy quadratures of the SNR density: 50 times the
    larger of eta and the mixture's Gamma scale eta / (beta - delta)."""
    drv = channel.derive(p)
    return 50.0 * max(link.eta, link.eta / (drv.beta - drv.delta))
