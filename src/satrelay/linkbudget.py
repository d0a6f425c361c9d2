"""Link budget for the LEO IoT uplink: physical inputs to received SNR.

Ties the abstract transmit-SNR axis of the outage analysis to a concrete
scenario (orbit altitude, carrier frequency, elevation, EIRP, receiver
G/T, sub-carrier bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product

__all__ = [
    "EARTH_RADIUS_KM",
    "LinkBudget",
    "slant_range_km",
    "snr_db",
    "feasible_range",
    "reference_grid",
]

EARTH_RADIUS_KM = 6371.0
SPEED_OF_LIGHT = 299792458.0  # m/s
BOLTZMANN_DBW_HZ_K = -228.6  # 10*log10(k_B)


@dataclass(frozen=True)
class LinkBudget:
    """Inputs for one uplink budget; extra_losses_db lumps the margins
    (atmospheric, polarization, implementation) a detailed budget itemizes."""

    altitude_km: float
    frequency_hz: float
    elevation_deg: float
    eirp_dbm: float
    g_over_t_dbk: float
    bandwidth_hz: float
    extra_losses_db: float = 3.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.altitude_km > 0.0:
            raise ValueError("altitude_km must be > 0")
        if not self.frequency_hz > 0.0:
            raise ValueError("frequency_hz must be > 0")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError("elevation_deg must be in (0, 90]")
        if not self.bandwidth_hz > 0.0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.extra_losses_db < 0.0:
            raise ValueError("extra_losses_db must be >= 0")


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    """Ground-to-satellite distance: sqrt((Re+h)^2 - Re^2 cos^2(e)) - Re sin(e)."""
    for name, value in (("altitude_km", altitude_km), ("elevation_deg", elevation_deg)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not altitude_km > 0.0:
        raise ValueError("altitude_km must be > 0")
    if not 0.0 < elevation_deg <= 90.0:
        raise ValueError("elevation_deg must be in (0, 90]")
    e = math.radians(elevation_deg)
    re = EARTH_RADIUS_KM
    return math.sqrt((re + altitude_km) ** 2 - (re * math.cos(e)) ** 2) - re * math.sin(e)


def free_space_path_loss_db(distance_km: float, frequency_hz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * distance_km * 1e3 * frequency_hz / SPEED_OF_LIGHT)


def snr_db(budget: LinkBudget) -> float:
    """Received SNR: EIRP + G/T - 10log10(k_B) - FSPL - 10log10(B) - losses."""
    d = slant_range_km(budget.altitude_km, budget.elevation_deg)
    eirp_dbw = budget.eirp_dbm - 30.0
    return (
        eirp_dbw
        + budget.g_over_t_dbk
        - BOLTZMANN_DBW_HZ_K
        - free_space_path_loss_db(d, budget.frequency_hz)
        - 10.0 * math.log10(budget.bandwidth_hz)
        - budget.extra_losses_db
    )


def feasible_range(budgets: list[LinkBudget]) -> tuple[float, float]:
    """(min, max) received SNR in dB over a grid of budgets."""
    if not budgets:
        raise ValueError("need at least one budget")
    values = [snr_db(b) for b in budgets]
    return min(values), max(values)


def reference_grid(
    altitude_km: float = 800.0,
    frequency_hz: float = 950e6,
    elevation_deg: float = 30.0,
    eirp_dbm: float = 23.0,
    g_over_t_dbk_values: tuple[float, ...] = tuple(range(-25, -5)),
    bandwidth_hz_values: tuple[float, ...] = (3.75e3, 15e3, 45e3, 90e3, 180e3),
    extra_losses_db: float = 3.0,
) -> list[LinkBudget]:
    """Reference uplink scenario: 800 km LEO, 950 MHz, 30 deg elevation,
    23 dBm class-3 node EIRP, receiver G/T from -25 to -6 dB/K, and the
    narrowband sub-carrier bandwidths from 3.75 to 180 kHz."""
    return [
        LinkBudget(
            altitude_km=altitude_km,
            frequency_hz=frequency_hz,
            elevation_deg=elevation_deg,
            eirp_dbm=eirp_dbm,
            g_over_t_dbk=gt,
            bandwidth_hz=bw,
            extra_losses_db=extra_losses_db,
        )
        for gt, bw in product(g_over_t_dbk_values, bandwidth_hz_values)
    ]
