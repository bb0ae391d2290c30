"""Per-rail power model (DDR / APU / PL) of the device.

Power is a pure lookup of the deployed (domain, points) configuration;
the rail not hosting the FFT sits at its clock-gated static value.
Transition transients are not modeled: power switches step-wise at
reconfiguration completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .fft_engines import APU, PL

# (domain, points) -> (ddr_mw, apu_mw, pl_mw); the non-hosting rail is at its
# static power (APU 2024, PL 1187), which has no other home
DEFAULT_POWER_PROFILE = {
    (APU, 8): (425.0, 2064.0, 1187.0),
    (APU, 1024): (537.0, 2224.0, 1187.0),
    (PL, 2048): (965.0, 2024.0, 1365.0),
    (PL, 4096): (1358.0, 2024.0, 1584.0),
}


@dataclass(frozen=True)
class PowerBreakdown:
    ddr_mw: float
    apu_mw: float
    pl_mw: float
    total_mw: float
    static_rails: frozenset[str]


class PowerModel:
    """Read-only power table; every row is built once, when the model is."""

    def __init__(self, profile: dict | None = None):
        self.profile = MappingProxyType(
            dict(DEFAULT_POWER_PROFILE if profile is None else profile))
        self._rows = {(domain, points): PowerBreakdown(
                          ddr, apu, pl, ddr + apu + pl,
                          frozenset({PL} if domain == APU else {APU}))
                      for (domain, points), (ddr, apu, pl) in self.profile.items()}

    def configurations(self) -> list[tuple[str, int]]:
        return sorted(self.profile, key=lambda k: k[1])

    def power_breakdown(self, domain: str, points: int) -> PowerBreakdown:
        try:
            return self._rows[(domain, points)]
        except KeyError:
            raise KeyError(
                f"no calibrated power row for ({domain}, {points})") from None
