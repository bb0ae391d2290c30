"""Execution-time model for each (domain, FFT size) pair.

The calibrated table is the model of record (values measured on the real
device; APU figures are the mean of 20 runs, bracketed figures were taken
through dedicated offline measurements).  Live wall-clock measurement of
the software FFT is reported alongside, never substituted into decisions:
desk hardware is not an ARM A53, so absolute numbers only reproduce as
model constants.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import fft_engines
from .fft_engines import APU, PL

# (domain, points) -> exec time in microseconds, calibrated on the reference device
DEFAULT_TIMING_PROFILE = {
    (APU, 8): 0.28,
    (APU, 1024): 50.62,
    (APU, 2048): 113.55,
    (APU, 4096): 278.72,
    (PL, 8): 0.04,
    (PL, 1024): 5.45,
    (PL, 2048): 8.7,
    (PL, 4096): 18.07,
}

# entries not taken from the live real-time system
TABLE_EXTRACTED = {(APU, 2048), (APU, 4096), (PL, 8), (PL, 1024)}

# acceleration factors as printed in the calibration source; the 8-point
# figure is inconsistent with its own row (0.28/0.04 = 7.0) and is kept
# only so renderers can flag the discrepancy
PRINTED_ACCELERATION = {8: 7.9, 1024: 9.3, 2048: 13.1, 4096: 15.4}


@dataclass(frozen=True)
class TimingEntry:
    exec_time_us: float
    provenance: str  # table-measured | table-extracted | live-measured
    spread_us: tuple[float, float] | None = None  # (min, max) for live measurements


class TimingModel:
    """Table-backed timing lookups plus live measurement of the software FFT.

    `jitter_pct` > 0 enables seeded uniform jitter around the APU table mean
    in sample_exec_time (scenario realism only; lookup stays pure).  The
    table is read-only after construction.
    """

    def __init__(self, profile: dict | None = None, jitter_pct: float = 0.0,
                 seed: int | None = None):
        self.profile = MappingProxyType(
            dict(DEFAULT_TIMING_PROFILE if profile is None else profile))
        self.jitter_pct = jitter_pct
        self._rng = random.Random(seed)

    def calibrated_sizes(self, domain: str) -> list[int]:
        return sorted(p for d, p in self.profile if d == domain)

    def lookup_exec_time(self, domain: str, points: int) -> TimingEntry:
        key = (domain, points)
        if key in self.profile:
            prov = "table-extracted" if key in TABLE_EXTRACTED else "table-measured"
            return TimingEntry(self.profile[key], prov)
        raise KeyError(f"no calibrated timing for {domain} at {points} points")

    def acceleration_factor(self, points: int) -> float:
        apu = self.lookup_exec_time(APU, points)
        pl = self.lookup_exec_time(PL, points)
        return apu.exec_time_us / pl.exec_time_us

    def sample_exec_time(self, domain: str, points: int) -> float:
        """Table value, with optional seeded uniform jitter on the APU side."""
        try:
            exec_us = self.profile[(domain, points)]
        except KeyError:
            raise KeyError(
                f"no calibrated timing for {domain} at {points} points") from None
        if domain == APU and self.jitter_pct > 0:
            factor = 1.0 + self._rng.uniform(-self.jitter_pct, self.jitter_pct)
            return exec_us * factor
        return exec_us

    def measure_exec_time(self, points: int, runs: int = 20,
                          seed: int | None = None) -> TimingEntry:
        """Run the software FFT `runs` times and average wall-clock durations.

        Requires exclusive use of this model instance while measuring so
        concurrent measurements do not skew each other.
        """
        if runs < 1:
            raise ValueError("runs must be >= 1")
        rng = np.random.default_rng(seed)
        durations = []
        for _ in range(runs):
            x = (rng.uniform(-0.5, 0.5, points) + 1j * rng.uniform(-0.5, 0.5, points))
            t0 = time.perf_counter()
            fft_engines.fft_float(x)
            durations.append((time.perf_counter() - t0) * 1e6)
        return TimingEntry(float(np.mean(durations)), "live-measured",
                           (min(durations), max(durations)))
