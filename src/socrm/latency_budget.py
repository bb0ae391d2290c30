"""5G NR low-PHY numerology and iFFT-offload latency budget analysis.

Derives slot/symbol timing and the standard FFT size for an (SCS,
bandwidth) pair, computes DMA transfer latencies from byte counts and
throughput, and assembles the itemized reference offload budget with
feasibility verdicts against the OFDM symbol deadline (and the stricter
20 us target that leaves headroom for the rest of the low-PHY chain).
"""

from __future__ import annotations

from dataclasses import dataclass

IDEAL_DEADLINE_US = 20.0
SYMBOLS_PER_SLOT = 14  # normal cyclic prefix

# latency targets (upper bounds) of the reference budget, in us
TARGET_STEPS = (
    ("PL -> OCM (freq symbols)", 5.0, "transfer"),
    ("APU iFFT (FFTW)", 10.0, "compute"),
    ("OCM -> PL (time samples)", 5.0, "transfer"),
    ("Interrupts", 1.0, "signaling"),
)

# (scs_khz, bandwidth_mhz) -> standard FFT size.  The (30, 20) entry is the
# calibrated reference configuration; the rest are standard-derived
# convenience data for common FR1/FR2 pairs.
STANDARD_FFT_SIZES = {
    (15, 5): 512,
    (15, 10): 1024,
    (15, 20): 2048,
    (30, 10): 512,
    (30, 20): 1024,
    (30, 40): 2048,
    (30, 50): 2048,
    (30, 100): 4096,
    (60, 20): 512,
    (60, 40): 1024,
    (60, 100): 2048,
    (120, 100): 1024,
}

VALID_SCS_KHZ = (15, 30, 60, 120)


@dataclass(frozen=True)
class NumerologyConfig:
    scs_khz: int
    bandwidth_mhz: int
    fft_points: int
    slot_us: float
    symbol_us: float  # average symbol duration incl. CP, rounded to 0.1 us


def derive_numerology(scs_khz: int, bandwidth_mhz: int) -> NumerologyConfig:
    if scs_khz not in VALID_SCS_KHZ:
        raise ValueError(f"unsupported subcarrier spacing {scs_khz} kHz")
    try:
        fft_points = STANDARD_FFT_SIZES[(scs_khz, bandwidth_mhz)]
    except KeyError:
        raise ValueError(
            f"no standard FFT size for {scs_khz} kHz / {bandwidth_mhz} MHz") from None
    slot_us = 1000.0 / (scs_khz / 15)
    return NumerologyConfig(scs_khz, bandwidth_mhz, fft_points, slot_us,
                            round(slot_us / SYMBOLS_PER_SLOT, 1))


def dma_transfer_latency(nbytes: float, throughput_bytes_per_s: float) -> float:
    """Transfer latency in microseconds for `nbytes` at the given rate."""
    if nbytes <= 0:
        raise ValueError("byte count must be positive")
    if throughput_bytes_per_s <= 0:
        raise ValueError("throughput must be positive")
    return nbytes / throughput_bytes_per_s * 1e6


@dataclass(frozen=True)
class BudgetStep:
    name: str
    latency_us: float
    kind: str  # transfer | compute | signaling


@dataclass(frozen=True)
class BudgetReport:
    steps: tuple[BudgetStep, ...]
    total_us: float
    deadline_us: float
    margin_us: float
    feasible: bool
    ideal_feasible: bool

    def render(self) -> str:
        width = max(len(s.name) for s in self.steps) + 2
        lines = [f"{'Step':<{width}}{'Latency (us)':>14}  Kind"]
        for s in self.steps:
            lines.append(f"{s.name:<{width}}{s.latency_us:>14.2f}  {s.kind}")
        lines.append(f"{'Total':<{width}}{self.total_us:>14.2f}")
        lines.append(f"Deadline: {self.deadline_us:.1f} us   "
                     f"Margin: {self.margin_us:.2f} us   "
                     f"Feasible: {self.feasible}   "
                     f"Ideal (<= {IDEAL_DEADLINE_US:.0f} us): {self.ideal_feasible}")
        return "\n".join(lines)


def default_offload_budget(numerology: NumerologyConfig | None = None) -> BudgetReport:
    """The reference budget built from the latency targets (5, 10, 5, 1)."""
    if numerology is None:
        numerology = derive_numerology(30, 20)
    steps = tuple(BudgetStep(name, us, kind) for name, us, kind in TARGET_STEPS)
    total = sum(s.latency_us for s in steps)
    deadline_us = numerology.symbol_us
    return BudgetReport(steps, total, deadline_us, deadline_us - total,
                        feasible=(total <= deadline_us),
                        ideal_feasible=(total <= IDEAL_DEADLINE_US))
