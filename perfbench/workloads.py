"""Seeded inputs for the three benchmark workloads.

Every workload draws its inputs from `random.Random(f"{name}:{seed}")`, so the
same seed always yields the same trace or schedule.  Face counts are drawn as
exact proportions in every block of `window` events and shuffled within the
block, so the mix of FFT configurations (and with it the cost of a run, and of
each measurement window of run.py) does not wander from seed to seed; only the
order does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

CLOCK_GATING = "clock-gating"
PARTIAL_BITSTREAM = "partial-bitstream"


@dataclass(frozen=True)
class Workload:
    name: str
    live: bool               # open loop over loopback; otherwise fast-forward replay
    events: int              # events per fresh-interpreter repetition
    faces_pct: dict          # face count -> share of events, in percent
    mechanism: str
    jitter: float
    sink: str | None         # telemetry sink: None, "file" or "socket"
    window: int              # events per measurement window (run.py, end_to_end); the
                             # live one is the repetition: its rate and queueing need the
                             # whole schedule
    rate_hz: float = 0.0     # offered rate of the live generator


# Why each workload exists, and which layers it loads and bypasses, is
# recorded with it in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="pl-heavy",
        live=False, events=600, faces_pct={0: 5, 1: 5, 2: 30, 3: 50, 4: 10},
        mechanism=PARTIAL_BITSTREAM, jitter=0.0, sink=None, window=100),
    Workload(
        name="apu-churn",
        live=False, events=10000, faces_pct={0: 95, 1: 5},
        mechanism=CLOCK_GATING, jitter=0.1, sink="file", window=200),
    Workload(
        name="live-mixed",
        live=True, events=600, faces_pct={0: 20, 1: 20, 2: 20, 3: 20, 4: 20},
        mechanism=CLOCK_GATING, jitter=0.0, sink="socket", window=600, rate_hz=400.0),
)}


@dataclass(frozen=True)
class Inputs:
    faces: list              # face count of event seq=i+1
    delays_us: list          # replay: trace delays; live: due offsets from the first event
    controller_seed: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    block = []
    for count, pct in sorted(workload.faces_pct.items()):
        block += [count] * round(workload.window * pct / 100)
    assert len(block) == workload.window, "face proportions must sum to 100%"
    assert workload.events % workload.window == 0, "events must fill whole windows"
    faces = []
    for _ in range(workload.events // workload.window):
        rng.shuffle(block)
        faces += block
    if workload.live:
        period_us = round(1e6 / workload.rate_hz)
        delays = [i * period_us for i in range(workload.events)]
    else:
        delays = [0] + [rng.randint(500, 5000) for _ in range(workload.events - 1)]
    return Inputs(faces, delays, rng.randrange(1 << 31))


def write_trace(inputs: Inputs, path) -> None:
    """Trace file in the `delay_us faces` format read by `socrm run --trace`."""
    with open(path, "w", encoding="utf-8") as fh:
        for delay, faces in zip(inputs.delays_us, inputs.faces):
            fh.write(f"{delay} {faces}\n")
