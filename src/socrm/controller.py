"""Decision core of the resource management layer.

Maps face-count events to target FFT configurations, classifies the
reconfiguration action (scale, migrate, both, or no-op), applies modeled
reconfiguration overhead and maintains the deployed function state.  Each
applied decision also executes one FFT of the new configuration on a
synthetic input block (float path on APU, fixed-point path on PL) and
returns an execution report with the new state, the action, the event,
the modeled timing and, on PL, the MSE against the floating-point
reference.  The report is the decision's one record.  Reports carry no
power: telemetry and the run summary look it up in the `PowerModel`.

`RULES` and `decide` are the one statement of the face-count rule and
`plan_action` of the action between two configurations.  A `Controller`
applies them once, at construction: it builds one row per configuration,
under the mechanism it is given, that maps each face count `RULES` has a
key for to the action toward that count's target.  An event then costs one
lookup in the current row; only an action that is not a NoOp is applied,
and it switches to its target's row.  A count the rows have no key for goes
through `decide` first, so a negative count raises `decide`'s ValueError
before any state changes or any value is drawn, and a count above the last
rule takes that rule's action.

Each controller keeps one input buffer per transform size and fills every
input block into it, so a block lives only until the next event of the same
size overwrites it.  Every block is copied out of one pool of draws, each
minus 0.5, that holds the random stream's unread draws; a block the pool
cannot hold draws the rest right after them, so the stream is read in order.
Nothing outlives a block: each FFT returns a fresh array and `quantize`
scales into a new one, so reports hold no view of it.  The per-event
records, `FaceEvent` and `ExecutionReport`, are immutable named tuples.

The controller checks its input values where it makes them, not in every
FFT call: a size once, when its input buffer is made, and each draw once,
right after it is drawn, with `fft_float`'s checks and errors.  So every
value of every block is finite before its FFT, and both FFTs call
`fft_engines.transform` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fft_engines
from .event_bus import FaceEvent, _new_tuple
from .fft_engines import APU, PL
from .timing_model import TimingModel

CLOCK_GATING = "clock-gating"
PARTIAL_BITSTREAM = "partial-bitstream"
MECHANISMS = (CLOCK_GATING, PARTIAL_BITSTREAM)
PARTIAL_BITSTREAM_OVERHEAD_US = 10_000.0

NO_OP = "NoOp"
SCALE_ONLY = "ScaleOnly"
MIGRATE_ONLY = "MigrateOnly"
MIGRATE_AND_SCALE = "MigrateAndScale"

# rule table: face count -> (domain, points); counts above the last key
# share its configuration
RULES = {0: (APU, 8), 1: (APU, 1024), 2: (PL, 2048), 3: (PL, 4096)}

INITIAL_CONFIG = RULES[0]  # boot in the zero-faces configuration
_LAST_RULE = max(RULES)

# draws a controller refills its pool with (8 KiB), when a block of at most
# POOL_SIZE / 2 points finds it empty
POOL_SIZE = 1024
_MAX_POINTS = max(points for _, points in RULES.values())


@dataclass(frozen=True)
class FunctionState:
    domain: str
    points: int
    generation: int

    @property
    def pl_clock_gated(self) -> bool:
        return self.domain == APU

    @property
    def config(self) -> tuple[str, int]:
        return (self.domain, self.points)


def initial_state() -> FunctionState:
    domain, points = INITIAL_CONFIG
    return FunctionState(domain, points, generation=0)


@dataclass(frozen=True)
class ReconfigAction:
    kind: str
    from_config: tuple[str, int]
    to_config: tuple[str, int]
    overhead_us: float


class ExecutionReport(NamedTuple):
    state: FunctionState
    action: ReconfigAction
    event: FaceEvent
    exec_time_us: float
    mse: float | None  # float-vs-fixed comparison; only when executing on PL


def decide(faces: int) -> tuple[str, int]:
    """Total rule map from face count to target configuration."""
    if faces < 0:
        raise ValueError("face count must be non-negative")
    return RULES[min(faces, _LAST_RULE)]


def plan_action(current: FunctionState, target: tuple[str, int],
                mechanism: str = CLOCK_GATING) -> ReconfigAction:
    """The action from `current` to `target` under `mechanism`."""
    frm, target = current.config, tuple(target)
    if frm == target:
        return ReconfigAction(NO_OP, frm, target, 0.0)
    migrate = frm[0] != target[0]
    scale = frm[1] != target[1]
    if migrate and scale:
        kind = MIGRATE_AND_SCALE
    elif migrate:
        kind = MIGRATE_ONLY
    else:
        kind = SCALE_ONLY
    overhead = 0.0
    if mechanism == PARTIAL_BITSTREAM and migrate and target[0] == PL:
        overhead = PARTIAL_BITSTREAM_OVERHEAD_US
    return ReconfigAction(kind, frm, target, overhead)


def apply_action(current: FunctionState, action: ReconfigAction) -> FunctionState:
    if action.from_config != current.config:
        raise RuntimeError(
            f"action planned from {action.from_config} but state is {current.config}")
    if action.kind == NO_OP:
        return current
    domain, points = action.to_config
    return FunctionState(domain, points, generation=current.generation + 1)


class Controller:
    """Single-writer state machine driven by face-count events.

    Events must be fed one at a time (serialize through a FIFO upstream);
    reports are immutable snapshots safe to hand to other threads.

    `_rows` holds its transitions, one row per configuration built here
    under `mechanism` (see the module docstring), and `_row` is the current
    configuration's.  Each entry is the action `plan_action` returns, and
    every event takes its action from the rows.
    """

    def __init__(self, timing: TimingModel | None = None,
                 mechanism: str = CLOCK_GATING, seed: int = 0):
        self.timing = timing if timing is not None else TimingModel()
        self._rng = np.random.default_rng(seed)
        self._state = initial_state()
        self._rows = {
            config: {faces: plan_action(FunctionState(*config, generation=0),
                                        decide(faces), mechanism)
                     for faces in RULES}
            for config in RULES.values()}
        self._row = self._rows[self._state.config]
        # the stream's unread draws, each minus 0.5, at _pool[_pooled:POOL_SIZE]
        # (none when _pooled == POOL_SIZE), then room for the rest of the
        # largest block
        self._pool = np.empty(POOL_SIZE + 2 * _MAX_POINTS)
        self._pooled = POOL_SIZE
        self._inputs: dict[int, np.ndarray] = {}
        # (points, _pooled) -> the views that block reads and writes, the
        # slice to draw into first (None for a copy) and the next _pooled
        self._blocks: dict[tuple[int, int], tuple] = {}

    def process_event(self, event: FaceEvent) -> ExecutionReport:
        """Look the action up in the current row, apply it unless it is a
        NoOp, then execute one FFT of the new config and return its report.

        Runs in one frame, with the execution inline: at an APU 8 event's
        few microseconds, a second call is a measurable share."""
        action = self._row.get(event.faces)
        if action is None:  # negative (decide raises) or above the last rule
            decide(event.faces)
            action = self._row[_LAST_RULE]
        if action.kind != NO_OP:
            self._state = apply_action(self._state, action)
            self._row = self._rows[action.to_config]
        state = self._state
        n = state.points
        # synthetic stand-in for the DDR-played-back input signal, bit-identical
        # to uniform(-0.5, 0.5, n) + 1j * uniform(-0.5, 0.5, n), which computes
        # -0.5 + 1.0 * u and reads the stream in the same order: the first n
        # draws are the real parts and the next n the imaginary parts.  u - 0.5
        # is exact for every u = k * 2^-53 in [0, 1).
        start = self._pooled
        block = self._blocks.get((n, start))
        if block is None:
            block = self._blocks[n, start] = self._block(n, start)
        x, real, imag, re, im, fresh, pooled = block
        if fresh is not None:
            self._rng.random(out=fresh)
            fft_engines.check_finite(fresh)
            np.subtract(fresh, 0.5, out=fresh)
        real[...] = re
        imag[...] = im
        # advanced only now, so draws that failed the check are never read
        self._pooled = pooled
        reference = fft_engines.transform(x)
        error = None
        if state.domain == PL:
            fixed_out = fft_engines.fft_fixed(fft_engines.quantize(x))
            scaled = fft_engines.dequantize(fixed_out) * n
            error = fft_engines.mse(reference, scaled)
        exec_time = self.timing.sample_exec_time(state.domain, n)
        return _new_tuple(ExecutionReport, (state, action, event, exec_time, error))

    def _block(self, n: int, start: int) -> tuple:
        x = self._inputs.get(n)
        if x is None:
            fft_engines.check_size(n)
            x = self._inputs[n] = np.empty(n, dtype=np.complex128)
        need = 2 * n
        if start + need <= POOL_SIZE:  # the unread draws hold the block
            at, fresh, pooled = start, None, start + need
        elif start == POOL_SIZE and need <= POOL_SIZE:  # refill the empty pool
            at, fresh, pooled = 0, self._pool[:POOL_SIZE], need
        else:  # the unread draws, then fresh ones right after them
            at, fresh, pooled = start, self._pool[POOL_SIZE:start + need], POOL_SIZE
        source = self._pool[at:at + need]
        return x, x.real, x.imag, source[:n], source[n:], fresh, pooled
