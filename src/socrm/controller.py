"""Decision core of the resource management layer.

Maps face-count events to target FFT configurations, classifies the
reconfiguration action (scale, migrate, both, or no-op), applies modeled
reconfiguration overhead and maintains the deployed function state.  Each
applied decision also executes one FFT of the new configuration on a
synthetic input block (float path on APU, fixed-point path on PL) and
returns an execution report with modeled timing and, on PL, the MSE
against the floating-point reference.  Reports carry no power: telemetry
and the run summary look it up in the `PowerModel`.

Each controller keeps one input buffer per transform size and fills every
input block into it, so a block lives only until the next event of the same
size overwrites it.  Small blocks are copied out of a pool of pre-shifted
draws that the controller refills `POOL_SIZE` at a time; a larger block
draws the rest of its values right after the pool's unread raw draws and
shifts them all in one call, so the random stream is read in the same order
either way.  Nothing outlives a block: each FFT returns a fresh array and
`quantize` scales into a new one, so reports hold no view of it.  The
per-event records, `FaceEvent` and `ExecutionReport`, are immutable named
tuples.

The controller checks its input values where it makes them, not in every
FFT call: a size once, when its input buffer is made, and each draw once, at
the pool's refill or, for a large block's fresh draws, right after they are
drawn, with `fft_float`'s checks and errors.  So every value of every block
is finite before its FFT, and both FFTs call `fft_engines.transform` directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fft_engines
from .event_bus import FaceEvent
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

# doubles in a controller's pool of input draws (8 KiB).  Blocks of fewer
# than POOL_SIZE / 2 points (up to 256) are copied out of the pool; larger
# ones are shifted by the subtract ufunc, which beats a strided copy from 512
# points up.
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
    event: FaceEvent
    state: FunctionState
    action: ReconfigAction
    exec_time_us: float
    mse: float | None  # float-vs-fixed comparison; only when executing on PL


def decide(faces: int) -> tuple[str, int]:
    """Total rule map from face count to target configuration."""
    if faces < 0:
        raise ValueError("face count must be non-negative")
    return RULES[min(faces, _LAST_RULE)]


def plan_action(current: FunctionState, target: tuple[str, int],
                mechanism: str = CLOCK_GATING) -> ReconfigAction:
    """The action from `current` to `target`; equal inputs share one action."""
    return _plan(current.config, tuple(target), mechanism)


# an action depends only on the two configurations and the mechanism, and is
# immutable, so one object serves every decision with the same inputs
@functools.lru_cache(maxsize=256)
def _plan(frm: tuple[str, int], target: tuple[str, int], mechanism: str) -> ReconfigAction:
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
    """

    def __init__(self, timing: TimingModel | None = None,
                 mechanism: str = CLOCK_GATING, seed: int = 0):
        self.timing = timing if timing is not None else TimingModel()
        self.mechanism = mechanism
        self._rng = np.random.default_rng(seed)
        self._state = initial_state()
        # raw draws: the pool's, then room for the rest of the largest block
        self._draws = np.empty(POOL_SIZE + 2 * _MAX_POINTS)
        # the next POOL_SIZE - _pooled draws of the stream, each minus 0.5
        self._pool = np.empty(POOL_SIZE)
        self._pooled = POOL_SIZE
        self._inputs: dict[int, np.ndarray] = {}
        # (points, pool read position) -> (x, parts, source, fresh): the
        # views one block reads and writes, fresh None for a copy out of
        # the pool
        self._blocks: dict[tuple[int, int], tuple[np.ndarray | None, ...]] = {}

    def process_event(self, event: FaceEvent):
        """decide -> plan -> apply, then execute one FFT of the new config."""
        target = decide(event.faces)
        action = plan_action(self._state, target, self.mechanism)
        self._state = apply_action(self._state, action)
        report = self._execute(event, action)
        return self._state, action, report

    def _execute(self, event: FaceEvent, action: ReconfigAction) -> ExecutionReport:
        state = self._state
        n = state.points
        # synthetic stand-in for the DDR-played-back input signal, bit-identical
        # to uniform(-0.5, 0.5, n) + 1j * uniform(-0.5, 0.5, n), which computes
        # -0.5 + 1.0 * u and reads the stream in the same order: the first n
        # draws are the real parts and the next n the imaginary parts, and
        # `parts` views x's real parts as row 0 and its imaginary parts as
        # row 1.  The pool holds each draw u as u - 0.5, which is exact for
        # every u = k * 2^-53 in [0, 1), and _draws[:POOL_SIZE] keeps the raw
        # u, so a block that does not fit in what is left of the pool draws
        # the rest right after it and one subtract shifts them all.  The
        # block is overwritten at the next event of this size.
        start = self._pooled
        block = self._blocks.get((n, start))
        if block is None:
            x = self._inputs.get(n)
            if x is None:
                fft_engines.check_size(n)
                x = self._inputs[n] = np.empty(n, dtype=np.complex128)
            parts = x.view(np.float64).reshape(n, 2).T
            at = 0 if start == POOL_SIZE else start  # an empty pool is refilled
            if 2 * n < POOL_SIZE and at + 2 * n <= POOL_SIZE:
                block = (x, parts, self._pool[at:at + 2 * n].reshape(2, n), None)
            else:
                end = start + 2 * n
                block = (x, parts, self._draws[start:end].reshape(2, n),
                         self._draws[POOL_SIZE:end])
            self._blocks[n, start] = block
        x, parts, source, fresh = block
        if fresh is None:  # a copy out of the pool
            if start == POOL_SIZE:
                self._rng.random(out=self._draws[:POOL_SIZE])
                np.subtract(self._draws[:POOL_SIZE], 0.5, out=self._pool)
                fft_engines.check_finite(self._pool)
                start = 0
            parts[...] = source
            self._pooled = start + 2 * n
        else:  # the pool's unread draws, if any, then fresh ones
            self._rng.random(out=fresh)
            fft_engines.check_finite(fresh)  # the pool's were checked at its refill
            np.subtract(source, 0.5, out=parts)
            self._pooled = POOL_SIZE
        error = None
        if state.domain == PL:
            fixed_out = fft_engines.fft_fixed(fft_engines.quantize(x))
            reference = fft_engines.transform(x)
            scaled = fft_engines.dequantize(fixed_out) * n
            error = fft_engines.mse(reference, scaled)
        else:
            fft_engines.transform(x)
        exec_time = self.timing.sample_exec_time(state.domain, n)
        return ExecutionReport(event, state, action, exec_time, error)

