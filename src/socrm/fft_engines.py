"""Both FFT execution domains of the simulated device.

The software ("APU") path runs a library FFT in double precision, as the
device's APU runs FFTW.  `transform` is its one transform call: the pocketfft
gufunc that `numpy.fft.fft` itself ends in (`numpy.fft._pocketfft_umath.fft`,
NumPy >= 2), with the same input and scale, so its output is bit-identical to
`numpy.fft.fft` without that function's per-call argument handling; on NumPy
1.x, which has no such gufunc, it calls `numpy.fft.fft` (`float_entry` names
the one in use).  `numpy.fft.fft` passes the scale as the int 1, which the
gufunc casts to the double 1.0; `transform` passes 1.0 and its output array
positionally, so it skips the cast and the keyword parsing and computes the
same bits.  `fft_float` checks its block and then calls `transform`, which
checks nothing.

The hardware ("PL") path is a numerical emulation of a 16-bit fixed-point
streaming FFT core: Q1.15 samples, radix-2 decimation-in-time, per-stage
scaling by 1/2 so overflow is impossible by construction.  Its bit-reversal
permutation and Q1.15 twiddle factors are precomputed once per size in an
immutable plan.

The core's butterfly stages run as one compiled C function (`_q15.c`, called
through `ctypes`), built with the system C compiler on the first `fft_fixed`
call and cached in the package's `__pycache__`.  Without a compiler, or if the
build fails, they run as the NumPy loop `_stages_numpy`, which is the readable
definition of the core; both give bit-identical output (`active_kernel` names
the one in use).
"""

from __future__ import annotations

import functools
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:
    from numpy.fft._pocketfft_umath import fft as _pocketfft_fft
except ImportError:  # NumPy 1.x
    _pocketfft_fft = None

APU = "APU"  # software domain: the ARM application processing unit
PL = "PL"  # hardware domain: the programmable-logic FFT core

Q15_SCALE = 1 << 15
Q15_MIN = -(1 << 15)
Q15_MAX = (1 << 15) - 1

logger = logging.getLogger(__name__)


def check_size(points):
    """Raise `ValueError` unless `points` is a power of two >= 2."""
    if not isinstance(points, (int, np.integer)) or points < 2 or points & (points - 1):
        raise ValueError(f"FFT size must be a power of two >= 2, got {points!r}")


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@dataclass(frozen=True)
class FftPlan:
    """Precomputed constants for one transform size.

    Plans are immutable after creation and safe to share across concurrent
    transform executions.
    """

    points: int
    bitrev: np.ndarray = field(repr=False)
    twiddles_q15_re: np.ndarray = field(repr=False)
    twiddles_q15_im: np.ndarray = field(repr=False)


@functools.cache
def get_plan(points: int) -> FftPlan:
    """The one plan of each size; an invalid size raises and is not cached."""
    check_size(points)
    k = np.arange(points // 2)
    tw = np.exp(-2j * np.pi * k / points)
    tw_re = np.clip(np.round(tw.real * Q15_SCALE), Q15_MIN, Q15_MAX).astype(np.int64)
    tw_im = np.clip(np.round(tw.imag * Q15_SCALE), Q15_MIN, Q15_MAX).astype(np.int64)
    return FftPlan(points, _bit_reverse_permutation(points), tw_re, tw_im)


def check_finite(a: np.ndarray) -> None:
    """Raise `ValueError` if any value of `a` is NaN or Inf.

    A complex value is finite when both its parts are, and `a` may be strided.
    """
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("input contains NaN or Inf")


def _as_complex_block(x) -> np.ndarray:
    points = len(x)
    check_size(points)
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1 or len(a) != points:
        raise ValueError(f"expected {points} samples, got shape {a.shape}")
    check_finite(a)
    return a


def transform(a: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of `a` into a fresh array.

    Checks nothing: the caller guarantees that `a` is a 1-D complex128 block
    of finite values whose length is a power of two >= 2.  Bit-identical to
    `numpy.fft.fft(a)`: it is the same gufunc call, with the scale factor 1.0,
    the double that `numpy.fft.fft`'s int 1 is cast to.  Scale and output are
    passed positionally, as keyword parsing and the int-to-double cast cost
    more than the arithmetic of a small block.
    """
    if _pocketfft_fft is None:
        return np.fft.fft(a)
    return _pocketfft_fft(a, 1.0, np.empty(len(a), np.complex128))


def fft_float(x) -> np.ndarray:
    """Unnormalized forward DFT, natural-order output, double precision.

    The transform size is the block's length, a power of two >= 2, and every
    value must be finite.  Checks the block and returns `transform` of it.
    """
    return transform(_as_complex_block(x))


def float_entry() -> str:
    """The call `transform` ends in: the pocketfft gufunc or `numpy.fft.fft`."""
    return "numpy.fft.fft" if _pocketfft_fft is None else "pocketfft gufunc"


def ifft_float(x) -> np.ndarray:
    """Inverse DFT with 1/N normalization; inverts fft_float."""
    return np.fft.ifft(_as_complex_block(x))


@dataclass(frozen=True)
class FixedBlock:
    """A block of Q1.15 complex samples (raw int values in [-32768, 32767])."""

    re: np.ndarray
    im: np.ndarray

    def __len__(self):
        return len(self.re)


def quantize(x) -> FixedBlock:
    """Round-to-nearest Q1.15 quantization, ties away from zero, saturating.

    NaN or Inf is a `ValueError`.
    """
    a = np.ascontiguousarray(x, dtype=np.complex128)
    flat = a.view(np.float64)  # re, im interleaved
    check_finite(flat)
    # round half away from zero (np.round would round half to even)
    scaled = flat * Q15_SCALE
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    raw = np.clip(rounded, Q15_MIN, Q15_MAX).astype(np.int64).reshape(*a.shape, 2)
    return FixedBlock(raw[..., 0], raw[..., 1])


def dequantize(block: FixedBlock) -> np.ndarray:
    return (block.re + 1j * block.im) / Q15_SCALE


def _rshift_round(v: np.ndarray, bits: int) -> np.ndarray:
    # arithmetic shift with round-half-up; integer-only, bit-reproducible
    return (v + (1 << (bits - 1))) >> bits


def fft_fixed(block: FixedBlock) -> FixedBlock:
    """Radix-2 fixed-point FFT with per-stage scaling by 1/2.

    The transform size is the length of `block.re`, a power of two >= 2, and
    `block.im` must match it.  Output represents DFT(x)/N in Q1.15.  All
    arithmetic is 64-bit integer, so results are bit-identical across runs and
    platforms, and between the compiled stage loop and the NumPy one
    (`active_kernel`).
    """
    plan = get_plan(len(block))
    n = plan.points
    re = np.asarray(block.re, dtype=np.int64)
    im = np.asarray(block.im, dtype=np.int64)
    if re.shape != (n,) or im.shape != (n,):
        raise ValueError(f"expected {n} samples, got shapes {re.shape} and {im.shape}")
    a_re, a_im = re[plan.bitrev], im[plan.bitrev]
    kernel = _load_kernel()
    if kernel is None:
        a_re, a_im = _stages_numpy(a_re, a_im, plan)
    else:
        # fresh contiguous int64 copies, transformed in place
        kernel(a_re.ctypes.data, a_im.ctypes.data,
               plan.twiddles_q15_re.ctypes.data, plan.twiddles_q15_im.ctypes.data, n)
    return FixedBlock(a_re, a_im)


def _stages_numpy(a_re: np.ndarray, a_im: np.ndarray, plan: FftPlan):
    """The core's butterfly stages on bit-reversed input, then saturation.

    The readable definition of the PL core; `_q15.c` is the same loop compiled.
    """
    n = plan.points
    half = 1
    while half < n:
        stride = n // (2 * half)
        w_re = plan.twiddles_q15_re[::stride][:half]
        w_im = plan.twiddles_q15_im[::stride][:half]
        a_re = a_re.reshape(-1, 2 * half)
        a_im = a_im.reshape(-1, 2 * half)
        top_re, bot_re = a_re[:, :half] << 15, a_re[:, half:]
        top_im, bot_im = a_im[:, :half] << 15, a_im[:, half:]
        # product and halving share one guard-bit accumulator so each
        # butterfly output is rounded exactly once per stage
        t_re = bot_re * w_re - bot_im * w_im
        t_im = bot_re * w_im + bot_im * w_re
        a_re = np.concatenate(
            [_rshift_round(top_re + t_re, 16), _rshift_round(top_re - t_re, 16)], axis=1
        ).reshape(-1)
        a_im = np.concatenate(
            [_rshift_round(top_im + t_im, 16), _rshift_round(top_im - t_im, 16)], axis=1
        ).reshape(-1)
        half *= 2
    # rounding at the extreme can land one LSB past full scale; saturate like hardware
    return np.clip(a_re, Q15_MIN, Q15_MAX), np.clip(a_im, Q15_MIN, Q15_MAX)


_KERNEL_SOURCE = Path(__file__).with_name("_q15.c")
_COMPILE = ("cc", "-O2", "-fwrapv", "-shared", "-fPIC")


@functools.cache
def _load_kernel():
    """The compiled stage loop, built on first use; None if it cannot be built.

    The library is cached next to the package's bytecode, under a name keyed by
    the source and the compile command, and moved into place atomically, so
    concurrent processes may build it at once.  Where that directory is not
    writable it is built in a temporary directory for this process alone.
    """
    import ctypes
    import hashlib
    import subprocess

    if shutil.which(_COMPILE[0]) is None:
        logger.debug("no C compiler; fft_fixed runs the NumPy loop")
        return None
    try:
        digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                                + " ".join(_COMPILE).encode()).hexdigest()
        name = f"_q15-{digest[:16]}.so"
        try:
            path = _KERNEL_SOURCE.parent / "__pycache__" / name
            if not path.is_file():
                path.parent.mkdir(exist_ok=True)
                _compile(path)
            lib = ctypes.CDLL(str(path))
        except OSError:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / name
                _compile(path)
                lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        logger.warning("cannot build the Q1.15 kernel, fft_fixed runs the NumPy loop: %s", exc)
        return None
    kernel = lib.q15_fft
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long]
    kernel.restype = None
    return kernel


def _compile(path: Path) -> None:
    import subprocess

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-o", tmp, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def active_kernel() -> str:
    """The stage loop `fft_fixed` runs: "c" (compiled `_q15.c`) or "numpy"."""
    return "numpy" if _load_kernel() is None else "c"


# Calibrated error model of the fixed-point path, measured against the
# float reference over random inputs bounded in [-0.5, 0.5).  The dominant
# term is the Q1.15 rounding of the DFT/N output and per-stage butterfly
# roundings, all scaled back by N; observed coefficients stay below 5
# (max deviation) and 4.5 (MSE) for N up to 4096, asserted with margin.
FIXED_MAX_DEV_COEFF = 8.0
FIXED_MSE_COEFF = 8.0


def fixed_point_error_bound(points: int) -> float:
    """Calibrated per-bin bound on |N * fft_fixed(x) - fft_float(x)|."""
    return FIXED_MAX_DEV_COEFF * points * 2.0 ** -16


def fixed_point_mse_bound(points: int) -> float:
    """Calibrated bound on mse(fft_float(x), N * fft_fixed(x))."""
    return FIXED_MSE_COEFF * (points * 2.0 ** -16) ** 2


def mse(reference, test) -> float:
    """Mean squared error between two equal-length complex sequences."""
    ref = np.asarray(reference, dtype=np.complex128)
    tst = np.asarray(test, dtype=np.complex128)
    if ref.shape != tst.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {tst.shape}")
    return float(np.mean(np.abs(ref - tst) ** 2))
