"""Self-verification suite aggregating the library's invariant checks.

Each check returns (name, passed, detail); `run_checks` executes all of
them deterministically.  `check_q15_kernel` names the stage loop `fft_fixed`
runs and, when it is the compiled one, compares it bit for bit with the NumPy
loop; `check_fft_float_entry` names the call `transform` ends in and compares
both `fft_float` and `transform`, the call a run makes, bit for bit with
`numpy.fft.fft`; `check_rule_map` also compares every row of a fresh
`Controller`, under both mechanisms, with `plan_action`.
"""

from __future__ import annotations

import numpy as np

from . import controller, fft_engines, latency_budget
from .power_model import PowerModel
from .timing_model import TimingModel


def dft_direct(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) DFT summation; the independent reference."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def check_fft_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for n in (8, 16, 64):
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            err = np.max(np.abs(fft_engines.fft_float(x) - dft_direct(x)))
            worst = max(worst, err)
    return ("fft-oracle-equivalence", worst < 1e-10, f"max abs error {worst:.3e}")


def check_parseval():
    rng = np.random.default_rng(5678)
    worst = 0.0
    for n in (8, 1024, 2048, 4096):
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        time_e = np.sum(np.abs(x) ** 2)
        freq_e = np.sum(np.abs(fft_engines.fft_float(x)) ** 2) / n
        worst = max(worst, abs(time_e - freq_e) / time_e)
    return ("parseval", worst < 1e-9, f"max relative error {worst:.3e}")


def check_round_trip():
    rng = np.random.default_rng(91011)
    worst = 0.0
    for n in (8, 1024, 2048, 4096):
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        back = fft_engines.ifft_float(fft_engines.fft_float(x))
        worst = max(worst, np.max(np.abs(back - x)))
    return ("fft-round-trip", worst < 1e-9, f"max abs error {worst:.3e}")


def check_fft_float_entry():
    rng = np.random.default_rng(181920)
    sizes = (8, 1024, 2048, 4096)
    identical = 0
    for n in sizes:
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        expected = np.fft.fft(x).view(np.uint64)
        identical += (np.array_equal(fft_engines.fft_float(x).view(np.uint64), expected)
                      and np.array_equal(fft_engines.transform(x).view(np.uint64), expected))
    return ("fft-float-entry", identical == len(sizes),
            f"{fft_engines.float_entry()}: {identical}/{len(sizes)} sizes "
            f"(N={', '.join(map(str, sizes))}) bit-identical to numpy.fft.fft "
            "through fft_float and through transform")


def check_fixed_point_bound():
    rng = np.random.default_rng(121314)
    detail = []
    ok = True
    for n in (8, 1024):
        bound = fft_engines.fixed_point_error_bound(n)
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            ref = fft_engines.fft_float(x)
            scaled = fft_engines.dequantize(
                fft_engines.fft_fixed(fft_engines.quantize(x))) * n
            worst = max(worst, np.max(np.abs(ref - scaled)))
        ok = ok and 0.0 < worst <= bound
        detail.append(f"N={n}: max dev {worst:.3e} <= {bound:.3e}")
    return ("fixed-point-error-bound", ok, "; ".join(detail))


def check_q15_kernel():
    if fft_engines.active_kernel() == "numpy":
        return ("q15-kernel", True, "numpy: no compiled kernel, fft_fixed runs the NumPy loop")
    rng = np.random.default_rng(151617)
    blocks = mismatched = 0
    for bits in range(1, 13):
        n = 1 << bits
        plan = fft_engines.get_plan(n)
        alternating = np.where(np.arange(n) % 2 == 0, fft_engines.Q15_MAX, fft_engines.Q15_MIN)
        for re, im in (
            (rng.integers(-32768, 32768, n), rng.integers(-32768, 32768, n)),
            (np.full(n, fft_engines.Q15_MAX), np.full(n, fft_engines.Q15_MAX)),
            (np.full(n, fft_engines.Q15_MIN), np.full(n, fft_engines.Q15_MIN)),
            (alternating, alternating[::-1]),
        ):
            out = fft_engines.fft_fixed(fft_engines.FixedBlock(re, im))
            ref_re, ref_im = fft_engines._stages_numpy(re[plan.bitrev], im[plan.bitrev], plan)
            blocks += 1
            mismatched += not (np.array_equal(out.re, ref_re) and np.array_equal(out.im, ref_im))
    return ("q15-kernel", mismatched == 0,
            f"c (compiled _q15.c): {blocks - mismatched}/{blocks} seeded blocks (N=2..4096) "
            "bit-identical to the NumPy loop")


def rows_match_plan_action(mechanism):
    """A fresh controller has one row per configuration, keyed by the face
    counts of `RULES`, and each entry is the very action `plan_action`
    returns; `process_event` sends every other count through `decide`."""
    rows = controller.Controller(mechanism=mechanism)._rows
    if set(rows) != set(controller.RULES.values()):
        return False
    for config, row in rows.items():
        state = controller.FunctionState(*config, generation=0)
        if set(row) != set(controller.RULES) or not all(
                row[f] is controller.plan_action(state, controller.decide(f), mechanism)
                for f in controller.RULES):
            return False
    return True


def check_rule_map():
    configs = [controller.decide(f) for f in range(0, 64)]
    points = [p for _, p in configs]
    total = all(c in set(controller.RULES.values()) for c in configs)
    monotone = all(a <= b for a, b in zip(points, points[1:]))
    saturates = all(c == controller.RULES[3] for c in configs[3:])
    rows = all(rows_match_plan_action(m) for m in controller.MECHANISMS)
    ok = total and monotone and saturates and rows
    return ("rule-map-totality-monotonicity", ok,
            f"total={total} monotone={monotone} saturates={saturates} rows={rows}")


def check_power_additivity():
    power = PowerModel()
    ok = True
    for domain, points in power.configurations():
        b = power.power_breakdown(domain, points)
        ok = ok and b.total_mw == b.ddr_mw + b.apu_mw + b.pl_mw
    return ("power-additivity", ok, f"{len(power.configurations())} configurations")


def check_budget_arithmetic():
    report = latency_budget.default_offload_budget()
    sum_ok = report.total_us == sum(s.latency_us for s in report.steps)
    margin_ok = report.margin_us + report.total_us == report.deadline_us
    dma_ok = latency_budget.dma_transfer_latency(8192, 1.6e9) == 5.12
    ok = sum_ok and margin_ok and dma_ok and report.feasible and not report.ideal_feasible
    return ("budget-arithmetic", ok,
            f"total {report.total_us} us, margin {report.margin_us:.1f} us")


def check_timing_acceleration():
    timing = TimingModel()
    factors = [timing.acceleration_factor(n) for n in timing.calibrated_sizes(fft_engines.PL)]
    ok = all(f > 1 for f in factors)
    increasing = all(a < b for a, b in zip(factors, factors[1:]))
    return ("timing-acceleration-factors", ok and increasing,
            "factors " + ", ".join(f"{f:.2f}" for f in factors))


ALL_CHECKS = (
    check_fft_oracle,
    check_parseval,
    check_round_trip,
    check_fft_float_entry,
    check_fixed_point_bound,
    check_q15_kernel,
    check_rule_map,
    check_power_additivity,
    check_budget_arithmetic,
    check_timing_acceleration,
)


def run_checks():
    return [check() for check in ALL_CHECKS]
