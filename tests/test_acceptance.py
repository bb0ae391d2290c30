"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with -s or read
captured output).  Criterion 6 bounds the Q1.15 FFT deviation by four
output LSBs scaled back by N (4*N*2^-15); its comment gives the derivation.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from socrm import cli, controller, event_bus, fft_engines as fe, latency_budget as lb
from socrm.power_model import PowerModel
from socrm.timing_model import APU, PL, TimingModel


def report(number, title, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {title}")
    assert passed, f"criterion {number} ({title}) failed"


def run_tables():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_tables() == 0
    return out.getvalue()


def test_criterion_1_power_table_reproduction():
    t0 = time.monotonic()
    out = run_tables()
    power = PowerModel()
    expected_rows = {
        (APU, 8): (425, 2064, 1187, 3676),
        (APU, 1024): (537, 2224, 1187, 3948),
        (PL, 2048): (965, 2024, 1365, 4354),
        (PL, 4096): (1358, 2024, 1584, 4966),
    }
    ok = True
    for config, row in expected_rows.items():
        b = power.power_breakdown(*config)
        ok &= (b.ddr_mw, b.apu_mw, b.pl_mw, b.total_mw) == row
        ok &= b.total_mw == b.ddr_mw + b.apu_mw + b.pl_mw
        ok &= all(f"{v:g}" in out for v in row)
    ok &= time.monotonic() - t0 < 1.0
    report(1, "power table reproduced exactly (16 values, additive rows)", ok)


def test_criterion_2_timing_table_reproduction():
    t0 = time.monotonic()
    timing = TimingModel()
    expected = {
        (APU, 8): 0.28, (APU, 1024): 50.62, (APU, 2048): 113.55,
        (APU, 4096): 278.72, (PL, 8): 0.04, (PL, 1024): 5.45,
        (PL, 2048): 8.7, (PL, 4096): 18.07,
    }
    ok = all(timing.lookup_exec_time(d, p).exec_time_us == us
             for (d, p), us in expected.items())
    for n, printed in ((1024, 9.3), (2048, 13.1), (4096, 15.4)):
        ok &= abs(timing.acceleration_factor(n) - printed) <= 0.1
    ok &= abs(timing.acceleration_factor(8) - 7.0) < 1e-9
    out = run_tables()
    ok &= "7.00" in out and "7.9" in out  # discrepancy flagged in rendering
    ok &= time.monotonic() - t0 < 1.0
    report(2, "timing table reproduced; 8-point ratio 7.0 flagged vs printed 7.9", ok)


def test_criterion_3_latency_budget_reproduction():
    t0 = time.monotonic()
    budget = lb.default_offload_budget()
    ok = budget.total_us == 21.0
    ok &= budget.deadline_us == 35.7
    ok &= abs(budget.margin_us - 14.7) < 1e-9
    ok &= budget.feasible is True
    ok &= budget.ideal_feasible is False
    ok &= lb.dma_transfer_latency(8192, 1.6e9) == 5.12
    ok &= time.monotonic() - t0 < 1.0
    report(3, "budget totals 21 us, margin 14.7 us vs 35.7 us; DMA 5.12 us exact", ok)


def test_criterion_4_rule_trace_reproduction():
    t0 = time.monotonic()
    ctrl = controller.Controller(seed=0)
    trace = [(0, 0), (1000, 1), (1000, 2), (1000, 3)]
    states, actions = [], []
    for event in event_bus.replay(trace, fast_forward=True):
        state, action, _ = ctrl.process_event(event)
        states.append(state)
        actions.append(action)
    ok = [s.config for s in states] == [
        (APU, 8), (APU, 1024), (PL, 2048), (PL, 4096)]
    migrations = [a for a in actions if a.kind in
                  (controller.MIGRATE_ONLY, controller.MIGRATE_AND_SCALE)]
    ok &= len(migrations) == 1
    ok &= migrations[0].from_config == (APU, 1024)
    ok &= [s.pl_clock_gated for s in states] == [True, True, False, False]
    ok &= time.monotonic() - t0 < 1.0
    report(4, "trace [0,1,2,3] hits all four configs with one migration", ok)


def test_criterion_5_fft_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    for n in (8, 16, 64):
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            ok &= np.max(np.abs(fe.fft_float(x) - dft @ x)) < 1e-10
    for n in (8, 1024, 2048, 4096):
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        spectrum = fe.fft_float(x)
        time_e = np.sum(np.abs(x) ** 2)
        ok &= abs(time_e - np.sum(np.abs(spectrum) ** 2) / n) / time_e < 1e-9
        back = fe.ifft_float(spectrum)
        ok &= np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9
    ok &= time.monotonic() - t0 < 30.0
    report(5, "float FFT matches direct DFT; Parseval and round trip hold", ok)


def test_criterion_6_fixed_point_fidelity():
    # Bound: per-bin |N*fft_fixed - fft_float| <= 4*N*2^-15 and mse below
    # that bound squared, i.e. four output LSBs scaled back by N.  The core
    # halves after every stage, so its Q1.15 output holds DFT/N on a 2^-15
    # grid; one LSB scaled back by N is L = N*2^-15, and even the ideal
    # rounding of the exact DFT/N deviates by about 0.7*L per bin.  With
    # scaling at every stage the error stays a few L, so in absolute terms it
    # grows as N, not sqrt(N) (Welch 1969, "A fixed-point fast Fourier
    # transform error analysis").  A 4*sqrt(N)*2^-15 bound is 4/sqrt(N) L,
    # below that floor for N >= 64.  The bound is a literal, independent of
    # the implementation's calibrated fixed_point_error_bound.
    t0 = time.monotonic()
    n = 1024
    lsb = n * 2.0 ** -15
    bound = 4 * n * 2.0 ** -15
    rng = np.random.default_rng(606)
    max_dev = 0.0
    worst_mse = 0.0
    floor_dev = 0.0
    nonzero = True
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        ref = fe.fft_float(x)
        scaled = fe.dequantize(fe.fft_fixed(fe.quantize(x))) * n
        max_dev = max(max_dev, float(np.max(np.abs(ref - scaled))))
        err = fe.mse(ref, scaled)
        worst_mse = max(worst_mse, err)
        nonzero &= err > 0
        ideal = fe.dequantize(fe.quantize(ref / n)) * n
        floor_dev = max(floor_dev, float(np.max(np.abs(ref - ideal))))
    ok = nonzero and max_dev <= bound and worst_mse < bound ** 2
    ok &= time.monotonic() - t0 < 30.0
    print(f"criterion 6 detail (L = N*2^-15 = {lsb:.3e}): max dev "
          f"{max_dev / lsb:.2f} L vs bound 4 L (ideal-rounding floor "
          f"{floor_dev / lsb:.3f} L); worst mse {worst_mse / lsb ** 2:.3f} L^2 "
          f"vs 16 L^2")
    report(6, "fixed-point deviation within 4*N*2^-15 and mse below bound^2", ok)


def test_criterion_7_protocol_robustness():
    t0 = time.monotonic()
    server = event_bus.EventServer("127.0.0.1", 0, capacity=20000).start()
    try:
        rng = np.random.default_rng(7)
        faces_sent = [int(f) for f in rng.integers(0, 100, 10_000)]
        with event_bus.Emitter(server.address) as emitter:
            for faces in faces_sent:
                emitter.emit(faces)
        received = [server.get(timeout=5.0) for _ in range(10_000)]
        ok = all(e is not None for e in received)
        ok &= [e.faces for e in received] == faces_sent
        ok &= [e.seq for e in received] == list(range(1, 10_001))
        # inject malformed traffic; the server must keep serving
        import socket as socketlib
        with socketlib.create_connection(server.address) as sock:
            sock.sendall(b"garbage\n{broken json\n")
            sock.sendall(b'{"faces":-2,"seq":1,"timestamp_us":0}\n')
            sock.sendall(b'{"faces":3,"seq":2,"timestamp_us":1}\n')
        survivor = server.get(timeout=5.0)
        ok &= survivor is not None and survivor.faces == 3
        ok &= server.malformed_count == 3
        ok &= time.monotonic() - t0 < 30.0
    finally:
        server.stop()
    report(7, "10k events lossless and in order; malformed lines counted, skipped", ok)


def test_criterion_8_live_measurement_internal_consistency_only():
    t0 = time.monotonic()
    timing = TimingModel()
    small = timing.measure_exec_time(8, runs=20, seed=0)
    large = timing.measure_exec_time(4096, runs=20, seed=0)
    ok = True
    for entry in (small, large):
        lo, hi = entry.spread_us
        ok &= lo <= entry.exec_time_us <= hi
        ok &= entry.provenance == "live-measured"
    ok &= large.exec_time_us > small.exec_time_us
    # absolute reference-hardware values stay model constants, never
    # compared against desk wall-clock measurements
    ok &= timing.lookup_exec_time(APU, 4096).exec_time_us == 278.72
    ok &= time.monotonic() - t0 < 30.0
    report(8, "live timing validated for internal consistency only", ok)
