"""Runs `socrm.cli.main` once in this fresh interpreter, with the benchmark's probes.

usage: PYTHONPATH=src python3 perfbench/sut.py PROBE_JSON SUMMARY_TXT SPANS_JSONL|- -- RUN_ARGS...

Always installed: a probe around `Controller.process_event` that records, per
event, its `seq`, its `timestamp_us` and the CLOCK_MONOTONIC ns at call and
return; and a hook on `EventServer.start` that prints the bound port on stdout,
so the load generator can connect.  The program's own stdout (the action log
and summary) goes to SUMMARY_TXT.  With a SPANS_JSONL path, the tracer also
wraps the public functions of event_bus, controller, fft_engines,
timing_model, power_model, telemetry and cli, and every `fft_fixed` output is
hashed.  `latency_budget` and `verify` are off the run path and not wrapped.

PROBE_JSON receives the exit code, the peak resident set, the per-event records
and the time `main` returned.  The exit code of `main` is passed through unchanged.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from socrm import cli, controller, event_bus, fft_engines, power_model, telemetry, timing_model

from tracer import Tracer


def install_probe(calls: list) -> None:
    process_event = controller.Controller.process_event

    def probed(self, event):
        start = time.monotonic_ns()
        result = process_event(self, event)
        calls.append((event.seq, event.timestamp_us, start, time.monotonic_ns()))
        return result

    controller.Controller.process_event = probed

    start_server = event_bus.EventServer.start

    def announce(self):
        started = start_server(self)
        sys.__stdout__.write(f"{self.address[1]}\n")
        sys.__stdout__.flush()
        return started

    event_bus.EventServer.start = announce


def install_tracer(tracer: Tracer, fixed_hash) -> None:
    def event_seq(args, result):
        return None if result is None else result.seq

    def event_ts(args, result):
        return None if result is None else result.timestamp_us

    def size(args, result):
        return len(args[0])

    def fixed_output(block):
        # Q1.15 values fit int16 exactly; hashing the narrow form is cheaper
        fixed_hash.update(block.re.astype("<i2").tobytes())
        fixed_hash.update(block.im.astype("<i2").tobytes())

    wrap = tracer.wrap
    wrap(cli, "cmd_run", "cli.cmd_run")
    wrap(event_bus, "load_trace", "event_bus.load_trace")
    wrap(event_bus, "decode_event", "event_bus.decode_event", seq=event_seq, tag=event_ts)
    wrap(event_bus.EventServer, "get", "event_bus.get", seq=event_seq, tag=event_ts)
    tracer.wrap_generator(event_bus, "replay", "event_bus.replay")
    wrap(controller.Controller, "process_event", "controller.process_event",
         seq=lambda args, result: args[1].seq,
         tag=lambda args, result: f"{result[0].domain}{result[0].points}")
    for name in ("decide", "plan_action", "apply_action"):
        wrap(controller, name, f"controller.{name}")
    wrap(fft_engines, "fft_fixed", "fft_engines.fft_fixed", tag=size, after=fixed_output)
    for name in ("fft_float", "quantize", "dequantize", "mse"):
        wrap(fft_engines, name, f"fft_engines.{name}", tag=size)
    wrap(timing_model.TimingModel, "sample_exec_time", "timing_model.sample_exec_time")
    wrap(power_model.PowerModel, "power_breakdown", "power_model.power_breakdown")
    wrap(telemetry, "take_sample", "telemetry.take_sample",
         seq=lambda args, result: args[2].event.seq)
    wrap(telemetry, "render_sample", "telemetry.render_sample")
    for name in ("export_to_file", "export_to_socket"):
        wrap(telemetry, name, f"telemetry.{name}", tag=lambda args, result: result)


def peak_rss_kb() -> int:
    """Peak resident set of this program's own address space, in KiB.

    `ru_maxrss` would also count the benchmark parent's: a child inherits it
    at fork and Linux keeps it across exec, so it grows with the parent's
    memory.  VmHWM belongs to the address space `exec` made.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    probe_path, summary_path, spans_path, sep, *run_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    calls: list = []
    install_probe(calls)
    tracer = fixed_hash = None
    if spans_path != "-":
        tracer, fixed_hash = Tracer(), hashlib.sha256()
        install_tracer(tracer, fixed_hash)

    with open(summary_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            code = cli.main(run_args)
        finally:
            sys.stdout = sys.__stdout__
    main_end = time.monotonic_ns()
    maxrss_kb = peak_rss_kb()

    if tracer is not None:
        tracer.dump(spans_path)
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "maxrss_kb": maxrss_kb, "main_end_ns": main_end,
                   "fixed_sha256": fixed_hash.hexdigest() if fixed_hash else None,
                   "calls": calls}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
