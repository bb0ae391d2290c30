"""Command-line entry point.

Subcommands:
  run     drive the controller from a replayed trace or a live socket,
          print the end-of-run summary and write telemetry when the run ends
  tables  render the calibration tables (timing, power, latency budget)
          from the live models
  verify  run the invariant self-checks
  emit    send face-count events to a running server

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import logging
import sys

from . import __version__, controller, event_bus, latency_budget, telemetry, verify
from .fft_engines import APU, PL
from .profiles import ConfigError, models_from_profile, read_json_object
from .timing_model import PRINTED_ACCELERATION

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3

DEMO_TRACE = [(0, 0), (1000, 1), (1000, 2), (1000, 3)]

logger = logging.getLogger(__name__)


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"address must be host:port with a port in 0-65535, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_trace(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, list) and len(entry) == 2 and all(map(event_bus.is_field, entry))
        for entry in value)


# run field -> (default, validity test, what a valid value is), checked in
# this order; a scenario may set any of them, and a flag overrides it
RUN_FIELDS = {
    "mechanism": (controller.CLOCK_GATING, lambda v: v in controller.MECHANISMS,
                  " or ".join(controller.MECHANISMS)),
    "seed": (0, lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    # a jitter fraction of 1 or more can make a sampled APU time negative
    "jitter": (0.0, lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "max_events": (None, lambda v: v is None or (_is_int(v) and v >= 1),
                   "an integer >= 1 or null"),
    # an int beyond the largest float would overflow the server's deadline
    "idle_timeout": (5.0, lambda v: _is_number(v) and 0 < v <= sys.float_info.max,
                     "a finite number > 0"),
    "fast_forward": (True, lambda v: isinstance(v, bool), "true or false"),
    "trace": (None, lambda v: v is None or _is_trace(v),
              f"a list of [delay_us, faces] pairs of integers in [0, {event_bus.MAX_FIELD}]"),
    **{key: (None, lambda v: v is None or (isinstance(v, str) and v != ""),
             "a non-empty string or null") for key in (
        "trace_path", "listen", "telemetry_file", "telemetry_socket", "profile")},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socrm", description="FPGA SoC resource management layer simulator")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("config", nargs="?", help="scenario JSON file")
    p_run.add_argument("--trace", dest="trace_path", metavar="TRACE",
                       help="trace file (delay_us faces per line)")
    p_run.add_argument("--listen", help="host:port to accept live events on")
    p_run.add_argument("--mechanism", choices=controller.MECHANISMS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--jitter", type=float,
                       help="APU timing jitter fraction, e.g. 0.1")
    pace = p_run.add_mutually_exclusive_group()
    pace.add_argument("--fast-forward", action="store_const", const=True,
                      help="replay without wall-clock delays (default)")
    pace.add_argument("--wall-clock", action="store_const", const=False,
                      dest="fast_forward", help="honor trace delays in real time")
    p_run.add_argument("--telemetry-file")
    p_run.add_argument("--telemetry-socket")
    p_run.add_argument("--profile", help="hardware profile JSON")
    p_run.add_argument("--max-events", type=int,
                       help="stop after this many events")
    p_run.add_argument("--idle-timeout", type=float, help=(
        "live mode: stop after this many idle seconds"
        f" (default {RUN_FIELDS['idle_timeout'][0]:g})"))

    sub.add_parser("tables", help="render the calibration tables")

    sub.add_parser("verify", help="run the invariant self-checks")

    p_emit = sub.add_parser("emit", help="send events to a running server")
    p_emit.add_argument("--target", required=True, help="host:port")
    p_emit.add_argument("--faces", type=int, required=True, action="append",
                        help="face count; repeatable")
    return parser


def _merge_run_config(args) -> dict:
    cfg = {key: default for key, (default, _, _) in RUN_FIELDS.items()}
    if args.config:
        scenario = read_json_object(args.config, "scenario")
        unknown = set(scenario) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        cfg.update(scenario)
    # a flag left out is None
    cfg.update((key, value) for key, value in vars(args).items()
               if key in RUN_FIELDS and value is not None)
    if cfg["listen"] and (cfg["trace"] is not None or cfg["trace_path"] is not None):
        raise ConfigError("choose either a trace or a listen address, not both")
    for key, (_, valid, expected) in RUN_FIELDS.items():
        if not valid(cfg[key]):
            raise ConfigError(f"{key} must be {expected}, got {cfg[key]!r}")
    return cfg


def _event_source(cfg):
    if cfg["listen"]:
        address = _parse_address(cfg["listen"])
        server = event_bus.EventServer(*address).start()
        sys.stdout.write(f"listening on {server.address[0]}:{server.address[1]}\n")
        return server.events(timeout=cfg["idle_timeout"]), server
    if cfg["trace_path"]:
        try:
            trace = event_bus.load_trace(cfg["trace_path"])
        except ValueError as exc:  # malformed content; a missing file stays OSError
            raise ConfigError(f"trace {cfg['trace_path']}: {exc}") from exc
    elif cfg["trace"] is not None:
        trace = [tuple(entry) for entry in cfg["trace"]]
    else:
        trace = DEMO_TRACE
    return event_bus.replay(trace, fast_forward=cfg["fast_forward"]), None


def cmd_run(args) -> int:
    cfg = _merge_run_config(args)
    timing, power = models_from_profile(
        cfg["profile"], jitter_pct=cfg["jitter"], seed=cfg["seed"])
    missing = [config for config in controller.RULES.values()
               if config not in timing.profile or config not in power.profile]
    if missing:
        raise ConfigError(f"profile {cfg['profile']} has no timing or power for {missing}")
    sinks = []
    if cfg["telemetry_file"]:
        sinks.append(("file", telemetry.export_to_file, cfg["telemetry_file"]))
    if cfg["telemetry_socket"]:
        sinks.append(("socket", telemetry.export_to_socket,
                      _parse_address(cfg["telemetry_socket"])))
    ctrl = controller.Controller(timing, mechanism=cfg["mechanism"], seed=cfg["seed"])
    events, server = _event_source(cfg)
    if cfg["max_events"] is not None:
        events = itertools.islice(events, cfg["max_events"])

    reports: list[controller.ExecutionReport] = []
    # The loop makes no reference cycles: what it allocates is either kept for
    # the summary or freed by reference counting.  The cyclic collector would
    # only rescan the growing report list, a full collection on 10,000 events
    # pausing a decision for 16-20 ms, so it is held off until the loop ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for event in events:
            reports.append(ctrl.process_event(event)[2])
    except KeyboardInterrupt:
        sys.stdout.write("interrupted; draining\n")
    finally:
        if collecting:
            gc.enable()
        if server is not None:
            server.stop()

    # each sink is tried on its own, over records derived from the reports;
    # a failed one still reports what it delivered
    delivered, failures = [], []
    for sink, export, target in sinks:
        samples = (telemetry.take_sample(r.state, power, r, r.event.timestamp_us)
                   for r in reports)
        try:
            delivered.append((sink, export(samples, target)))
        except telemetry.ExportError as exc:
            delivered.append((sink, exc.delivered))
            failures.append(exc)

    _write_summary(reports, power, delivered, server)
    for exc in failures:
        print(f"runtime error: {exc}", file=sys.stderr)
    return EXIT_RUNTIME_ERROR if failures else EXIT_OK


def _write_summary(reports, power, delivered, server):
    # One pass over the reports.  A report's dwell is the time to the next
    # event, or 0 when that comes earlier (two emitters' clocks interleave)
    # or there is none.  `dwell` keeps first-appearance order, which is the
    # order energy_mj sums in.
    out = sys.stdout
    out.write("== action log ==\n")
    dwell: dict = {}
    reconfigurations = 0
    prev = None
    for r in reports:
        event, a = r.event, r.action
        if prev is not None:
            key = prev.state.config
            dwell[key] = dwell.get(key, 0) + max(0, event.timestamp_us - prev.event.timestamp_us)
        line = (f"event seq={event.seq} faces={event.faces} t={event.timestamp_us}us"
                f" -> {a.kind} {a.from_config} -> {a.to_config}"
                f" overhead={a.overhead_us:.0f}us")
        if r.mse is not None:
            line += f" mse={r.mse:.3e}"
        out.write(line + "\n")
        if a.kind != controller.NO_OP:
            reconfigurations += 1
        prev = r
    if prev is not None:
        dwell.setdefault(prev.state.config, 0)

    out.write("== dwell / energy ==\n")
    for (domain, points), us in sorted(dwell.items(), key=lambda kv: kv[0][1]):
        mw = power.power_breakdown(domain, points).total_mw
        out.write(f"({domain}, {points}): dwell {us} us @ {mw:.0f} mW\n")
    out.write(f"energy estimate: {telemetry.energy_mj(dwell, power):.3f} mJ\n")

    out.write("== totals ==\n")
    out.write(f"events processed: {len(reports)}\n")
    out.write(f"reconfigurations applied: {reconfigurations}\n")
    if prev is not None:
        out.write(f"final state: {prev.state.config} gen={prev.state.generation}\n")
    for sink, count in delivered:
        out.write(f"telemetry delivered ({sink}): {count}\n")
    if server is not None:
        out.write(f"malformed lines: {server.malformed_count}, "
                  f"dropped events: {server.dropped_count}\n")


def _render_table1(timing):
    out = sys.stdout
    out.write("Table: APU vs PL FFT execution time\n")
    out.write(f"{'FFT points':>10}  {'APU (us)':>10}  {'PL (us)':>10}  Acceleration\n")
    for n in timing.calibrated_sizes(APU):
        apu = timing.lookup_exec_time(APU, n)
        pl = timing.lookup_exec_time(PL, n)
        factor = timing.acceleration_factor(n)
        apu_s = f"({apu.exec_time_us:g})" if apu.provenance == "table-extracted" else f"{apu.exec_time_us:g}"
        pl_s = f"({pl.exec_time_us:g})" if pl.provenance == "table-extracted" else f"{pl.exec_time_us:g}"
        printed = PRINTED_ACCELERATION.get(n)
        note = ""
        if printed is not None and abs(factor - printed) > 0.05:
            note = f"  [calibration source prints {printed}; computed ratio kept]"
        out.write(f"{n:>10}  {apu_s:>10}  {pl_s:>10}  {factor:.2f}{note}\n")


def _render_table2(power):
    out = sys.stdout
    out.write("\nTable: DDR/APU/PL power breakdown per configuration (mW)\n")
    out.write(f"{'FFT points':>10}  {'DDR':>7}  {'APU':>7}  {'PL':>7}  {'Total':>7}\n")
    for domain, points in power.configurations():
        b = power.power_breakdown(domain, points)
        apu_s = f"({b.apu_mw:g})" if APU in b.static_rails else f"{b.apu_mw:g}"
        pl_s = f"({b.pl_mw:g})" if PL in b.static_rails else f"{b.pl_mw:g}"
        out.write(f"{points:>10}  {b.ddr_mw:>7g}  {apu_s:>7}  {pl_s:>7}  {b.total_mw:>7g}\n")
    out.write("(brackets: static power of the rail not hosting the function)\n")


def cmd_tables() -> int:
    timing, power = models_from_profile(None)
    _render_table1(timing)
    _render_table2(power)
    sys.stdout.write("\nTable: iFFT offload latency budget\n")
    report = latency_budget.default_offload_budget()
    sys.stdout.write(report.render() + "\n")
    return EXIT_OK


def cmd_verify() -> int:
    out = sys.stdout
    results = verify.run_checks()
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        out.write(f"[{status}] {name}: {detail}\n")
        failed += 0 if passed else 1
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_emit(args) -> int:
    address = _parse_address(args.target)
    bad = [faces for faces in args.faces if not event_bus.is_field(faces)]
    if bad:  # checked before connecting, so a bad list sends nothing
        raise ConfigError(f"face counts must be in [0, {event_bus.MAX_FIELD}], got {bad}")
    with event_bus.Emitter(address) as emitter:
        for faces in args.faces:
            event = emitter.emit(faces)
            sys.stdout.write(f"sent seq={event.seq} faces={event.faces}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "tables":
            return cmd_tables()
        if args.command == "verify":
            return cmd_verify()
        if args.command == "emit":
            return cmd_emit(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except event_bus.TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
