"""Per-layer metrics of a traced benchmark run.

Span metrics come from the traced repetitions only (see tracer.py).  Figures
that need no spans (latency p99, summary time) come from the untraced
repetitions of the same run, which are not slowed by the tracer.  A metric
whose layer a workload never enters (no decode_event on a replay, no PL FFT
on apu-churn) reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict

CONFIGS = ("APU8", "APU1024", "PL2048", "PL4096")

PER_LAYER = {
    "event_bus.decode_event.us_per_call": "us",
    "event_bus.decode_event.calls": "count",
    "event_bus.transport_us_p50": "us",
    "event_bus.transport_us_p90": "us",
    "event_bus.get.wait_us_p50": "us",
    "event_bus.backlog_max": "count",
    "event_bus.dropped": "count",
    "event_bus.malformed": "count",
    "event_bus.generator_late_us_p99": "us",
    "event_bus.latency_p99_us": "us",
    "event_bus.replay.us_per_event": "us",
    "event_bus.load_trace.ms": "ms",
    **{f"controller.process_event.us_p50.{c}": "us" for c in CONFIGS},
    "controller.process_event.self_us_per_call": "us",
    "controller.decide.us_per_call": "us",
    "controller.plan_action.us_per_call": "us",
    "controller.apply_action.us_per_call": "us",
    "controller.reconfig_ratio": "ratio",
    "fft_engines.fft_fixed.us_per_call.N2048": "us",
    "fft_engines.fft_fixed.us_per_call.N4096": "us",
    **{f"fft_engines.fft_float.us_per_call.N{n}": "us" for n in (8, 1024, 2048, 4096)},
    "fft_engines.quantize.us_per_call": "us",
    "fft_engines.dequantize.us_per_call": "us",
    "fft_engines.mse.us_per_call": "us",
    "fft_engines.share": "ratio",
    "timing_model.sample_exec_time.us_per_call": "us",
    "power_model.power_breakdown.us_per_call": "us",
    "power_model.power_breakdown.calls_per_event": "count",
    "telemetry.take_sample.us_per_call": "us",
    "telemetry.render_sample.us_per_call": "us",
    "telemetry.export_to_file.us_per_record": "us",
    "telemetry.export_to_socket.us_per_record": "us",
    "telemetry.records_delivered": "count",
    "telemetry.delivery_lag_ms_p50": "ms",
    "cli.summary_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_coverage": "ratio",
    "failed_ratio": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpanStats:
    """Call counts, total and self time per span name, pooled over repetitions."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.with_seq = Counter()
        self.tag_sum = Counter()
        self.by_tag = defaultdict(list)      # (name, tag) -> durations in ns
        self.ends = defaultdict(list)        # name -> (end ns, tag)
        self.coverage = []

    def add(self, path) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        child_ns, bench_ns = Counter(), Counter()
        for thread, _, name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[thread, parent] += end - start
                if name == "perfbench.after":
                    bench_ns[thread, parent] += end - start

        root, loop = None, []
        for thread, index, name, start, end, parent, seq, tag in spans:
            # the benchmark's own hashing is not part of the caller's time
            duration = end - start - bench_ns[thread, index]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += end - start - child_ns[thread, index]
            self.with_seq[name] += seq is not None
            self.by_tag[name, tag].append(duration)
            self.ends[name].append((end, tag))
            if isinstance(tag, (int, float)) and not isinstance(tag, bool):
                self.tag_sum[name] += tag
            if thread == "MainThread" and name == "cli.cmd_run":
                root = index
            if thread == "MainThread" and name == "controller.process_event":
                loop.append((start, end))
        if root is not None and loop:
            # the run loop's wall time, from the first decision's start to the
            # last one's end, against the spans directly under cmd_run in it
            first, last = loop[0][0], loop[-1][1]
            covered = sum(end - start for thread, _, _, start, end, parent, _, _ in spans
                          if thread == "MainThread" and parent == root
                          and start >= first and end <= last)
            self.coverage.append(covered / (last - first))

    def us_per_call(self, name) -> float:
        return self.total_ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0

    def tagged_us(self, name, tag, summary) -> float:
        durations = self.by_tag.get((name, tag), [])
        return summary(durations) / 1e3 if durations else 0.0


def layer_metrics(traced, untraced) -> dict[str, float]:
    """Per-layer figures from traced and untraced repetitions (run.Rep)."""
    stats = SpanStats()
    for rep in traced:
        stats.add(rep.spans_path)
    m = {}

    m["event_bus.decode_event.us_per_call"] = stats.us_per_call("event_bus.decode_event")
    m["event_bus.decode_event.calls"] = stats.calls["event_bus.decode_event"] / len(traced)
    transport = [end / 1e3 - tag for end, tag in stats.ends["event_bus.get"] if tag is not None]
    m["event_bus.transport_us_p50"] = percentile(transport, 50)
    m["event_bus.transport_us_p90"] = percentile(transport, 90)
    waits = [d / 1e3 for (name, tag), ds in stats.by_tag.items()
             if name == "event_bus.get" and tag is not None for d in ds]
    m["event_bus.get.wait_us_p50"] = percentile(waits, 50)
    m["event_bus.backlog_max"] = max(rep.backlog_max for rep in traced)
    m["event_bus.dropped"] = sum(rep.dropped for rep in traced)
    m["event_bus.malformed"] = sum(rep.malformed for rep in traced)
    m["event_bus.generator_late_us_p99"] = percentile(
        [v for rep in traced for v in rep.late_us], 99)
    m["event_bus.latency_p99_us"] = percentile(
        [v for rep in untraced for v in rep.latencies_us], 99)
    m["event_bus.replay.us_per_event"] = stats.us_per_call("event_bus.replay")
    m["event_bus.load_trace.ms"] = stats.us_per_call("event_bus.load_trace") / 1e3

    for config in CONFIGS:
        m[f"controller.process_event.us_p50.{config}"] = stats.tagged_us(
            "controller.process_event", config, lambda ds: percentile(ds, 50))
    events = stats.calls["controller.process_event"]
    m["controller.process_event.self_us_per_call"] = (
        stats.self_ns["controller.process_event"] / events / 1e3 if events else 0.0)
    for name in ("decide", "plan_action", "apply_action"):
        m[f"controller.{name}.us_per_call"] = stats.us_per_call(f"controller.{name}")
    m["controller.reconfig_ratio"] = median([rep.reconfig_ratio for rep in traced])

    for n in (2048, 4096):
        m[f"fft_engines.fft_fixed.us_per_call.N{n}"] = stats.tagged_us(
            "fft_engines.fft_fixed", n, statistics.fmean)
    for n in (8, 1024, 2048, 4096):
        m[f"fft_engines.fft_float.us_per_call.N{n}"] = stats.tagged_us(
            "fft_engines.fft_float", n, statistics.fmean)
    for name in ("quantize", "dequantize", "mse"):
        m[f"fft_engines.{name}.us_per_call"] = stats.us_per_call(f"fft_engines.{name}")
    fft_self = sum(ns for name, ns in stats.self_ns.items() if name.startswith("fft_engines."))
    pe_total = stats.total_ns["controller.process_event"]
    m["fft_engines.share"] = fft_self / pe_total if pe_total else 0.0

    m["timing_model.sample_exec_time.us_per_call"] = stats.us_per_call(
        "timing_model.sample_exec_time")
    m["power_model.power_breakdown.us_per_call"] = stats.us_per_call(
        "power_model.power_breakdown")
    m["power_model.power_breakdown.calls_per_event"] = (
        stats.with_seq["power_model.power_breakdown"] / events if events else 0.0)

    m["telemetry.take_sample.us_per_call"] = stats.us_per_call("telemetry.take_sample")
    m["telemetry.render_sample.us_per_call"] = stats.us_per_call("telemetry.render_sample")
    for sink in ("file", "socket"):
        name = f"telemetry.export_to_{sink}"
        records = stats.tag_sum[name]
        m[f"{name}.us_per_record"] = stats.total_ns[name] / records / 1e3 if records else 0.0
    m["telemetry.records_delivered"] = median([rep.delivered for rep in traced])
    m["telemetry.delivery_lag_ms_p50"] = percentile(
        [v for rep in traced for v in rep.delivery_lag_ms], 50)
    m["cli.summary_ms"] = median([rep.summary_ms for rep in untraced])

    plain = max(rep.events_per_s for rep in untraced)
    with_trace = max(rep.events_per_s for rep in traced)
    m["trace.overhead_ratio"] = plain / with_trace - 1 if with_trace else 0.0
    m["trace.self_time_coverage"] = median(stats.coverage)
    reps = traced + untraced
    m["failed_ratio"] = sum(r.failed for r in reps) / sum(r.attempted for r in reps)
    return m
