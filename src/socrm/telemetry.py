"""Sampling and export of the simulated device's metrics.

Samples combine the power breakdown of the deployed configuration with the
latest execution report.  Export uses the same line-delimited JSON record
convention as the event wire format (one sample per line, atomic).
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass

from .controller import ExecutionReport, FunctionState
from .power_model import PowerModel

SAMPLE_FIELDS = ("timestamp_us", "domain", "points", "ddr_mw", "apu_mw", "pl_mw",
                 "total_mw", "last_exec_time_us", "last_mse", "generation")


class ExportError(RuntimeError):
    """Sink failed mid-stream; `delivered` records were written before it."""

    def __init__(self, message: str, delivered: int):
        super().__init__(message)
        self.delivered = delivered


@dataclass(frozen=True)
class TelemetrySample:
    timestamp_us: int
    domain: str
    points: int
    ddr_mw: float
    apu_mw: float
    pl_mw: float
    total_mw: float
    last_exec_time_us: float
    last_mse: float | None
    generation: int


def take_sample(state: FunctionState, power: PowerModel,
                last_report: ExecutionReport | None,
                timestamp_us: int) -> TelemetrySample:
    """Pure snapshot of power + configuration + the latest execution report."""
    breakdown = power.power_breakdown(state.domain, state.points)
    exec_us = last_report.exec_time_us if last_report is not None else 0.0
    error = last_report.mse if last_report is not None else None
    return TelemetrySample(timestamp_us, state.domain, state.points,
                           breakdown.ddr_mw, breakdown.apu_mw, breakdown.pl_mw,
                           breakdown.total_mw, exec_us, error, state.generation)


def render_sample(sample: TelemetrySample) -> str:
    obj = {f: getattr(sample, f) for f in SAMPLE_FIELDS}
    if obj["last_mse"] is None:
        del obj["last_mse"]
    return json.dumps(obj) + "\n"


def parse_sample(line: str) -> TelemetrySample:
    obj = json.loads(line)
    return TelemetrySample(
        timestamp_us=obj["timestamp_us"],
        domain=obj["domain"],
        points=obj["points"],
        ddr_mw=obj["ddr_mw"],
        apu_mw=obj["apu_mw"],
        pl_mw=obj["pl_mw"],
        total_mw=obj["total_mw"],
        last_exec_time_us=obj["last_exec_time_us"],
        last_mse=obj.get("last_mse"),
        generation=obj["generation"],
    )


def export_to_file(samples, path) -> int:
    """Append one record per line; returns the number of records delivered."""
    delivered = 0
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for sample in samples:
                fh.write(render_sample(sample))
                delivered += 1
    except OSError as exc:
        raise ExportError(f"file sink {path} failed: {exc}", delivered) from exc
    return delivered


def export_to_socket(samples, address: tuple[str, int]) -> int:
    """Stream records to a TCP sink; lines are atomic so a drop mid-stream
    leaves no corrupt partial records on the receiver side."""
    delivered = 0
    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            for sample in samples:
                sock.sendall(render_sample(sample).encode("utf-8"))
                delivered += 1
    except OSError as exc:
        raise ExportError(f"socket sink {address} failed: {exc}", delivered) from exc
    return delivered


def energy_mj(dwell_us_by_config: dict, power: PowerModel) -> float:
    """Total energy over per-configuration dwell times: sum(P * t)."""
    total = 0.0
    for (domain, points), dwell_us in dwell_us_by_config.items():
        total += power.power_breakdown(domain, points).total_mw * dwell_us / 1e6
    return total
