"""Telemetry records of the simulated device and their export.

A record is built from one execution report, the decision's one record,
and the power row of the configuration it ran on; its time is the report's
event's `timestamp_us`.  Export uses the same line-delimited JSON record
convention as the event wire format (one record per line, atomic).
"""

from __future__ import annotations

import socket

from .controller import ExecutionReport, FunctionState
from .power_model import PowerModel


class ExportError(RuntimeError):
    """Sink failed mid-stream; `delivered` records were written before it."""

    def __init__(self, message: str, delivered: int):
        super().__init__(message)
        self.delivered = delivered


def take_sample(state: FunctionState, power: PowerModel, report: ExecutionReport) -> dict:
    """The wire record of one decision, `state` being `report.state`;
    `last_mse` is left out on the APU path."""
    breakdown = power.power_breakdown(state.domain, state.points)
    sample = {"timestamp_us": report.event.timestamp_us, "domain": state.domain,
              "points": state.points, "ddr_mw": breakdown.ddr_mw,
              "apu_mw": breakdown.apu_mw, "pl_mw": breakdown.pl_mw,
              "total_mw": breakdown.total_mw,
              "last_exec_time_us": report.exec_time_us}
    if report.mse is not None:
        sample["last_mse"] = report.mse
    sample["generation"] = state.generation
    return sample


def render_sample(sample: dict) -> str:
    """One wire line of a `take_sample` record, in its field order.

    Byte for byte `json.dumps(sample) + "\\n"`: the domain is a plain ASCII
    name and every number a finite float or an int, whose `repr` is its JSON
    text.
    """
    mse = f', "last_mse": {sample["last_mse"]!r}' if "last_mse" in sample else ""
    return (f'{{"timestamp_us": {sample["timestamp_us"]!r}, "domain": "{sample["domain"]}",'
            f' "points": {sample["points"]!r}, "ddr_mw": {sample["ddr_mw"]!r},'
            f' "apu_mw": {sample["apu_mw"]!r}, "pl_mw": {sample["pl_mw"]!r},'
            f' "total_mw": {sample["total_mw"]!r},'
            f' "last_exec_time_us": {sample["last_exec_time_us"]!r}{mse},'
            f' "generation": {sample["generation"]!r}}}\n')


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
