"""Network event pipeline standing in for the vision edge node.

A face-count event is one UTF-8 JSON object per line over a TCP stream:
integer fields `faces`, `seq`, `timestamp_us`; unknown fields are ignored
for forward compatibility.  The server fans all connections into a single
bounded FIFO toward the controller (drop-oldest on overflow: fresh context
beats stale context).  A trace replayer provides a deterministic event
source for tests and demos.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass

logger = logging.getLogger(__name__)


class ProtocolError(ValueError):
    """Line is not a well-formed event record."""


class TransportError(ConnectionError):
    """Send or connect failed; no partial state is kept."""


@dataclass(frozen=True)
class FaceEvent:
    faces: int
    seq: int
    timestamp_us: int


def encode_event(event: FaceEvent) -> str:
    return json.dumps({"faces": event.faces, "seq": event.seq,
                       "timestamp_us": event.timestamp_us}) + "\n"


def decode_event(line: str) -> FaceEvent:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {line!r}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"not an object: {line!r}")
    try:
        faces = obj["faces"]
        seq = obj["seq"]
        timestamp_us = obj["timestamp_us"]
    except KeyError as exc:
        raise ProtocolError(f"missing field {exc} in {line!r}") from None
    for name, value in (("faces", faces), ("seq", seq), ("timestamp_us", timestamp_us)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"{name} must be an integer in {line!r}")
        if value < 0:
            raise ProtocolError(f"{name} must be non-negative in {line!r}")
    return FaceEvent(faces, seq, timestamp_us)


class EventServer:
    """Accepts emitter connections and yields FaceEvents in arrival order.

    Malformed lines and per-connection monotonicity violations are counted
    and skipped; they never terminate the server.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, capacity: int = 1024):
        self.host = host
        self.port = port
        self.capacity = capacity
        self.malformed_count = 0
        self.dropped_count = 0
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        assert self._sock is not None, "server not started"
        return self._sock.getsockname()[:2]

    def start(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.host, self.port))
        except OSError:
            sock.close()
            raise
        sock.listen(8)
        self._sock = sock
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        return self

    def stop(self):
        self._stopping.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        with self._cond:
            self._cond.notify_all()

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, addr = self._sock.accept()
            except OSError:
                break
            logger.debug("connection from %s", addr)
            t = threading.Thread(target=self._reader, args=(conn, addr), daemon=True)
            t.start()
            self._threads.append(t)

    def _reader(self, conn: socket.socket, addr):
        last_seq = None
        try:
            with conn, conn.makefile("r", encoding="utf-8", errors="replace") as lines:
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = decode_event(line)
                    except ProtocolError as exc:
                        self.malformed_count += 1
                        logger.debug("malformed line from %s: %s", addr, exc)
                        continue
                    if last_seq is not None and event.seq <= last_seq:
                        self.malformed_count += 1
                        logger.debug("non-monotonic seq from %s: %s", addr, event)
                        continue
                    last_seq = event.seq
                    self._push(event)
        except OSError as exc:
            logger.debug("connection %s dropped: %s", addr, exc)

    def _push(self, event: FaceEvent):
        with self._cond:
            if len(self._queue) >= self.capacity:
                self._queue.popleft()
                self.dropped_count += 1
            self._queue.append(event)
            self._cond.notify()

    def get(self, timeout: float | None = None) -> FaceEvent | None:
        """Next event in FIFO order, or None on timeout / after stop."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if self._stopping.is_set():
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return self._queue.popleft()

    def events(self, timeout: float | None = None):
        """Iterate events until stop or a get() timeout."""
        while True:
            event = self.get(timeout)
            if event is None:
                return
            yield event


class Emitter:
    """Single-connection synchronous event sender with session-local seq."""

    def __init__(self, target: tuple[str, int]):
        self.target = target
        self._seq = 0
        self._start = time.monotonic()
        try:
            self._sock = socket.create_connection(target, timeout=5.0)
        except OSError as exc:
            raise TransportError(f"cannot connect to {target}: {exc}") from exc

    def emit(self, faces: int) -> FaceEvent:
        if faces < 0:
            raise ValueError("face count must be non-negative")
        self._seq += 1
        event = FaceEvent(faces, self._seq,
                          int((time.monotonic() - self._start) * 1e6))
        try:
            self._sock.sendall(encode_event(event).encode("utf-8"))
        except OSError as exc:
            self._seq -= 1
            raise TransportError(f"send to {self.target} failed: {exc}") from exc
        return event

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def replay(trace, fast_forward: bool = False):
    """Yield FaceEvents for a list of (delay_us, faces) trace entries.

    Timestamps advance by the trace delays regardless of mode; in
    fast-forward mode no wall-clock time is spent.
    """
    now_us = 0
    for seq, (delay_us, faces) in enumerate(trace, start=1):
        if delay_us < 0:
            raise ValueError("trace delays must be non-negative")
        if not fast_forward and delay_us:
            time.sleep(delay_us / 1e6)
        now_us += delay_us
        yield FaceEvent(faces, seq, now_us)


def load_trace(path) -> list[tuple[int, int]]:
    """Read a trace file: one `delay_us faces` pair per line, `#` comments."""
    trace = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad trace line: {raw!r}")
            delay_us, faces = int(parts[0]), int(parts[1])
            if delay_us < 0 or faces < 0:
                raise ValueError(f"negative value in trace line: {raw!r}")
            trace.append((delay_us, faces))
    return trace
