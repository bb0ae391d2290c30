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
import selectors
import socket
import time
import types
from collections import deque
from typing import NamedTuple

logger = logging.getLogger(__name__)


class ProtocolError(ValueError):
    """Line is not a well-formed event record."""


class TransportError(ConnectionError):
    """Send or connect failed; no partial state is kept."""


# the largest integer an event input may carry (a wire field, or a trace's
# delay or face count), and the largest number a profile may: exact in a
# double, so dwell, power-row totals, jittered times and energy sums cannot
# overflow, and as a delay in microseconds within the range of time.sleep
MAX_FIELD = 2 ** 53 - 1


def is_field(value) -> bool:
    """True for an int (not a bool) in [0, MAX_FIELD]: a valid event integer."""
    return type(value) is int and 0 <= value <= MAX_FIELD


class FaceEvent(NamedTuple):
    faces: int
    seq: int
    timestamp_us: int


def encode_event(event: FaceEvent) -> str:
    return json.dumps({"faces": event.faces, "seq": event.seq,
                       "timestamp_us": event.timestamp_us}) + "\n"


def decode_event(line: str) -> FaceEvent:
    """Parse one wire line; a line that is not an event raises ProtocolError."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an int over the digit limit
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
        if not is_field(value):
            raise ProtocolError(f"{name} must be an integer in [0, {MAX_FIELD}] in {line!r}")
    return FaceEvent(faces, seq, timestamp_us)


# an event record is under 100 bytes; a longer line is not one
MAX_LINE_BYTES = 1 << 16

# most connections served at once; further clients wait in the listen
# backlog until one closes
MAX_CONNECTIONS = 64

# longest single select() wait: get() recomputes what is left of its timeout
# after each one, so a timeout of any size works
SELECT_SLICE_S = 0.25


class EventServer:
    """Accepts emitter connections and yields FaceEvents in arrival order.

    Single-threaded: `get()` first takes in whatever the listening socket and
    the connections hold, through one selector, so the queue and the counters
    advance only while the consumer calls it; bytes that arrive in between
    wait in the kernel's socket buffers.  Malformed lines, per-connection seq
    regressions and lines over MAX_LINE_BYTES, terminated or not (which also
    close their connection), are counted and skipped, never fatal.

    The listener is watched while fewer than MAX_CONNECTIONS connections are
    open, except after an accept() that failed for another reason than the
    client giving up (running out of file descriptors, say, which would leave
    it readable and `get()` spinning), until a connection closes or a
    select() slice passes in which nothing was ready.  After such a slice
    with every slot taken, `get(timeout)` with a timeout above zero closes
    the connections that have delivered no event and have sent nothing for
    over `timeout` seconds and, before it returns, accepts a client waiting
    in the backlog and reads what it has sent, so silent clients cannot keep
    the others waiting.  An emitter that has delivered events keeps its slot
    however long it pauses.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, capacity: int = 1024):
        self._bind_address = (host, port)
        self.malformed_count = 0
        self.dropped_count = 0
        self._queue: deque = deque(maxlen=capacity)
        self._sock: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        # every open connection -> its peer: addr; tail, the bytes after the
        # last newline; last_seq, the last one queued; last_read, when the
        # peer last sent something (or connected)
        self._peers: dict[socket.socket, types.SimpleNamespace] = {}
        self._listening = False  # whether the selector watches the listener

    @property
    def address(self) -> tuple[str, int]:
        assert self._sock is not None, "server not started"
        return self._sock.getsockname()[:2]

    def start(self):
        self._sock = socket.create_server(self._bind_address, backlog=8)
        self._sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._watch_listener()
        return self

    def stop(self):
        """Close the listener, every connection and the selector; idempotent."""
        if self._selector is None:
            return
        for conn in self._peers:
            conn.close()
        self._peers.clear()
        self._sock.close()
        self._selector.close()
        self._selector = None
        self._listening = False

    def _watch_listener(self, accept_failed: bool = False):
        """Watch the listener or not, by the rule in the class docstring; run
        wherever its inputs change: start, an accept, a close, an idle slice."""
        watch = len(self._peers) < MAX_CONNECTIONS and not accept_failed
        if watch != self._listening:
            if watch:
                self._selector.register(self._sock, selectors.EVENT_READ)
            else:
                self._selector.unregister(self._sock)
            self._listening = watch

    def _poll(self, wait: float) -> bool:
        """One select() of up to `wait` seconds; accepts or reads whatever is
        ready.  True if anything was."""
        ready = self._selector.select(wait)
        for key, _mask in ready:
            conn = key.fileobj
            if conn is self._sock:
                self._accept()
            else:
                self._read(self._peers[conn], conn)
        return bool(ready)

    def _accept(self):
        try:
            conn, addr = self._sock.accept()
        except (BlockingIOError, ConnectionAbortedError):  # the client gave up
            return
        except OSError as exc:
            logger.warning("accept failed, listener set aside: %s", exc)
            self._watch_listener(accept_failed=True)
            return
        logger.debug("connection from %s", addr)
        conn.setblocking(False)
        self._peers[conn] = types.SimpleNamespace(addr=addr, tail=b"", last_seq=None,
                                                  last_read=time.monotonic())
        self._selector.register(conn, selectors.EVENT_READ)
        self._watch_listener()

    def _read(self, peer: types.SimpleNamespace, conn: socket.socket):
        peer.last_read = time.monotonic()
        try:
            chunk = conn.recv(MAX_LINE_BYTES)
        except BlockingIOError:
            return
        except OSError as exc:
            logger.debug("connection %s dropped: %s", peer.addr, exc)
            chunk, peer.tail = b"", b""
        *lines, peer.tail = (peer.tail + chunk).split(b"\n")
        if not chunk or len(peer.tail) > MAX_LINE_BYTES:  # the tail is a line too
            lines.append(peer.tail)
        for raw in lines:
            if len(raw) > MAX_LINE_BYTES:  # not an event stream: close it
                self.malformed_count += 1
                logger.debug("line over %d bytes from %s", MAX_LINE_BYTES, peer.addr)
                break
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            try:
                event = decode_event(line)
                if peer.last_seq is not None and event.seq <= peer.last_seq:
                    raise ProtocolError(f"seq {event.seq} not above {peer.last_seq}")
            except ProtocolError as exc:
                self.malformed_count += 1
                logger.debug("malformed line from %s: %s", peer.addr, exc)
                continue
            peer.last_seq = event.seq
            if len(self._queue) == self._queue.maxlen:
                self.dropped_count += 1
            self._queue.append(event)
        else:
            if chunk:
                return
        self._close(conn)

    def _close(self, conn: socket.socket):
        self._selector.unregister(conn)
        conn.close()
        del self._peers[conn]
        self._watch_listener()

    def _close_silent(self, timeout: float) -> bool:
        """Close every connection that has delivered no event and has sent
        nothing for over `timeout` seconds; True if any was closed."""
        silent_since = time.monotonic() - timeout
        silent = [conn for conn, peer in self._peers.items()
                  if peer.last_seq is None and peer.last_read < silent_since]
        for conn in silent:
            logger.debug("closing %s, silent for %gs", self._peers[conn].addr, timeout)
            self._close(conn)
        return bool(silent)

    def get(self, timeout: float | None = None) -> FaceEvent | None:
        """Next event in FIFO order, or None on timeout / after stop."""
        deadline = None if timeout is None else time.monotonic() + timeout
        wait = 0.0
        while self._selector is not None and wait >= 0:
            ready = self._poll(wait)
            if self._queue:
                return self._queue.popleft()
            if not ready:
                if (len(self._peers) >= MAX_CONNECTIONS and timeout is not None
                        and timeout > 0 and self._close_silent(timeout)):
                    # the sweep may come at the deadline: one more pass
                    # accepts a client waiting in the backlog and the next
                    # reads what it sent, before this call can run out
                    self._poll(0)
                    self._poll(0)
                    if self._queue:
                        return self._queue.popleft()
                self._watch_listener()
            wait = SELECT_SLICE_S if deadline is None else min(
                deadline - time.monotonic(), SELECT_SLICE_S)
        return None

    def events(self, timeout: float | None = None):
        """Iterate events until stop or a get() timeout."""
        return iter(lambda: self.get(timeout), None)


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
        if not is_field(faces):
            raise ValueError(f"face count must be an integer in [0, {MAX_FIELD}], got {faces!r}")
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
            # ASCII digits only: int() would also take "1_0", "+5" and "\u0661"
            if len(parts) != 2 or not (line.isascii() and parts[0].isdigit()
                                       and parts[1].isdigit()):
                raise ValueError(f"bad trace line: {raw!r}")
            delay_us, faces = int(parts[0]), int(parts[1])
            if not (is_field(delay_us) and is_field(faces)):
                raise ValueError(f"value outside [0, {MAX_FIELD}] in trace line: {raw!r}")
            trace.append((delay_us, faces))
    return trace
