import contextlib
import resource
import select
import signal
import socket
import struct
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socrm import event_bus as eb


@pytest.fixture
def server():
    srv = eb.EventServer("127.0.0.1", 0).start()
    yield srv
    srv.stop()


events_strategy = st.builds(
    eb.FaceEvent,
    faces=st.integers(min_value=0, max_value=eb.MAX_FIELD),
    seq=st.integers(min_value=1, max_value=eb.MAX_FIELD),
    timestamp_us=st.integers(min_value=0, max_value=eb.MAX_FIELD),
)


class TestWireFormat:
    def test_decode_example_line(self):
        event = eb.decode_event('{"faces":2,"seq":7,"timestamp_us":140000}')
        assert event == eb.FaceEvent(2, 7, 140000)

    def test_unknown_fields_ignored(self):
        event = eb.decode_event('{"faces":1,"seq":2,"timestamp_us":3,"extra":"x"}')
        assert event == eb.FaceEvent(1, 2, 3)

    @pytest.mark.parametrize("line", [
        "not json",
        "[1,2,3]",
        '{"faces":-1,"seq":1,"timestamp_us":0}',
        '{"faces":1.5,"seq":1,"timestamp_us":0}',
        '{"faces":true,"seq":1,"timestamp_us":0}',
        '{"seq":1,"timestamp_us":0}',
        '{"faces":1,"seq":1}',
        '{"faces":1,"seq":-1,"timestamp_us":0}',
        pytest.param('{"faces":1,"seq":1,"timestamp_us":%d}' % (eb.MAX_FIELD + 1),
                     id="timestamp-over-max-field"),
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param('{"faces":' + "9" * 5000 + ',"seq":1,"timestamp_us":0}',
                     id="5000-digit-faces"),
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(eb.ProtocolError):
            eb.decode_event(line)

    @given(st.text())
    @settings(max_examples=300)
    def test_any_text_decodes_or_raises_protocol_error(self, line):
        try:
            event = eb.decode_event(line)
        except eb.ProtocolError:
            return
        assert isinstance(event, eb.FaceEvent)

    @given(events_strategy)
    @settings(max_examples=200)
    def test_round_trip(self, event):
        assert eb.decode_event(eb.encode_event(event)) == event


class TestServer:
    def test_loopback_round_trip(self, server):
        with eb.Emitter(server.address) as emitter:
            sent = emitter.emit(2)
        received = server.get(timeout=2.0)
        assert received == sent
        assert received.faces == 2

    def test_emitter_seq_counts_up(self, server):
        with eb.Emitter(server.address) as emitter:
            assert [emitter.emit(f).seq for f in (0, 1, 2)] == [1, 2, 3]
        got = [server.get(timeout=2.0) for _ in range(3)]
        assert [e.seq for e in got] == [1, 2, 3]

    def test_in_order_delivery(self, server):
        with eb.Emitter(server.address) as emitter:
            for f in range(50):
                emitter.emit(f)
        got = [server.get(timeout=2.0) for _ in range(50)]
        assert [e.faces for e in got] == list(range(50))

    def test_malformed_lines_counted_and_skipped(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b'{"faces":1,"seq":1,"timestamp_us":0}\n')
            sock.sendall(b"garbage line\n")
            sock.sendall(b'{"faces":-3,"seq":2,"timestamp_us":1}\n')
            sock.sendall(b'{"faces":2,"seq":3,"timestamp_us":2}\n')
        first = server.get(timeout=2.0)
        second = server.get(timeout=2.0)
        assert (first.faces, second.faces) == (1, 2)
        assert server.malformed_count == 2

    def test_non_monotonic_seq_skipped(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b'{"faces":1,"seq":5,"timestamp_us":0}\n')
            sock.sendall(b'{"faces":9,"seq":5,"timestamp_us":1}\n')
            sock.sendall(b'{"faces":2,"seq":6,"timestamp_us":2}\n')
        assert server.get(timeout=2.0).faces == 1
        assert server.get(timeout=2.0).faces == 2
        assert server.malformed_count == 1

    def test_two_clients_monotonicity_independent(self, server):
        with eb.Emitter(server.address) as a, eb.Emitter(server.address) as b:
            for f in range(10):
                a.emit(f)
                b.emit(f + 100)
        got = [server.get(timeout=2.0) for _ in range(20)]
        assert server.malformed_count == 0
        low = [e.faces for e in got if e.faces < 100]
        high = [e.faces for e in got if e.faces >= 100]
        assert low == list(range(10))
        assert high == list(range(100, 110))

    def test_connection_drop_keeps_server_alive(self, server):
        sock = socket.create_connection(server.address)
        sock.sendall(b'{"faces":1,"seq":1,"timestamp_us":0}\n')
        sock.close()
        assert server.get(timeout=2.0).faces == 1
        with eb.Emitter(server.address) as emitter:
            emitter.emit(4)
        assert server.get(timeout=2.0).faces == 4

    def test_overflow_drops_oldest(self):
        srv = eb.EventServer("127.0.0.1", 0, capacity=5).start()
        try:
            with eb.Emitter(srv.address) as emitter:
                for f in range(10):
                    emitter.emit(f)
            got = [srv.get(timeout=1.0) for _ in range(5)]
            assert [e.faces for e in got] == [5, 6, 7, 8, 9]
            assert srv.dropped_count == 5
        finally:
            srv.stop()

    def test_unterminated_line_closes_only_its_connection(self, server):
        hog = socket.create_connection(server.address)

        def flood():
            try:
                hog.sendall(b"x" * (1 << 20))
            except OSError:  # the server closes the connection mid-send
                pass

        sender = threading.Thread(target=flood)
        sender.start()
        try:
            with eb.Emitter(server.address) as emitter:
                sent = emitter.emit(3)
            assert server.get(timeout=2.0) == sent
            deadline = time.monotonic() + 5.0
            while server.malformed_count == 0 and time.monotonic() < deadline:
                server.get(timeout=0.05)
        finally:
            sender.join(timeout=5.0)
            hog.close()
        assert not sender.is_alive()
        assert server.malformed_count == 1

    def test_overlong_line_closes_its_connection(self, server):
        # valid JSON, but longer than MAX_LINE_BYTES once padded
        padded = b'{"faces":2,"seq":2,' + b" " * 100_000 + b'"timestamp_us":0}\n'
        client = socket.create_connection(server.address)

        def send():
            try:
                client.sendall(b'{"faces":1,"seq":1,"timestamp_us":0}\n' + padded
                               + b'{"faces":3,"seq":3,"timestamp_us":0}\n')
            except OSError:  # the server closes the connection mid-send
                pass

        sender = threading.Thread(target=send)
        sender.start()
        try:
            assert server.get(timeout=2.0).faces == 1
            deadline = time.monotonic() + 5.0
            while server.malformed_count == 0 and time.monotonic() < deadline:
                assert server.get(timeout=0.05) is None
            with eb.Emitter(server.address) as emitter:
                sent = emitter.emit(4)
            assert server.get(timeout=2.0) == sent
        finally:
            sender.join(timeout=5.0)
            client.close()
        assert server.malformed_count == 1

    def test_no_threads_started(self):
        before = threading.active_count()
        srv = eb.EventServer("127.0.0.1", 0).start()
        try:
            assert threading.active_count() == before
            with eb.Emitter(srv.address) as a, eb.Emitter(srv.address) as b:
                a.emit(1)
                b.emit(2)
                got = {srv.get(timeout=2.0).faces, srv.get(timeout=2.0).faces}
            assert got == {1, 2}
            assert threading.active_count() == before
        finally:
            srv.stop()

    def test_stop_closes_client_connections(self):
        srv = eb.EventServer("127.0.0.1", 0).start()
        with socket.create_connection(srv.address, timeout=2.0) as client:
            client.sendall(b'{"faces":1,"seq":1,"timestamp_us":0}\n')
            assert srv.get(timeout=2.0).faces == 1
            srv.stop()
            assert client.recv(1) == b""
        srv.stop()  # idempotent
        assert srv.get(timeout=0.1) is None

    def test_bind_failure_surfaces(self, server):
        clash = eb.EventServer(*server.address)
        with pytest.raises(OSError):
            clash.start()


def count_selects(server, monkeypatch) -> list:
    """Record the timeout of every select() the server makes from now on."""
    calls = []
    select = server._selector.select
    monkeypatch.setattr(server._selector, "select",
                        lambda timeout=None: calls.append(timeout) or select(timeout))
    return calls


@contextlib.contextmanager
def no_free_descriptors():
    """Lower this process's soft RLIMIT_NOFILE to its lowest free descriptor,
    so that accept() fails with EMFILE; the limit is restored on exit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    with socket.socket() as probe:
        lowest_free = probe.fileno()
    resource.setrlimit(resource.RLIMIT_NOFILE, (lowest_free, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def reset(sock: socket.socket):
    """Close `sock` with a TCP reset instead of an orderly end of stream."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def event_line(faces: int, seq: int = 1) -> bytes:
    return eb.encode_event(eb.FaceEvent(faces, seq, 0)).encode("utf-8")


class _ChunkedConnection:
    """A connection whose recv() returns the given chunks in turn, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.closed = False

    def recv(self, size):
        chunk = self.chunks.pop(0) if self.chunks else b""
        assert len(chunk) <= size
        return chunk

    def close(self):
        self.closed = True


def _served(chunks):
    """The events `EventServer._read` queues and the malformed lines it counts
    when one connection delivers `chunks`."""
    server = eb.EventServer()
    server._selector = types.SimpleNamespace(unregister=lambda conn: None)
    server._listening = True  # so closing the connection registers nothing
    peer = types.SimpleNamespace(addr=None, tail=b"", last_seq=None)
    conn = _ChunkedConnection(chunks)
    server._peers[conn] = peer
    while not conn.closed:
        server._read(peer, conn)
    return list(server._queue), server.malformed_count


def _chunks(stream: bytes, cuts) -> list:
    """`stream` cut at `cuts` and every MAX_LINE_BYTES, as recv() may return it."""
    bounds = sorted({0, len(stream), *cuts})
    return [stream[i:j][k:k + eb.MAX_LINE_BYTES]
            for i, j in zip(bounds, bounds[1:]) for k in range(0, j - i, eb.MAX_LINE_BYTES)]


# a valid event padded with spaces to exactly MAX_LINE_BYTES, and junk lines of
# MAX_LINE_BYTES and one byte more: the longest line that is read, and the
# shortest that closes its connection
_PADDED_EVENT = event_line(1, 9).rstrip(b"\n").ljust(eb.MAX_LINE_BYTES) + b"\n"
stream_parts = st.one_of(
    st.builds(lambda event: eb.encode_event(event).encode("utf-8"), events_strategy),
    st.binary(max_size=40),
    st.sampled_from([b"\n", b"  \r\n", _PADDED_EVENT, b"x" * eb.MAX_LINE_BYTES + b"\n",
                     b"y" * (eb.MAX_LINE_BYTES + 1) + b"\n"]),
)


class TestFraming:
    @given(st.lists(stream_parts, max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_reads_like_the_whole_stream(self, parts, data):
        stream = b"".join(parts)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=20))
        assert _served(_chunks(stream, cuts)) == _served(_chunks(stream, []))

    def test_longest_line_is_read_and_a_longer_one_closes(self):
        stream = (event_line(0, 1) + _PADDED_EVENT + b"y" * (eb.MAX_LINE_BYTES + 1) + b"\n"
                  + event_line(2, 10))
        assert _served(_chunks(stream, [])) == ([eb.FaceEvent(0, 1, 0), eb.FaceEvent(1, 9, 0)], 1)


class TestLiveness:
    @pytest.mark.parametrize("timeout", [1e7, 1e300, float("inf")])
    def test_any_timeout_returns_a_queued_event(self, server, timeout):
        with eb.Emitter(server.address) as emitter:
            sent = emitter.emit(2)
        assert server.get(timeout=timeout) == sent

    def test_no_select_wait_exceeds_the_slice(self, server, monkeypatch):
        calls = count_selects(server, monkeypatch)
        assert server.get(timeout=0.6) is None
        assert 3 <= len(calls) <= 6
        assert max(calls) <= eb.SELECT_SLICE_S

    def test_failed_accept_does_not_spin(self, server, monkeypatch):
        clients = [socket.socket() for _ in range(20)]
        calls = count_selects(server, monkeypatch)
        try:
            with no_free_descriptors():
                for client in clients:
                    client.setblocking(False)
                    client.connect_ex(server.address)
                assert server.get(timeout=0.5) is None
        finally:
            for client in clients:
                client.close()
        assert len(calls) < 20

    def test_client_is_served_once_a_connection_closes(self, server, monkeypatch):
        first = [socket.create_connection(server.address, timeout=2.0) for _ in range(3)]
        late = socket.socket()
        late.settimeout(2.0)
        try:
            for client in first:
                client.sendall(event_line(1))
            assert [server.get(timeout=2.0).faces for _ in first] == [1, 1, 1]
            calls = count_selects(server, monkeypatch)
            with no_free_descriptors():
                late.connect(server.address)
                late.sendall(event_line(4))
                assert server.get(timeout=0.5) is None
                first[0].close()
                assert server.get(timeout=2.0).faces == 4
            assert len(calls) < 20
        finally:
            for client in first + [late]:
                client.close()

    def test_connections_over_the_cap_wait_until_one_closes(self, monkeypatch):
        monkeypatch.setattr(eb, "MAX_CONNECTIONS", 3)
        srv = eb.EventServer("127.0.0.1", 0).start()
        emitters = []
        try:
            emitters = [eb.Emitter(srv.address) for _ in range(4)]
            for faces, emitter in enumerate(emitters):
                emitter.emit(faces)
            served = set()
            while (event := srv.get(timeout=0.5)) is not None:
                served.add(event.faces)
            assert served == {0, 1, 2}
            emitters[0].close()
            assert srv.get(timeout=2.0).faces == 3
        finally:
            for emitter in emitters:
                emitter.close()
            srv.stop()

    def test_silent_clients_give_up_their_slots_after_the_timeout(self, server):
        timeout = 0.5
        silent = []
        try:
            for _ in range(eb.MAX_CONNECTIONS):
                silent.append(socket.create_connection(server.address, timeout=2.0))
                assert server.get(timeout=0) is None  # accepts it
            accepted = time.monotonic()
            with eb.Emitter(server.address) as emitter:
                sent = emitter.emit(3)
                assert server.get(timeout=timeout) == sent
                assert time.monotonic() - accepted >= timeout
                assert [client.recv(1) for client in silent] == [b""] * len(silent)
                # the connection that took a freed slot is served as usual
                sent = emitter.emit(4)
                assert server.get(timeout=2.0) == sent
        finally:
            for client in silent:
                client.close()

    def test_zero_timeout_poll_with_every_slot_taken_closes_nothing(self, server):
        clients = []
        try:
            for _ in range(eb.MAX_CONNECTIONS):
                clients.append(socket.create_connection(server.address, timeout=2.0))
                assert server.get(timeout=0) is None  # accepts it
            time.sleep(0.05)
            for _ in range(3):
                assert server.get(timeout=0) is None
            for client in clients:  # still open: no data and no end of stream
                client.setblocking(False)
                with pytest.raises(BlockingIOError):
                    client.recv(1)
            # and served
            for seq, client in enumerate(clients, start=1):
                client.sendall(eb.encode_event(eb.FaceEvent(1, seq, 0)).encode())
            got = [server.get(timeout=2.0) for _ in clients]
            assert sorted(event.seq for event in got) == list(range(1, len(clients) + 1))
        finally:
            for client in clients:
                client.close()

    def test_reset_connection_frees_its_slot_and_is_not_malformed(self, monkeypatch):
        monkeypatch.setattr(eb, "MAX_CONNECTIONS", 2)
        srv = eb.EventServer("127.0.0.1", 0).start()
        resetter = socket.create_connection(srv.address, timeout=2.0)
        emitter = late = None
        try:
            emitter = eb.Emitter(srv.address)
            # an event, so that no sweep closes it, then an unterminated line,
            # which would count as malformed at an orderly end of stream
            resetter.sendall(event_line(5) + b'{"faces": 9')
            emitter.emit(1)
            assert {srv.get(timeout=2.0).faces for _ in range(2)} == {1, 5}
            assert srv.get(timeout=0.1) is None
            late = eb.Emitter(srv.address)  # waits in the backlog
            late.emit(2)
            reset(resetter)
            emitter.emit(3)
            assert {srv.get(timeout=2.0).faces for _ in range(2)} == {2, 3}
            assert (srv.malformed_count, srv.dropped_count) == (0, 0)
        finally:
            for client in (resetter, emitter, late):
                if client is not None:
                    client.close()
            srv.stop()

    def test_restarted_server_accepts_again(self, server):
        server.stop()
        server.start()
        with eb.Emitter(server.address) as emitter:
            sent = emitter.emit(1)
        assert server.get(timeout=2.0) == sent


class TestEmitter:
    def test_failed_send_raises_transport_error_and_gives_back_its_seq(self, server):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            emitter = eb.Emitter(listener.getsockname())
            conn, _ = listener.accept()
            reset(conn)
        with emitter:
            select.select([emitter._sock], [], [], 2.0)  # the reset has arrived
            with pytest.raises(eb.TransportError):
                emitter.emit(1)
            # the event that was not sent gives its seq to the next one
            emitter._sock.close()
            emitter._sock = socket.create_connection(server.address, timeout=2.0)
            assert emitter.emit(2).seq == 1
        assert server.get(timeout=2.0).seq == 1

    def test_connect_to_closed_port_raises_transport_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        addr = sock.getsockname()
        sock.close()
        with pytest.raises(eb.TransportError):
            eb.Emitter(addr)

    def test_rejects_negative_faces(self, server):
        with eb.Emitter(server.address) as emitter:
            with pytest.raises(ValueError):
                emitter.emit(-1)
            with pytest.raises(ValueError):
                emitter.emit(eb.MAX_FIELD + 1)
            assert emitter.emit(0).seq == 1

    def test_rejects_bool_faces_and_sends_nothing(self, server):
        # True is within [0, MAX_FIELD], but `"faces": true` is a malformed line
        with eb.Emitter(server.address) as emitter:
            with pytest.raises(ValueError):
                emitter.emit(True)
        assert server.get(timeout=0.5) is None
        assert server.malformed_count == 0
        with eb.Emitter(server.address) as emitter:
            with pytest.raises(ValueError):
                emitter.emit(False)
            assert emitter.emit(1).seq == 1
        assert server.get(timeout=2.0).seq == 1


class TestReplay:
    def test_demo_trace(self):
        got = list(eb.replay([(0, 0), (1000, 1), (1000, 2), (1000, 3)],
                             fast_forward=True))
        assert [e.faces for e in got] == [0, 1, 2, 3]
        assert [e.seq for e in got] == [1, 2, 3, 4]
        assert [e.timestamp_us for e in got] == [0, 1000, 2000, 3000]

    def test_empty_trace(self):
        assert list(eb.replay([], fast_forward=True)) == []

    def test_fast_forward_is_instant_and_identical(self):
        trace = [(200_000, 1), (200_000, 2)]
        t0 = time.monotonic()
        fast = list(eb.replay(trace, fast_forward=True))
        assert time.monotonic() - t0 < 0.1
        assert fast == list(eb.replay(trace, fast_forward=True))

    def test_wall_clock_mode_sleeps(self):
        t0 = time.monotonic()
        list(eb.replay([(50_000, 1)], fast_forward=False))
        assert time.monotonic() - t0 >= 0.045

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            list(eb.replay([(-1, 0)], fast_forward=True))

    def test_wall_clock_sleeps_the_longest_delay(self):
        # time.sleep accepts MAX_FIELD us (about 285 years); an alarm ends it
        class Alarm(Exception):
            pass

        def ring(signum, frame):
            raise Alarm

        previous = signal.signal(signal.SIGALRM, ring)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Alarm):
                list(eb.replay([(eb.MAX_FIELD, 0)], fast_forward=False))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def test_load_trace(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# demo\n0 0\n1000 1\n\n1000 2  # two faces\n")
    assert eb.load_trace(path) == [(0, 0), (1000, 1), (1000, 2)]
