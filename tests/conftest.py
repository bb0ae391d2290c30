import socket
import struct
import threading

import pytest

# records a resetting sink reads before it resets its connection
RESET_AFTER_RECORDS = 5


@pytest.fixture
def resetting_sink():
    """A telemetry sink that reads RESET_AFTER_RECORDS records, then resets
    the connection.  Yields its address and the list of records it read."""
    srv = socket.create_server(("127.0.0.1", 0))
    received = []

    def sink():
        conn, _ = srv.accept()
        with conn, conn.makefile("rb") as fh:
            received.extend(fh.readline() for _ in range(RESET_AFTER_RECORDS))
            # a zero linger time makes close() send RST instead of FIN
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    t = threading.Thread(target=sink)
    t.start()
    try:
        yield srv.getsockname(), received
    finally:
        t.join(timeout=10)
        srv.close()
    assert not t.is_alive()
