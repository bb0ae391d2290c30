"""Open-loop event generator and telemetry sink for the live workload.

usage: PYTHONPATH=src python3 perfbench/loadgen.py SCHEDULE_JSON

One process, one event connection.  Protocol on stdio:
  1. binds the telemetry sink on 127.0.0.1 and prints its port;
  2. reads the event server's port from stdin and connects;
  3. sends event `seq` (1-based) when it falls due, sleeping until then (no
     busy wait: it shares the cores with the program under test).  The due
     time, CLOCK_MONOTONIC in us, is stamped in `timestamp_us` through the
     public `encode_event`, so latency counts any stall of the generator too;
  4. accepts the program's telemetry connection and timestamps each record
     on receipt until the program closes it;
  5. prints one JSON object: the first due time, how late each send was, and
     (timestamp_us, received_us) for every telemetry record.
"""

from __future__ import annotations

import json
import socket
import sys
import time

from socrm.event_bus import FaceEvent, encode_event

TIMEOUT_S = 60.0


def now_us() -> int:
    return time.monotonic_ns() // 1000


def main(schedule_path) -> int:
    with open(schedule_path, "r", encoding="utf-8") as fh:
        schedule = json.load(fh)
    offsets, faces = schedule["offsets_us"], schedule["faces"]

    with socket.create_server(("127.0.0.1", 0)) as sink:
        sink.settimeout(TIMEOUT_S)
        print(sink.getsockname()[1], flush=True)
        port = int(sys.stdin.readline())
        late = []
        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as conn:
            # each event is its own small write; Nagle would hold it back
            # behind the previous one's delayed ACK
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            start = now_us()
            for seq, (offset, count) in enumerate(zip(offsets, faces), start=1):
                due = start + offset
                wait = due - now_us()
                if wait > 0:
                    time.sleep(wait / 1e6)
                late.append(now_us() - due)
                conn.sendall(encode_event(FaceEvent(count, seq, due)).encode("utf-8"))

            records = []
            peer, _ = sink.accept()
            with peer:
                peer.settimeout(TIMEOUT_S)
                pending = b""
                while chunk := peer.recv(1 << 16):
                    received = now_us()
                    *lines, pending = (pending + chunk).split(b"\n")
                    records += [(json.loads(line)["timestamp_us"], received) for line in lines]
    print(json.dumps({"start_us": start, "late_us": late, "records": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
