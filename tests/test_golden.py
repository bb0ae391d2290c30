"""Golden outputs of `socrm run`, pinned by the SHA-256 digests in `golden.json`.

The replay goldens run a seeded 500-event trace (faces 0-5, `--seed 3
--jitter 0.1`) under each mechanism and digest the summary, the telemetry
file and every Q1.15 output of `fft_fixed`.  The live golden feeds fixed wire
lines, one of them malformed and one a seq regression, and digests the summary
and the bytes its socket sink received.

A PL event's MSE depends on the last bits of pocketfft, so the digests cover
the text with each MSE removed, and the MSE values are compared on their own:
exactly on the NumPy version that made the goldens, and within MSE_REL_TOL
(the tolerance of `perfbench/checks.py`) on any other.  Every other digest is
exact everywhere.

A change that alters one of these outputs on purpose regenerates the file with
`PYTHONPATH=src python tests/test_golden.py` and says which output changed and
why.
"""

import hashlib
import json
import random
import re
import socket
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from socrm import controller, fft_engines
from test_cli import _run_live, run_cli

GOLDEN = Path(__file__).with_name("golden.json")
MSE_REL_TOL = 2e-3
TRACE_EVENTS = 500

SUMMARY_MSE = re.compile(r" mse=(\S+)")
TELEMETRY_MSE = re.compile(r', "last_mse": [^,]+')

LIVE_LINES = [
    '{"faces": 0, "seq": 1, "timestamp_us": 1000}\n',
    '{"faces": 2, "seq": 2, "timestamp_us": 2500}\n',
    'not an event\n',
    '{"faces": 3, "seq": 3, "timestamp_us": 4000}\n',
    '{"faces": 1, "seq": 2, "timestamp_us": 5000}\n',  # seq regression
    '{"faces": 1, "seq": 4, "timestamp_us": 7000}\n',
    '{"faces": 0, "seq": 5, "timestamp_us": 9000}\n',
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _replay(directory: Path, mechanism: str):
    """Digests of one replay run, and its MSE values in event order."""
    rng = random.Random(3)
    trace = directory / "trace.txt"
    trace.write_text("".join(f"{rng.randint(0, 5000)} {rng.randint(0, 5)}\n"
                             for _ in range(TRACE_EVENTS)))
    telemetry = directory / f"{mechanism}.jsonl"
    q15 = hashlib.sha256()
    fft_fixed = fft_engines.fft_fixed

    def hashed(block):
        result = fft_fixed(block)
        q15.update(result.re.astype("<i2").tobytes())
        q15.update(result.im.astype("<i2").tobytes())
        return result

    fft_engines.fft_fixed = hashed
    try:
        code, summary = run_cli(["run", "--trace", str(trace), "--seed", "3", "--jitter", "0.1",
                                 "--mechanism", mechanism, "--telemetry-file", str(telemetry)])
    finally:
        fft_engines.fft_fixed = fft_fixed
    assert code == 0
    records = telemetry.read_text()
    mse = [sample["last_mse"] for sample in map(json.loads, records.splitlines())
           if "last_mse" in sample]
    assert SUMMARY_MSE.findall(summary) == [f"{value:.3e}" for value in mse]
    return {"summary_sha256": _sha256(SUMMARY_MSE.sub("", summary)),
            "telemetry_sha256": _sha256(TELEMETRY_MSE.sub("", records)),
            "q15_sha256": q15.hexdigest()}, mse


def _live():
    """Digests of a live run's summary and of the bytes its socket sink received."""
    received = bytearray()
    sink = socket.create_server(("127.0.0.1", 0))
    sink.settimeout(10)

    def read():
        conn, _ = sink.accept()
        with conn:
            while chunk := conn.recv(1 << 16):
                received.extend(chunk)

    t = threading.Thread(target=read)
    t.start()
    host, port = sink.getsockname()
    try:
        code, out = _run_live("0.5", LIVE_LINES, ["--telemetry-socket", f"{host}:{port}"])
    finally:
        t.join(timeout=10)
        sink.close()
    assert not t.is_alive()
    assert code == 0
    assert "malformed lines: 2, dropped events: 0" in out
    summary = re.sub(r"^listening on .*\n", "", SUMMARY_MSE.sub("", out), flags=re.M)
    return {"summary_sha256": _sha256(summary),
            "sink_sha256": _sha256(TELEMETRY_MSE.sub("", received.decode()))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mechanism", controller.MECHANISMS)
def test_replay_matches_golden(tmp_path, golden, mechanism):
    digests, mse = _replay(tmp_path, mechanism)
    assert digests == golden["replay"][mechanism]
    if np.__version__ == golden["numpy"]:
        assert mse == golden["mse"]
    else:
        assert mse == pytest.approx(golden["mse"], rel=MSE_REL_TOL)


def test_live_socket_sink_matches_golden(golden):
    assert _live() == golden["live"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        replays = {mechanism: _replay(Path(tmp), mechanism)
                   for mechanism in controller.MECHANISMS}
    # the mechanism changes no input block, so every replay has the same MSEs
    (mse,) = {tuple(mse) for _, mse in replays.values()}
    GOLDEN.write_text(json.dumps({
        "numpy": np.__version__,
        "replay": {mechanism: digests for mechanism, (digests, _) in replays.items()},
        "mse": list(mse),
        "live": _live(),
    }, indent=1) + "\n")
