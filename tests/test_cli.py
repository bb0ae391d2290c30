import contextlib
import gc
import io
import json
import math
import shutil
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socrm import cli, fft_engines, verify
from socrm.event_bus import MAX_FIELD, Emitter, EventServer


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class TestTables:
    def test_exit_zero(self):
        code, _ = run_cli(["tables"])
        assert code == 0

    def test_power_rows_rendered_from_model(self):
        _, out = run_cli(["tables"])
        assert "425" in out and "2064" in out and "(1187)" in out and "3676" in out
        assert "1358" in out and "(2024)" in out and "1584" in out and "4966" in out

    def test_timing_rows_and_discrepancy_flag(self):
        _, out = run_cli(["tables"])
        assert "50.62" in out and "(5.45)" in out and "9.29" in out
        assert "7.00" in out and "7.9" in out  # computed ratio + flagged print

    def test_budget_rendered(self):
        _, out = run_cli(["tables"])
        assert "21.00" in out and "14.70" in out and "35.7" in out


class TestVerify:
    def test_fresh_build_passes(self):
        code, out = run_cli(["verify"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("[PASS]") == 10

    def test_names_the_active_kernel(self):
        _, out = run_cli(["verify"])
        if shutil.which("cc"):
            assert "[PASS] q15-kernel: c (compiled _q15.c): 48/48 seeded blocks" in out
        else:
            assert "[PASS] q15-kernel: numpy" in out

    def test_names_the_float_fft_entry(self):
        _, out = run_cli(["verify"])
        assert (f"[PASS] fft-float-entry: {fft_engines.float_entry()}: 4/4 sizes "
                "(N=8, 1024, 2048, 4096) bit-identical to numpy.fft.fft") in out

    def test_fault_injection_fails_only_oracle(self, monkeypatch):
        dft_direct = verify.dft_direct

        def corrupted(x):
            ref = dft_direct(x)
            if len(ref) == 64:
                ref[3] += 0.05  # one wrong bin of the N=64 reference
            return ref
        monkeypatch.setattr(verify, "dft_direct", corrupted)
        code, out = run_cli(["verify"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "[FAIL] fft-oracle-equivalence" in out
        assert out.count("[FAIL]") == 1

    def test_deterministic_output(self):
        assert run_cli(["verify"]) == run_cli(["verify"])


class TestRun:
    def test_demo_trace_action_log(self):
        code, out = run_cli(["run"])
        assert code == 0
        assert "NoOp ('APU', 8)" in out
        assert "ScaleOnly ('APU', 8) -> ('APU', 1024)" in out
        assert "MigrateAndScale ('APU', 1024) -> ('PL', 2048)" in out
        assert "ScaleOnly ('PL', 2048) -> ('PL', 4096)" in out
        assert "reconfigurations applied: 3" in out

    def test_fast_forward_determinism(self):
        assert run_cli(["run", "--seed", "3"]) == run_cli(["run", "--seed", "3"])

    def test_scenario_file(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "trace": [[0, 2], [1000, 2], [1000, 0]],
            "seed": 1,
        }))
        code, out = run_cli(["run", str(scenario)])
        assert code == 0
        assert "MigrateAndScale ('APU', 8) -> ('PL', 2048)" in out
        assert "NoOp ('PL', 2048)" in out
        assert "MigrateAndScale ('PL', 2048) -> ('APU', 8)" in out

    def test_trace_file(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("0 0\n500 3\n")
        code, out = run_cli(["run", "--trace", str(trace)])
        assert code == 0
        assert "MigrateAndScale ('APU', 8) -> ('PL', 4096)" in out

    def test_max_events_stops_a_replay(self):
        code, out = run_cli(["run", "--max-events", "1"])
        assert code == 0
        assert "events processed: 1\n" in out

    def test_scenario_max_events_stops_its_trace(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"trace": [[0, 0], [10, 1], [10, 2]], "max_events": 2}))
        code, out = run_cli(["run", str(scenario)])
        assert code == 0
        assert "events processed: 2\n" in out

    def test_pace_flags_exclude_each_other(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--fast-forward", "--wall-clock"])
        assert exc.value.code == cli.EXIT_CONFIG_ERROR

    def test_wall_clock_replays_in_real_time(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("0 0\n50000 1\n")
        t0 = time.monotonic()
        code, out = run_cli(["run", "--trace", str(trace), "--wall-clock"])
        assert time.monotonic() - t0 >= 0.045
        assert code == 0
        assert "events processed: 2\n" in out

    def test_partial_bitstream_overhead_reported(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "trace": [[0, 2]], "mechanism": "partial-bitstream"}))
        _, out = run_cli(["run", str(scenario)])
        assert "overhead=10000us" in out

    def test_telemetry_file_sink(self, tmp_path):
        telemetry_path = tmp_path / "telemetry.jsonl"
        code, out = run_cli(["run", "--telemetry-file", str(telemetry_path)])
        assert code == 0
        assert "telemetry delivered (file): 4" in out
        samples = [json.loads(line) for line in telemetry_path.read_text().splitlines()]
        assert [s["points"] for s in samples] == [8, 1024, 2048, 4096]

    def test_telemetry_socket_sink(self):
        received = []
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def sink():
            conn, _ = srv.accept()
            with conn, conn.makefile("r") as fh:
                received.extend(fh.read().splitlines())

        t = threading.Thread(target=sink)
        t.start()
        host, port = srv.getsockname()
        code, out = run_cli(["run", "--telemetry-socket", f"{host}:{port}"])
        t.join(timeout=2)
        srv.close()
        assert code == 0
        assert len(received) == 4

    def test_file_and_socket_sinks_get_the_same_lines(self, tmp_path):
        received = []
        srv = socket.create_server(("127.0.0.1", 0))

        def sink():
            conn, _ = srv.accept()
            with conn, conn.makefile("r") as fh:
                received.extend(fh.readlines())

        t = threading.Thread(target=sink)
        t.start()
        host, port = srv.getsockname()
        telemetry_path = tmp_path / "telemetry.jsonl"
        code, out = run_cli(["run", "--jitter", "0.1", "--telemetry-file", str(telemetry_path),
                             "--telemetry-socket", f"{host}:{port}"])
        t.join(timeout=2)
        srv.close()
        assert code == 0
        assert "telemetry delivered (file): 4" in out
        assert "telemetry delivered (socket): 4" in out
        assert received == telemetry_path.read_text().splitlines(keepends=True)

    def test_failed_sinks_keep_the_summary(self, tmp_path, capsys):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()
        code, out = run_cli(["run", "--telemetry-socket", f"{host}:{port}",
                             "--telemetry-file", str(tmp_path / "missing" / "t.jsonl")])
        assert code == cli.EXIT_RUNTIME_ERROR
        assert "== action log ==" in out
        assert "ScaleOnly ('PL', 2048) -> ('PL', 4096)" in out
        assert "events processed: 4" in out
        assert "telemetry delivered (file): 0" in out
        assert "telemetry delivered (socket): 0" in out
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(line.startswith("runtime error: ") for line in errors)

    def test_run_loop_holds_off_the_cyclic_collector(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"500 {i % 5}\n" for i in range(200)))
        args = cli._build_parser().parse_args(["run", "--trace", str(trace), "--jitter", "0.1"])
        collecting = []
        process_event = cli.controller.Controller.process_event
        monkeypatch.setattr(cli.controller.Controller, "process_event",
                            lambda self, event: collecting.append(gc.isenabled())
                            or process_event(self, event))
        assert gc.isenabled()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.cmd_run(args) == 0
        assert collecting == [False] * 200
        assert gc.isenabled()
        # and the run leaves the collector nothing to free
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.cmd_run(args) == 0
            assert gc.collect() == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_live_mode_with_external_emitter(self):
        code, out = _run_live("10")
        assert code == 0
        assert "MigrateAndScale ('APU', 8) -> ('PL', 2048)" in out

    @pytest.mark.parametrize("idle_timeout", ["1e7", "1e300"])
    def test_live_mode_takes_any_finite_idle_timeout(self, idle_timeout):
        code, out = _run_live(idle_timeout)
        assert code == 0
        assert "events processed: 1" in out

    def test_live_field_over_bound_is_a_malformed_line(self):
        code, out = _run_live("0.5", [
            '{"faces": 0, "seq": 1, "timestamp_us": 0}\n',
            '{"faces": 1, "seq": 2, "timestamp_us": %d}\n' % 10 ** 400,
            '{"faces": 2, "seq": 3, "timestamp_us": %d}\n' % MAX_FIELD])
        assert code == 0
        assert "events processed: 2" in out
        assert "malformed lines: 1, dropped events: 0" in out
        assert f"dwell {MAX_FIELD} us" in out

    def test_backwards_timestamps_dwell_zero(self):
        # two emitters' clocks can interleave backwards; seq alone must rise
        code, out = _run_live("0.5", [
            '{"faces": 0, "seq": 1, "timestamp_us": 5000}\n',
            '{"faces": 1, "seq": 2, "timestamp_us": 1000}\n',
            '{"faces": 0, "seq": 3, "timestamp_us": 3000}\n'])
        assert code == 0
        assert "events processed: 3" in out
        assert "(APU, 8): dwell 0 us" in out
        assert "(APU, 1024): dwell 2000 us" in out
        assert "-" not in out.split("== dwell / energy ==")[1].split("== totals ==")[0]

    def test_largest_field_value_runs(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"0 0\n{MAX_FIELD} {MAX_FIELD}\n0 1\n")
        code, out = run_cli(["run", "--trace", str(trace)])
        assert code == 0
        assert f"(APU, 8): dwell {MAX_FIELD} us" in out
        assert f"faces={MAX_FIELD} t={MAX_FIELD}us" in out

    def test_sink_reset_mid_stream_keeps_the_summary(self, tmp_path, capsys,
                                                      resetting_sink):
        (host, port), received = resetting_sink
        trace = tmp_path / "trace.txt"
        trace.write_text("0 0\n" * RESET_TRACE_EVENTS)
        code, out = run_cli(["run", "--trace", str(trace),
                             "--telemetry-socket", f"{host}:{port}"])
        assert code == cli.EXIT_RUNTIME_ERROR
        assert f"events processed: {RESET_TRACE_EVENTS}" in out
        delivered = int(out.split("telemetry delivered (socket): ")[1].split()[0])
        assert len(received) <= delivered < RESET_TRACE_EVENTS
        assert capsys.readouterr().err.startswith("runtime error: socket sink")

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["run", str(bad)])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_unknown_scenario_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        code, _ = run_cli(["run", str(bad)])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_trace_and_listen_conflict(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        for trace in ([[0, 0]], []):  # an empty trace is still a trace
            scenario.write_text(json.dumps({"trace": trace, "listen": "127.0.0.1:1"}))
            code, _ = run_cli(["run", str(scenario)])
            assert code == cli.EXIT_CONFIG_ERROR
            assert "choose either a trace or a listen address" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, trace_text", [
        ({"seed": "abc"}, None),
        ({"seed": True}, None),
        ({"seed": -1}, None),
        ({"jitter": -0.1}, None),
        ({"jitter": 2.0}, None),
        ({"jitter": "0.1"}, None),
        ({"max_events": 0}, None),
        ({"max_events": 2.5}, None),
        ({"idle_timeout": 0}, None),
        ({"fast_forward": "yes"}, None),
        ({"trace": [[0, -1]]}, None),
        ({"trace": [[-1, 0]]}, None),
        ({"trace": [[0, 1.5]]}, None),
        ({"trace": [[0]]}, None),
        ({"trace": "0 1"}, None),
        ({"trace_path": ["trace.txt"]}, None),
        ({"listen": 9000}, None),
        ({"telemetry_file": ["out.jsonl"]}, None),
        ({"telemetry_socket": 1}, None),
        ({"profile": {"timing_us": {}}}, None),
        ({}, "0 1\n0 -1\n"),
        ({}, "-5 1\n"),
        ({"idle_timeout": 10 ** 400}, None),
        ({"trace": [[0, 0], [MAX_FIELD + 1, 1]]}, None),
        ({"trace": [[0, MAX_FIELD + 1]]}, None),
        ({}, f"0 0\n{MAX_FIELD + 1} 1\n"),
        ({"idle_timeout": float("inf")}, None),
        ({"trace": [[0, True]]}, None),
        ({"trace_path": ""}, None),
        ({"listen": ""}, None),
        ({"telemetry_file": ""}, None),
        ({"telemetry_socket": ""}, None),
        ({"profile": ""}, None),
        ({}, "1_0 2\n"),
        ({}, "+5 1\n"),
        ({}, "\u0661 3\n"),
    ])
    def test_bad_run_input_is_config_error(self, tmp_path, scenario, trace_text):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["run", str(path)]
        if trace_text is not None:
            trace = tmp_path / "trace.txt"
            trace.write_text(trace_text)
            argv += ["--trace", str(trace)]
        code, _ = run_cli(argv)
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param('{"seed": ' + "9" * 5000 + "}", id="5000-digit-seed"),
    ])
    def test_unreadable_scenario_is_config_error(self, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, _ = run_cli(["run", str(path)])
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--listen", "127.0.0.1:99999"], id="listen"),
        pytest.param(["run", "--telemetry-socket", "127.0.0.1:65536"], id="telemetry-socket"),
        pytest.param(["emit", "--target", "127.0.0.1:70000", "--faces", "1"], id="emit-target"),
        pytest.param(["run", "--listen", "127.0.0.1:\u00b2"], id="listen-superscript"),
        pytest.param(["run", "--telemetry-socket", "127.0.0.1:\u00b2"],
                     id="telemetry-socket-superscript"),
        pytest.param(["emit", "--target", "127.0.0.1:\u00b2", "--faces", "1"],
                     id="emit-target-superscript"),
    ])
    def test_port_out_of_range_is_config_error(self, argv):
        code, _ = run_cli(argv)
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("flag", ["--trace", "--listen", "--telemetry-file",
                                      "--telemetry-socket", "--profile"])
    def test_empty_path_flag_is_config_error(self, flag, capsys):
        code, out = run_cli(["run", f"{flag}="])
        assert code == cli.EXIT_CONFIG_ERROR
        assert out == ""
        assert "must be a non-empty string or null" in capsys.readouterr().err

    def test_bad_scenario_mechanism_message(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"mechanism": "x"}))
        assert run_cli(["run", str(path)])[0] == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == ("configuration error: mechanism must be "
                                           "clock-gating or partial-bitstream, got 'x'\n")

    def test_runtime_error_exit_code(self):
        code, _ = run_cli(["run", "--trace", "/does/not/exist"])
        assert code == cli.EXIT_RUNTIME_ERROR


def _run_live(idle_timeout: str, lines=None, extra=()):
    """`socrm run --listen` on a free port with the further arguments `extra`,
    fed either one faces=2 event by an external emitter with --max-events 1,
    or the raw wire `lines` over one connection until the run idles out;
    returns (exit code, stdout)."""
    # bind our own server first to learn a free port, then reuse it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()

    result = {}

    argv = ["run", "--listen", f"{host}:{port}", "--idle-timeout", idle_timeout, *extra]
    if lines is None:
        argv += ["--max-events", "1"]

    def run():
        result["ret"] = run_cli(argv)

    t = threading.Thread(target=run)
    t.start()
    # wait for the server to come up, then send
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            if lines is None:
                with Emitter((host, port)) as emitter:
                    emitter.emit(2)
            else:
                with socket.create_connection((host, port)) as sock:
                    sock.sendall("".join(lines).encode())
            break
        except OSError:  # a TransportError too: the server is not up yet
            time.sleep(0.05)
    t.join(timeout=10)
    assert not t.is_alive()
    return result["ret"]


# enough telemetry records that the sink's reset lands while they are still
# being sent, whatever the loopback socket buffers hold
RESET_TRACE_EVENTS = 10_000


def _full_profile():
    from socrm.power_model import DEFAULT_POWER_PROFILE
    from socrm.timing_model import DEFAULT_TIMING_PROFILE

    def nest(flat):
        out = {}
        for (domain, points), value in flat.items():
            out.setdefault(domain, {})[str(points)] = value
        return out
    return {"timing_us": nest(DEFAULT_TIMING_PROFILE),
            "power_mw": nest({k: list(v) for k, v in DEFAULT_POWER_PROFILE.items()})}


def _edited(path, value):
    """The full default profile with the field at `path` set to `value`."""
    profile = _full_profile()
    node = profile
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return profile


@pytest.mark.parametrize("profile", [
    pytest.param([1, 2], id="top-level-list"),
    pytest.param(_edited(["timing"], {}), id="unknown-top-level-key"),
    pytest.param({"timing_us": {"APU": {"8": 1.0}, "PL": {"8": 0.5}}}, id="timing-only-at-8"),
    pytest.param({"power_mw": {"APU": {"8": [425, 2064, 1187]}}}, id="power-only-at-apu-8"),
    pytest.param(_edited(["power_mw", "APU", "8"], [425, 2064]), id="power-row-of-two"),
    pytest.param(_edited(["power_mw", "PL", "2048"], [1, 2, 3, 4]), id="power-row-of-four"),
    pytest.param(_edited(["power_mw", "APU", "8"], [-425, 2064, 1187]), id="negative-power"),
    pytest.param(_edited(["power_mw", "APU", "8"], ["425", 2064, 1187]), id="string-power"),
    pytest.param(_edited(["timing_us", "APU", "8"], 0), id="zero-time"),
    pytest.param(_edited(["timing_us", "APU", "8"], -1.0), id="negative-time"),
    pytest.param(_edited(["timing_us", "APU", "8"], True), id="bool-time"),
    pytest.param(_edited(["timing_us", "APU", "8"], "0.28"), id="string-time"),
    pytest.param(_edited(["timing_us", "APU", "8"], float("nan")), id="nan-time"),
    pytest.param(_edited(["timing_us", "APU", "7"], 1.0), id="size-not-power-of-two"),
    pytest.param(_edited(["timing_us", "APU", "1"], 1.0), id="size-one"),
    pytest.param(_edited(["timing_us", "GPU"], {"8": 1.0}), id="unknown-domain"),
    pytest.param(_edited(["timing_us", "APU"], [0.28]), id="domain-not-an-object"),
    # numbers over MAX_FIELD: a row total of 2e308 is inf, and so is the
    # largest float after upward jitter
    pytest.param(_edited(["power_mw", "APU", "8"], [1e308, 1e308, 0]), id="row-total-overflows"),
    pytest.param(_edited(["timing_us", "APU", "8"], sys.float_info.max), id="time-at-float-max"),
    pytest.param(_edited(["power_mw", "PL", "2048"], [0, MAX_FIELD + 1, 0]),
                 id="power-over-max-field"),
    # static rail power lives in the power rows alone, so this section is refused
    # whatever it holds
    pytest.param(_edited(["static_mw"], {"APU": 2024, "PL": 1187}), id="static-section"),
    pytest.param(_edited(["static_mw"], {"APU": 2024, "PL": -1}), id="negative-static"),
    pytest.param(_edited(["static_mw"], {"APU": True, "PL": 1187}), id="bool-static"),
])
def test_hostile_profile_is_config_error(tmp_path, profile):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, _ = run_cli(["run", "--profile", str(path)])
    assert code == cli.EXIT_CONFIG_ERROR


def test_full_profile_runs(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(_full_profile()))
    assert run_cli(["run", "--profile", str(path)]) == run_cli(["run"])


def _strict_records(path) -> list:
    """The JSON lines of a telemetry file; `inf`, `Infinity` or `NaN` fail."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return [json.loads(line, parse_constant=refuse) for line in path.read_text().splitlines()]


def test_profile_numbers_at_max_field_give_parseable_telemetry(tmp_path):
    profile = _edited(["power_mw", "APU", "8"], [MAX_FIELD] * 3)
    profile["timing_us"]["APU"]["8"] = MAX_FIELD
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    telemetry = tmp_path / "telemetry.jsonl"
    code, out = run_cli(["run", "--profile", str(path), "--jitter", "0.5",
                         "--telemetry-file", str(telemetry)])
    assert code == cli.EXIT_OK
    first, *rest = _strict_records(telemetry)
    assert (first["domain"], first["points"], first["total_mw"]) == ("APU", 8, 3.0 * MAX_FIELD)
    assert math.isfinite(first["last_exec_time_us"]) and first["last_exec_time_us"] > 0
    assert all(math.isfinite(record["total_mw"]) for record in rest)
    assert "inf" not in out


class TestEmit:
    def test_emit_to_server(self):
        server = EventServer("127.0.0.1", 0).start()
        try:
            host, port = server.address
            code, out = run_cli(["emit", "--target", f"{host}:{port}",
                                 "--faces", "2"])
            assert code == 0
            assert "sent seq=1 faces=2" in out
            assert server.get(timeout=2.0).faces == 2
        finally:
            server.stop()

    def test_emit_to_closed_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()
        code, _ = run_cli(["emit", "--target", f"{host}:{port}", "--faces", "1"])
        assert code == cli.EXIT_RUNTIME_ERROR

    def test_negative_faces_send_nothing(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            code, out = run_cli(["emit", "--target", f"{host}:{port}",
                                 "--faces", "1", "--faces", "-1"])
            assert code == cli.EXIT_CONFIG_ERROR
            assert out == ""
            # emit connects synchronously, so a connection would be waiting
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()


class TestProfiles:
    def test_custom_profile_swaps_tables(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "timing_us": {"APU": {"8": 1.0}, "PL": {"8": 0.5}},
        }))
        from socrm.profiles import models_from_profile
        timing, power = models_from_profile(profile)
        assert timing.lookup_exec_time("APU", 8).exec_time_us == 1.0
        assert timing.acceleration_factor(8) == 2.0
        with pytest.raises(KeyError):
            timing.lookup_exec_time("APU", 1024)
        # power falls back to the embedded defaults when absent
        assert power.power_breakdown("APU", 8).total_mw == 3676


# Hostile-input properties: whatever the file holds, a run either loads it or
# ends with exit 2, never with a traceback.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
numbers = st.integers(min_value=-3, max_value=5000) | st.floats()
# the bound on every profile number, the first number over it, and the largest
# float, which overflows in a row total or under jitter
bounds = st.sampled_from([MAX_FIELD, MAX_FIELD + 1, sys.float_info.max])
domains = st.sampled_from(["APU", "PL", "GPU", ""])
sizes = st.sampled_from(["2", "8", "1024", "2048", "4096", "3", "0", "-8", "08", "1e3"])


def _profile_section(leaf):
    by_size = st.dictionaries(sizes, leaf | json_values, max_size=5)
    return st.dictionaries(domains, by_size | json_values, max_size=3) | json_values


# every number of the full default profile, by its path
_PROFILE_LEAVES = [
    [section, domain, size, *index]
    for section, by_domain in _full_profile().items()
    for domain, by_size in by_domain.items()
    for size, value in by_size.items()
    for index in ([[i] for i in range(len(value))] if isinstance(value, list) else [[]])]
profiles = json_values | st.fixed_dictionaries({}, optional={
    "timing_us": _profile_section(numbers),
    "power_mw": _profile_section(st.lists(numbers, min_size=2, max_size=4)),
    "static_mw": st.dictionaries(domains, numbers | json_values, max_size=3),
    "extra": json_values,
})
trace_lines = st.tuples(st.integers(-3, 10 ** 6), st.integers(-3, 9)).map(
    lambda pair: f"{pair[0]} {pair[1]}") | st.sampled_from(
    ["", "# comment", "1 2 # comment", "1", "1 2 3", "x 1", "1_0 2", "\u0661 2",
     f"{2**53} 1"])
trace_texts = st.text() | st.lists(trace_lines, max_size=8).map("\n".join)
scenarios = st.dictionaries(
    st.sampled_from([*cli.RUN_FIELDS, "unknown"]),
    json_values | numbers, max_size=4)
hostile = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@hostile
@given(text=trace_texts)
def test_any_trace_file_loads_or_is_config_error(tmp_path, text):
    path = tmp_path / "trace.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        trace = cli.event_bus.load_trace(path)
    except ValueError:
        expected = cli.EXIT_CONFIG_ERROR
    else:
        expected = cli.EXIT_OK
        assert all(delay >= 0 and faces >= 0 for delay, faces in trace)
    assert run_cli(["run", "--trace", str(path)])[0] == expected


def _run_profile(tmp_path, profile):
    """Run the demo trace on `profile` with jitter: it exits 0 with telemetry
    that is JSON and has finite rows, or exits 2."""
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    telemetry = tmp_path / "telemetry.jsonl"
    telemetry.unlink(missing_ok=True)
    code, _ = run_cli(["run", "--profile", str(path), "--jitter", "0.5",
                       "--telemetry-file", str(telemetry)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR)
    if code == cli.EXIT_OK:
        assert all(math.isfinite(record["total_mw"]) for record in _strict_records(telemetry))


@hostile
@given(profile=profiles)
def test_any_profile_loads_or_is_config_error(tmp_path, profile):
    _run_profile(tmp_path, profile)


@hostile
@given(leaf=st.sampled_from(_PROFILE_LEAVES), value=bounds | numbers)
def test_any_number_of_the_full_profile_loads_or_is_config_error(tmp_path, leaf, value):
    _run_profile(tmp_path, _edited(leaf, value))


@hostile
@given(scenario=scenarios)
def test_any_scenario_object_merges_or_is_config_error(tmp_path, scenario):
    # the merge only: a merged scenario may name sockets and files to open
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    args = cli._build_parser().parse_args(["run", str(path)])
    try:
        cfg = cli._merge_run_config(args)
    except cli.ConfigError:
        return
    assert set(cfg) == set(cli.RUN_FIELDS)
    assert all(valid(cfg[key]) for key, (_, valid, _) in cli.RUN_FIELDS.items())
