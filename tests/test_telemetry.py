import json
import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socrm import controller as ctl
from socrm import telemetry as tm
from socrm.controller import Controller
from socrm.event_bus import FaceEvent
from socrm.power_model import PowerModel


@pytest.fixture
def power():
    return PowerModel()


def make_samples(faces_list, power):
    ctrl = Controller(seed=0)
    samples = []
    for i, faces in enumerate(faces_list):
        report = ctrl.process_event(FaceEvent(faces, i + 1, i * 1000))
        samples.append(tm.take_sample(report.state, power, report))
    return samples


def decode(lines):
    return [json.loads(line) for line in lines]


class TestSample:
    def test_pl_2048_row(self, power):
        sample = make_samples([2], power)[0]
        assert (sample["pl_mw"], sample["apu_mw"], sample["total_mw"]) == (1365, 2024, 4354)
        assert sample["domain"] == "PL" and sample["points"] == 2048
        assert sample["last_mse"] > 0

    def test_additivity(self, power):
        for sample in make_samples([0, 1, 2, 3], power):
            assert sample["total_mw"] == sample["ddr_mw"] + sample["apu_mw"] + sample["pl_mw"]

    def test_unchanged_state_identical_but_timestamp(self, power):
        ctrl = Controller(seed=0)
        first = ctrl.process_event(FaceEvent(1, 1, 100))
        second = ctrl.process_event(FaceEvent(1, 2, 200))
        assert second.state is first.state
        a = tm.take_sample(first.state, power, first)
        b = tm.take_sample(second.state, power, second)
        assert b["timestamp_us"] == 200
        assert {**b, "timestamp_us": 100} == a

    def test_migration_bumps_generation_and_pl_rail(self, power):
        samples = make_samples([1, 2], power)
        before, after = samples
        assert after["generation"] == before["generation"] + 1
        assert before["pl_mw"] == 1187  # the PL rail's static power
        assert after["pl_mw"] > 1187


class TestSerialization:
    def test_round_trip(self, power):
        for sample in make_samples([0, 1, 2, 3], power):
            assert json.loads(tm.render_sample(sample)) == sample

    def test_absent_mse_round_trips(self, power):
        sample = make_samples([0], power)[0]
        assert "last_mse" not in sample
        line = tm.render_sample(sample)
        assert "last_mse" not in line
        assert json.loads(line) == sample

    def test_wire_bytes(self, power):
        """Field order, float formatting and the omitted `last_mse`, byte for byte."""
        apu = ctl.FunctionState(ctl.APU, 8, 0)
        pl = ctl.FunctionState(ctl.PL, 2048, 1)
        action = ctl.plan_action(apu, pl.config)
        lines = [
            tm.render_sample(tm.take_sample(apu, power, ctl.ExecutionReport(
                state=apu, action=action, event=FaceEvent(0, 6, 1000),
                exec_time_us=0.28, mse=None))),
            tm.render_sample(tm.take_sample(pl, power, ctl.ExecutionReport(
                state=pl, action=action, event=FaceEvent(2, 7, 5000),
                exec_time_us=8.7, mse=0.00125))),
        ]
        assert lines == [
            '{"timestamp_us": 1000, "domain": "APU", "points": 8, "ddr_mw": 425.0,'
            ' "apu_mw": 2064.0, "pl_mw": 1187.0, "total_mw": 3676.0,'
            ' "last_exec_time_us": 0.28, "generation": 0}\n',
            '{"timestamp_us": 5000, "domain": "PL", "points": 2048, "ddr_mw": 965.0,'
            ' "apu_mw": 2024.0, "pl_mw": 1365.0, "total_mw": 4354.0,'
            ' "last_exec_time_us": 8.7, "last_mse": 0.00125, "generation": 1}\n',
        ]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0)
numbers = finite_floats | counts


@st.composite
def records(draw):
    """Records in `take_sample`'s field order, with and without `last_mse`."""
    sample = {"timestamp_us": draw(counts), "domain": draw(st.sampled_from([ctl.APU, ctl.PL])),
              "points": draw(counts), "ddr_mw": draw(numbers), "apu_mw": draw(numbers),
              "pl_mw": draw(numbers), "total_mw": draw(numbers),
              "last_exec_time_us": draw(numbers)}
    if draw(st.booleans()):
        sample["last_mse"] = draw(finite_floats)
    sample["generation"] = draw(counts)
    return sample


class TestRenderer:
    @given(records())
    def test_matches_json_dumps(self, sample):
        assert tm.render_sample(sample) == json.dumps(sample) + "\n"


class TestExport:
    def test_file_export_round_trip(self, power, tmp_path):
        samples = make_samples([0, 1, 2, 3, 0, 2, 3, 1, 0, 2], power)
        path = tmp_path / "telemetry.jsonl"
        assert tm.export_to_file(samples, path) == 10
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        assert decode(lines) == samples

    def test_file_export_appends(self, power, tmp_path):
        samples = make_samples([0, 1], power)
        path = tmp_path / "telemetry.jsonl"
        tm.export_to_file(samples[:1], path)
        tm.export_to_file(samples[1:], path)
        assert len(path.read_text().splitlines()) == 2

    def test_empty_stream(self, power, tmp_path):
        assert tm.export_to_file([], tmp_path / "x.jsonl") == 0

    def test_socket_export(self, power):
        samples = make_samples([0, 1, 2], power)
        received = []
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        srv.settimeout(10)  # a test that fails before connecting ends its sink

        def sink():
            conn, _ = srv.accept()
            with conn, conn.makefile("r") as fh:
                received.extend(fh.read().splitlines())

        t = threading.Thread(target=sink)
        t.start()
        delivered = tm.export_to_socket(samples, srv.getsockname())
        t.join(timeout=2)
        srv.close()
        assert delivered == 3
        assert decode(received) == samples

    def test_socket_failure_reports_partial_count(self, power):
        samples = make_samples([0], power)
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead = sock.getsockname()
        sock.close()
        with pytest.raises(tm.ExportError) as exc:
            tm.export_to_socket(samples, dead)
        assert exc.value.delivered == 0

    def test_sink_reset_mid_stream_reports_partial_count(self, power, resetting_sink):
        address, received = resetting_sink
        samples = make_samples([0, 1], power) * 5_000
        with pytest.raises(tm.ExportError) as exc:
            tm.export_to_socket(samples, address)
        assert len(received) <= exc.value.delivered < len(samples)
        assert decode(received) == samples[:len(received)]


class TestEnergyAccounting:
    def test_energy_from_dwell_times(self, power):
        dwell = {("APU", 8): 1000, ("PL", 2048): 2000}
        expected = (3676 * 1000 + 4354 * 2000) / 1e6
        assert tm.energy_mj(dwell, power) == expected
