import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socrm import controller as ctl
from socrm import fft_engines
from socrm.event_bus import MAX_FIELD, FaceEvent, replay
from socrm.power_model import PowerModel


def make_events(faces_list):
    return [FaceEvent(f, i + 1, i * 1000) for i, f in enumerate(faces_list)]


class TestDecide:
    @pytest.mark.parametrize("faces,expected", [
        (0, (ctl.APU, 8)),
        (1, (ctl.APU, 1024)),
        (2, (ctl.PL, 2048)),
        (3, (ctl.PL, 4096)),
        (17, (ctl.PL, 4096)),
    ])
    def test_rule_map(self, faces, expected):
        assert ctl.decide(faces) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ctl.decide(-1)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_faces(self, a, b):
        if a > b:
            a, b = b, a
        assert ctl.decide(a)[1] <= ctl.decide(b)[1]

    @given(st.integers(min_value=3, max_value=10_000))
    def test_saturates_above_two(self, faces):
        assert ctl.decide(faces) == (ctl.PL, 4096)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_single_migration_boundary(self, faces):
        domain = ctl.decide(faces)[0]
        assert domain == (ctl.APU if faces <= 1 else ctl.PL)


class TestPlanAction:
    def test_migrate_and_scale(self):
        state = ctl.FunctionState(ctl.APU, 1024, 1)
        action = ctl.plan_action(state, (ctl.PL, 2048))
        assert action.kind == ctl.MIGRATE_AND_SCALE
        assert action.overhead_us == 0.0

    def test_noop_identity(self):
        state = ctl.initial_state()
        action = ctl.plan_action(state, (ctl.APU, 8))
        assert action.kind == ctl.NO_OP
        assert action.overhead_us == 0.0

    def test_scale_only(self):
        state = ctl.initial_state()
        assert ctl.plan_action(state, (ctl.APU, 1024)).kind == ctl.SCALE_ONLY

    def test_partial_bitstream_overhead_on_pl_activation(self):
        state = ctl.initial_state()
        action = ctl.plan_action(state, (ctl.PL, 2048),
                                 mechanism=ctl.PARTIAL_BITSTREAM)
        assert action.overhead_us == 10_000

    def test_partial_bitstream_no_overhead_back_to_apu(self):
        state = ctl.FunctionState(ctl.PL, 4096, 3)
        action = ctl.plan_action(state, (ctl.APU, 8),
                                 mechanism=ctl.PARTIAL_BITSTREAM)
        assert action.kind == ctl.MIGRATE_AND_SCALE
        assert action.overhead_us == 0.0


class TestPlanMemo:
    def test_repeated_calls_share_one_action(self):
        first = ctl.plan_action(ctl.FunctionState(ctl.APU, 1024, 1), (ctl.PL, 2048))
        # the generation is not part of the plan
        again = ctl.plan_action(ctl.FunctionState(ctl.APU, 1024, 7), (ctl.PL, 2048))
        assert again is first

    def test_mechanisms_get_distinct_actions(self):
        state = ctl.initial_state()
        gating = ctl.plan_action(state, (ctl.PL, 2048), ctl.CLOCK_GATING)
        bitstream = ctl.plan_action(state, (ctl.PL, 2048), ctl.PARTIAL_BITSTREAM)
        assert gating is not bitstream
        assert gating.overhead_us == 0.0
        assert bitstream.overhead_us == ctl.PARTIAL_BITSTREAM_OVERHEAD_US
        assert ctl.plan_action(state, (ctl.PL, 2048), ctl.CLOCK_GATING) is gating
        assert ctl.plan_action(state, (ctl.PL, 2048), ctl.PARTIAL_BITSTREAM) is bitstream

    def test_list_target_accepted(self):
        state = ctl.initial_state()
        action = ctl.plan_action(state, [ctl.PL, 4096])
        assert action.to_config == (ctl.PL, 4096)
        assert isinstance(action.to_config, tuple)
        assert action is ctl.plan_action(state, (ctl.PL, 4096))

    def test_stale_shared_action_rejected(self):
        pl = ctl.FunctionState(ctl.PL, 2048, 2)
        action = ctl.plan_action(pl, (ctl.APU, 8))
        assert ctl.apply_action(pl, action) == ctl.FunctionState(ctl.APU, 8, 3)
        with pytest.raises(RuntimeError, match="action planned from"):
            ctl.apply_action(ctl.initial_state(), action)

    def test_reports_of_a_run_share_actions(self):
        c = ctl.Controller(seed=0)
        actions = [c.process_event(FaceEvent(i % 2, i, i * 1000))[1] for i in range(1, 101)]
        assert len({id(a) for a in actions}) == 2  # ScaleOnly 8 -> 1024 and back


class TestApply:
    def test_migrate_updates_gating_and_generation(self):
        state = ctl.FunctionState(ctl.APU, 1024, 4)
        action = ctl.plan_action(state, (ctl.PL, 2048))
        new = ctl.apply_action(state, action)
        assert new == ctl.FunctionState(ctl.PL, 2048, 5)
        assert state.pl_clock_gated and not new.pl_clock_gated

    def test_noop_leaves_state_unchanged(self):
        state = ctl.initial_state()
        assert ctl.apply_action(state, ctl.plan_action(state, state.config)) is state

    def test_stale_action_rejected(self):
        state = ctl.initial_state()
        action = ctl.plan_action(ctl.FunctionState(ctl.PL, 2048, 2),
                                 (ctl.APU, 8))
        with pytest.raises(RuntimeError, match="action planned from"):
            ctl.apply_action(state, action)


class TestProcessEvent:
    def test_demo_trace(self):
        c = ctl.Controller(seed=0)
        results = [c.process_event(e) for e in make_events([0, 1, 2, 3])]
        configs = [state.config for state, _, _ in results]
        assert configs == [(ctl.APU, 8), (ctl.APU, 1024),
                           (ctl.PL, 2048), (ctl.PL, 4096)]
        kinds = [action.kind for _, action, _ in results]
        assert kinds == [ctl.NO_OP, ctl.SCALE_ONLY,
                         ctl.MIGRATE_AND_SCALE, ctl.SCALE_ONLY]
        gated = [state.pl_clock_gated for state, _, _ in results]
        assert gated == [True, True, False, False]

    def test_repeated_event_is_noop(self):
        c = ctl.Controller(seed=0)
        c.process_event(FaceEvent(2, 1, 0))
        _, action, _ = c.process_event(FaceEvent(2, 2, 1000))
        assert action.kind == ctl.NO_OP

    def test_return_to_apu_regates_pl(self):
        c = ctl.Controller(seed=0)
        c.process_event(FaceEvent(3, 1, 0))
        state, action, _ = c.process_event(FaceEvent(0, 2, 1000))
        assert action.kind == ctl.MIGRATE_AND_SCALE
        assert state.config == (ctl.APU, 8)
        assert state.pl_clock_gated

    def test_generation_counts_non_noops(self):
        c = ctl.Controller(seed=0)
        faces = [0, 0, 1, 1, 2, 3, 3, 0]
        non_noop = 0
        for event in make_events(faces):
            state, action, _ = c.process_event(event)
            if action.kind != ctl.NO_OP:
                non_noop += 1
            assert state.generation == non_noop
            assert state.pl_clock_gated == (state.domain == ctl.APU)

    def test_report_carries_model_figures(self):
        c = ctl.Controller(seed=0)
        _, _, report = c.process_event(FaceEvent(2, 1, 0))
        assert report.exec_time_us == 8.7
        assert PowerModel().power_breakdown(*report.state.config).total_mw == 4354
        assert report.mse is not None and report.mse > 0

    def test_apu_report_has_no_mse(self):
        c = ctl.Controller(seed=0)
        _, _, report = c.process_event(FaceEvent(1, 1, 0))
        assert report.mse is None
        assert report.exec_time_us == 50.62

    def test_replay_determinism(self):
        trace = [(0, 0), (1000, 1), (1000, 2), (1000, 3), (1000, 0)]

        def run():
            c = ctl.Controller(seed=7)
            return [c.process_event(event)[2]
                    for event in replay(trace, fast_forward=True)]

        first, second = run(), run()
        assert [(r.state, r.action, r.exec_time_us, r.mse) for r in first] == \
               [(r.state, r.action, r.exec_time_us, r.mse) for r in second]


class TestTransitionRows:
    """`process_event` looks each action up in a row built at construction;
    it must act exactly as `decide` -> `plan_action` -> `apply_action`."""

    @pytest.mark.parametrize("mechanism", ctl.MECHANISMS)
    @settings(deadline=None)
    @given(st.lists(st.integers(0, 5) | st.integers(0, MAX_FIELD), max_size=30))
    def test_matches_the_decide_plan_apply_chain(self, mechanism, faces):
        c = ctl.Controller(mechanism=mechanism, seed=0)
        previous, shadow = c._state, ctl.initial_state()
        for event in make_events(faces):
            state, action, report = c.process_event(event)
            planned = ctl.plan_action(shadow, ctl.decide(event.faces), mechanism)
            shadow = ctl.apply_action(shadow, planned)
            assert action is planned
            assert state == shadow
            if action.kind == ctl.NO_OP:
                assert state is previous
            assert (report.state, report.action) == (state, action)
            previous = state

    def test_negative_count_changes_nothing(self, monkeypatch):
        blocks = []
        transform = fft_engines.transform

        def recording(x):
            blocks.append(x.copy())
            return transform(x)

        monkeypatch.setattr(fft_engines, "transform", recording)
        seen, fresh = ctl.Controller(seed=4), ctl.Controller(seed=4)
        for c in (seen, fresh):
            c.process_event(FaceEvent(3, 1, 0))
            c.process_event(FaceEvent(0, 2, 1000))
        state, pooled = seen._state, seen._pooled
        with pytest.raises(ValueError, match="^face count must be non-negative$"):
            seen.process_event(FaceEvent(-1, 3, 2000))
        assert seen._state is state and seen._pooled == pooled
        del blocks[:]
        for c in (seen, fresh):
            c.process_event(FaceEvent(1, 4, 3000))
        assert len(blocks) == 2
        assert np.array_equal(blocks[0].view(np.uint64), blocks[1].view(np.uint64))


class TestInputBlocks:
    """Whether a block is copied out of the controller's pool of draws, takes
    what is left of it or draws its own, the controller must feed the FFTs
    exactly the blocks two `uniform(-0.5, 0.5, n)` calls give."""

    FACES = [0, 1, 2, 3, 1, 0, 3, 3, 2, 0, 2, 1]

    @staticmethod
    def reference(seed, faces):
        rng = np.random.default_rng(seed)
        for count in faces:
            n = ctl.decide(count)[1]
            yield n, rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)

    @pytest.mark.parametrize("seed", [0, 1, 3, 606, 2 ** 31 - 1])
    def test_blocks_and_mse_match_two_uniform_draws(self, seed, monkeypatch):
        blocks = []
        transform = fft_engines.transform

        def recording(x):
            blocks.append(x.copy())
            return transform(x)

        monkeypatch.setattr(fft_engines, "transform", recording)
        c = ctl.Controller(seed=seed)
        reports = [c.process_event(event)[2] for event in make_events(self.FACES)]
        monkeypatch.undo()

        assert {r.state.points for r in reports} == {n for _, n in ctl.RULES.values()}
        assert len(blocks) == len(reports)
        for block, report, (n, expected) in zip(blocks, reports,
                                                self.reference(seed, self.FACES)):
            assert block.dtype == np.complex128 and block.shape == (n,)
            assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
            if report.state.domain == ctl.PL:
                fixed = fft_engines.fft_fixed(fft_engines.quantize(expected))
                assert report.mse == fft_engines.mse(
                    fft_engines.fft_float(expected), fft_engines.dequantize(fixed) * n)
            else:
                assert report.mse is None

    # APU 8 blocks per full pool
    PER_POOL = ctl.POOL_SIZE // 16
    # from a fresh controller: many refills, each pool emptied exactly by its
    # last APU 8 block; then an APU 1024, a PL 2048 and a PL 4096 block each
    # taking the remainder a few APU 8 blocks left; then a block of each size
    # meeting an empty pool
    POOL_FACES = ([0] * (4 * PER_POOL + 7) + [1] + [0] * 5 + [2] + [0] * 9 + [3]
                  + [0] * PER_POOL + [1] + [0] * PER_POOL + [2]
                  + [0] * PER_POOL + [3] + [0] * 2)

    @classmethod
    def blocks(cls, seed, faces):
        """Each event's input block and the pool's read position before it."""
        c = ctl.Controller(seed=seed)
        blocks, before = [], []
        transform = fft_engines.transform

        def recording(x):
            blocks.append(x.copy())
            return transform(x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fft_engines, "transform", recording)
            for event in make_events(faces):
                before.append(c._pooled)
                c.process_event(event)
        return blocks, before

    def assert_blocks_match(self, seed, faces):
        blocks, before = self.blocks(seed, faces)
        assert len(blocks) == len(faces)
        for block, (n, expected) in zip(blocks, self.reference(seed, faces)):
            assert block.shape == (n,)
            assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
        return before

    def test_blocks_across_every_pool_branch(self):
        faces = self.POOL_FACES
        before = self.assert_blocks_match(11, faces)
        # the first run refills at every PER_POOL-th block, each time after
        # the block before it emptied the pool exactly
        run = before[:4 * self.PER_POOL + 1]
        assert run[::self.PER_POOL] == [ctl.POOL_SIZE] * 5
        assert run[self.PER_POOL - 1::self.PER_POOL] == [ctl.POOL_SIZE - 16] * 4
        sizes = [ctl.decide(count)[1] for count in faces]
        remainders = {n for n, at in zip(sizes, before) if n > 8 and at < ctl.POOL_SIZE}
        empties = {n for n, at in zip(sizes, before) if n > 8 and at == ctl.POOL_SIZE}
        assert remainders == empties == {1024, 2048, 4096}

    @pytest.mark.parametrize("pool_size", [40, 44, 1000])
    def test_pooled_blocks_that_straddle_the_pool_end(self, pool_size, monkeypatch):
        # with a pool that 16 does not divide, an APU 8 block takes what is
        # left of it (8 or 12 draws, so part of the imaginary row too) and
        # draws the rest
        monkeypatch.setattr(ctl, "POOL_SIZE", pool_size)
        faces = [0] * 200 + [1] + [0] * 7 + [2] + [0] * 3 + [3] + [0] * 70
        before = self.assert_blocks_match(21, faces)
        assert any(pool_size - 16 < at < pool_size for at in before)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.lists(st.one_of(st.tuples(st.just(0), st.integers(1, 2 * PER_POOL)),
                              st.tuples(st.integers(1, 4), st.integers(1, 2))),
                    max_size=10))
    def test_any_face_sequence_reads_the_stream_in_order(self, seed, runs):
        self.assert_blocks_match(seed, [count for count, times in runs for _ in range(times)])


class TestInputBuffers:
    """Each controller draws its blocks into buffers of its own, and nothing a
    decision returns or an FFT keeps refers to them."""

    FACES = TestInputBlocks.FACES

    def test_interleaved_controllers_match_solo_runs(self, monkeypatch):
        def solo(seed):
            c = ctl.Controller(seed=seed)
            return [c.process_event(event)[2] for event in make_events(self.FACES)]

        expected = solo(5), solo(6)
        blocks = []
        transform = fft_engines.transform

        def recording(x):
            blocks.append(x)
            return transform(x)

        monkeypatch.setattr(fft_engines, "transform", recording)
        a, b = ctl.Controller(seed=5), ctl.Controller(seed=6)
        got = [], []
        for event in make_events(self.FACES):
            got[0].append(a.process_event(event)[2])
            got[1].append(b.process_event(event)[2])
        assert got == expected
        # the two controllers never hand the FFT the same memory
        assert not any(np.shares_memory(x, y) for x, y in zip(blocks[0::2], blocks[1::2]))

    def test_results_are_not_overwritten_by_later_events(self, monkeypatch):
        outputs = []
        transform = fft_engines.transform

        def recording(x):
            out = transform(x)
            outputs.append((out, out.copy()))
            return out

        monkeypatch.setattr(fft_engines, "transform", recording)
        c = ctl.Controller(seed=0)
        _, _, first_pl = c.process_event(FaceEvent(2, 1, 0))
        for event in make_events(self.FACES * 3):
            c.process_event(event)
        assert first_pl.mse == ctl.Controller(seed=0).process_event(FaceEvent(2, 1, 0))[2].mse
        assert len(outputs) > 1
        for out, copy in outputs:
            assert np.array_equal(out, copy)


class TestInputChecks:
    """The controller checks each draw once, where it is made: the pool's at
    its refill and a large block's fresh draws as they are drawn.  Its FFT
    call checks nothing, so a generator that yields NaN or Inf must still
    fail the event with `fft_float`'s error."""

    class Generator:
        """PCG64 draws, except that draw call `bad` starts with `value`."""

        def __init__(self, bad, value):
            self._rng = np.random.default_rng(0)
            self.calls = 0
            self.bad, self.value = bad, value

        def random(self, out):
            self._rng.random(out=out)
            if self.calls == self.bad:
                out[0] = self.value
            self.calls += 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("faces, bad", [
        ([0], 0),  # an APU 8 block copied out of the pool its call refills
        ([1], 0),  # an APU 1024 block of fresh draws alone
        ([0, 0, 0, 1], 1),  # an APU 1024 block: the pool's remainder, then fresh draws
    ])
    def test_non_finite_draws_fail_the_event(self, faces, bad, value):
        c = ctl.Controller(seed=0)
        c._rng = self.Generator(bad, value)
        *before, last = make_events(faces)
        for event in before:
            c.process_event(event)
        with pytest.raises(ValueError, match="^input contains NaN or Inf$"):
            c.process_event(last)


class TestRecords:
    def test_process_event_returns_state_action_report(self):
        c = ctl.Controller(seed=0)
        event = FaceEvent(2, 1, 0)
        result = c.process_event(event)
        assert isinstance(result, tuple) and len(result) == 3
        state, action, report = result
        assert isinstance(state, ctl.FunctionState)
        assert isinstance(action, ctl.ReconfigAction)
        assert isinstance(report, ctl.ExecutionReport)
        assert (report.event, report.state, report.action) == (event, state, action)

    def test_records_built_directly_have_every_field(self):
        # replay and process_event build their records with tuple.__new__,
        # which checks no arity: a field added to a class must be added there
        c = ctl.Controller(seed=0)
        records = []
        for event in replay([(0, f) for f in (0, 1, 2, 3, 7, 0)], fast_forward=True):
            records += [(FaceEvent, event), (ctl.ExecutionReport, c.process_event(event)[2])]
        for cls, record in records:
            assert type(record) is cls
            assert len(record) == len(cls._fields)
            assert record == cls(*record)
            for i, name in enumerate(cls._fields):
                assert getattr(record, name) is record[i]

    @pytest.mark.parametrize("field", ["faces", "seq", "timestamp_us"])
    def test_event_is_immutable(self, field):
        event = FaceEvent(1, 2, 3)
        with pytest.raises(AttributeError):
            setattr(event, field, 0)
        assert not hasattr(event, "__dict__")
        assert event == FaceEvent(1, 2, 3)

    @pytest.mark.parametrize("field", ["event", "state", "action", "exec_time_us", "mse"])
    def test_report_is_immutable(self, field):
        _, _, report = ctl.Controller(seed=0).process_event(FaceEvent(2, 1, 0))
        with pytest.raises(AttributeError):
            setattr(report, field, None)
        assert not hasattr(report, "__dict__")
