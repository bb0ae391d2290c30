"""The controller's pool of input draws: a block of its whole size, and
draws that fail the finiteness check."""

import numpy as np
import pytest

from socrm import controller as ctl
from socrm import fft_engines
import test_controller


class Recorder:
    """A generator that draws PCG64 values and keeps each `out` it fills."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.outs = []

    def random(self, out):
        self._rng.random(out=out)
        self.outs.append(out)


def test_a_block_the_size_of_the_pool_is_copied_out_of_it(monkeypatch):
    # 2n == POOL_SIZE: an APU 8 block that finds the pool empty refills all of
    # it, takes all of it and leaves it empty for the next block
    monkeypatch.setattr(ctl, "POOL_SIZE", 16)
    faces = [0] * 4 + [1] + [0] * 3 + [2] + [0] * 2 + [3, 0]
    before = test_controller.TestInputBlocks().assert_blocks_match(8, faces)
    assert before == [16] * len(faces)

    c = ctl.Controller(seed=8)
    c._rng = Recorder(8)
    for event in test_controller.make_events([0, 0, 0]):
        c.process_event(event)
    assert len(c._rng.outs) == 3
    for out in c._rng.outs:
        # drawn into the pool itself, not into the room after it
        assert out.size == 16 and np.shares_memory(out, c._pool[:16])


@pytest.mark.parametrize("faces, bad", [([0], 0), ([0, 0, 0, 1], 1)])
def test_draws_that_fail_the_check_are_never_read(faces, bad, monkeypatch):
    # after an event fails on a NaN draw, every later block holds shifted
    # draws: the failed ones are drawn again, not copied out of the pool
    c = ctl.Controller(seed=0)
    c._rng = test_controller.TestInputChecks.Generator(bad, np.nan)
    *before, last = test_controller.make_events(faces)
    for event in before:
        c.process_event(event)
    with pytest.raises(ValueError, match="NaN or Inf"):
        c.process_event(last)
    blocks = []
    transform = fft_engines.transform

    def recording(x):
        blocks.append(x.copy())
        return transform(x)

    monkeypatch.setattr(fft_engines, "transform", recording)
    for event in test_controller.make_events([0] * 70 + [1, 0, 3, 0, 2]):
        c.process_event(event)
    parts = np.concatenate([x.view(np.float64) for x in blocks])
    assert np.all((-0.5 <= parts) & (parts < 0.5))
