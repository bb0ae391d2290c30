"""In-memory span tracer that wraps socrm's public functions from outside.

`Tracer.wrap` replaces a module or class attribute by a wrapper that records
one span per call: name, start and end (CLOCK_MONOTONIC ns), the index of the
enclosing span on the same thread, a trace id (the event `seq`, inherited from
the enclosing span when the call itself does not carry one) and a tag (the
FFT size, the configuration, a timestamp or a record count).  Spans stay in
per-thread lists until `dump` writes them out as JSONL, one array per line:

    [thread, index, name, start_ns, end_ns, parent_index, seq, tag]
"""

from __future__ import annotations

import json
import threading
import time

_clock = time.monotonic_ns
_END = object()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []

    def _open(self, name):
        try:
            spans, stack = self._local.state
        except AttributeError:
            spans, stack = self._local.state = ([], [])
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        rec = [name, 0, 0, stack[-1] if stack else -1, None, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = _clock()
        return rec, stack

    def wrap(self, owner, attr, name, seq=None, tag=None, after=None):
        """Trace every call of `owner.attr`.

        `seq(args, result)` and `tag(args, result)` label the span; `after(result)`
        runs outside it, in a span of its own named `perfbench.after`, so the
        benchmark's own work is not billed to the traced function.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            rec, stack = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if seq is not None:
                rec[4] = seq(args, result)
            if tag is not None:
                rec[5] = tag(args, result)
            if after is not None:
                extra, stack = self._open("perfbench.after")
                try:
                    after(result)
                finally:
                    extra[2] = _clock()
                    stack.pop()
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr, name):
        """Trace each step of the event generator `owner.attr` returns."""
        orig = getattr(owner, attr)

        def steps(gen):
            while True:
                rec, stack = self._open(name)
                try:
                    event = next(gen, _END)
                finally:
                    rec[2] = _clock()
                    stack.pop()
                if event is _END:
                    return
                rec[4] = event.seq
                yield event

        setattr(owner, attr, lambda *args, **kwargs: steps(orig(*args, **kwargs)))

    def dump(self, path) -> None:
        with self._lock:
            threads = list(self._threads)
        with open(path, "w", encoding="utf-8") as fh:
            for thread, spans in threads:
                for index, (name, start, end, parent, seq, tag) in enumerate(spans):
                    if seq is None and parent >= 0:
                        seq = spans[parent][4]
                        spans[index][4] = seq
                    fh.write(json.dumps([thread, index, name, start, end, parent, seq, tag]))
                    fh.write("\n")
