"""In-memory span recorder installed around calls into snra's layers.

Wrappers go where callers resolve the names at call time: class
attributes (``CdFsm.step``), names a module imported with ``from ...
import`` (``snra.fsm.ensure_bits``) and module globals (``snra.dbn.
derived_rng``).  Each call appends one span (name, start, end, parent)
to flat arrays; nothing is written until the run ends.  The program
itself is not modified.
"""

import contextlib
import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    """Flat span store plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Counters are keyed by (stage, name); the caller sets ``stage``.
        self.stage = None
        self.counters = {}
        self._stack = [-1]
        self._patched = []

    def name_index(self, name):
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name):
        index = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self._stack[-1])
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def close(self, index):
        self.end[index] = self.clock()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    @contextlib.contextmanager
    def stage_span(self, stage):
        """A ``stage.<stage>`` span; counters count towards ``stage`` inside."""
        self.stage = stage
        with self.span(f"stage.{stage}"):
            yield

    def count(self, name, value):
        key = (self.stage, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, name_of=None, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``name_of(*args)`` picks the span name per call.  ``before(*args)``
        and ``after(state, result, *args)`` run outside the span, so
        counting work does not land in the callee's time.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            index = recorder.open(name_of(*args) if name_of is not None else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(state, result, *args)
            return result

        return wrapper

    def patch(self, owner, attribute, name, **hooks):
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **hooks))

    def restore(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def table(self):
        """Spans as numpy arrays: name ids, parents, starts, ends."""
        return SpanTable(self.names, np.frombuffer(self.name_id, dtype=np.int32),
                         np.frombuffer(self.parent, dtype=np.int32),
                         np.frombuffer(self.start, dtype=np.float64),
                         np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        table = self.table()
        np.savez_compressed(path, names=np.array(table.names), name_id=table.name_id,
                            parent=table.parent, start=table.start, end=table.end)


class _Span:
    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.close(self.index)
        return False


class SpanTable:
    """Read-only view of recorded spans with self-time arithmetic.

    Parents always precede their children, since a span is appended when
    it opens.
    """

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id)
        self.parent = np.asarray(parent)
        self.start = np.asarray(start)
        self.end = np.asarray(end)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def __len__(self):
        return self.duration.size

    def mask(self, name):
        index = self.names.index(name) if name in self.names else -1
        return self.name_id == index

    def layer_mask(self, layer):
        ids = [k for k, name in enumerate(self.names) if name.split(".")[0] == layer]
        return np.isin(self.name_id, ids)

    def children_of(self, root_mask):
        """Spans whose direct parent is selected by ``root_mask``."""
        has_parent = self.parent >= 0
        result = np.zeros(self.parent.size, dtype=bool)
        result[has_parent] = np.asarray(root_mask)[self.parent[has_parent]]
        return result


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children.

    Children of one synchronous call never overlap and lie inside it, so
    the subtraction leaves exactly the uncovered part of the interval.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=np.float64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def percentile(values, q):
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0
