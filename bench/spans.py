"""In-memory span recorder that wraps gnmh's public functions from outside.

Each wrapped call records one span: name, start, end (``perf_counter_ns``)
and the index of the enclosing span. Spans live in flat ``array('q')``
columns so a traced run of a million calls stays near 32 MB. Self time is a
span's duration minus the part its direct children cover; single-threaded
calls nest properly, so that part is the sum of the children's durations.

Wrappers are installed at the name the caller looks up (a module global such
as ``gnmh.kernel.point_state``, or a class attribute such as
``PrecisionGaussian.log_pdf``) and removed again by :meth:`Tracer.uninstall`.
A target that no longer exists is recorded in :attr:`Tracer.missing` instead
of raising, so a later refactor degrades the trace rather than the run.

Nothing in gnmh waits on another thread, a queue or a lock, so there is no
wait-time column: busy (self) time and call counts are the whole story.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, starts, ends, parents = (self.name_col, self.start_col,
                                        self.end_col, self.parent_col)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(_now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _now()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        """Index of the next span; phases are ranges between marks."""
        return len(self.start_col)

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, kind: str = "function") -> None:
        """Replace ``owner.attr`` by a traced version, remembering the original.

        ``kind`` is "function" for a module global or plain method,
        "classmethod" or "property" for those descriptors on a class.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if owner is None or attr not in vars(owner):
            self.missing.append(label)
            return
        original = vars(owner)[attr]
        if kind == "classmethod":
            if not isinstance(original, classmethod):
                self.missing.append(label)
                return
            replacement = classmethod(self.wrap(name, original.__func__))
        elif kind == "property":
            if not isinstance(original, property):
                self.missing.append(label)
                return
            replacement = property(self.wrap(name, original.fget))
        else:
            replacement = self.wrap(name, original)
        self.replace(owner, attr, replacement)

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores the original."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64),
            "start": np.frombuffer(self.start_col, dtype=np.int64),
            "end": np.frombuffer(self.end_col, dtype=np.int64),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, lo: int, hi: Optional[int] = None) -> Dict[str, dict]:
        """Per-name call count, inclusive and self time (ns) and the list of
        inclusive durations, over spans with index in [lo, hi)."""
        cols = self.arrays()
        hi = len(cols["start"]) if hi is None else hi
        name = cols["name"][lo:hi]
        dur = cols["end"][lo:hi] - cols["start"][lo:hi]
        parent = cols["parent"][lo:hi]
        child_time = np.zeros(hi - lo, dtype=np.int64)
        inner = parent >= lo
        np.add.at(child_time, parent[inner] - lo, dur[inner])
        self_time = dur - child_time
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            if not sel.any():
                continue
            out[label] = {
                "calls": int(sel.sum()),
                "total_ns": int(dur[sel].sum()),
                "self_ns": int(self_time[sel].sum()),
                "durations_ns": dur[sel],
            }
        return out


class TracedRng:
    """Delegating proxy for a ``numpy.random.Generator`` that records a span
    for each draw the sampler makes. Everything else (``bit_generator``,
    used by checkpointing) passes straight through."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self.standard_normal = tracer.wrap("rng.standard_normal", rng.standard_normal)
        self.random = tracer.wrap("rng.random", rng.random)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)
