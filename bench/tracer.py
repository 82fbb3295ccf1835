"""Span tracer that wraps modwave's public functions from outside the package.

A module's ``from .numerics import eig_dense`` creates a second binding
(``hill.eig_dense``) of the same function object, so patching only the
defining module would miss most calls.  ``Tracer.install`` therefore
replaces every binding of each target function across all ``modwave.*``
module namespaces, and ``uninstall`` puts the originals back.

Span stacks are per thread because the CLI runs sweeps on a thread pool.
A span opened in a thread whose stack is empty takes the current op's
root span as its parent, so worker-thread spans still belong to their op.
Spans are kept in compact per-thread arrays and analysed at the end.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT_NAME = "bench.op"


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sid = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Counts and spans for a fixed set of modwave functions.

    ``counted`` names ("module.function") get a call counter only, because
    a timer per scalar call would cost more than the call.  ``spanned``
    maps names to an optional hook ``hook(tracer, args, kwargs, result)``
    that appends values read from arguments or results to
    ``values[key]`` for one of the ``value_keys``.
    """

    def __init__(self, counted, spanned, value_keys=()):
        self.counted = tuple(counted)
        self.spanned = dict(spanned)
        self.names = [ROOT_NAME, *self.spanned]
        self._name_index = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        # created up front: list.append is atomic, a defaultdict insert is not
        self.values: dict[str, list] = {key: [] for key in value_keys}
        self.missing: list[str] = []
        self.op_id = -1
        self.op_root = -1

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._states_lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def _record(self, st, sid, name_idx, parent, t0, t1):
        st.sid.append(sid)
        st.name.append(name_idx)
        st.parent.append(parent)
        st.op.append(self.op_id)
        st.start.append(t0)
        st.end.append(t1)

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside the root span of op ``op_id``."""
        st = self._state()
        sid = next(self._ids)
        self.op_id, self.op_root = op_id, sid
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            self._record(st, sid, 0, -1, t0, t1)
            self.op_root = -1

    def _span_wrapper(self, name, fn, hook):
        name_idx = self._name_index[name]

        def wrapper(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1] if st.stack else self.op_root
            st.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                self._record(st, sid, name_idx, parent, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every target; targets the program no
        longer has are listed in ``missing`` and skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "modwave" or n.startswith("modwave."))]
        targets = [(n, None) for n in self.counted] + list(self.spanned.items())
        for name, hook in targets:
            mod_name, func_name = name.rsplit(".", 1)
            original = getattr(sys.modules.get("modwave." + mod_name), func_name, None)
            if original is None:
                self.missing.append(name)
                continue
            if name in self.spanned:
                wrapper = self._span_wrapper(name, original, hook)
            else:
                wrapper = self._count_wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for st in self._states:
            for name, n in st.counts.items():
                total[name] += n
        return dict(total)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays sorted by span id; ``pidx`` is the position
        of each span's parent, or -1 for root spans."""
        cols = {key: [] for key in ("sid", "name", "parent", "op", "start", "end", "thread")}
        for st in self._states:
            for key in ("sid", "name", "parent", "op", "start", "end"):
                arr = getattr(st, key)
                cols[key].append(np.frombuffer(arr, dtype=arr.typecode))
            cols["thread"].append(np.full(len(st.sid), st.index, dtype=np.int64))
        sp = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(sp["sid"], kind="stable")
        sp = {k: v[order] for k, v in sp.items()}
        position = np.full(int(sp["sid"].max(initial=-1)) + 1, -1)
        position[sp["sid"]] = np.arange(sp["sid"].size)
        sp["pidx"] = np.where(sp["parent"] >= 0, position[np.maximum(sp["parent"], 0)], -1)
        return sp


def self_times(sp: dict[str, np.ndarray]) -> np.ndarray:
    """Duration minus the part of it that child spans cover.

    Children in the parent's own thread are nested and sequential, so their
    durations add.  Only root spans have children in other threads; those
    overlap each other and are merged as intervals.
    """
    dur = sp["end"] - sp["start"]
    pidx = sp["pidx"]
    has_parent = pidx >= 0
    same = has_parent & (sp["thread"] == sp["thread"][np.maximum(pidx, 0)])
    covered = np.zeros(dur.size)
    np.add.at(covered, pidx[same], dur[same])
    by_root = defaultdict(list)
    for i in np.flatnonzero(has_parent & ~same):
        by_root[int(pidx[i])].append((sp["start"][i], sp["end"][i]))
    for root, intervals in by_root.items():
        covered[root] += _union_length(intervals, sp["start"][root], sp["end"][root])
    return dur - covered


def busy_time(sp: dict[str, np.ndarray]) -> float:
    """Span time summed over threads.

    Spans nest within a thread, so each thread's busy time is the summed
    duration of its outermost layer spans: those whose parent is an op's
    root span, which itself only waits while a pool runs the work.
    """
    pidx = sp["pidx"]
    top = (pidx >= 0) & (sp["name"][np.maximum(pidx, 0)] == 0)
    return float(np.sum(sp["end"][top] - sp["start"][top]))


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
