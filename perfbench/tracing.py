"""Spans and work counts recorded from outside the package.

install() replaces every public function of the traced modules (and the
private _jensen_values, which has per-layer metrics of its own) with a
wrapper at every module binding that holds it, so the package's own calls
go through the wrappers too: densemahler.mahler_closed.cl2_array, not only
densemahler.specfun.cl2_array.  uninstall() puts the originals back, so an
untraced pass runs the unmodified package.

A span carries its name, start, end, parent and thread, plus the work the
call did (angles, polynomials, rows or points) where the layer has such a
count.  Spans are kept in per-thread arrays and read out at the end.  A span
opened on a thread with no open span of its own (a sweep worker thread) gets
as parent the innermost open span of the thread that installed the tracer,
which is the cli span that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

MODULES = ("specfun", "polynomials", "toric", "volume", "mahler_closed",
           "mahler_oracle", "limits", "cli")
PRIVATE = {"mahler_oracle": ("_jensen_values",)}


def _default_nodes() -> int:
    from densemahler.mahler_oracle import default_config
    return inspect.signature(default_config).parameters["nodes_per_panel"].default


def _useful_angles(a, result) -> int:
    # angles of the rule m_oracle reports; the rest of the _jensen_values
    # angles under it feed only the error estimate
    cfg = a.get("cfg")
    nodes = cfg.nodes_per_panel if cfg is not None else _default_nodes()
    return result.panels * nodes


# work done by one call, from its bound arguments and its result
WORK = {
    "specfun.cl2_array": lambda a, r: np.size(a["theta"]),
    "polynomials.aberth_roots_batch": lambda a, r: np.atleast_2d(a["coeffs"]).shape[0],
    "polynomials.slice_coeff_matrix": lambda a, r: np.size(a["x0"]),
    "mahler_oracle._jensen_values": lambda a, r: np.size(a["thetas"]),
    "mahler_oracle.m_oracle": _useful_angles,
    "mahler_oracle.primitive_check": lambda a, r: 2 * a["arc"].steps + 1,
    "toric.enumerate_toric": lambda a, r: len(r),
    "volume.vol_array": lambda a, r: np.size(r),
}


class _Buffer:
    """Spans finished on one thread, column by column."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = []
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.work = array("d")

    def record(self, sid, name, parent, start, end) -> None:
        self.ids.append(sid)
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        self.work.append(0.0)


class Tracer:
    """Wraps the package's functions and collects their spans in memory."""

    def __init__(self):
        self.names = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._root = None
        self._patches = []
        self._wrappers = {}

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root
                parent = root[-1] if root else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.record(sid, index, parent, t0, t1)
            if work is not None:
                buf.work[-1] = work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Route every binding of the traced functions through wrappers."""
        if not self._wrappers:
            for short in MODULES:
                mod = importlib.import_module(f"densemahler.{short}")
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and (not attr.startswith("_")
                                 or attr in PRIVATE.get(short, ()))):
                        self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        self._root = self._buffer().stack
        for name, mod in list(sys.modules.items()):
            if name != "densemahler" and not name.startswith("densemahler."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches = []
        self._root = None

    def spans(self) -> dict:
        """All finished spans as columns, ordered by span id."""
        cols = {key: np.concatenate([np.frombuffer(getattr(b, key), dtype=dt)
                                     for b in self._buffers] or [np.zeros(0, dt)])
                for key, dt in (("ids", np.int64), ("names", np.int64),
                                ("parents", np.int64), ("starts", float),
                                ("ends", float), ("work", float))}
        cols["threads"] = np.concatenate(
            [np.full(len(b.ids), b.thread) for b in self._buffers] or [np.zeros(0, int)])
        order = np.argsort(cols["ids"], kind="stable")
        return {key: val[order] for key, val in cols.items()}


def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Children on other threads may overlap each other, so the covered time is
    the length of the union of the children's intervals, clipped to the
    parent's own interval.
    """
    ids = np.asarray(ids)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    row = {sid: i for i, sid in enumerate(ids.tolist())}
    covered = np.zeros(ids.size)
    current, lo, hi = None, 0.0, 0.0
    for k in np.lexsort((starts, parents)).tolist():
        p = row.get(int(parents[k]))
        if p is None:
            continue
        a, b = max(starts[k], starts[p]), min(ends[k], ends[p])
        if b <= a:
            continue
        if p != current or a > hi:
            if current is not None:
                covered[current] += hi - lo
            current, lo, hi = p, a, b
        else:
            hi = max(hi, b)
    if current is not None:
        covered[current] += hi - lo
    return (ends - starts) - covered


def layer_totals(tracer: Tracer) -> dict:
    """Per function name: calls, self time and work summed over all spans."""
    sp = tracer.spans()
    own = self_times(sp["ids"], sp["parents"], sp["starts"], sp["ends"])
    totals = {}
    for index, name in enumerate(tracer.names):
        mask = sp["names"] == index
        totals[name] = {"calls": int(mask.sum()),
                        "self_s": float(own[mask].sum()),
                        "work": float(sp["work"][mask].sum())}
    return totals
