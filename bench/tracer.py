"""Span tracer that instruments vortex_uca from outside, at its module bindings.

``Tracer.install()`` replaces every public function of the layer modules,
at every module attribute that refers to it (``channel.bessel_j``,
``metrics.bessel_j``, ``cli.mode_gain_closed``, the package namespace, ...),
with a wrapper that records one span per call: name, start, end and the
enclosing span of the same thread.  Span stacks and counters are
thread-local, so the CLI's thread pool cannot interleave them; the
per-thread buffers are merged only when the spans are written out.
Nothing under ``src/`` changes and ``uninstall()`` restores every binding.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "geometry", "channel", "transceiver", "metrics", "cli")

# Above this |x| ``specfun.bessel_j`` leaves the power series for Miller's
# backward recurrence.
LARGE_X = 9.0


class _ThreadBuffer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.main = threading.current_thread() is threading.main_thread()
        self.paused = False


def _count_bessel(counters, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["argument"]
    if isinstance(x, float):
        counters["specfun.bessel_j.values"] += 1
        counters["specfun.bessel_j.values_large_x"] += abs(x) > LARGE_X
    else:
        x = np.asarray(x)
        counters["specfun.bessel_j.values"] += x.size
        counters["specfun.bessel_j.values_large_x"] += int(np.count_nonzero(np.abs(x) > LARGE_X))


def _count_sweep(counters, args, kwargs, result):
    counters["metrics.se_sweep.points"] += len(result)
    counters["metrics.se_sweep.gaps"] += sum(p.spectrum_efficiency is None for p in result)


_COUNTERS = {"specfun.bessel_j": _count_bessel, "metrics.se_sweep": _count_sweep}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        count = _COUNTERS.get(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            if buf.paused:
                return fn(*args, **kwargs)
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()
            if count is not None:
                count(buf.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Record nothing in this thread inside the block (for output checks)."""
        buf = self._buffer()
        buf.paused = True
        try:
            yield
        finally:
            buf.paused = False

    def install(self) -> None:
        """Wrap each layer's public functions at every binding that names them."""
        import vortex_uca
        from vortex_uca import channel, cli, geometry, metrics, specfun, transceiver

        modules = (specfun, geometry, channel, transceiver, metrics, cli)
        targets = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    targets[id(value)] = (value, f"{layer}.{attr}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in (vortex_uca, *modules):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and targets[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)])
        noise = transceiver.NoiseModel
        self._patch(noise, "sample", self._wrap(noise.sample, "transceiver.NoiseModel.sample"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All threads' spans, merged; ``parent`` indexes the merged arrays."""
        with self._lock:
            buffers = list(self._buffers)
        parts = {"name": [], "parent": [], "start": [], "end": [], "main": []}
        offset = 0
        counters: dict[str, float] = defaultdict(float)
        for buf in buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["start"].append(np.frombuffer(buf.start))
            parts["end"].append(np.frombuffer(buf.end))
            parts["main"].append(np.full(len(buf.start), buf.main))
            offset += len(buf.start)
            for key, value in buf.counters.items():
                counters[key] += value
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
        out["names"] = np.array(self.names)
        out["counter_keys"] = np.array(sorted(counters))
        out["counter_values"] = np.array([counters[k] for k in sorted(counters)], dtype=float)
        return out


def summarize(spans: dict[str, np.ndarray]) -> dict:
    """Per-name calls and self time, counters, per-layer self time, and busy time.

    Self time is a span's duration minus the durations of its children in
    the same thread.  ``busy_s`` is the time some thread spent inside a
    top-level span, summed over threads; it exceeds wall time when pool
    threads overlap.  ``pool_busy_s``/``pool_wall_s`` restrict that to
    library spans directly under a ``cli.run_*`` span (or at the root of a
    pool thread) against the time spent inside ``cli.run_*``.
    """
    names = [str(n) for n in spans["names"]]
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))
    out = {"calls": {}, "self_s": {}, "layers": {k: 0.0 for k in LAYERS}}
    for i, nm in enumerate(names):
        out["calls"][nm] = out["calls"].get(nm, 0) + int(calls[i])
        out["self_s"][nm] = out["self_s"].get(nm, 0.0) + float(self_by_name[i])
        out["layers"][nm.split(".", 1)[0]] += float(self_by_name[i])
    out["counters"] = dict(zip((str(k) for k in spans["counter_keys"]),
                               (float(v) for v in spans["counter_values"])))
    out["spans"] = n
    out["busy_s"] = float(dur[~has_parent].sum())
    is_run = np.array([nm.startswith("cli.run_") for nm in names], dtype=bool)
    run_span = is_run[name] if n else np.zeros(0, dtype=bool)
    parent_is_run = np.zeros(n, dtype=bool)
    parent_is_run[has_parent] = run_span[parent[has_parent]]
    pool_top = ~run_span & (parent_is_run | (~has_parent & ~spans["main"].astype(bool)))
    out["pool_busy_s"] = float(dur[pool_top].sum())
    out["pool_wall_s"] = float(dur[run_span].sum())
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per traced process)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counters": defaultdict(float),
           "layers": {k: 0.0 for k in LAYERS}, "spans": 0, "busy_s": 0.0,
           "pool_busy_s": 0.0, "pool_wall_s": 0.0}
    for s in summaries:
        for key in ("calls", "self_s", "counters", "layers"):
            for k, v in s[key].items():
                out[key][k] += v
        for key in ("spans", "busy_s", "pool_busy_s", "pool_wall_s"):
            out[key] += s[key]
    return out
