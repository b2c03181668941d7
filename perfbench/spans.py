"""In-memory span recording around calls into the program's layers.

The traced run of the benchmark wraps public functions *where their
callers bind them* (a module attribute or a class attribute) and records
one span per call: ``(id, name, start, end, parent, run, thread, value)``.
Nothing inside the program is switched on: its own ``repro.obs`` tracer
and metrics stay off, so the executor keeps its fast path and its
compute/ship pipelining, and the traced run follows the untraced run's
schedule.

Parents come from a per-thread stack.  A span that starts on a thread
with an empty stack (the executor's compute thread, the service's
repair thread) is adopted by the innermost span opened with
``adopt=True`` on any thread, so work the executor hands to a helper
thread is still counted as its child.  Self time is a span's duration
minus the union of its children's intervals, so overlapping children on
two threads are not subtracted twice.

Spans stay in memory; :meth:`SpanRecorder.write` dumps them once at the
end of a run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records spans from wrapped functions; undoes every patch on close."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, adopt: bool) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        sid = next(self._ids)
        stack.append(sid)
        if adopt:
            self._adopters.append(sid)
        return sid, parent, stack

    def _close(self, sid, name, t0, parent, stack, adopt, value,
               t1=None) -> None:
        if t1 is None:
            t1 = perf_counter()
        stack.pop()
        if adopt:
            self._adopters.remove(sid)
        self.spans.append(
            (sid, name, t0, t1, parent, self.run, threading.get_ident(), value)
        )

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (benchmark phases)."""
        sid, parent, stack = self._open(False)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, parent, stack, False, None)

    def wrap(self, name: str, fn, *, adopt: bool = False, value=None):
        """``fn`` recording a span per call.

        ``value(args, kwargs, result)`` (optional) stores one number with
        the span, e.g. the bytes a kernel call processed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = self._open(adopt)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, name, t0, parent, stack, adopt, None)
                raise
            t1 = perf_counter()
            v = value(args, kwargs, result) if value is not None else None
            self._close(sid, name, t0, parent, stack, adopt, v, t1)
            return result

        return wrapper

    def wrap_async(self, name: str, fn, *, value=None):
        """Coroutine-function variant: a leaf span from call to completion.

        Coroutines interleave on one thread, so these spans never join
        the thread's parent stack.
        """

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = await fn(*args, **kwargs)
            t1 = perf_counter()
            v = value(args, kwargs, result) if value is not None else None
            self.spans.append(
                (next(self._ids), name, t0, t1, None, self.run,
                 threading.get_ident(), v)
            )
            return result

        return wrapper

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterator whose every ``next`` is a span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def gen():
                while True:
                    sid, parent, stack = recorder._open(False)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(
                            sid, name, t0, parent, stack, False, None
                        )
                    yield item

            return gen()

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, *, kind: str = "call",
              adopt: bool = False, value=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``kind`` is ``call``, ``iter`` or ``async``.  Class methods are
        re-wrapped as class methods.
        """
        static = inspect.getattr_static(owner, attr)
        fn = static.__func__ if isinstance(static, classmethod) else static
        if kind == "iter":
            wrapped = self.wrap_iter(name, fn)
        elif kind == "async":
            wrapped = self.wrap_async(name, fn, value=value)
        else:
            wrapped = self.wrap(name, fn, adopt=adopt, value=value)
        if isinstance(static, classmethod):
            wrapped = classmethod(wrapped)
        self._undo.append((owner, attr, static))
        setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def summary(self, run: str | None = None) -> dict[str, dict]:
        """Per span name: ``calls``, ``total`` and ``self`` seconds, ``value``.

        Only spans recorded while :attr:`run` equalled ``run`` count
        (all spans when ``run`` is None); children are taken from every
        run, since a parent's interval is what they are clipped to.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _n, t0, t1, parent, _r, _t, _v in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, dict] = {}
        for sid, name, t0, t1, _p, r, _t, v in self.spans:
            if run is not None and r != run:
                continue
            agg = out.setdefault(
                name, {"calls": 0, "total": 0.0, "self": 0.0, "value": 0.0}
            )
            agg["calls"] += 1
            agg["total"] += t1 - t0
            agg["self"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            if v is not None:
                agg["value"] += v
        return out

    def write(self, path) -> None:
        """Dump every span as JSON lines (once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, run, thread, value in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "run": run, "thread": thread,
                    "value": value,
                }) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
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
