"""Spans recorded from the benchmark's side of each layer call.

A :class:`Tracer` keeps every span in memory as ``[session, name, start,
end, parent, index]``; spans of one session share its id, ``index`` is
the span's position in :attr:`Tracer.spans` and ``parent`` the index of
the span open around it on the same thread.  Calls the
benchmark makes itself are wrapped with :meth:`Tracer.span`; calls made
inside the program (trace compilation, the service worker's patch
calls) are reached by wrapping the method on its class for the traced
run only (:func:`wrapped`).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager


class _Span:
    __slots__ = ("_tracer", "_name", "_rec")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._rec = self._tracer._open(self._name)

    def __exit__(self, *exc):
        self._tracer._close(self._rec)
        return False


class Tracer:
    """In-memory span recorder, one span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    @contextmanager
    def session(self, sid):
        """Every span opened on this thread inside the block carries *sid*."""
        tls = self._tls
        tls.sid, tls.stack = sid, []
        try:
            yield
        finally:
            tls.sid, tls.stack = None, []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _open(self, name: str) -> list:
        tls = self._tls
        stack = tls.stack
        rec = [tls.sid, name, time.perf_counter(), None,
               stack[-1][5] if stack else None, None]
        with self._lock:
            rec[5] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._tls.stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run: spans cost one method call and record nothing."""

    @contextmanager
    def session(self, sid):
        yield

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class CallCounter:
    """Span sink that counts calls per name instead of timing them."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def span(self, name: str) -> _NullSpan:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
        return _NULL_SPAN


class TelemetrySink:
    """Span sink for code running in service worker processes: records
    into whatever telemetry recorder the worker has armed, so the
    service's metrics plane carries the spans back to the benchmark."""

    def span(self, name: str):
        from repro import telemetry
        return telemetry.current().span(name)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of that interval
    covered by its child spans (overlapping children counted once).
    """
    children: dict[int, list] = {}
    for rec in spans:
        if rec[4] is not None:
            children.setdefault(rec[4], []).append((rec[2], rec[3]))
    out: dict[str, float] = {}
    for rec in spans:
        start, end = rec[2], rec[3]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(rec[5], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[rec[1]] = out.get(rec[1], 0.0) + (end - start) - covered
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, children included, in seconds."""
    out: dict[str, float] = {}
    for rec in spans:
        out[rec[1]] = out.get(rec[1], 0.0) + rec[3] - rec[2]
    return out


@contextmanager
def wrapped(hooks, sink):
    """Wrap ``(owner, attribute, span name)`` callables so each call
    records a span in *sink*; the originals are restored on exit."""
    saved = []
    try:
        for owner, attr, name in hooks:
            orig = getattr(owner, attr)

            @functools.wraps(orig)
            def wrapper(*args, _orig=orig, _name=name, **kwargs):
                with sink.span(_name):
                    return _orig(*args, **kwargs)

            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
