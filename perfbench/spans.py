"""In-memory spans recorded around the benchmark's calls into each sfix layer.

Nothing inside sfix is instrumented.  For a traced run the benchmark swaps
the public functions it (and the module that calls them) looks up by name
for wrappers that record a span, then puts the originals back.  A span is
(id, parent, name, start, end, frame, thread, attrs); times are
CLOCK_MONOTONIC nanoseconds, so spans from the server child process and
the receiving parent share one timeline.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator

import numpy as np


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def pct(values: Iterable[float], q: float) -> float:
    data = list(values)
    return float(np.percentile(data, q)) if data else 0.0


class NullTracer:
    """Tracing off: span() costs one context-manager entry and records nothing."""

    enabled = False
    frame = property(lambda self: -1, lambda self, value: None)

    def span(self, name: str, frame: int | None = None, **attrs) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext(attrs)


class Tracer:
    """Collects spans; each thread keeps its own parent stack and frame id."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def frame(self) -> int:
        return getattr(self._local, "frame", -1)

    @frame.setter
    def frame(self, value: int) -> None:
        self._local.frame = value

    @contextlib.contextmanager
    def span(self, name: str, frame: int | None = None, **attrs) -> Iterator[dict]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = now_ns()
        try:
            yield attrs
        finally:
            end = now_ns()
            stack.pop()
            self.spans.append({
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "frame": self.frame if frame is None else frame,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            })

    def wrap(self, fn: Callable, name: str, attrs_of: Callable | None = None,
             wait_span: str | None = None) -> Callable:
        """A stand-in for fn that records one span per call.

        A first argument with a frame_no (a wire message) sets the thread's
        frame id, so receive-side spans carry the frame they work on.  With
        wait_span, the first argument is a buffered socket stream: the wait
        for its first byte is recorded as that span, apart from fn's own.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame_no = getattr(args[0], "frame_no", None) if args else None
            if frame_no is not None:
                self.frame = frame_no
            if wait_span is not None:
                with self.span(wait_span):
                    args[0].peek(1)
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, result))
            return result

        return traced

    def traced_frames(self, frames: Iterable) -> Iterator:
        """Re-yield a frame source, one ingest.read_frame span per frame pulled."""
        it = iter(frames)
        while True:
            with self.span("ingest.read_frame"):
                frame = next(it, None)
            if frame is None:
                return
            yield frame


def _delta_counts(args: tuple, delta) -> dict:
    from sfix.core import IndexCode

    repeats = sum(1 for e in delta.index if e.code is IndexCode.REPEAT_FROM_DIFF)
    return {"entries": len(delta.index), "repeats": repeats, "diff_bytes": len(delta.diff)}


def _message_size(args: tuple, blob: bytes) -> dict:
    return {"kind": type(args[0]).__name__, "bytes": len(blob)}


def _patch_table() -> list[tuple[object, str, str, Callable | None, str | None]]:
    """(module, attribute, span name, attrs, wait span) for every traced call site.

    The names bound in net, decode and encode are patched as well as the
    defining module's, because those modules call the functions through
    their own globals.  receive() blocks in parse_message until the next
    message arrives; that idle wait is the "wait" pseudo-layer, not wirecodec's.
    """
    from sfix import decode, encode, net, wirecodec

    return [
        (encode, "segment_runs", "encode.segment_runs", None, None),
        (encode, "encode_delta", "encode.encode_delta", _delta_counts, None),
        (net, "encode_delta", "encode.encode_delta", _delta_counts, None),
        (wirecodec, "delta_to_message", "wirecodec.delta_to_message", None, None),
        (net, "delta_to_message", "wirecodec.delta_to_message", None, None),
        (wirecodec, "serialize_index", "wirecodec.serialize_index", None, None),
        (wirecodec, "compress", "wirecodec.compress", None, None),
        (wirecodec, "samples_to_message", "wirecodec.samples_to_message", None, None),
        (net, "samples_to_message", "wirecodec.samples_to_message", None, None),
        (wirecodec, "frame_message", "wirecodec.frame_message", _message_size, None),
        (net, "frame_message", "wirecodec.frame_message", _message_size, None),
        (wirecodec, "parse_message", "wirecodec.parse_message", None, None),
        (net, "parse_message", "wirecodec.parse_message", None, "wait.recv"),
        (wirecodec, "message_to_delta", "wirecodec.message_to_delta", None, None),
        (net, "message_to_delta", "wirecodec.message_to_delta", None, None),
        (wirecodec, "decompress", "wirecodec.decompress", None, None),
        (wirecodec, "deserialize_index", "wirecodec.deserialize_index", None, None),
        (wirecodec, "message_to_samples", "wirecodec.message_to_samples", None, None),
        (net, "message_to_samples", "wirecodec.message_to_samples", None, None),
        (decode, "decode_delta", "decode.decode_delta", None, None),
        (net, "decode_delta", "decode.decode_delta", None, None),
        (decode, "validate_delta", "core.validate_delta", None, None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer | NullTracer) -> Iterator[None]:
    """Route the traced call sites through tracer.wrap for the block's duration."""
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for module, attr, name, attrs_of, wait_span in _patch_table():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, attrs_of, wait_span))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def with_self_time(spans: list[dict]) -> list[dict]:
    """Annotate each span with its self time: duration minus its children's."""
    child_ns: dict[tuple[str, int], int] = defaultdict(int)
    for s in spans:
        if s["parent"]:
            child_ns[(s.get("proc", ""), s["parent"])] += s["end"] - s["start"]
    for s in spans:
        s["self"] = s["end"] - s["start"] - child_ns[(s.get("proc", ""), s["id"])]
    return spans


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: sample count, p50/p90 duration and total self time, in ms."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    table = {}
    for name, group in sorted(by_name.items()):
        durations = [(s["end"] - s["start"]) / 1e6 for s in group]
        table[name] = {
            "n": len(group),
            "p50_ms": pct(durations, 50),
            "p90_ms": pct(durations, 90),
            "self_ms": sum(s["self"] for s in group) / 1e6,
        }
    return table


def durations_ms(spans: list[dict], name: str, **match) -> list[float]:
    return [
        (s["end"] - s["start"]) / 1e6
        for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
    ]
