"""Offline workloads: a clip through the .sfix container and back, in memory.

Encode is read_y4m -> encode_delta -> delta_to_message -> write_container,
the same composition as `sfix encode`.  Decode is read_container ->
message_to_delta -> decode_delta -> write_y4m.  Each cycle encodes and
decodes the whole clip; the decoded frames are byte-compared with the
source after the cycle, outside the timed window.  Between frames, outside
their times, the calibration kernel is timed (calibrate.py), and every
time is kept at the reference speed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction

from sfix import decode, encode, ingest, wirecodec
from sfix.core import EncoderConfig, Frame

from calibrate import Speed
from spans import NullTracer, Tracer, now_ns, patched

CONFIG = EncoderConfig()  # spatio mode, min_repeat_run 3
JOIN_SAMPLES = 20  # container opens per cycle, timed to the first frame, outside the window


@dataclass
class Encoded:
    container: bytes
    frame_ns: list[int]  # per frame: read, encode, frame and write
    diff_bytes: list[int]  # per delta frame


def encode_clip(y4m: bytes, tracer: Tracer | NullTracer = NullTracer(),
                speed: Speed | None = None) -> Encoded:
    source = ingest.read_y4m(io.BytesIO(y4m))
    frame_ns: list[int] = []
    diff_bytes: list[int] = []

    def messages():
        fps = source.fps
        yield wirecodec.Hello(source.geometry, fps.numerator, fps.denominator)
        frames = iter(source)
        reference: Frame | None = None
        frame_no = 0
        while True:
            if speed is not None:
                speed.sample()
            started = now_ns()
            tracer.frame = frame_no
            with tracer.span("ingest.read_frame"):
                frame = next(frames, None)
            if frame is None:
                break
            if reference is None:
                msg = wirecodec.samples_to_message(frame_no, frame.samples)
                reference = frame
            else:
                delta = encode.encode_delta(reference, frame, CONFIG)
                diff_bytes.append(len(delta.diff))
                msg = wirecodec.delta_to_message(frame_no, delta)
                reference = encode.advance_reference(reference, frame)
            yield msg  # write_container frames and writes it before this resumes
            frame_ns.append(now_ns() - started)
            frame_no += 1
        yield wirecodec.End()

    out = io.BytesIO()
    with tracer.span("wirecodec.write_container"):
        wirecodec.write_container(out, messages())
    return Encoded(out.getvalue(), frame_ns, diff_bytes)


class ReusedOutput:
    """A write-only stream over one buffer that every cycle overwrites.

    Decoding writes a whole clip, ~50 MB; a fresh buffer per cycle would
    time the kernel handing out new pages rather than the decoder.
    """

    def __init__(self, size: int) -> None:
        self.buf = bytearray(size)
        self.pos = 0

    def write(self, data: bytes) -> int:
        n = len(data)
        self.buf[self.pos:self.pos + n] = data  # grows the buffer if it was too small
        self.pos += n
        return n

    def body_equals(self, body: memoryview) -> bool:
        """Whether what was written, after its header line, equals `body`."""
        view = memoryview(self.buf)[:self.pos]
        return view[bytes(view[:100]).index(b"\n"):] == body

    def getvalue(self) -> bytes:
        return bytes(self.buf[:self.pos])


def decode_clip(container: bytes, out: ReusedOutput, tracer: Tracer | NullTracer = NullTracer(),
                speed: Speed | None = None) -> list[int]:
    """Decode into `out`; returns per-frame ns for parse, rebuild and write."""
    frame_ns: list[int] = []
    messages = wirecodec.read_container(io.BytesIO(container))
    hello = next(messages)
    if not isinstance(hello, wirecodec.Hello):
        raise wirecodec.CorruptStream("container must open with HELLO")

    def frames():
        reference: Frame | None = None
        while True:
            if speed is not None:
                speed.sample()
            started = now_ns()
            msg = next(messages, None)
            if msg is None or isinstance(msg, wirecodec.End):
                return
            tracer.frame = msg.frame_no
            if isinstance(msg, wirecodec.RefFrame):
                reference = Frame(hello.geometry, wirecodec.message_to_samples(msg))
            elif reference is None:
                raise wirecodec.CorruptStream("DELTA before REF_FRAME")
            else:
                reference = decode.decode_delta(reference, wirecodec.message_to_delta(msg))
            yield reference  # write_y4m writes it before this resumes
            frame_ns.append(now_ns() - started)

    out.pos = 0
    fps = Fraction(hello.fps_num, hello.fps_den)
    with tracer.span("ingest.write_y4m"):
        ingest.write_y4m(out, hello.geometry, frames(), fps)
    return frame_ns


def first_frame_ns(container: bytes) -> int:
    """Time from opening a container to its first frame rebuilt: a player's join."""
    started = now_ns()
    messages = wirecodec.read_container(io.BytesIO(container))
    hello, ref = next(messages), next(messages)
    Frame(hello.geometry, wirecodec.message_to_samples(ref))
    return now_ns() - started


def frame_bodies(y4m: bytes) -> list[bytes]:
    """Frame payloads of a Y4M stream, header-independent."""
    return [frame.samples for frame in ingest.read_y4m(io.BytesIO(y4m))]


@dataclass
class OfflineRun:
    """Times of one run's cycles, all at the reference speed."""

    frames: int = 0
    failed: int = 0
    encode_ns: list[float] = field(default_factory=list)  # per cycle, whole clip
    decode_ns: list[float] = field(default_factory=list)
    latency_ns: list[float] = field(default_factory=list)  # per frame, every cycle
    first_frame_ns: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # per cycle: encode's, then decode's
    raw_bytes: int = 0
    container_bytes: int = 0
    diff_bytes: int = 0
    delta_frames: int = 0


def _cycle(run: OfflineRun, y4m: bytes, source_frames: list[bytes], source_body: memoryview,
           out: ReusedOutput, tracer: Tracer | NullTracer) -> None:
    enc_speed, dec_speed = Speed(tracer), Speed(tracer)
    with patched(tracer):
        enc = encode_clip(y4m, tracer, enc_speed)
        dec_ns = decode_clip(enc.container, out, tracer, dec_speed)
    enc_scale, dec_scale = enc_speed.scale(), dec_speed.scale()

    n = len(source_frames)
    run.frames += n
    run.scales += [enc_scale, dec_scale]
    run.encode_ns.append(sum(enc.frame_ns) * enc_scale)
    run.decode_ns.append(sum(dec_ns) * dec_scale)
    run.latency_ns += [e * enc_scale + d * dec_scale for e, d in zip(enc.frame_ns, dec_ns)]
    if not tracer.enabled:  # the traced run's parse and inflate numbers are per frame
        run.first_frame_ns += [first_frame_ns(enc.container) * dec_scale
                               for _ in range(JOIN_SAMPLES)]
    run.raw_bytes += n * len(source_frames[0])
    run.container_bytes += len(enc.container)
    run.diff_bytes += sum(enc.diff_bytes)
    run.delta_frames += len(enc.diff_bytes)
    with tracer.span("harness.verify"):
        identical = out.body_equals(source_body)
    if not identical:
        rebuilt = frame_bodies(out.getvalue())
        run.failed += sum(
            1 for i, src in enumerate(source_frames) if i >= len(rebuilt) or rebuilt[i] != src
        )


def run_offline(y4m: bytes, source_frames: list[bytes], seconds: float,
                tracers: list[Tracer | NullTracer]) -> list[OfflineRun]:
    """Encode and decode the clip repeatedly for about `seconds`, one run per tracer.

    The runs take turns cycle by cycle, so a traced and an untraced run
    meet the same machine.  A round is started while the time left exceeds
    half the last round's length, so the window ends within half a round
    of `seconds`.
    """
    runs = [OfflineRun() for _ in tracers]
    out = ReusedOutput(len(y4m))
    source_body = memoryview(y4m)[y4m.index(b"\n"):]
    started = now_ns()
    round_ns = 0
    while not round_ns or (now_ns() - started) + round_ns // 2 < seconds * 1e9:
        t0 = now_ns()
        for run, tracer in zip(runs, tracers):
            _cycle(run, y4m, source_frames, source_body, out, tracer)
        round_ns = now_ns() - t0
    return runs
