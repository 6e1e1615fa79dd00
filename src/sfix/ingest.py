"""Frame sources and sinks: YUV4MPEG2, headerless raw files, synthetic video.

The codec is layout-agnostic, so every source reduces a frame to one flat
8-bit sample stream.  Mono streams keep their natural geometry; 4:2:0
streams concatenate the three planes and are exposed as single-channel
frames with an effective sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .core import Frame, FrameGeometry, GeometryMismatch

Y4M_SIGNATURE = b"YUV4MPEG2"
_MAX_HEADER_LINE = 4096


class SourceError(Exception):
    """A frame source failed to produce its next frame."""


class BadSignature(SourceError):
    """Stream does not start with a YUV4MPEG2 header."""


class UnsupportedColorspace(SourceError):
    """Colorspace tag outside the mono / 4:2:0 families."""


class TruncatedFrame(SourceError):
    """Stream ended inside a frame record."""


class BadParams(SourceError):
    """Synthetic-video parameters are inconsistent."""


class VideoSource:
    """Ordered pull source of same-geometry frames.  Single consumer."""

    def __init__(self, geometry: FrameGeometry, fps: Fraction, frames: Iterable[Frame]):
        self.geometry = geometry
        self.fps = fps
        self._frames = iter(frames)

    def __iter__(self) -> Iterator[Frame]:
        return self._frames


def _read_line(stream: BinaryIO, context: str) -> bytes:
    """Read bytes up to a newline; b"" signals clean end-of-stream."""
    line = bytearray()
    while True:
        ch = stream.read(1)
        if not ch:
            if line:
                raise TruncatedFrame(f"stream ended inside {context} line")
            return b""
        if ch == b"\n":
            return bytes(line)
        line += ch
        if len(line) > _MAX_HEADER_LINE:
            raise BadSignature(f"{context} line longer than {_MAX_HEADER_LINE} bytes")


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    data = stream.read(n)
    while len(data) < n:
        chunk = stream.read(n - len(data))
        if not chunk:
            raise TruncatedFrame(f"frame record short by {n - len(data)} bytes")
        data += chunk
    return data


def _effective_geometry(width: int, height: int, colorspace: str) -> FrameGeometry:
    if colorspace == "mono":
        return FrameGeometry(width, height, 1)
    if colorspace.startswith("420"):
        # planes concatenated: luma plus two chroma planes, rounded per plane
        frame_size = width * height + 2 * (((width + 1) // 2) * ((height + 1) // 2))
        if height % 2 == 0 and frame_size == width * (height * 3 // 2):
            return FrameGeometry(width, height * 3 // 2, 1)
        return FrameGeometry(frame_size, 1, 1)
    raise UnsupportedColorspace(f"colorspace C{colorspace} not supported")


def read_y4m(stream: BinaryIO) -> VideoSource:
    """Parse a YUV4MPEG2 stream into a frame source.

    Accepts Cmono and the C420 family; interlace/aspect/extension tokens
    are ignored.  Frames are yielded lazily from the stream.
    """
    header = _read_line(stream, "header")
    tokens = header.split(b" ")
    if tokens[0] != Y4M_SIGNATURE:
        raise BadSignature(f"expected {Y4M_SIGNATURE!r} signature, got {tokens[0]!r}")

    width = height = None
    fps = Fraction(25, 1)
    colorspace = "420jpeg"  # conventional default when C is absent
    for token in tokens[1:]:
        if not token:
            continue
        tag, value = chr(token[0]), token[1:].decode("ascii", "replace")
        try:
            if tag == "W":
                width = int(value)
            elif tag == "H":
                height = int(value)
            elif tag == "F":
                num, den = value.split(":")
                fps = Fraction(int(num), int(den))
                if fps <= 0:  # as `sfix encode --fps`; a zero rate would stream unpaced
                    raise ValueError("non-positive frame rate")
            elif tag == "C":
                colorspace = value
            # I (interlace), A (aspect), X (extension) carry no sample data
        except (ValueError, ZeroDivisionError):
            raise BadSignature(f"malformed header token {token!r}") from None
    if width is None or height is None or width < 1 or height < 1:
        raise BadSignature("header missing a positive W and H")

    try:
        geometry = _effective_geometry(width, height, colorspace)
    except ValueError as exc:
        raise BadSignature(f"header size W{width} H{height}: {exc}") from None

    def frames() -> Iterator[Frame]:
        frame_size = geometry.total_samples
        while True:
            marker = _read_line(stream, "frame marker")
            if not marker:
                return
            if not marker.startswith(b"FRAME"):
                raise TruncatedFrame(f"expected FRAME marker, got {marker[:16]!r}")
            yield Frame(geometry, _read_exact(stream, frame_size))

    return VideoSource(geometry, fps, frames())


def write_y4m(
    stream: BinaryIO,
    geometry: FrameGeometry,
    frames: Iterable[Frame],
    fps: Fraction = Fraction(25, 1),
) -> int:
    """Write frames as a Cmono YUV4MPEG2 stream; returns bytes written.

    Round-trips through read_y4m.  Only single-channel geometries have a
    mono representation.
    """
    if geometry.channels != 1:
        raise UnsupportedColorspace("only single-channel frames can be written as Cmono")
    header = (
        f"YUV4MPEG2 W{geometry.width} H{geometry.height}"
        f" F{fps.numerator}:{fps.denominator} Cmono\n"
    ).encode("ascii")
    written = stream.write(header)
    for frame in frames:
        if frame.geometry != geometry:
            raise GeometryMismatch(f"{frame.geometry} != {geometry}")
        written += stream.write(b"FRAME\n")
        written += stream.write(frame.samples)
    return written


def read_raw(stream: BinaryIO, geometry: FrameGeometry, fps: Fraction = Fraction(25, 1)) -> VideoSource:
    """Read a headerless file of concatenated frames with a known geometry."""

    def frames() -> Iterator[Frame]:
        frame_size = geometry.total_samples
        while True:
            data = stream.read(frame_size)
            if not data:
                return
            if len(data) < frame_size:
                data += stream.read(frame_size - len(data))
                if len(data) < frame_size:
                    raise TruncatedFrame(f"trailing {len(data)} bytes are not a whole frame")
            yield Frame(geometry, data)

    return VideoSource(geometry, fps, frames())


def write_raw(stream: BinaryIO, frames: Iterable[Frame]) -> int:
    written = 0
    for frame in frames:
        written += stream.write(frame.samples)
    return written


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic low-motion generator.

    change_fraction bounds the expected per-frame fraction of differing
    samples; the mutation budget (block_count * block_size^2 * channels)
    must stay within twice that fraction of the frame.
    """

    seed: int
    n_frames: int
    width: int = 64
    height: int = 64
    channels: int = 1
    block_count: int = 3
    block_size: int = 8
    fill_mode: str = "constant"  # "constant" or "noise"
    change_fraction: float = 0.05
    fps: Fraction = Fraction(25, 1)


def _check_params(p: SynthParams) -> FrameGeometry:
    if p.n_frames < 0:
        raise BadParams(f"n_frames must be >= 0, got {p.n_frames}")
    if p.fill_mode not in ("constant", "noise"):
        raise BadParams(f"fill_mode must be constant or noise, got {p.fill_mode!r}")
    if not 0.0 < p.change_fraction < 1.0:
        raise BadParams(f"change_fraction must be in (0, 1), got {p.change_fraction}")
    try:
        geometry = FrameGeometry(p.width, p.height, p.channels)
    except ValueError as exc:
        raise BadParams(str(exc)) from None
    if p.block_count < 0:
        raise BadParams(f"block_count must be >= 0, got {p.block_count}")
    if p.block_count:
        if not 1 <= p.block_size <= min(p.width, p.height):
            raise BadParams(
                f"block_size {p.block_size} does not fit a {p.width}x{p.height} frame"
            )
        budget = p.block_count * p.block_size * p.block_size * p.channels
        limit = 2.0 * p.change_fraction * geometry.total_samples
        if budget > limit:
            raise BadParams(
                f"mutation budget {budget} exceeds 2 * change_fraction * total ({limit:.0f})"
            )
    return geometry


def gen_low_motion(params: SynthParams) -> VideoSource:
    """Deterministic synthetic low-motion video.

    Frame 0 is seeded noise; each later frame copies its predecessor and
    overwrites block_count square blocks at random positions.  Constant
    fill produces long equal-value runs (spatial redundancy); noise fill
    produces incompressible literals.
    """
    geometry = _check_params(params)

    def frames() -> Iterator[Frame]:
        rng = np.random.default_rng(params.seed)
        shape = (params.height, params.width, params.channels)
        if params.n_frames == 0:
            return
        current = rng.integers(0, 256, size=shape, dtype=np.uint8)
        yield Frame(geometry, current.tobytes())
        bs = params.block_size
        for _ in range(params.n_frames - 1):
            current = current.copy()
            for _ in range(params.block_count):
                x0 = int(rng.integers(0, params.width - bs + 1))
                y0 = int(rng.integers(0, params.height - bs + 1))
                if params.fill_mode == "constant":
                    current[y0:y0 + bs, x0:x0 + bs, :] = int(rng.integers(0, 256))
                else:
                    current[y0:y0 + bs, x0:x0 + bs, :] = rng.integers(
                        0, 256, size=(bs, bs, params.channels), dtype=np.uint8
                    )
            yield Frame(geometry, current.tobytes())

    return VideoSource(geometry, params.fps, frames())
