"""Workload definitions and the generated Y4M input every workload feeds sfix.

All workloads use spatio mode, 32-px blocks and a 1920x1620 single-channel
geometry: a 1080p 4:2:0 stream whose three planes read_y4m concatenates.
The clip is handed to the program as Y4M bytes, so the program only ever
sees generated input, never the generator.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from sfix import ingest

WIDTH, HEIGHT = 1920, 1080  # Y4M luma size; 4:2:0 planes make 1920x1620 samples
BLOCK = 32
CHANGE_FRACTION = 0.1  # SynthParams budget: 400 blocks of 32x32 need >= 0.066
FPS = Fraction(25, 1)
CLIP_FRAMES = 16  # offline clip length; frame 0 is the keyframe
LIVE_FPS = Fraction(25, 2)  # half the 25 fps goal; the code streamed ~26 fps unpaced when this was written


@dataclass(frozen=True)
class Workload:
    name: str
    fill: str  # SynthParams.fill_mode
    blocks: int  # mutated blocks per frame
    live: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hd_heavy", "noise", 400, False,
            "400 noise blocks per frame: ~25k index entries and an incompressible diff,"
            " so per-run Python work and DEFLATE dominate the container round trip",
        ),
        Workload(
            "hd_light", "constant", 20, False,
            "20 constant blocks per frame: ~1.4k mostly repeat/copy entries, so whole-frame"
            " passes dominate; the control that bypasses per-entry work",
        ),
        Workload(
            "live_join", "constant", 20, True,
            "hd_light clip streamed at 12.5 fps to one steady receiver while a join probe"
            " connects every 5th frame: net fan-out and the keyframe compressed under the lock",
        ),
    )
}


def clip_params(w: Workload, seed: int, n_frames: int, small: bool = False) -> ingest.SynthParams:
    """Synthetic clip for a workload; `small` is a 128x96-sample clip for cross-checks."""
    width, height, blocks, block = WIDTH, HEIGHT * 3 // 2, w.blocks, BLOCK
    if small:
        width, height, blocks, block = 128, 96, max(1, w.blocks // 20), 8
    return ingest.SynthParams(
        seed=seed,
        n_frames=n_frames,
        width=width,
        height=height,
        block_count=blocks,
        block_size=block,
        fill_mode=w.fill,
        change_fraction=CHANGE_FRACTION,
        fps=FPS,
    )


def y4m_header(params: ingest.SynthParams) -> bytes:
    """A C420 header whose planes, concatenated, make the params' geometry."""
    luma_height = params.height * 2 // 3
    return (
        f"YUV4MPEG2 W{params.width} H{luma_height}"
        f" F{params.fps.numerator}:{params.fps.denominator} C420jpeg\n"
    ).encode("ascii")


def clip_y4m(params: ingest.SynthParams) -> bytes:
    """The whole clip as 4:2:0 Y4M bytes."""
    out = io.BytesIO()
    out.write(y4m_header(params))
    for frame in ingest.gen_low_motion(params):
        out.write(b"FRAME\n")
        out.write(frame.samples)
    return out.getvalue()


class LazyY4M:
    """Y4M bytes of a clip, generated one frame ahead of the reader.

    A live session runs for hundreds of 3 MB frames, too many to hold at
    once.  The pacing loop calls prefetch() in its idle time, so read()
    during a timed send only copies bytes already made.
    """

    def __init__(self, params: ingest.SynthParams) -> None:
        self._frames = iter(ingest.gen_low_motion(params))
        self._buf = bytearray(y4m_header(params))
        self._pos = 0

    def prefetch(self) -> None:
        frame = next(self._frames, None)
        if frame is not None:
            self._buf = self._buf[self._pos:] + b"FRAME\n" + frame.samples
            self._pos = 0

    def read(self, n: int = -1) -> bytes:
        if n < 0 or self._pos + n > len(self._buf):
            self.prefetch()
        end = len(self._buf) if n < 0 else self._pos + n
        data = bytes(self._buf[self._pos:end])
        self._pos += len(data)
        return data
