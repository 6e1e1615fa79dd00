"""Shared fixtures: the hand-checked golden frame pair and fuzz helpers.

The golden pair is a 10x7 single-channel frame and its successor.  Encoding
the pair with minimum repeat run 3 must produce exactly GOLDEN_INDEX and
GOLDEN_DIFF; the baseline mode must produce BASELINE_INDEX / BASELINE_DIFF.
All expected values were derived by hand from the equality mask and checked
entry by entry, so the tests built on them are independent of the encoder.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sfix import decode
from sfix.core import EncoderConfig, EncoderMode, Frame, FrameGeometry
from sfix.session import SessionDecoder
from sfix.wirecodec import Hello, frame_message, read_container

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracle` importable

GOLDEN_REF_ROWS = [
    [156, 159, 158, 154, 151, 152, 156, 154, 152, 156],
    [156, 162, 158, 159, 161, 149, 149, 141, 153, 154],
    [156, 157, 158, 157, 155, 154, 159, 157, 155, 154],
    [152, 152, 152, 153, 154, 151, 156, 151, 153, 154],
    [152, 151, 150, 153, 157, 151, 159, 158, 159, 154],
    [155, 154, 152, 150, 149, 149, 149, 149, 151, 154],
    [156, 159, 158, 159, 157, 154, 146, 148, 147, 150],
]

GOLDEN_NEW_ROWS = [
    [156, 159, 158, 154, 155, 155, 155, 155, 152, 156],
    [156, 162, 157, 157, 157, 157, 158, 159, 158, 156],
    [155, 158, 158, 157, 155, 154, 159, 153, 152, 156],
    [156, 156, 156, 156, 158, 159, 154, 152, 150, 150],
    [150, 151, 150, 153, 157, 151, 159, 158, 159, 154],
    [155, 154, 152, 150, 149, 149, 149, 149, 151, 154],
    [156, 159, 158, 159, 157, 154, 146, 148, 147, 150],
]

GOLDEN_GEOMETRY = FrameGeometry(width=10, height=7, channels=1)

# (code, count) pairs; -3 copy-from-reference, -5 repeat, -2 literal copy.
GOLDEN_INDEX = [
    (-3, 4), (-5, 4), (-3, 4), (-5, 4), (-2, 6), (-3, 5),
    (-2, 2), (-5, 5), (-2, 4), (-5, 3), (-3, 29),
]
GOLDEN_DIFF = [155, 157, 158, 159, 158, 156, 155, 158,
               153, 152, 156, 158, 159, 154, 152, 150]

BASELINE_INDEX = [(-3, 4), (-2, 4), (-3, 4), (-2, 10), (-3, 5), (-2, 14), (-3, 29)]
BASELINE_DIFF = [
    155, 155, 155, 155,
    157, 157, 157, 157, 158, 159, 158, 156, 155, 158,
    153, 152, 156, 156, 156, 156, 156, 158, 159, 154, 152, 150, 150, 150,
]

# Output cursor position after each golden index entry (cumulative counts).
GOLDEN_PREFIX_LENGTHS = [4, 8, 12, 16, 22, 27, 29, 34, 38, 41, 70]


def decode_container(stream) -> list[bytes]:
    """The samples of every frame a container decodes to, read the way `sfix decode` does."""
    session = SessionDecoder("container")
    messages = read_container(stream)
    return [frame.samples for frame in map(session.accept, messages) if frame is not None]


def hello_then(finish) -> tuple[str, int]:
    """One-shot server: sends a 4x2 HELLO, runs finish(conn), then closes the connection."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn, listener:
            conn.sendall(frame_message(Hello(FrameGeometry(4, 2, 1), 25, 1)))
            finish(conn)

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()


def reset(conn: socket.socket) -> None:
    """Make closing `conn` send RST, once the client has had time to read HELLO."""
    time.sleep(0.2)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def rows_to_frame(rows: list[list[int]]) -> Frame:
    width = len(rows[0])
    geometry = FrameGeometry(width=width, height=len(rows), channels=1)
    flat = bytes(value for row in rows for value in row)
    return Frame(geometry, flat)


@pytest.fixture
def rebuilds(monkeypatch) -> list[bool]:
    """For each DELTA decoded from here on, whether it was rebuilt in its reference's buffer."""
    seen: list[bool] = []
    real = decode.decode_delta

    def recording(ref, delta, into=None):
        seen.append(into is not None)
        return real(ref, delta, into)

    monkeypatch.setattr(decode, "decode_delta", recording)
    return seen


@pytest.fixture
def golden_ref() -> Frame:
    return rows_to_frame(GOLDEN_REF_ROWS)


@pytest.fixture
def golden_new() -> Frame:
    return rows_to_frame(GOLDEN_NEW_ROWS)


@pytest.fixture
def spatio_cfg() -> EncoderConfig:
    return EncoderConfig(EncoderMode.SPATIO_TEMPORAL, min_repeat_run=3)


@pytest.fixture
def baseline_cfg() -> EncoderConfig:
    return EncoderConfig(EncoderMode.STANDARD_BASELINE, min_repeat_run=3)


def fuzz_pair(rng: np.random.Generator, max_side: int = 64) -> tuple[Frame, Frame]:
    """One random (reference, new) pair, biased toward codec-relevant shapes.

    Four flavours: identical frames, independent noise, low-motion block
    mutations, and frames drawn from a tiny palette (long value runs).
    """
    width = int(rng.integers(1, max_side + 1))
    height = int(rng.integers(1, max_side + 1))
    channels = int(rng.choice((1, 3)))
    geometry = FrameGeometry(width, height, channels)
    total = geometry.total_samples

    flavour = int(rng.integers(0, 4))
    if flavour == 3:
        palette = rng.integers(0, 256, size=4, dtype=np.uint8)
        ref = rng.choice(palette, size=total)
        new = ref.copy() if rng.random() < 0.2 else rng.choice(palette, size=total)
    else:
        ref = rng.integers(0, 256, size=total, dtype=np.uint8)
        if flavour == 0:
            new = ref.copy()
        elif flavour == 1:
            new = rng.integers(0, 256, size=total, dtype=np.uint8)
        else:
            new = ref.copy()
            for _ in range(int(rng.integers(1, 6))):
                start = int(rng.integers(0, total))
                span = int(rng.integers(1, max(2, total // 8)))
                stop = min(total, start + span)
                if rng.random() < 0.5:
                    new[start:stop] = int(rng.integers(0, 256))
                else:
                    new[start:stop] = rng.integers(0, 256, size=stop - start, dtype=np.uint8)
    return Frame(geometry, ref.tobytes()), Frame(geometry, new.tobytes())
