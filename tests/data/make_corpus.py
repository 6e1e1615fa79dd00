"""Write the version-1 compatibility corpus: small `.sfix` files and their frame hashes.

    PYTHONPATH=src python tests/data/make_corpus.py

The files in this directory are pinned: tests/test_corpus.py decodes each
one to the sha256 of every frame in corpus.json.  They are never rewritten
for version 1, so this script refuses to overwrite them; a new container
version gets a new corpus next to this one.  It is kept as the record of
how each file was made.

Each file is encoded by SessionEncoder + write_container, the composition
`sfix encode` runs, and then decoded by SessionDecoder; the hashes are
those of the decoded frames, checked equal to the source frames'.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from sfix.core import EncoderConfig, EncoderMode, Frame, FrameGeometry
from sfix.session import SessionDecoder, SessionEncoder
from sfix.wirecodec import End, read_container, write_container

HERE = Path(__file__).parent
SPATIO = EncoderConfig(EncoderMode.SPATIO_TEMPORAL)
STANDARD = EncoderConfig(EncoderMode.STANDARD_BASELINE)


def _edits(rng: np.random.Generator, first: np.ndarray, n_frames: int,
           equal_at: int | None = None) -> list[np.ndarray]:
    """`first`, then frames that each paint a constant block, a noise block and the last samples."""
    frames = [first]
    h, w, c = first.shape
    for i in range(1, n_frames):
        cur = frames[-1].copy()
        if i != equal_at:
            y, x = rng.integers(0, h - 4), rng.integers(0, w - 5)
            cur[y:y + 4, x:x + 5] = rng.integers(0, 256)
            y, x = rng.integers(0, h - 3), rng.integers(0, w - 3)
            cur[y:y + 3, x:x + 3] = rng.integers(0, 256, (3, 3, c))
            cur[-1, -1] = rng.integers(0, 256, c)  # the frame's last word, past any multiple of 8
        frames.append(cur)
    return frames


def spatio_mono_odd() -> tuple[FrameGeometry, EncoderConfig, list[np.ndarray]]:
    """37x23 mono (851 samples, 851 % 8 == 3), spatio mode; frame 4 repeats frame 3."""
    rng = np.random.default_rng(1)
    first = rng.integers(100, 140, (23, 37, 1), dtype=np.uint8)
    return FrameGeometry(37, 23, 1), SPATIO, _edits(rng, first, 7, equal_at=4)


def standard_rgb() -> tuple[FrameGeometry, EncoderConfig, list[np.ndarray]]:
    """20x15 with 3 channels (900 samples), standard mode; frame 2 repeats frame 1."""
    rng = np.random.default_rng(2)
    first = rng.integers(0, 256, (15, 20, 3), dtype=np.uint8)
    return FrameGeometry(20, 15, 3), STANDARD, _edits(rng, first, 5, equal_at=2)


def stored_noise() -> tuple[FrameGeometry, EncoderConfig, list[np.ndarray]]:
    """80x64 mono of noise (5 KiB): a stored REF_FRAME, then a delta with a stored diff."""
    rng = np.random.default_rng(3)
    first = rng.integers(0, 256, (64, 80, 1), dtype=np.uint8)
    frames = [first, rng.integers(0, 256, first.shape, dtype=np.uint8)]
    return FrameGeometry(80, 64, 1), SPATIO, frames + _edits(rng, frames[-1], 3)[1:]


def parted_gradient() -> tuple[FrameGeometry, EncoderConfig, list[np.ndarray]]:
    """1024x576 mono (576 KiB, two deflate parts) of a smooth gradient."""
    rng = np.random.default_rng(4)
    y, x = np.mgrid[0:576, 0:1024]
    first = ((x + y) // 7 % 256).astype(np.uint8)[..., None]
    return FrameGeometry(1024, 576, 1), SPATIO, _edits(rng, first, 3)


CASES = {
    "spatio_mono_odd.sfix": spatio_mono_odd,
    "standard_rgb.sfix": standard_rgb,
    "stored_noise.sfix": stored_noise,
    "parted_gradient.sfix": parted_gradient,
}


def encode(geometry: FrameGeometry, config: EncoderConfig, frames: list[np.ndarray]) -> bytes:
    session = SessionEncoder(geometry, Fraction(25), config)
    messages = [session.hello]
    messages += [session.push(Frame(geometry, f.tobytes())) for f in frames]
    out = io.BytesIO()
    write_container(out, messages + [End()])
    return out.getvalue()


def decoded_hashes(container: bytes) -> list[str]:
    session = SessionDecoder("container")
    frames = (session.accept(msg) for msg in read_container(io.BytesIO(container)))
    return [hashlib.sha256(f.samples).hexdigest() for f in frames if f is not None]


def main() -> int:
    pinned = {}
    for name, case in CASES.items():
        path = HERE / name
        if path.exists():
            print(f"{path} exists; the version-1 corpus is never rewritten", file=sys.stderr)
            return 1
        geometry, config, frames = case()
        container = encode(geometry, config, frames)
        hashes = decoded_hashes(container)
        assert hashes == [hashlib.sha256(f.tobytes()).hexdigest() for f in frames]
        path.write_bytes(container)
        pinned[name] = hashes
    (HERE / "corpus.json").write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
