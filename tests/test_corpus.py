"""Version-1 compatibility corpus: pinned `.sfix` files decode to pinned frame hashes.

The files under tests/data were written by the version-1 encoder
(tests/data/make_corpus.py records how) and are never rewritten: a
decoder change that alters any decoded byte, or stops reading a file
that version 1 wrote, fails here.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from sfix import cli
from sfix.core import CODE_EQUAL_FRAMES
from sfix.session import SessionDecoder
from sfix.wirecodec import Delta, RefFrame, message_to_delta, read_container

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "corpus.json").read_text())


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def messages(name: str) -> list:
    return list(read_container(io.BytesIO((DATA / name).read_bytes())))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_session_decoder_gives_the_pinned_frames(name):
    session = SessionDecoder("container")
    frames = [session.accept(msg) for msg in messages(name)]
    assert [sha256(f.samples) for f in frames if f is not None] == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sfix_decode_gives_the_pinned_frames(name, tmp_path):
    out = tmp_path / "out.raw"
    assert cli.main(["decode", "--input", str(DATA / name), "--output", str(out), "--raw"]) == 0
    raw = out.read_bytes()
    size = messages(name)[0].geometry.total_samples
    assert len(raw) == size * len(PINNED[name])
    assert [sha256(raw[i:i + size]) for i in range(0, len(raw), size)] == PINNED[name]


def test_corpus_covers_each_case():
    def stored(payload) -> bool:
        return bytes(payload[:2]) == b"\x78\x01"  # zlib header of FLEVEL 0: stored blocks

    hellos, refs, deltas = [], [], []
    for name in PINNED:
        hello, *rest = messages(name)
        hellos.append(hello)
        refs += [m for m in rest if isinstance(m, RefFrame)]
        deltas += [m for m in rest if isinstance(m, Delta)]
    assert {h.baseline for h in hellos} == {False, True}
    assert {h.geometry.channels for h in hellos} == {1, 3}
    assert any(h.geometry.total_samples % 8 for h in hellos)
    assert any(message_to_delta(d).records["code"][0] == CODE_EQUAL_FRAMES for d in deltas)
    assert any(stored(r.payload) for r in refs) and any(stored(d.diff_payload) for d in deltas)
    assert any(r.raw_len > 512 << 10 for r in refs)  # deflated in more than one part
    assert sum((DATA / name).stat().st_size for name in PINNED) < 200 << 10
