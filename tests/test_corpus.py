"""Version-1 compatibility corpus: pinned `.sfix` files decode to pinned frame hashes.

The files under tests/data were written by the version-1 encoder
(tests/data/make_corpus.py records how) and are never rewritten: a
decoder change that alters any decoded byte, or stops reading a file
that version 1 wrote, fails here.

The encoder is pinned against them too: each case, encoded again, must make
the decisions the file records (its records, which buffers are stored, the
part bounds of the rest), though not zlib's bytes, which depend on the zlib
build.  A change to what the encoder writes updates these pins on purpose.
"""

import hashlib
import importlib.util
import io
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_DIFF, GOLDEN_INDEX, serial_parts
from sfix import cli
from sfix.core import CODE_EQUAL_FRAMES
from sfix.encode import encode_delta
from sfix.session import SessionDecoder
from sfix.wirecodec import (Delta, RefFrame, compress, decompress, frame_message,
                            message_to_delta, read_container)

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "corpus.json").read_text())
STORED, DEFLATED = b"\x78\x01", b"\x78\x9c"  # zlib headers: FLEVEL 0, and level 6


def _make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", DATA / "make_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_CORPUS = _make_corpus()


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
        return bytes(payload[:2]) == STORED

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


def buffers(msg) -> list[tuple[int, bytes]]:
    """(raw length, payload) of each compressed buffer of a message, in wire order."""
    if isinstance(msg, RefFrame):
        return [(msg.raw_len, msg.payload)]
    if isinstance(msg, Delta):
        return [(msg.index_raw_len, msg.index_payload), (msg.diff_raw_len, msg.diff_payload)]
    return []


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_encoder_makes_the_pinned_decisions(name):
    pinned = messages(name)
    again = list(read_container(io.BytesIO(MAKE_CORPUS.encode(*MAKE_CORPUS.CASES[name]()))))
    assert frame_message(again[0]) == frame_message(pinned[0])  # HELLO
    assert [type(m) for m in again] == [type(m) for m in pinned]
    assert [getattr(m, "frame_no", None) for m in again] == [
        getattr(m, "frame_no", None) for m in pinned]
    for new, old in zip(again, pinned):
        for (raw_len, payload), (pinned_len, pinned_payload) in zip(
                buffers(new), buffers(old), strict=True):
            assert raw_len == pinned_len
            raw = decompress(pinned_payload, pinned_len)  # samples, index records or diff
            assert decompress(payload, raw_len) == raw
            assert payload[:2] == pinned_payload[:2] and payload[:2] in (STORED, DEFLATED)
            assert payload == (pinned_payload if payload[:2] == STORED else serial_parts(raw))


@pytest.mark.parametrize("alphabet, shrinks, header", [
    (212, (0.020, 0.025), DEFLATED),
    (216, (0.015, 0.020), STORED),
])
def test_a_buffer_is_stored_when_its_sample_shrinks_by_under_2_percent(alphabet, shrinks, header):
    # no corpus buffer lies near the cut: noise drawn from fewer than 256
    # values shrinks a little, more the fewer there are
    data = np.random.default_rng(alphabet).integers(0, alphabet, 64 << 10, np.uint8).tobytes()
    step = (len(data) - 512) // 7  # the sample: 8 windows of 512 bytes spread evenly
    sample = b"".join(data[i * step:i * step + 512] for i in range(8))
    assert shrinks[0] < 1 - len(zlib.compress(sample, 1)) / len(sample) < shrinks[1]
    out = compress(data)
    assert out[:2] == header
    assert zlib.decompress(out) == data


def test_the_corpus_config_collapses_a_run_of_3(golden_ref, golden_new):
    # no corpus delta holds a run of exactly min_repeat_run equal samples; the golden pair does
    delta = encode_delta(golden_ref, golden_new, MAKE_CORPUS.SPATIO)
    assert delta.records.tolist() == GOLDEN_INDEX and delta.diff == bytes(GOLDEN_DIFF)
