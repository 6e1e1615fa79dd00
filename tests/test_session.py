"""The session rules on their own: SessionEncoder, SessionDecoder, and a fuzz gate.

The fuzz gate feeds thousands of seeded mutations of small containers
(bit flips, truncations, splices, length-field overwrites and re-deflated
index edits) through read_container and a SessionDecoder, the way
`sfix decode` reads a file.  Every case must end in the original frames
or in one of the package's errors; anything else (an IndexError, a numpy
error) is a bug in the decoder.
"""

import io
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import decode_container
from sfix import wirecodec as wc
from sfix.core import CodecError, EncoderConfig, EncoderMode, Frame, FrameGeometry
from sfix.ingest import SourceError, SynthParams, gen_low_motion
from sfix.session import NetError, ProtocolViolation, SessionDecoder, SessionEncoder

PACKAGE_ERRORS = (CodecError, wc.WireFormatError, SourceError, NetError)


def clip(n=4, seed=0, **kwargs):
    kwargs = {"width": 16, "height": 12, "block_count": 1, "block_size": 4, **kwargs}
    return list(gen_low_motion(SynthParams(seed=seed, n_frames=n, **kwargs)))


def session_messages(frames, config=EncoderConfig()):
    session = SessionEncoder(frames[0].geometry, Fraction(25, 1), config)
    return [session.hello, *map(session.push, frames), wc.End()]


def container(messages):
    buf = io.BytesIO()
    wc.write_container(buf, messages)
    return buf.getvalue()


def decode(data):
    return decode_container(io.BytesIO(data))


class TestSessionEncoder:
    def test_ref_first_then_numbered_deltas(self):
        frames = clip()
        messages = session_messages(frames)
        assert [type(m) for m in messages] == [wc.Hello, wc.RefFrame, wc.Delta, wc.Delta,
                                               wc.Delta, wc.End]
        assert [m.frame_no for m in messages[1:-1]] == [0, 1, 2, 3]
        assert wc.message_to_samples(messages[1]) == frames[0].samples

    def test_reference_advances_with_each_push(self):
        frames = clip()
        session = SessionEncoder(frames[0].geometry, Fraction(25, 1))
        for frame in frames:
            session.push(frame)
            assert session.reference is frame
        assert session.frames == 4

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_hello_carries_fps_and_mode(self, mode):
        session = SessionEncoder(FrameGeometry(4, 2), Fraction(30000, 1001), EncoderConfig(mode))
        assert session.hello == wc.Hello(FrameGeometry(4, 2), 30000, 1001,
                                         baseline=mode is EncoderMode.STANDARD_BASELINE)
        assert session.hello.fps == Fraction(30000, 1001)

    def test_first_frame_of_the_wrong_geometry_is_a_source_error(self):
        session = SessionEncoder(FrameGeometry(4, 2), Fraction(25, 1))
        with pytest.raises(SourceError, match="source yielded"):
            session.push(Frame(FrameGeometry(2, 4), bytes(8)))
        assert session.frames == 0 and session.reference is None


class TestSessionDecoder:
    def test_round_trip_and_limits(self):
        frames = clip(seed=3)
        messages = session_messages(frames)
        session = SessionDecoder()
        assert session.limits == wc.OPENING_LIMITS
        assert session.accept(messages[0]) is None
        assert session.limits == wc.payload_limits(frames[0].geometry)
        rebuilt = [session.accept(m) for m in messages[1:]]
        assert [f.samples for f in rebuilt[:-1]] == [f.samples for f in frames]
        assert rebuilt[-1] is None

    @pytest.mark.parametrize("order,match", [
        ([1], "first message must be HELLO, got RefFrame"),
        ([0, 2], "DELTA before any REF_FRAME"),
        ([0, 0], "HELLO repeated mid-session"),
        ([0, 1, 1], "REF_FRAME repeated mid-session"),
        ([0, 1, 3], "frame_no gap: expected 1, got 2"),
    ])
    def test_ordering_faults(self, order, match):
        messages = session_messages(clip())
        session = SessionDecoder()
        with pytest.raises(ProtocolViolation, match=match):
            for i in order:
                session.accept(messages[i])

    def test_where_names_the_stream(self):
        messages = session_messages(clip())
        session = SessionDecoder("container")
        session.accept(messages[0])
        with pytest.raises(ProtocolViolation, match="HELLO repeated mid-container"):
            session.accept(messages[0])

    def test_a_join_may_start_at_any_frame_number(self):
        frames = clip()
        messages = session_messages(frames)
        session = SessionDecoder()
        session.accept(messages[0])
        session.accept(wc.samples_to_message(2, frames[2].samples))
        assert session.accept(messages[4]).samples == frames[3].samples

    def test_decode_faults_raise_as_they_are(self):
        messages = session_messages(clip())
        session = SessionDecoder()
        session.accept(messages[0])
        session.accept(messages[1])
        with pytest.raises(wc.CorruptStream):
            session.accept(wc.Delta(1, 10, b"garbage!", 4, b"junk"))


def test_bytes_after_end_are_not_read():
    """read_container stops at END: trailing bytes are accepted, whatever they hold."""
    frames = clip(seed=1)
    data = container(session_messages(frames))
    for tail in (b"\x00", b"\x01" + b"\xff" * 4, data):
        assert decode(data + tail) == [f.samples for f in frames]


def test_container_must_open_with_hello():
    frames = clip()
    data = container(session_messages(frames)[1:])
    with pytest.raises(wc.CorruptStream, match="must open with a HELLO"):
        decode(data)


# -- fuzz gate -----------------------------------------------------------------


def _length_fields(data):
    """Offsets of every u32 length field in a container's messages."""
    offsets, pos = [], 5
    while pos < len(data):
        msg_type, payload_len = struct.unpack_from("<BI", data, pos)
        body = pos + 5
        offsets.append(pos + 1)
        if msg_type == wc.MSG_REF_FRAME:
            offsets.append(body + 4)
        elif msg_type == wc.MSG_DELTA:
            offsets += [body + 4, body + 8]
            (index_len,) = struct.unpack_from("<I", data, body + 8)
            offsets += [body + 12 + index_len, body + 16 + index_len]
        pos = body + payload_len
    return offsets


def _bases():
    noise = np.random.default_rng(5).integers(0, 256, (4, 80 * 60), dtype=np.uint8)
    still = clip(seed=2)
    clips = [
        (clip(seed=0), EncoderConfig()),
        (clip(seed=1), EncoderConfig(EncoderMode.STANDARD_BASELINE)),
        (clip(seed=4, channels=3), EncoderConfig(min_repeat_run=2)),
        ([still[0], still[0], still[1], still[1]], EncoderConfig()),  # equal-frame deltas
        ([Frame(FrameGeometry(80, 60), row.tobytes()) for row in noise], EncoderConfig()),
    ]
    return [(session_messages(f, cfg), [x.samples for x in f]) for f, cfg in clips]


def _edit_index(rng, messages):
    """A DELTA whose index has a flipped bit or lost its tail, deflated again.

    The adler32 of the deflated index still holds, so the edit reaches the
    codec's validation instead of stopping at the inflater.
    """
    messages = list(messages)
    at = rng.randrange(2, len(messages) - 1)
    msg = messages[at]
    index = bytearray(wc.decompress(msg.index_payload, msg.index_raw_len))
    if rng.random() < 0.5:
        index[rng.randrange(len(index))] ^= 1 << rng.randrange(8)
    else:
        del index[rng.randrange(len(index)):]
    messages[at] = wc.Delta(msg.frame_no, len(index), wc.compress(bytes(index)),
                            msg.diff_raw_len, msg.diff_payload)
    return container(messages)


def _mutate(rng, messages, other):
    kind = rng.randrange(5)
    if kind == 4:
        return _edit_index(rng, messages)
    data = bytearray(container(messages))
    if kind == 0:  # bit flips
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == 1:  # truncation
        del data[rng.randrange(len(data)):]
    elif kind == 2:  # splice in a piece of another container
        a, b = sorted(rng.randrange(len(other)) for _ in range(2))
        at = rng.randrange(len(data))
        data[at:at + rng.randrange(16)] = other[a:b]
    else:  # overwrite a length field
        at = rng.choice(_length_fields(bytes(data)))
        old = struct.unpack_from("<I", data, at)[0]
        new = rng.choice([0, 1, old - 1, old + 1, old * 2, 0xFFFFFFFF, rng.randrange(1 << 32)])
        struct.pack_into("<I", data, at, new % (1 << 32))
    return bytes(data)


def test_mutated_containers_end_in_the_frames_or_a_package_error():
    bases = _bases()
    others = [container(messages) for messages, _ in bases]
    rng = random.Random(20261018)
    outcomes = {"frames": 0, "error": 0}
    for case in range(4000):
        messages, frames = bases[case % len(bases)]
        mutated = _mutate(rng, messages, rng.choice(others))
        try:
            got = decode(mutated)
        except PACKAGE_ERRORS:
            outcomes["error"] += 1
            continue
        assert got == frames, f"case {case}: a mutation decoded to other frames"
        outcomes["frames"] += 1
    assert outcomes["error"] > 3000 and outcomes["frames"] > 0, outcomes
