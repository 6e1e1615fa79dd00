"""Wire format: exact byte layouts, round trips, and corruption handling."""

import io
import math
import random
import struct
import tracemalloc
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIFF, GOLDEN_INDEX
from sfix.core import FrameDelta, FrameGeometry, IndexCode, IndexEntry
from sfix.ingest import SynthParams, gen_low_motion
from sfix import wirecodec as wc


def golden_delta():
    return FrameDelta(
        tuple(IndexEntry(IndexCode(c), n) for c, n in GOLDEN_INDEX), bytes(GOLDEN_DIFF)
    )


class TestIndexSerialization:
    def test_entry_layout_is_signed_byte_plus_le_u32(self):
        assert wc.serialize_index([IndexEntry(IndexCode.COPY_FROM_REF, 4)]) == (
            b"\xfd\x04\x00\x00\x00"
        )
        assert wc.serialize_index([IndexEntry(IndexCode.EQUAL_FRAMES, 0)]) == (
            b"\xff\x00\x00\x00\x00"
        )
        assert wc.serialize_index([IndexEntry(IndexCode.REPEAT_FROM_DIFF, 259)]) == (
            b"\xfb\x03\x01\x00\x00"
        )

    def test_golden_index_serializes_to_55_bytes(self):
        data = wc.serialize_index(golden_delta().index)
        assert len(data) == 11 * wc.INDEX_ENTRY_SIZE
        assert data[:10] == b"\xfd\x04\x00\x00\x00\xfb\x04\x00\x00\x00"

    def test_round_trip(self):
        index = golden_delta().index
        records = wc.deserialize_index(wc.serialize_index(index))
        assert FrameDelta(records, b"").index == index

    def test_ragged_length_rejected(self):
        with pytest.raises(wc.BadLength):
            wc.deserialize_index(b"\xfd\x04\x00\x00\x00\xfd")

    def test_reserved_code_rejected(self):
        with pytest.raises(wc.UnknownCode):
            wc.deserialize_index(b"\xfc\x01\x00\x00\x00")  # -4
        with pytest.raises(wc.UnknownCode):
            wc.deserialize_index(b"\x07\x01\x00\x00\x00")


class TestCompression:
    def test_round_trip(self):
        data = bytes(range(256)) * 10
        assert wc.decompress(wc.compress(data), len(data)) == data

    def test_empty_buffer(self):
        assert wc.decompress(wc.compress(b""), 0) == b""

    def test_output_is_a_zlib_stream(self):
        # 0x78 header byte: zlib-wrapped deflate with a 32K window (RFC 1950).
        compressed = wc.compress(b"hello")
        assert compressed[0] == 0x78
        assert zlib.decompress(compressed) == b"hello"

    def test_undersized_expectation_rejected(self):
        data = wc.compress(bytes(100))
        with pytest.raises(wc.LengthMismatch):
            wc.decompress(data, 99)

    def test_oversized_expectation_rejected(self):
        data = wc.compress(bytes(100))
        with pytest.raises(wc.LengthMismatch):
            wc.decompress(data, 101)

    def test_garbage_rejected(self):
        with pytest.raises(wc.CorruptStream):
            wc.decompress(b"\x00\x01\x02\x03", 4)

    def test_truncated_stream_rejected(self):
        data = wc.compress(bytes(1000))
        with pytest.raises(wc.CorruptStream):
            wc.decompress(data[:-4], 1000)

    def test_trailing_bytes_rejected(self):
        data = wc.compress(b"abc") + b"XX"
        with pytest.raises(wc.CorruptStream):
            wc.decompress(data, 3)


class TestCompressionPolicy:
    """compress() stores what a level-1 sample says DEFLATE cannot shrink."""

    @pytest.mark.parametrize("n", [4097, 65535, 65536, 200_003])
    def test_noise_above_the_probe_size_is_stored(self, n):
        data = random.Random(n).randbytes(n)
        out = wc.compress(data)
        assert (out[2] >> 1) & 0b11 == 0  # first block's BTYPE: stored
        assert len(out) <= n + 5 * math.ceil(n / 65535) + 6
        assert wc.decompress(out, n) == data
        assert zlib.decompress(out) == data

    def test_noise_prefix_does_not_hide_a_constant_body(self):
        data = random.Random(3).randbytes(64 << 10) + bytes(512 << 10)
        out = wc.compress(data)
        assert len(out) < len(data) // 2
        assert wc.decompress(out, len(data)) == data

    @pytest.mark.parametrize("n", [0, 1, 300, 4096])
    def test_small_buffers_are_deflated_at_level_6(self, n):
        for data in (random.Random(n).randbytes(n), bytes(n)):
            assert wc.compress(data) == zlib.compress(data, 6)

    def test_same_input_same_bytes(self):
        for data in (random.Random(9).randbytes(100_000), bytes(range(256)) * 400):
            assert wc.compress(data) == wc.compress(bytes(bytearray(data)))

    def test_buried_keyframe_is_stored_only_while_incompressible(self):
        # hd_light-style clip: a noise frame 0 buried block by block under
        # constant blocks, so each frame deflates a little better than the last
        params = SynthParams(
            seed=7, n_frames=60, width=256, height=216, block_count=6, block_size=8,
            fill_mode="constant", change_fraction=0.1, fps=Fraction(25),
        )
        seen = set()
        for frame_no, frame in enumerate(gen_low_motion(params)):
            samples = frame.samples
            level6 = zlib.compress(samples, 6)
            stored = wc.compress(samples) != level6
            if len(level6) <= 0.9 * len(samples):
                assert not stored, frame_no
                seen.add("deflated")
            elif len(level6) > 0.99 * len(samples):
                assert stored, frame_no
                seen.add("stored")
        assert seen == {"stored", "deflated"}


class TestMessageFraming:
    def test_hello_exact_bytes(self):
        msg = wc.Hello(FrameGeometry(10, 7, 1), 25, 1, baseline=False)
        assert wc.frame_message(msg) == (
            b"\x01\x0e\x00\x00\x00"                  # type, payload length 14
            b"\x0a\x00\x00\x00\x07\x00\x00\x00"      # width, height
            b"\x01\x19\x00\x01\x00\x00"              # channels, fps 25:1, flags
        )

    def test_hello_baseline_flag_bit(self):
        msg = wc.Hello(FrameGeometry(10, 7, 1), 25, 1, baseline=True)
        assert wc.frame_message(msg)[-1] == 0x01

    def test_end_exact_bytes(self):
        assert wc.frame_message(wc.End()) == b"\x04\x00\x00\x00\x00"

    def test_ref_frame_layout(self):
        msg = wc.samples_to_message(3, b"\x10\x20\x30")
        data = wc.frame_message(msg)
        assert data[0] == 0x02
        (payload_len,) = struct.unpack_from("<I", data, 1)
        assert payload_len == len(data) - 5
        frame_no, raw_len = struct.unpack_from("<II", data, 5)
        assert (frame_no, raw_len) == (3, 3)
        assert zlib.decompress(data[13:]) == b"\x10\x20\x30"

    def test_delta_layout(self):
        msg = wc.delta_to_message(9, golden_delta())
        data = wc.frame_message(msg)
        assert data[0] == 0x03
        frame_no, index_raw, index_comp = struct.unpack_from("<III", data, 5)
        assert frame_no == 9
        assert index_raw == 55
        index_end = 17 + index_comp
        assert zlib.decompress(data[17:index_end]) == wc.serialize_index(
            golden_delta().index
        )
        diff_raw, diff_comp = struct.unpack_from("<II", data, index_end)
        assert diff_raw == 16
        assert zlib.decompress(data[index_end + 8:]) == bytes(GOLDEN_DIFF)
        assert index_end + 8 + diff_comp == len(data)

    def test_wire_size_matches_frame_length(self):
        for msg in (
            wc.Hello(FrameGeometry(4, 4), 30, 1),
            wc.samples_to_message(0, bytes(16)),
            wc.delta_to_message(1, golden_delta()),
            wc.End(),
        ):
            assert wc.wire_size(msg) == len(wc.frame_message(msg))


class TestDeclaredLengths:
    GEOM = FrameGeometry(4, 2)  # 8 samples

    def test_lengths_the_geometry_allows_pass(self):
        for msg in (
            wc.Hello(self.GEOM, 25, 1),
            wc.RefFrame(0, 8, b""),
            wc.Delta(1, 40, b"", 8, b""),
            wc.Delta(1, 5, b"", 0, b""),
            wc.End(),
        ):
            wc.check_declared_lengths(msg, self.GEOM)

    @pytest.mark.parametrize("msg,error", [
        (wc.RefFrame(0, 7, b""), wc.LengthMismatch),
        (wc.RefFrame(0, 9, b""), wc.LengthMismatch),
        (wc.Delta(1, 7, b"", 0, b""), wc.BadLength),
        (wc.Delta(1, 45, b"", 0, b""), wc.LengthMismatch),
        (wc.Delta(1, 5, b"", 9, b""), wc.LengthMismatch),
    ])
    def test_lengths_past_the_geometry_rejected(self, msg, error):
        with pytest.raises(error):
            wc.check_declared_lengths(msg, self.GEOM)


class TestParseMessage:
    def test_unassigned_type_rejected(self):
        with pytest.raises(wc.UnknownType):
            wc.parse_message(io.BytesIO(b"\x07\x00\x00\x00\x00"))

    def test_truncated_header(self):
        with pytest.raises(wc.TruncatedMessage):
            wc.parse_message(io.BytesIO(b"\x01\x0e"))

    def test_truncated_payload(self):
        data = wc.frame_message(wc.Hello(FrameGeometry(4, 4), 30, 1))
        with pytest.raises(wc.TruncatedMessage):
            wc.parse_message(io.BytesIO(data[:-1]))

    def test_hello_payload_must_be_14_bytes(self):
        with pytest.raises(wc.PayloadLengthMismatch):
            wc.parse_message(io.BytesIO(b"\x01\x02\x00\x00\x00\xab\xcd"))

    def test_end_payload_must_be_empty(self):
        with pytest.raises(wc.PayloadLengthMismatch):
            wc.parse_message(io.BytesIO(b"\x04\x01\x00\x00\x00\x00"))

    def test_delta_stray_bytes_rejected(self):
        good = wc.frame_message(wc.delta_to_message(0, golden_delta()))
        grown = good[:1] + struct.pack("<I", len(good) - 5 + 1) + good[5:] + b"\x00"
        with pytest.raises(wc.PayloadLengthMismatch):
            wc.parse_message(io.BytesIO(grown))


class TestParseCopies:
    """Parsing holds one copy of a payload: fields are views, not slices."""

    @staticmethod
    def _parse_peak(msg):
        framed = wc.frame_message(msg)
        stream = io.BytesIO(framed)
        tracemalloc.start()
        try:
            parsed = wc.parse_message(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == msg
        return peak, len(framed) - 5

    def test_keyframe(self):
        rng = random.Random(1)
        peak, payload = self._parse_peak(wc.samples_to_message(0, rng.randbytes(3 << 20)))
        assert peak <= 1.1 * payload

    def test_delta(self):
        rng = random.Random(2)
        msg = wc.Delta(1, 1 << 20, wc.compress(rng.randbytes(1 << 20)),
                       2 << 20, wc.compress(rng.randbytes(2 << 20)))
        peak, payload = self._parse_peak(msg)
        assert peak <= 1.1 * payload


class TestPayloadLimits:
    GEOM = FrameGeometry(16, 16, 3)

    def test_incompressible_messages_fit(self):
        # random bytes are the worst case for compress(): the longest payloads
        rng = random.Random(5)
        total = self.GEOM.total_samples
        noise = rng.randbytes(total)
        index = rng.randbytes(wc.INDEX_ENTRY_SIZE * total)
        messages = [
            wc.Hello(self.GEOM, 25, 1),
            wc.samples_to_message(0, noise),
            wc.Delta(1, len(index), wc.compress(index), total, wc.compress(noise)),
            wc.End(),
        ]
        limits = wc.payload_limits(self.GEOM)
        for msg in messages:
            assert wc.parse_message(io.BytesIO(wc.frame_message(msg)), limits) == msg

    @pytest.mark.parametrize("msg_type", [wc.MSG_HELLO, wc.MSG_REF_FRAME, wc.MSG_DELTA, wc.MSG_END])
    def test_header_past_the_limit_rejected_before_its_payload(self, msg_type):
        limit = wc.payload_limits(self.GEOM)[msg_type]
        at_limit = io.BytesIO(struct.pack("<BI", msg_type, limit))
        if limit:  # a legal length is read: the missing payload is a truncation
            with pytest.raises(wc.TruncatedMessage):
                wc.parse_message(at_limit, wc.payload_limits(self.GEOM))
        past = io.BytesIO(struct.pack("<BI", msg_type, limit + 1))
        with pytest.raises(wc.PayloadTooLarge):
            wc.parse_message(past, wc.payload_limits(self.GEOM))

    def test_unassigned_type_rejected_before_its_payload(self):
        with pytest.raises(wc.UnknownType):
            wc.parse_message(io.BytesIO(b"\x07\xff\xff\xff\xff"), wc.payload_limits(self.GEOM))


geometries = st.builds(
    FrameGeometry,
    st.integers(1, 4096),
    st.integers(1, 4096),
    st.sampled_from((1, 3)),
)
hellos = st.builds(
    wc.Hello, geometries, st.integers(0, 65535), st.integers(0, 65535), st.booleans()
)
ref_frames = st.builds(
    wc.samples_to_message, st.integers(0, 2**32 - 1), st.binary(max_size=300)
)
index_entries = st.builds(
    IndexEntry,
    st.sampled_from(sorted(IndexCode)),
    st.integers(0, 2**32 - 1),
)
deltas = st.builds(
    wc.delta_to_message,
    st.integers(0, 2**32 - 1),
    st.builds(
        FrameDelta,
        st.lists(index_entries, max_size=20).map(tuple),
        st.binary(max_size=300),
    ),
)
messages = st.one_of(hellos, ref_frames, deltas, st.just(wc.End()))


@given(messages)
@settings(max_examples=200, deadline=None)
def test_parse_inverts_frame(msg):
    framed = wc.frame_message(msg)
    assert wc.parse_message(io.BytesIO(framed)) == msg
    assert wc.wire_size(msg) == len(framed)


@given(st.lists(messages, max_size=6), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_incremental_parser_chunk_size_invariance(msgs, chunk):
    stream = b"".join(wc.frame_message(m) for m in msgs)
    parser = wc.MessageParser()
    got = []
    for i in range(0, len(stream), chunk):
        got.extend(parser.feed(stream[i:i + chunk]))
    assert got == msgs
    assert parser.pending_bytes == 0


def test_incremental_parser_single_bytes():
    msgs = [
        wc.Hello(FrameGeometry(10, 7), 25, 1),
        wc.samples_to_message(0, bytes(70)),
        wc.delta_to_message(1, golden_delta()),
        wc.End(),
    ]
    stream = b"".join(wc.frame_message(m) for m in msgs)
    parser = wc.MessageParser()
    got = []
    for i in range(len(stream)):
        got.extend(parser.feed(stream[i:i + 1]))
    assert got == msgs


class TestContainer:
    def messages(self):
        return [
            wc.Hello(FrameGeometry(10, 7), 25, 1),
            wc.samples_to_message(0, bytes(range(70))),
            wc.delta_to_message(1, golden_delta()),
            wc.End(),
        ]

    def test_round_trip(self):
        buf = io.BytesIO()
        wc.write_container(buf, self.messages())
        buf.seek(0)
        assert list(wc.read_container(buf)) == self.messages()

    def test_header_bytes(self):
        buf = io.BytesIO()
        wc.write_container(buf, [wc.End()])
        assert buf.getvalue()[:5] == b"SFIX\x01"

    def test_write_returns_byte_count(self):
        buf = io.BytesIO()
        written = wc.write_container(buf, self.messages())
        assert written == len(buf.getvalue())

    def test_deterministic_bytes(self):
        one, two = io.BytesIO(), io.BytesIO()
        wc.write_container(one, self.messages())
        wc.write_container(two, self.messages())
        assert one.getvalue() == two.getvalue()

    def test_bad_magic(self):
        with pytest.raises(wc.CorruptStream):
            list(wc.read_container(io.BytesIO(b"JUNK\x01" + b"\x04\x00\x00\x00\x00")))

    def test_future_version_named_in_error(self):
        buf = io.BytesIO(b"SFIX\x02" + b"\x04\x00\x00\x00\x00")
        with pytest.raises(wc.UnsupportedVersion, match="2"):
            list(wc.read_container(buf))

    def test_truncated_mid_message(self):
        buf = io.BytesIO()
        wc.write_container(buf, self.messages())
        clipped = io.BytesIO(buf.getvalue()[:-3])
        with pytest.raises(wc.TruncatedMessage):
            list(wc.read_container(clipped))

    def test_empty_file(self):
        with pytest.raises(wc.CorruptStream):
            list(wc.read_container(io.BytesIO(b"")))


def test_message_round_trip_recovers_delta():
    delta = golden_delta()
    assert wc.message_to_delta(wc.delta_to_message(5, delta)) == delta


def test_message_round_trip_recovers_samples():
    samples = bytes(range(256)) * 3
    assert wc.message_to_samples(wc.samples_to_message(0, samples)) == samples


def test_corrupt_delta_payload_fails_closed():
    msg = wc.delta_to_message(0, golden_delta())
    bad = wc.Delta(
        msg.frame_no,
        msg.index_raw_len,
        msg.index_payload[:-2] + b"\x00\x00",
        msg.diff_raw_len,
        msg.diff_payload,
    )
    with pytest.raises(wc.WireFormatError):
        wc.message_to_delta(bad)
