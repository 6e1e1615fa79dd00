"""Decoder behaviour: golden reconstruction, round trips, defensive errors.

The independent loop oracle in oracle.py is the ground truth here: the
production decoder must agree with it on every fuzzed delta, and the
encode->decode round trip must be the identity.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    GOLDEN_DIFF,
    GOLDEN_INDEX,
    GOLDEN_PREFIX_LENGTHS,
    fuzz_pair,
    rows_to_frame,
)
from sfix import ingest
from sfix.bench import measure_pair
from sfix.core import (
    EQUAL_FRAMES_DELTA,
    CountMismatch,
    DiffMismatch,
    EncoderConfig,
    EncoderMode,
    Frame,
    FrameDelta,
    FrameGeometry,
    IndexCode,
    IndexEntry,
    InvalidDelta,
)
from sfix.decode import decode_delta, decode_prefix
from sfix.encode import encode_delta
from sfix.wirecodec import samples_to_message


def delta_from_pairs(pairs, diff):
    return FrameDelta(
        tuple(IndexEntry(IndexCode(code), count) for code, count in pairs),
        bytes(diff),
    )


@pytest.fixture
def golden_delta():
    return delta_from_pairs(GOLDEN_INDEX, GOLDEN_DIFF)


def test_golden_delta_reconstructs_new_frame(golden_ref, golden_new, golden_delta):
    assert decode_delta(golden_ref, golden_delta).samples == golden_new.samples


def test_golden_delta_matches_oracle(golden_ref, golden_delta):
    assert decode_delta(golden_ref, golden_delta).samples == oracle.oracle_decode(
        golden_ref.samples, GOLDEN_INDEX, bytes(GOLDEN_DIFF)
    )


def test_equal_frames_delta_copies_reference(golden_ref):
    out = decode_delta(golden_ref, EQUAL_FRAMES_DELTA)
    assert out.samples == golden_ref.samples
    assert out is not golden_ref


class TestDecodePrefix:
    def test_cursor_positions_follow_entry_counts(self, golden_ref, golden_delta):
        for n, want_len in enumerate(GOLDEN_PREFIX_LENGTHS, start=1):
            assert len(decode_prefix(golden_ref, golden_delta, n)) == want_len

    def test_prefixes_are_prefixes_of_the_full_frame(
        self, golden_ref, golden_new, golden_delta
    ):
        for n in range(len(GOLDEN_INDEX) + 1):
            prefix = decode_prefix(golden_ref, golden_delta, n)
            assert prefix == golden_new.samples[: len(prefix)]

    def test_zero_entries_is_empty(self, golden_ref, golden_delta):
        assert decode_prefix(golden_ref, golden_delta, 0) == b""

    def test_out_of_range_rejected(self, golden_ref, golden_delta):
        with pytest.raises(ValueError):
            decode_prefix(golden_ref, golden_delta, -1)
        with pytest.raises(ValueError):
            decode_prefix(golden_ref, golden_delta, len(GOLDEN_INDEX) + 1)

    def test_equal_frames_prefix_is_whole_reference(self, golden_ref):
        assert decode_prefix(golden_ref, EQUAL_FRAMES_DELTA, 1) == golden_ref.samples


def test_invalid_deltas_rejected_before_any_output(golden_ref):
    bad = delta_from_pairs([(-3, 69)], b"")  # one short
    with pytest.raises(CountMismatch):
        decode_delta(golden_ref, bad)
    bad = delta_from_pairs([(-3, 60), (-2, 10)], bytes(9))
    with pytest.raises(DiffMismatch):
        decode_delta(golden_ref, bad)


def test_decode_validates_against_reference_geometry():
    delta = delta_from_pairs([(-3, 70)], b"")
    small = Frame(FrameGeometry(5, 5), bytes(25))
    with pytest.raises(InvalidDelta):
        decode_delta(small, delta)


# -- randomized round trips ----------------------------------------------------


@pytest.mark.parametrize("mode", list(EncoderMode))
@pytest.mark.parametrize("min_run", [2, 3, 5])
def test_round_trip_identity_fuzzed(mode, min_run):
    """Decode(encode(x)) == x on 200 pairs per (mode, threshold) combination."""
    rng = np.random.default_rng(hash((mode.value, min_run)) % 2**32)
    cfg = EncoderConfig(mode, min_repeat_run=min_run)
    for _ in range(200):
        ref, new = fuzz_pair(rng, max_side=32)
        delta = encode_delta(ref, new, cfg)
        assert decode_delta(ref, delta).samples == new.samples


@pytest.mark.parametrize("mode", list(EncoderMode))
def test_decoder_agrees_with_oracle_on_fuzzed_deltas(mode):
    rng = np.random.default_rng(0xDEC0DE)
    cfg = EncoderConfig(mode)
    for _ in range(300):
        ref, new = fuzz_pair(rng, max_side=24)
        delta = encode_delta(ref, new, cfg)
        pairs = [(int(e.code), e.count) for e in delta.index]
        assert decode_delta(ref, delta).samples == oracle.oracle_decode(
            ref.samples, pairs, delta.diff
        )


@given(st.binary(min_size=1, max_size=400), st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_identity_hypothesis(ref_bytes, data):
    geometry = FrameGeometry(len(ref_bytes), 1, 1)
    ref = Frame(geometry, ref_bytes)
    new_bytes = data.draw(
        st.one_of(
            st.just(ref_bytes),
            st.binary(min_size=len(ref_bytes), max_size=len(ref_bytes)),
        )
    )
    new = Frame(geometry, new_bytes)
    for mode in EncoderMode:
        delta = encode_delta(ref, new, EncoderConfig(mode))
        assert decode_delta(ref, delta).samples == new_bytes


def test_multi_frame_chain_round_trip():
    """References advance in lockstep on both sides across a frame chain."""
    rng = np.random.default_rng(42)
    geometry = FrameGeometry(16, 16, 3)
    frames = []
    current = rng.integers(0, 256, geometry.total_samples, dtype=np.uint8)
    for _ in range(30):
        frames.append(Frame(geometry, current.tobytes()))
        current = current.copy()
        start = int(rng.integers(0, geometry.total_samples - 16))
        current[start:start + 16] = int(rng.integers(0, 256))
    server_ref = client_ref = frames[0]
    for new in frames[1:]:
        delta = encode_delta(server_ref, new)
        rebuilt = decode_delta(client_ref, delta)
        assert rebuilt.samples == new.samples
        server_ref, client_ref = new, rebuilt


# -- the decoded frame: the replay's output, read-only -------------------------


def decoded_pair(n, seed=0):
    """A frame decoded from a delta, and the same frame built from bytes."""
    rng = np.random.default_rng(seed)
    geometry = FrameGeometry(n, 1, 1)
    ref = Frame(geometry, rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    new = Frame(geometry, rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    return decode_delta(ref, encode_delta(ref, new)), new


class TestDecodedFrame:
    def test_equals_and_hashes_like_its_bytes_twin(self):
        decoded, twin = decoded_pair(70)
        assert decoded == twin and hash(decoded) == hash(twin)
        assert decoded in {twin} and twin in {decoded} and len({decoded, twin}) == 1

    def test_samples_are_the_replays_array_read_only(self):
        decoded, _ = decoded_pair(70)
        assert isinstance(decoded.samples, memoryview)  # handed over, not copied to bytes
        assert not np.frombuffer(decoded.samples, np.uint8).flags.writeable
        with pytest.raises(TypeError):
            decoded.samples[0] = 1

    def test_equal_frames_shares_the_reference_samples(self):
        decoded, _ = decoded_pair(70)
        out = decode_delta(decoded, EQUAL_FRAMES_DELTA)
        assert out == decoded and out is not decoded
        assert np.shares_memory(np.frombuffer(out.samples, np.uint8),
                                np.frombuffer(decoded.samples, np.uint8))

    def test_decode_prefix_returns_bytes(self):
        decoded, twin = decoded_pair(70)
        delta = encode_delta(twin, Frame(twin.geometry, bytes(70)))
        for d in (EQUAL_FRAMES_DELTA, delta):
            prefix = decode_prefix(decoded, d, len(d.records))
            assert type(prefix) is bytes and prefix == decode_delta(twin, d).samples

    @pytest.mark.parametrize("n", [7, 9, 17])
    @pytest.mark.parametrize("mode,oracle_run", [
        (EncoderMode.SPATIO_TEMPORAL, 3), (EncoderMode.STANDARD_BASELINE, None),
    ])
    def test_encoding_against_a_decoded_reference_matches_the_oracle(self, n, mode, oracle_run):
        decoded, twin = decoded_pair(n, seed=n)
        rng = np.random.default_rng(n + 1)
        for _ in range(20):
            new = bytearray(twin.samples)
            for at in rng.choice(n, int(rng.integers(1, n + 1)), replace=False):
                new[at] = int(rng.integers(0, 4))  # small values, so repeats occur
            new[-1] ^= 1  # the tail past the last whole word always differs
            delta = encode_delta(decoded, Frame(twin.geometry, new), EncoderConfig(mode))
            want_index, want_diff = oracle.oracle_encode(twin.samples, bytes(new), oracle_run)
            assert [(e.code, e.count) for e in delta.index] == want_index
            assert delta.diff == want_diff
        assert encode_delta(decoded, twin) is EQUAL_FRAMES_DELTA

    def test_writers_and_hashlib_see_the_bytes_twin(self):
        decoded, twin = decoded_pair(70)
        for write in (
            lambda out, frame: ingest.write_y4m(out, frame.geometry, [frame]),
            lambda out, frame: ingest.write_raw(out, [frame]),
        ):
            got, want = io.BytesIO(), io.BytesIO()
            write(got, decoded)
            write(want, twin)
            assert got.getvalue() == want.getvalue()
        assert hashlib.sha256(decoded.samples).digest() == hashlib.sha256(twin.samples).digest()
        message = samples_to_message(0, decoded.samples)
        assert message == samples_to_message(0, twin.samples)
        assert measure_pair(decoded, twin).diff_samples == 0
