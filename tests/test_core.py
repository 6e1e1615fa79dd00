"""Value-object construction rules and delta validation."""

import numpy as np
import pytest

from sfix.core import (
    EQUAL_FRAMES_DELTA,
    INDEX_RECORD,
    BadEntry,
    CountMismatch,
    DiffMismatch,
    EncoderConfig,
    EncoderMode,
    Frame,
    FrameDelta,
    FrameGeometry,
    IndexCode,
    IndexEntry,
    LoneEqualViolated,
    validate_delta,
)

GEOM = FrameGeometry(4, 3, 1)  # 12 samples


def entries(*pairs):
    return tuple(IndexEntry(IndexCode(code), count) for code, count in pairs)


class TestIndexCode:
    def test_wire_values(self):
        assert IndexCode.EQUAL_FRAMES == -1
        assert IndexCode.COPY_FROM_DIFF == -2
        assert IndexCode.COPY_FROM_REF == -3
        assert IndexCode.REPEAT_FROM_DIFF == -5

    def test_minus_four_is_reserved(self):
        with pytest.raises(ValueError):
            IndexCode(-4)


class TestFrameGeometry:
    def test_total_samples(self):
        assert FrameGeometry(10, 7, 1).total_samples == 70
        assert FrameGeometry(373, 597, 3).total_samples == 373 * 597 * 3

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (-1, 5)])
    def test_rejects_degenerate_dimensions(self, width, height):
        with pytest.raises(ValueError):
            FrameGeometry(width, height)

    @pytest.mark.parametrize("channels", [0, 2, 4])
    def test_rejects_unsupported_channel_counts(self, channels):
        with pytest.raises(ValueError):
            FrameGeometry(8, 8, channels)

    def test_rejects_totals_beyond_32_bits(self):
        with pytest.raises(ValueError):
            FrameGeometry(2**17, 2**16, 1)


class TestFrame:
    def test_sample_length_must_match_geometry(self):
        with pytest.raises(ValueError):
            Frame(GEOM, b"\x00" * 11)

    def test_accepts_bytearray_and_freezes_to_bytes(self):
        frame = Frame(GEOM, bytearray(12))
        assert isinstance(frame.samples, bytes)


class TestIndexEntry:
    def test_count_bounds(self):
        IndexEntry(IndexCode.COPY_FROM_REF, 0)  # bounds-valid; rejected later
        IndexEntry(IndexCode.COPY_FROM_REF, 2**32 - 1)
        with pytest.raises(ValueError):
            IndexEntry(IndexCode.COPY_FROM_REF, -1)
        with pytest.raises(ValueError):
            IndexEntry(IndexCode.COPY_FROM_REF, 2**32)


class TestEncoderConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.mode is EncoderMode.SPATIO_TEMPORAL
        assert cfg.min_repeat_run == 3

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_min_repeat_run_floor(self, bad):
        with pytest.raises(ValueError):
            EncoderConfig(min_repeat_run=bad)

    def test_two_is_allowed(self):
        assert EncoderConfig(min_repeat_run=2).min_repeat_run == 2


class TestValidateDelta:
    def test_accepts_exact_tiling(self):
        delta = FrameDelta(entries((-3, 5), (-2, 3), (-5, 4)), bytes(4))
        validate_delta(delta, GEOM)  # no exception

    def test_accepts_lone_equal_frames(self):
        validate_delta(EQUAL_FRAMES_DELTA, GEOM)

    def test_equal_frames_count_must_be_zero(self):
        delta = FrameDelta(entries((-1, 12)), b"")
        with pytest.raises(BadEntry):
            validate_delta(delta, GEOM)

    @pytest.mark.parametrize("code", [-2, -3, -5])
    def test_copy_codes_need_positive_count(self, code):
        delta = FrameDelta(entries((code, 0), (-3, 12)), b"")
        with pytest.raises(BadEntry):
            validate_delta(delta, GEOM)

    def test_equal_frames_must_be_alone(self):
        delta = FrameDelta(entries((-1, 0), (-3, 12)), b"")
        with pytest.raises(LoneEqualViolated):
            validate_delta(delta, GEOM)

    def test_equal_frames_must_have_empty_diff(self):
        delta = FrameDelta(entries((-1, 0)), b"\x01")
        with pytest.raises(LoneEqualViolated):
            validate_delta(delta, GEOM)

    @pytest.mark.parametrize("counts", [(11,), (13,), (6, 7)])
    def test_counts_must_tile_the_frame(self, counts):
        delta = FrameDelta(entries(*((-3, c) for c in counts)), b"")
        with pytest.raises(CountMismatch):
            validate_delta(delta, GEOM)

    def test_diff_length_must_match_consumption(self):
        # -2 consumes its count, -5 consumes exactly one sample.
        delta = FrameDelta(entries((-2, 3), (-5, 9)), bytes(3))
        with pytest.raises(DiffMismatch):
            validate_delta(delta, GEOM)
        validate_delta(FrameDelta(entries((-2, 3), (-5, 9)), bytes(4)), GEOM)

    def test_bad_entry_reported_before_count_mismatch(self):
        delta = FrameDelta(entries((-2, 0), (-3, 37)), b"")
        with pytest.raises(BadEntry):
            validate_delta(delta, GEOM)

    def test_ref_only_index_needs_no_diff(self):
        validate_delta(FrameDelta(entries((-3, 12)), b""), GEOM)
        with pytest.raises(DiffMismatch):
            validate_delta(FrameDelta(entries((-3, 12)), b"\x00"), GEOM)


def test_equal_frames_delta_shape():
    (entry,) = EQUAL_FRAMES_DELTA.index
    assert entry.code is IndexCode.EQUAL_FRAMES
    assert entry.count == 0
    assert EQUAL_FRAMES_DELTA.diff == b""


def test_frame_delta_coerces_sequences():
    delta = FrameDelta([IndexEntry(IndexCode.COPY_FROM_REF, 12)], bytearray())
    assert isinstance(delta.index, tuple)
    assert isinstance(delta.diff, bytes)


class TestValidateRecords:
    """Deltas built straight from INDEX_RECORD arrays, as encode and the wire make them."""

    @staticmethod
    def records(*pairs):
        return np.array(list(pairs), dtype=INDEX_RECORD)

    def test_counts_past_32_bits_do_not_wrap(self):
        # In uint32 arithmetic (2**32 - 1) + 13 wraps to 12, GEOM's total.
        delta = FrameDelta(self.records((-3, 2**32 - 1), (-3, 13)), b"")
        with pytest.raises(CountMismatch):
            validate_delta(delta, GEOM)

    @pytest.mark.parametrize("code", [-4, 0, 7, -128])
    def test_unassigned_code_is_bad_entry(self, code):
        delta = FrameDelta(self.records((-3, 6), (code, 6)), b"")
        with pytest.raises(BadEntry, match="not assigned"):
            validate_delta(delta, GEOM)

    def test_records_and_entries_build_equal_deltas(self):
        pairs = ((-3, 5), (-2, 3), (-5, 4))
        from_records = FrameDelta(self.records(*pairs), bytes(4))
        assert from_records == FrameDelta(entries(*pairs), bytes(4))
        assert from_records.index == entries(*pairs)
        validate_delta(from_records, GEOM)

    def test_records_are_read_only(self):
        delta = FrameDelta(self.records((-3, 12)), b"")
        with pytest.raises(ValueError):
            delta.records["count"][0] = 11

    def test_other_dtypes_rejected(self):
        with pytest.raises(TypeError):
            FrameDelta(np.zeros(2, dtype=np.int64), b"")
