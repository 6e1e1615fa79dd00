"""Frame sources/sinks: YUV4MPEG2 parsing, raw files, synthetic video."""

import io
from fractions import Fraction

import pytest

from sfix import ingest
from sfix.core import Frame, FrameGeometry, GeometryMismatch


def y4m_bytes(header: str, *frames: bytes) -> io.BytesIO:
    body = b"".join(b"FRAME\n" + f for f in frames)
    return io.BytesIO(header.encode() + b"\n" + body)


class TestReadY4m:
    def test_mono_stream(self):
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 F30:1 Cmono", bytes(8), bytes(8)))
        assert src.geometry == FrameGeometry(4, 2, 1)
        assert src.fps == Fraction(30, 1)
        assert len(list(src)) == 2

    def test_frame_payload_preserved(self):
        payload = bytes(range(8))
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 Cmono", payload))
        assert next(iter(src)).samples == payload

    def test_420_even_dimensions_fold_into_grid(self):
        # 4x2 in 4:2:0: 8 luma + 2x2 chroma samples = 12 = 4 wide, 3 tall.
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 C420jpeg", bytes(12)))
        assert src.geometry == FrameGeometry(4, 3, 1)

    def test_420_odd_dimensions_fall_back_to_flat(self):
        # 5x3: 15 luma + 2*(3*2) chroma = 27 samples, no W x H*3/2 grid.
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W5 H3 C420jpeg", bytes(27)))
        assert src.geometry == FrameGeometry(27, 1, 1)
        assert len(list(src)) == 1

    def test_colorspace_defaults_to_420(self):
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2", bytes(12)))
        assert src.geometry.total_samples == 12

    def test_fps_defaults_to_25(self):
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 Cmono", bytes(8)))
        assert src.fps == Fraction(25, 1)

    def test_interlace_aspect_extension_tokens_ignored(self):
        src = ingest.read_y4m(
            y4m_bytes("YUV4MPEG2 W4 H2 F24:1 Ip A1:1 XYSCSS=MONO Cmono", bytes(8))
        )
        assert src.geometry == FrameGeometry(4, 2, 1)
        assert src.fps == Fraction(24, 1)

    def test_frame_marker_parameters_tolerated(self):
        stream = io.BytesIO(b"YUV4MPEG2 W4 H2 Cmono\nFRAME Xsome=param\n" + bytes(8))
        assert len(list(ingest.read_y4m(stream))) == 1

    def test_bad_signature(self):
        with pytest.raises(ingest.BadSignature):
            ingest.read_y4m(io.BytesIO(b"RIFF....\n"))

    def test_missing_dimensions(self):
        with pytest.raises(ingest.BadSignature):
            list(ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 Cmono")))

    def test_malformed_token(self):
        with pytest.raises(ingest.BadSignature):
            ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 Fx Cmono"))

    @pytest.mark.parametrize("rate", ["F-25:1", "F25:-1", "F1:0"])
    def test_negative_or_undefined_rate(self, rate):
        with pytest.raises(ingest.BadSignature):
            ingest.read_y4m(y4m_bytes(f"YUV4MPEG2 W4 H2 {rate} Cmono", bytes(8)))

    def test_zero_rate_rejected(self):
        # as `sfix encode --fps 0` is; a server would stream it unpaced
        with pytest.raises(ingest.BadSignature):
            ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 F0:1 Cmono", bytes(8), bytes(8)))

    def test_size_past_32_bits(self):
        with pytest.raises(ingest.BadSignature, match="32 bits"):
            ingest.read_y4m(y4m_bytes("YUV4MPEG2 W100000 H100000 Cmono"))

    def test_unsupported_colorspace(self):
        with pytest.raises(ingest.UnsupportedColorspace):
            ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 C444", bytes(24)))

    def test_truncated_frame_payload(self):
        src = ingest.read_y4m(y4m_bytes("YUV4MPEG2 W4 H2 Cmono", bytes(5)))
        with pytest.raises(ingest.TruncatedFrame):
            list(src)

    def test_garbage_between_frames(self):
        stream = io.BytesIO(b"YUV4MPEG2 W4 H2 Cmono\nBLOB\n" + bytes(8))
        with pytest.raises(ingest.TruncatedFrame):
            list(ingest.read_y4m(stream))

    def test_frames_are_lazy(self):
        stream = y4m_bytes("YUV4MPEG2 W4 H2 Cmono", bytes(8), bytes(8))
        src = ingest.read_y4m(stream)
        it = iter(src)
        next(it)
        mid = stream.tell()
        next(it)
        assert stream.tell() > mid


class TestWriteY4m:
    def test_round_trip(self):
        geometry = FrameGeometry(6, 4, 1)
        frames = [Frame(geometry, bytes([i] * 24)) for i in range(3)]
        buf = io.BytesIO()
        written = ingest.write_y4m(buf, geometry, frames, Fraction(30000, 1001))
        assert written == len(buf.getvalue())
        buf.seek(0)
        back = ingest.read_y4m(buf)
        assert back.geometry == geometry
        assert back.fps == Fraction(30000, 1001)
        assert [f.samples for f in back] == [f.samples for f in frames]

    def test_exact_header(self):
        buf = io.BytesIO()
        ingest.write_y4m(buf, FrameGeometry(10, 7, 1), [], Fraction(25, 1))
        assert buf.getvalue() == b"YUV4MPEG2 W10 H7 F25:1 Cmono\n"

    def test_rejects_three_channel_geometry(self):
        with pytest.raises(ingest.UnsupportedColorspace):
            ingest.write_y4m(io.BytesIO(), FrameGeometry(2, 2, 3), [])

    def test_rejects_mismatched_frame(self):
        geometry = FrameGeometry(4, 4, 1)
        alien = Frame(FrameGeometry(2, 8, 1), bytes(16))
        with pytest.raises(GeometryMismatch):
            ingest.write_y4m(io.BytesIO(), geometry, [alien])


class TestRaw:
    def test_round_trip(self):
        geometry = FrameGeometry(3, 3, 3)
        frames = [Frame(geometry, bytes([i] * 27)) for i in range(4)]
        buf = io.BytesIO()
        assert ingest.write_raw(buf, frames) == 4 * 27
        buf.seek(0)
        back = list(ingest.read_raw(buf, geometry))
        assert [f.samples for f in back] == [f.samples for f in frames]

    def test_empty_stream_yields_nothing(self):
        assert list(ingest.read_raw(io.BytesIO(), FrameGeometry(2, 2))) == []

    def test_trailing_partial_frame_rejected(self):
        buf = io.BytesIO(bytes(10))
        with pytest.raises(ingest.TruncatedFrame):
            list(ingest.read_raw(buf, FrameGeometry(2, 2)))


class TestSynth:
    def test_deterministic_for_a_seed(self):
        params = ingest.SynthParams(seed=99, n_frames=6)
        a = [f.samples for f in ingest.gen_low_motion(params)]
        b = [f.samples for f in ingest.gen_low_motion(params)]
        assert a == b
        assert len(a) == 6

    def test_different_seeds_differ(self):
        a = next(iter(ingest.gen_low_motion(ingest.SynthParams(seed=1, n_frames=1))))
        b = next(iter(ingest.gen_low_motion(ingest.SynthParams(seed=2, n_frames=1))))
        assert a.samples != b.samples

    def test_change_fraction_bounds_mutations(self):
        params = ingest.SynthParams(seed=5, n_frames=20, change_fraction=0.05)
        frames = list(ingest.gen_low_motion(params))
        limit = 2 * 0.05 * frames[0].geometry.total_samples
        for prev, cur in zip(frames, frames[1:]):
            changed = sum(1 for a, b in zip(prev.samples, cur.samples) if a != b)
            assert 0 < changed <= limit or prev.samples == cur.samples

    def test_geometry_honours_params(self):
        params = ingest.SynthParams(
            seed=0, n_frames=1, width=20, height=10, channels=3,
            block_count=1, block_size=2,
        )
        src = ingest.gen_low_motion(params)
        assert src.geometry == FrameGeometry(20, 10, 3)
        assert src.fps == Fraction(25, 1)

    def test_zero_frames(self):
        assert list(ingest.gen_low_motion(ingest.SynthParams(seed=0, n_frames=0))) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fill_mode": "sparkle"},
            {"change_fraction": 0.0},
            {"change_fraction": 1.0},
            {"block_size": 0},
            {"block_size": 65},
            {"width": 0},
            {"channels": 2},
            {"n_frames": -1},
            {"block_count": -1},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        merged = {"seed": 0, "n_frames": 2, **kwargs}
        with pytest.raises(ingest.BadParams):
            ingest.gen_low_motion(ingest.SynthParams(**merged))

    def test_budget_overflow_rejected(self):
        params = ingest.SynthParams(
            seed=0, n_frames=2, width=16, height=16, block_count=5, block_size=8
        )
        with pytest.raises(ingest.BadParams):
            ingest.gen_low_motion(params)

    def test_noise_fill_accepted(self):
        params = ingest.SynthParams(seed=3, n_frames=3, fill_mode="noise")
        assert len(list(ingest.gen_low_motion(params))) == 3
