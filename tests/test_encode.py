"""Encoder behaviour: run segmentation, both indexing modes, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    BASELINE_DIFF,
    BASELINE_INDEX,
    GOLDEN_DIFF,
    GOLDEN_INDEX,
    fuzz_pair,
    rows_to_frame,
)
from sfix.core import (
    EQUAL_FRAMES_DELTA,
    EncoderConfig,
    EncoderMode,
    Frame,
    FrameGeometry,
    GeometryMismatch,
    IndexCode,
    validate_delta,
)
from sfix import wirecodec
from sfix.ingest import SynthParams, gen_low_motion
from sfix.decode import decode_delta
from sfix.encode import advance_reference, encode_delta, segment_runs


def as_pairs(delta):
    return [(int(e.code), e.count) for e in delta.index]


def test_golden_pair_spatio_index_and_diff(golden_ref, golden_new, spatio_cfg):
    delta = encode_delta(golden_ref, golden_new, spatio_cfg)
    assert as_pairs(delta) == GOLDEN_INDEX
    assert list(delta.diff) == GOLDEN_DIFF


def test_golden_pair_baseline_index_and_diff(golden_ref, golden_new, baseline_cfg):
    delta = encode_delta(golden_ref, golden_new, baseline_cfg)
    assert as_pairs(delta) == BASELINE_INDEX
    assert list(delta.diff) == BASELINE_DIFF


def test_golden_pair_run_segmentation(golden_ref, golden_new):
    start, end, vals = segment_runs(golden_ref.samples, golden_new.samples)
    assert start.tolist() == [4, 12, 27]
    assert end.tolist() == [8, 22, 41]
    assert vals.tobytes() == b"".join(golden_new.samples[s:e] for s, e in zip(start, end))


def test_baseline_never_emits_repeat(golden_ref, golden_new, baseline_cfg):
    delta = encode_delta(golden_ref, golden_new, baseline_cfg)
    assert all(e.code is not IndexCode.REPEAT_FROM_DIFF for e in delta.index)


def test_identical_frames_collapse():
    frame = rows_to_frame([[7, 7, 7, 7]])
    assert encode_delta(frame, frame) is EQUAL_FRAMES_DELTA


def test_geometry_mismatch_rejected():
    a = Frame(FrameGeometry(4, 1), bytes(4))
    b = Frame(FrameGeometry(2, 2), bytes(4))
    with pytest.raises(GeometryMismatch):
        encode_delta(a, b)


class TestMinRepeatRun:
    """The threshold decides which equal-value stretches become repeats."""

    REF = bytes([10, 10, 10, 10, 10, 10])
    NEW = bytes([20, 20, 30, 30, 30, 40])

    def frame(self, data):
        return Frame(FrameGeometry(6, 1), data)

    def test_threshold_three_leaves_short_runs_literal(self):
        cfg = EncoderConfig(min_repeat_run=3)
        delta = encode_delta(self.frame(self.REF), self.frame(self.NEW), cfg)
        assert as_pairs(delta) == [(-2, 2), (-5, 3), (-2, 1)]
        assert delta.diff == bytes([20, 20, 30, 40])

    def test_threshold_two_collapses_pairs(self):
        cfg = EncoderConfig(min_repeat_run=2)
        delta = encode_delta(self.frame(self.REF), self.frame(self.NEW), cfg)
        assert as_pairs(delta) == [(-5, 2), (-5, 3), (-2, 1)]
        assert delta.diff == bytes([20, 30, 40])

    def test_huge_threshold_degenerates_to_literal(self):
        cfg = EncoderConfig(min_repeat_run=100)
        delta = encode_delta(self.frame(self.REF), self.frame(self.NEW), cfg)
        assert as_pairs(delta) == [(-2, 6)]
        assert delta.diff == self.NEW


def test_repeat_at_run_boundaries():
    # Repeat runs flush pending literals correctly at both ends.
    ref = bytes([0] * 10)
    new = bytes([5, 5, 5, 1, 2, 3, 9, 9, 9, 9])
    delta = encode_delta(
        Frame(FrameGeometry(10, 1), ref),
        Frame(FrameGeometry(10, 1), new),
        EncoderConfig(min_repeat_run=3),
    )
    assert as_pairs(delta) == [(-5, 3), (-2, 3), (-5, 4)]
    assert delta.diff == bytes([5, 1, 2, 3, 9])


def test_single_sample_frames():
    one = FrameGeometry(1, 1)
    same = encode_delta(Frame(one, b"\x09"), Frame(one, b"\x09"))
    assert same is EQUAL_FRAMES_DELTA
    changed = encode_delta(Frame(one, b"\x09"), Frame(one, b"\x0a"))
    assert as_pairs(changed) == [(-2, 1)]
    assert changed.diff == b"\x0a"


def test_advance_reference_returns_new_frame(golden_ref, golden_new):
    assert advance_reference(golden_ref, golden_new) is golden_new
    with pytest.raises(GeometryMismatch):
        advance_reference(golden_ref, Frame(FrameGeometry(7, 10), bytes(70)))


# -- randomized cross-checks ---------------------------------------------------


@pytest.mark.parametrize("mode", list(EncoderMode))
def test_fuzzed_encodings_match_oracle(mode):
    """300 random pairs per mode must encode identically to the loop oracle."""
    rng = np.random.default_rng(0xE7C0DE)
    for _ in range(300):
        ref, new = fuzz_pair(rng, max_side=24)
        min_run = int(rng.integers(2, 6))
        cfg = EncoderConfig(mode, min_repeat_run=min_run)
        delta = encode_delta(ref, new, cfg)
        want_index, want_diff = oracle.oracle_encode(
            ref.samples,
            new.samples,
            None if mode is EncoderMode.STANDARD_BASELINE else min_run,
        )
        assert as_pairs(delta) == want_index
        assert delta.diff == want_diff


def test_fuzzed_encodings_validate():
    rng = np.random.default_rng(123)
    for _ in range(200):
        ref, new = fuzz_pair(rng, max_side=32)
        for mode in EncoderMode:
            delta = encode_delta(ref, new, EncoderConfig(mode))
            validate_delta(delta, ref.geometry)


@st.composite
def frame_pairs(draw):
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 8))
    total = width * height
    geometry = FrameGeometry(width, height, 1)
    ref = draw(st.binary(min_size=total, max_size=total))
    # Bias toward few distinct values so equal/differing runs actually occur.
    alphabet = st.sampled_from(ref) if draw(st.booleans()) else st.integers(0, 255)
    new = bytes(draw(st.lists(alphabet, min_size=total, max_size=total)))
    return Frame(geometry, ref), Frame(geometry, new)


@given(frame_pairs())
@settings(max_examples=150, deadline=None)
def test_segmentation_tiles_and_alternates(pair):
    """Stretches differ at every sample, the gaps between them are equal, and
    only the gaps before the first and after the last may be empty."""
    ref, new = pair
    start, end, vals = segment_runs(ref.samples, new.samples)
    bounds = [0, *np.column_stack((start, end)).ravel().tolist(), len(new.samples)]
    assert bounds == sorted(bounds)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        same = [a == b for a, b in zip(ref.samples[lo:hi], new.samples[lo:hi])]
        if i % 2:  # a stretch
            assert hi > lo and not any(same)
        else:  # an equal gap
            assert all(same)
            assert hi > lo or i in (0, len(bounds) - 2)
    assert vals.tobytes() == b"".join(new.samples[s:e] for s, e in zip(start, end))


@given(frame_pairs())
@settings(max_examples=150, deadline=None)
def test_segmentation_matches_the_oracle(pair):
    ref, new = pair
    assert_segments_match_oracle(ref, new)


@given(frame_pairs(), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_index_structure_invariants(pair, min_run):
    """No adjacent same-code entries that should have merged; diff accounting."""
    ref, new = pair
    delta = encode_delta(ref, new, EncoderConfig(min_repeat_run=min_run))
    validate_delta(delta, ref.geometry)
    codes = [e.code for e in delta.index]
    if codes == [IndexCode.EQUAL_FRAMES]:
        assert ref.samples == new.samples
        return
    for left, right in zip(codes, codes[1:]):
        # Maximality: equal-vs-differing and literal stretches never split.
        assert (left, right) not in (
            (IndexCode.COPY_FROM_REF, IndexCode.COPY_FROM_REF),
            (IndexCode.COPY_FROM_DIFF, IndexCode.COPY_FROM_DIFF),
        )
    repeats = [e for e in delta.index if e.code is IndexCode.REPEAT_FROM_DIFF]
    assert all(e.count >= min_run for e in repeats)


# -- edge shapes of the array passes ----------------------------------------------


def edge_pairs(min_run):
    """(name, ref, new) pairs at the edges of the run and stretch arithmetic."""
    m = min_run
    one = FrameGeometry(1, 1)
    yield "one sample, equal", Frame(one, b"\x09"), Frame(one, b"\x09")
    yield "one sample, changed", Frame(one, b"\x09"), Frame(one, b"\x0a")
    cases = {
        "first and last sample differ": [1] + [0] * 10 + [2],
        "repeats at both ends": [5] * m + [1, 2] + [6] * m,
        "adjacent repeats of min run": [0] + [5] * m + [6] * m + [7] * (m - 1) + [8] * m + [0],
        "repeat one short of min run": [0] + [4] * (m - 1) + [0] + [4] * m,
        "all differing, literal": [1, 2, 3, 4, 5, 6, 7, 8],
        "all differing, one value": [3] * (m + 2),
        "all differing, mixed": [1] * m + [2, 3, 2] + [4] * (m + 1) + [5],
        "alternating equal and differing": [0, 1] * 6,
    }
    for name, values in cases.items():
        geometry = FrameGeometry(len(values), 1)
        yield name, Frame(geometry, bytes(len(values))), Frame(geometry, bytes(values))
    yield from _word_edge_pairs(m)
    rng = np.random.default_rng(m)
    geometry = FrameGeometry(5, 4, 3)
    ref = rng.integers(0, 3, geometry.total_samples, dtype=np.uint8)
    new = np.where(rng.random(geometry.total_samples) < 0.5, ref, rng.integers(0, 3, ref.size))
    yield "3-channel frame", Frame(geometry, ref.tobytes()), Frame(geometry, new.astype(np.uint8).tobytes())


def _word_edge_pairs(m):
    """Pairs at the edges of the 8-sample words the encoder compares.

    The reference is all zeros unless a case says otherwise, so a sample
    differs exactly where the new frame holds a non-zero value.
    """

    def pair(ref, new):
        geometry = FrameGeometry(len(new), 1)
        return Frame(geometry, bytes(ref)), Frame(geometry, bytes(new))

    def changed(length, values):
        new = [0] * length
        for position, value in values.items():
            new[position] = value
        return pair([0] * length, new)

    rng = np.random.default_rng(100 + m)
    for length in (7, 8, 9, 15, 16, 17):
        ref = rng.integers(0, 3, length, dtype=np.uint8)
        new = np.where(rng.random(length) < 0.5, ref, rng.integers(0, 3, length, dtype=np.uint8))
        yield f"length {length}, mixed", *pair(ref.tolist(), new.tolist())
        yield f"length {length}, last sample differs", *changed(length, {length - 1: 9})
        yield f"length {length}, all differ, one value", *pair([0] * length, [4] * length)
    for offset in range(8):
        yield f"one difference at word offset {offset}", *changed(24, {8 + offset: 7})
        yield f"repeat from word offset {offset}", *changed(32, {8 + offset + k: 6 for k in range(m)})
    yield "literal stretch across a word boundary", *changed(24, {k: k for k in range(5, 13)})
    yield "repeat across a word boundary", *changed(24, {k: 3 for k in range(8 - m // 2 - 1, 8 + m)})
    yield "repeat across two word boundaries", *changed(
        40, {6: 1, **{k: 2 for k in range(7, 25)}, 25: 1}
    )
    yield "repeats meeting at a word boundary", *changed(
        32, {**{k: 4 for k in range(8 - m, 8)}, **{k: 5 for k in range(8, 8 + m)}}
    )
    yield "stretch ends a word, next word unchanged", *changed(32, {6: 1, 7: 1, 16: 1, 17: 2})
    yield "stretches at the last and first sample of adjacent words", *changed(24, {7: 1, 8: 2})
    yield "difference only after the last whole word", *changed(19, {17: 8})
    yield "whole tail differs", *changed(19, {16: 1, 17: 2, 18: 3})
    yield "repeat in the tail", *changed(8 + m, {8 + k: 9 for k in range(m)})
    yield "repeat into the tail", *changed(16 + m - 1, {15 + k: 9 for k in range(m)})
    yield "one differing byte per word", *changed(64, {8 * w + w: w + 1 for w in range(8)})
    yield "one differing byte per word, same value", *changed(
        64, {8 * w + (w * 3) % 8: 1 for w in range(8)}
    )
    yield "equal neighbours across an equal gap", *changed(24, {k: 5 for k in range(24) if k != 8})


def assert_segments_match_oracle(ref, new, name=None):
    start, end, vals = segment_runs(ref.samples, new.samples)
    want_start, want_end, want_vals = oracle.oracle_stretches(ref.samples, new.samples)
    assert start.tolist() == want_start, name
    assert end.tolist() == want_end, name
    assert vals.tobytes() == want_vals, name


@pytest.mark.parametrize("min_run", [2, 3, 5])
def test_edge_shapes_segment_like_the_oracle(min_run):
    for name, ref, new in edge_pairs(min_run):
        assert_segments_match_oracle(ref, new, name)


@pytest.mark.parametrize("mode", list(EncoderMode))
@pytest.mark.parametrize("min_run", [2, 3, 5])
def test_edge_shapes_match_oracle_and_round_trip(mode, min_run):
    cfg = EncoderConfig(mode, min_repeat_run=min_run)
    oracle_run = None if mode is EncoderMode.STANDARD_BASELINE else min_run
    for name, ref, new in edge_pairs(min_run):
        delta = encode_delta(ref, new, cfg)
        want_index, want_diff = oracle.oracle_encode(ref.samples, new.samples, oracle_run)
        assert as_pairs(delta) == want_index, name
        assert delta.diff == want_diff, name
        assert decode_delta(ref, delta).samples == new.samples, name
        wired = wirecodec.message_to_delta(wirecodec.delta_to_message(1, delta))
        assert decode_delta(ref, wired).samples == new.samples, name


@pytest.mark.parametrize("mode", list(EncoderMode))
@pytest.mark.parametrize("fill", ["noise", "constant"])
def test_block_clips_match_oracle(fill, mode):
    """Clips shaped like the HD workloads, small enough for the loop oracle.

    8-px blocks of noise or constant fill land at random offsets in a frame
    whose length (99 x 41 = 4059) is not a multiple of 8.
    """
    params = SynthParams(
        seed=17, n_frames=4, width=99, height=41, block_count=12, block_size=8,
        fill_mode=fill, change_fraction=0.3,
    )
    frames = list(gen_low_motion(params))
    assert frames[0].geometry.total_samples % 8
    oracle_run = None if mode is EncoderMode.STANDARD_BASELINE else 3
    for ref, new in zip(frames, frames[1:]):
        delta = encode_delta(ref, new, EncoderConfig(mode))
        want_index, want_diff = oracle.oracle_encode(ref.samples, new.samples, oracle_run)
        assert as_pairs(delta) == want_index
        assert delta.diff == want_diff
        assert decode_delta(ref, delta).samples == new.samples


@pytest.mark.parametrize("mode", list(EncoderMode))
@pytest.mark.parametrize("fill, blocks", [("noise", 400), ("constant", 20)])
def test_benchmark_scale_pair_matches_oracle(fill, blocks, mode):
    """One pair shaped like the hd_heavy or hd_light workload: 1920x1620
    samples (1080p 4:2:0 planes) with 400 noise or 20 constant 32-px blocks."""
    params = SynthParams(
        seed=28, n_frames=2, width=1920, height=1620, block_count=blocks, block_size=32,
        fill_mode=fill, change_fraction=0.1,
    )
    ref, new = gen_low_motion(params)
    oracle_run = None if mode is EncoderMode.STANDARD_BASELINE else 3
    delta = encode_delta(ref, new, EncoderConfig(mode))
    want_index, want_diff = oracle.oracle_encode(ref.samples, new.samples, oracle_run)
    assert as_pairs(delta) == want_index
    assert delta.diff == want_diff
