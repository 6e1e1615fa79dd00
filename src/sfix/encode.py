"""Server-side indexing: turn (reference, new frame) into a FrameDelta.

The encoder works per stretch, a maximal run of consecutive positions where
the new frame differs from the reference.  It makes a few numpy passes whose
arrays hold one element per changed word, per differing sample (bytes or
bools only) or per entry, never one per run of equal new values:

* Stretch pass.  The frames are compared as 8-sample words.  Only the
  changed words are XORed, and flag arithmetic on them gives each
  stretch's first and last sample; their bytes give `vals`, the new
  samples of every stretch in scan order.  A frame whose length is not a
  multiple of 8 compares its last samples as one zero-padded word.  The
  gaps between stretches are COPY_FROM_REF entries (temporal redundancy).
* Repeat pass (spatio mode only).  Inside a stretch, runs of equal
  neighbours (`vals[1:] == vals[:-1]`) are found by their edges alone.
  Each run of >= min_repeat_run samples becomes one REPEAT_FROM_DIFF with
  a single diff sample (spatial redundancy).  Noise has few equal
  neighbours and constant fill has long runs, so both give few edges.
* Entries.  An entry opens at every stretch start, repeat start and repeat
  end; the samples between a stretch or repeat boundary and the next one
  form a COPY_FROM_DIFF entry.  The diff is `vals` without the samples
  after each repeat's first.
* The COPY_FROM_REF gaps are interleaved before each stretch's first entry
  and after the last stretch, giving the index records in order.

The standard baseline mode skips the repeat pass and copies every stretch
literally, so it only ever emits -1/-2/-3.  `segment_runs` describes the
stretches and the equal gaps between them as objects for callers that want
them; the encoder does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import cycle

import numpy as np

from .core import (
    CODE_COPY_FROM_DIFF,
    CODE_COPY_FROM_REF,
    CODE_REPEAT_FROM_DIFF,
    INDEX_RECORD,
    EncoderConfig,
    EncoderMode,
    Frame,
    FrameDelta,
    GeometryMismatch,
    EQUAL_FRAMES_DELTA,
    concat_ranges,
)

# Samples are compared eight at a time.  A little-endian word holds sample
# 8*w + k in its byte k on any host, so a shift by 8 bits moves a byte's
# flag to the neighbouring sample.
_WORD = np.dtype("<u8")
_LOW7 = np.uint64(0x7F7F_7F7F_7F7F_7F7F)
_HIGH = np.uint64(0x8080_8080_8080_8080)
_ONE_SAMPLE = np.uint64(8)
_SEVEN_SAMPLES = np.uint64(56)
_HIGH_TO_LOW = np.uint64(7)  # moves a byte's 0x80 flag to its 0x01 bit

# Roles of a position in `vals`, as bits; an entry opens wherever one is set.
_OPENS_STRETCH = 1
_OPENS_REPEAT = 2
_ENDS_REPEAT = 4


class RunKind(Enum):
    EQUAL = "equal"
    DIFFERING = "differing"


@dataclass(frozen=True)
class RunSegment:
    """A maximal run of the equality mask: [start, start+length) samples."""

    kind: RunKind
    start: int
    length: int


def _require_same_geometry(ref: Frame, new: Frame) -> None:
    if ref.geometry != new.geometry:
        raise GeometryMismatch(f"{ref.geometry} != {new.geometry}")


def _changed_words(ref: bytes, new: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the 8-sample words that differ, with their old and new contents.

    The last len % 8 samples, if any, are one more word, zero-padded in both
    frames so that the padding never differs; the frames are not copied.
    """
    whole = len(new) // 8
    old_words = np.frombuffer(ref, _WORD, whole)
    new_words = np.frombuffer(new, _WORD, whole)
    words = np.flatnonzero(old_words != new_words)
    old, cur = old_words[words], new_words[words]
    tail = len(new) - 8 * whole
    if tail and ref[-tail:] != new[-tail:]:
        words = np.append(words, whole)
        old = np.append(old, np.frombuffer(ref[-tail:].ljust(8, b"\0"), _WORD))
        cur = np.append(cur, np.frombuffer(new[-tail:].ljust(8, b"\0"), _WORD))
    return words, old, cur


def _stretches(ref: bytes, new: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The differing stretches: their [start, end) sample positions and new samples.

    The third array holds the new samples of every stretch, concatenated in
    scan order.  Nothing is built per sample outside the changed words.
    """
    words, old, cur = _changed_words(ref, new)
    x = old ^ cur
    # 0x80 in each differing byte; adding 0x7F to the low 7 bits cannot carry
    # into the next byte.
    differs = (((x & _LOW7) + _LOW7) | x) & _HIGH
    # The flags of each byte's predecessor and successor.  A flag crosses a
    # word boundary only into an adjacent changed word: a `gap` word's
    # neighbour before it is unchanged.
    gap = np.flatnonzero(words[1:] != words[:-1] + 1) + 1
    before = differs << _ONE_SAMPLE
    before[1:] |= differs[:-1] >> _SEVEN_SAMPLES
    before[gap] = differs[gap] << _ONE_SAMPLE
    after = differs >> _ONE_SAMPLE
    after[:-1] |= differs[1:] << _SEVEN_SAMPLES
    after[gap - 1] = differs[gap - 1] >> _ONE_SAMPLE
    # 0x80 marks a stretch's first sample and 0x01 its last.
    edges = (differs & ~before) | ((differs & ~after) >> _HIGH_TO_LOW)
    edge_bytes = edges.astype(_WORD, copy=False).view(np.uint8)
    at = np.flatnonzero(edge_bytes != 0)
    kind = edge_bytes[at]
    first, last = at[kind >= 0x80], at[(kind & 1) != 0]
    start = words[first >> 3] * 8 + (first & 7)
    end = words[last >> 3] * 8 + (last & 7) + 1
    new_bytes = cur.view(np.uint8)
    vals = new_bytes[old.view(np.uint8) != new_bytes]
    return start, end, vals


def _repeats(vals: np.ndarray, firsts: np.ndarray, min_run: int) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) in `vals` of every run of >= min_run equal samples in one stretch.

    `firsts` are the stretch starts in `vals`; a run never crosses one.
    """
    # same[i]: vals[i] continues the run of vals[i - 1]; False at both ends.
    same = np.zeros(len(vals) + 1, dtype=bool)
    np.equal(vals[1:], vals[:-1], out=same[1:-1])
    same[firsts] = False
    edges = np.flatnonzero(same[1:] != same[:-1])
    start, end = edges[0::2], edges[1::2] + 1
    long = end - start >= min_run
    return start[long], end[long]


def segment_runs(ref: Frame, new: Frame) -> list[RunSegment]:
    """Split the sample range into maximal alternating equal/differing runs.

    The runs tile [0, total_samples) exactly and adjacent runs always have
    different kinds.
    """
    _require_same_geometry(ref, new)
    start, end, _ = _stretches(ref.samples, new.samples)
    # Equal gap, stretch, equal gap, ...: only the outer gaps can be empty.
    bounds = [0, *np.column_stack((start, end)).ravel().tolist(), len(new.samples)]
    return [
        RunSegment(kind, s, e - s)
        for kind, s, e in zip(cycle(RunKind), bounds, bounds[1:])
        if e > s
    ]


def encode_delta(ref: Frame, new: Frame, cfg: EncoderConfig = EncoderConfig()) -> FrameDelta:
    """Encode `new` against `ref` under the given configuration.

    Lossless: decode.decode_delta(ref, result) reproduces `new` exactly.
    Identical frames collapse to the single EQUAL_FRAMES entry.
    """
    _require_same_geometry(ref, new)
    if ref.samples == new.samples:
        return EQUAL_FRAMES_DELTA

    start, end, vals = _stretches(ref.samples, new.samples)
    lengths = end - start
    firsts = np.cumsum(lengths) - lengths  # each stretch's first sample in vals
    if cfg.mode is EncoderMode.SPATIO_TEMPORAL:
        repeat_start, repeat_end = _repeats(vals, firsts, cfg.min_repeat_run)
    else:
        repeat_start = repeat_end = firsts[:0]

    # An entry opens at each stretch start, repeat start and repeat end; a
    # repeat may end where the next repeat or stretch opens, or at the end.
    role = np.zeros(len(vals) + 1, dtype=np.uint8)
    role[repeat_end] = _ENDS_REPEAT
    role[firsts] |= _OPENS_STRETCH
    role[repeat_start] |= _OPENS_REPEAT
    entry_starts = np.flatnonzero(role[:-1] != 0)
    entry_roles = role[entry_starts]
    entry_counts = np.diff(entry_starts, append=len(vals))
    entry_codes = np.where(
        entry_roles & _OPENS_REPEAT,
        np.int8(CODE_REPEAT_FROM_DIFF),
        np.int8(CODE_COPY_FROM_DIFF),
    )

    # A repeat keeps only its first sample in the diff.
    diff = np.delete(vals, concat_ranges(repeat_start + 1, repeat_end - repeat_start - 1))

    # The equal gap before each stretch and after the last one; only the
    # first and the last can be empty, and those are sliced off below.
    gaps = start - np.concatenate(([0], end[:-1]))
    tail = len(new.samples) - int(end[-1])

    # Each entry's record slot leaves room for the gaps of every stretch
    # opened so far; a stretch's gap sits just before its first entry.
    opens = (entry_roles & _OPENS_STRETCH) != 0
    slots = np.arange(len(entry_starts)) + np.cumsum(opens)
    records = np.empty(len(entry_starts) + len(gaps) + 1, dtype=INDEX_RECORD)
    records["code"] = CODE_COPY_FROM_REF
    records["count"][slots[opens] - 1] = gaps
    records["count"][-1] = tail
    records["code"][slots] = entry_codes
    records["count"][slots] = entry_counts
    first = 0 if gaps[0] else 1  # no gap before a difference at sample 0
    stop = len(records) if tail else -1  # nor after one at the last sample
    return FrameDelta(records[first:stop], diff.tobytes())


def advance_reference(current_ref: Frame, just_encoded: Frame) -> Frame:
    """Step the reference chain: the frame just encoded becomes the reference.

    Losslessness keeps the encoder- and decoder-side references identical,
    so both ends advance with this same rule.
    """
    _require_same_geometry(current_ref, just_encoded)
    return just_encoded
