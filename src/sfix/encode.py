"""Server-side indexing: turn (reference, new frame) into a FrameDelta.

The encoder makes a few numpy passes over the positions where the new
frame differs from the reference, never a Python step per run:

* `idx` holds the differing positions and `vals` the new samples there.
  Each gap between stretches of consecutive positions is an equal run:
  COPY_FROM_REF (temporal redundancy).
* Each differing stretch splits into fine runs wherever the NEW value
  changes.  A fine run of >= min_repeat_run samples becomes
  REPEAT_FROM_DIFF with a single diff sample (spatial redundancy); the
  fine runs between repeats merge (np.add.reduceat) into one
  COPY_FROM_DIFF whose literal samples go to the diff in scan order.
* The COPY_FROM_REF gaps are interleaved before each stretch's first
  entry and after the last stretch, giving the index records in order.

The standard baseline mode skips the spatial split and copies every
differing stretch literally, so it only ever emits -1/-2/-3.
`segment_runs` describes the equal/differing runs as objects for callers
that want them; the encoder does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
)


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


def segment_runs(ref: Frame, new: Frame) -> list[RunSegment]:
    """Split the sample range into maximal alternating equal/differing runs.

    The runs tile [0, total_samples) exactly and adjacent runs always have
    different kinds.
    """
    _require_same_geometry(ref, new)
    a = np.frombuffer(ref.samples, dtype=np.uint8)
    b = np.frombuffer(new.samples, dtype=np.uint8)
    mask = a == b
    cuts = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(mask)]))
    return [
        RunSegment(
            RunKind.EQUAL if mask[s] else RunKind.DIFFERING,
            int(s),
            int(e - s),
        )
        for s, e in zip(starts, ends)
    ]


def encode_delta(ref: Frame, new: Frame, cfg: EncoderConfig = EncoderConfig()) -> FrameDelta:
    """Encode `new` against `ref` under the given configuration.

    Lossless: decode.decode_delta(ref, result) reproduces `new` exactly.
    Identical frames collapse to the single EQUAL_FRAMES entry.
    """
    _require_same_geometry(ref, new)
    if ref.samples == new.samples:
        return EQUAL_FRAMES_DELTA

    new_values = np.frombuffer(new.samples, dtype=np.uint8)
    idx = np.flatnonzero(np.frombuffer(ref.samples, dtype=np.uint8) != new_values)
    vals = new_values[idx]

    # Fine runs over the differing positions: a stretch of consecutive
    # positions ends where idx jumps; in spatio mode a run also ends where
    # the new value changes.
    jumps = idx[1:] != idx[:-1] + 1
    spatial = cfg.mode is EncoderMode.SPATIO_TEMPORAL
    cuts = jumps | (vals[1:] != vals[:-1]) if spatial else jumps
    run_starts = np.concatenate(([0], np.flatnonzero(cuts) + 1))
    run_lengths = np.diff(run_starts, append=len(idx))
    if spatial:
        repeat = run_lengths >= cfg.min_repeat_run
    else:
        repeat = np.zeros(len(run_starts), dtype=bool)
    opens_stretch = np.concatenate(([True], jumps[run_starts[1:] - 1]))

    # An entry starts at every stretch start and at and after every repeat
    # run; the literal runs in between merge into one entry.
    after_repeat = np.concatenate(([False], repeat[:-1]))
    entry_runs = np.flatnonzero(opens_stretch | repeat | after_repeat)
    entry_counts = np.add.reduceat(run_lengths, entry_runs)
    entry_codes = np.where(
        repeat[entry_runs],
        np.int8(CODE_REPEAT_FROM_DIFF),
        np.int8(CODE_COPY_FROM_DIFF),
    )

    # A repeat keeps only its first sample in the diff.
    keep = ~np.repeat(repeat, run_lengths)
    keep[run_starts[repeat]] = True
    diff = vals[keep].tobytes()

    # The equal gap before each stretch and after the last one; only the
    # first and the last can be empty, and those are sliced off below.
    stretch_ends = np.flatnonzero(jumps)
    gaps = idx[np.concatenate(([0], stretch_ends + 1))] - np.concatenate(
        ([0], idx[stretch_ends] + 1)
    )
    tail = len(new_values) - 1 - int(idx[-1])

    # Each entry's record slot leaves room for the gaps of every stretch
    # opened so far; a stretch's gap sits just before its first entry.
    opens = opens_stretch[entry_runs]
    slots = np.arange(len(entry_runs)) + np.cumsum(opens)
    records = np.empty(len(entry_runs) + len(gaps) + 1, dtype=INDEX_RECORD)
    records["code"] = CODE_COPY_FROM_REF
    records["count"][slots[opens] - 1] = gaps
    records["count"][-1] = tail
    records["code"][slots] = entry_codes
    records["count"][slots] = entry_counts
    first = 0 if gaps[0] else 1  # no gap before a difference at sample 0
    stop = len(records) if tail else -1  # nor after one at the last sample
    return FrameDelta(records[first:stop], diff)


def advance_reference(current_ref: Frame, just_encoded: Frame) -> Frame:
    """Step the reference chain: the frame just encoded becomes the reference.

    Losslessness keeps the encoder- and decoder-side references identical,
    so both ends advance with this same rule.
    """
    _require_same_geometry(current_ref, just_encoded)
    return just_encoded
