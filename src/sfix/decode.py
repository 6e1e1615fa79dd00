"""Client-side reconstruction: rebuild a frame from reference + delta.

A delta is validated before any output is produced; a validated delta's
counts tile the frame and consume the difference buffer exactly, so the
replay is a few whole-array steps instead of a cursor walk:

* the output starts as the reference's samples, which already hold every
  COPY_FROM_REF run (positional, never searched): a copy of them, or, for a
  caller that gives up the reference's own array, that array;
* the difference buffer is scattered as is: a COPY_FROM_DIFF entry's
  samples over its run, a REPEAT_FROM_DIFF entry's single sample onto the
  first position of its run;
* each repeat's first sample is then copied over the rest of its run, so
  only REPEAT_FROM_DIFF entries are expanded.

Only the samples the delta names are written, under 1% of a frame for
light motion, so a rebuild in place skips the whole-frame copy.  The output
array is then made read-only and becomes the Frame's samples as it is, with
no copy out to bytes.  An EQUAL_FRAMES delta shares the reference's samples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    CODE_COPY_FROM_REF,
    CODE_EQUAL_FRAMES,
    CODE_REPEAT_FROM_DIFF,
    Frame,
    FrameDelta,
    concat_ranges,
    validate_delta,
)


def _replay(out: np.ndarray, records: np.ndarray, diff: bytes) -> np.ndarray:
    """Turn `out`, the reference's samples, into what a validated non-EQUAL_FRAMES index produces."""
    code = records["code"]
    count = records["count"].astype(np.int64)
    starts = np.cumsum(count) - count
    repeat = code == CODE_REPEAT_FROM_DIFF
    from_diff = code != CODE_COPY_FROM_REF
    # How many output positions each entry takes straight from the diff.
    width = np.where(repeat, 1, count)
    out[concat_ranges(starts[from_diff], width[from_diff])] = np.frombuffer(diff, dtype=np.uint8)
    first = starts[repeat]
    rest = count[repeat] - 1
    out[concat_ranges(first + 1, rest)] = np.repeat(out[first], rest)
    return out


def decode_delta(ref: Frame, delta: FrameDelta, into: Optional[np.ndarray] = None) -> Frame:
    """Reconstruct the full frame a delta encodes against `ref`.

    The frame is rebuilt in a copy of ref's samples, or, given `into`, in
    that array: the read-only uint8 array that owns ref's samples, which
    the caller gives up because nothing else refers to it (SessionDecoder
    passes its reference's).  Raises an InvalidDelta subclass, having
    written nothing, if the delta fails validation against the reference
    geometry; a validated delta always decodes completely, consuming the
    difference buffer exactly.
    """
    validate_delta(delta, ref.geometry)
    if delta.records["code"][0] == CODE_EQUAL_FRAMES:
        return Frame(ref.geometry, ref.samples)
    out = np.frombuffer(ref.samples, dtype=np.uint8).copy() if into is None else into
    out.flags.writeable = True
    _replay(out, delta.records, delta.diff)
    out.flags.writeable = False
    return Frame(ref.geometry, out)


def decode_prefix(ref: Frame, delta: FrameDelta, n_entries: int) -> bytes:
    """Samples produced by the first `n_entries` index entries.

    Diagnostic: a slice of the frame decode_delta rebuilds; n_entries ==
    len(index) yields the full frame's samples, and 0 yields none.
    """
    records = delta.records
    if not 0 <= n_entries <= len(records):
        raise ValueError(f"n_entries {n_entries} outside [0, {len(records)}]")
    samples = decode_delta(ref, delta).samples
    if n_entries < len(records):  # all of them give the whole frame, an EQUAL_FRAMES (count 0) too
        samples = samples[: int(records["count"][:n_entries].sum(dtype=np.uint64))]
    return bytes(samples)
