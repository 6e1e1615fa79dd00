"""Client-side reconstruction: rebuild a frame from reference + delta.

A delta is validated before any output is produced; a validated delta's
counts tile the frame and consume the difference buffer exactly, so the
replay is a few whole-array steps instead of a cursor walk:

* the output starts as a copy of the reference, which already holds every
  COPY_FROM_REF run (positional, never searched); it is the one copy a
  decoded frame costs;
* the difference buffer is scattered as is: a COPY_FROM_DIFF entry's
  samples over its run, a REPEAT_FROM_DIFF entry's single sample onto the
  first position of its run;
* each repeat's first sample is then copied over the rest of its run, so
  only REPEAT_FROM_DIFF entries are expanded.

The output array is then made read-only and becomes the Frame's samples
as it is, with no copy out to bytes.  An EQUAL_FRAMES delta shares the
reference's samples.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CODE_COPY_FROM_REF,
    CODE_EQUAL_FRAMES,
    CODE_REPEAT_FROM_DIFF,
    Frame,
    FrameDelta,
    Samples,
    concat_ranges,
    validate_delta,
)


def _replay(ref_samples: Samples, records: np.ndarray, diff: bytes) -> np.ndarray:
    """Samples a validated, non-EQUAL_FRAMES index produces, as a uint8 array."""
    code = records["code"]
    count = records["count"].astype(np.int64)
    starts = np.cumsum(count) - count
    repeat = code == CODE_REPEAT_FROM_DIFF
    from_diff = code != CODE_COPY_FROM_REF
    # How many output positions each entry takes straight from the diff.
    width = np.where(repeat, 1, count)
    out = np.frombuffer(ref_samples, dtype=np.uint8).copy()
    out[concat_ranges(starts[from_diff], width[from_diff])] = np.frombuffer(diff, dtype=np.uint8)
    first = starts[repeat]
    rest = count[repeat] - 1
    out[concat_ranges(first + 1, rest)] = np.repeat(out[first], rest)
    return out


def decode_delta(ref: Frame, delta: FrameDelta) -> Frame:
    """Reconstruct the full frame a delta encodes against `ref`.

    Raises an InvalidDelta subclass if the delta fails validation against
    the reference geometry; a validated delta always decodes completely,
    consuming the difference buffer exactly.
    """
    validate_delta(delta, ref.geometry)
    if delta.records["code"][0] == CODE_EQUAL_FRAMES:
        return Frame(ref.geometry, ref.samples)
    out = _replay(ref.samples, delta.records, delta.diff)
    out.flags.writeable = False
    return Frame(ref.geometry, out)


def decode_prefix(ref: Frame, delta: FrameDelta, n_entries: int) -> bytes:
    """Samples produced by the first `n_entries` index entries.

    Diagnostic replay of a partial reconstruction; n_entries == len(index)
    yields the full frame's samples.
    """
    records = delta.records
    if not 0 <= n_entries <= len(records):
        raise ValueError(f"n_entries {n_entries} outside [0, {len(records)}]")
    validate_delta(delta, ref.geometry)
    if n_entries == 0:
        return b""
    if records["code"][0] == CODE_EQUAL_FRAMES:
        return bytes(ref.samples)
    produced = int(records["count"][:n_entries].sum(dtype=np.uint64))
    return _replay(ref.samples, records, delta.diff)[:produced].tobytes()
