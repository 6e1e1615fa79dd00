"""Server-side indexing: turn (reference, new frame) into a FrameDelta.

The encoder works per stretch, a maximal run of consecutive positions where
the new frame differs from the reference.  It makes a few numpy passes whose
arrays hold one element per changed word, per differing sample (bytes or
bools only) or per entry, never one per run of equal new values:

* Stretch pass, `segment_runs`.  The frames are compared as 8-sample
  words.  One byte compare of the changed words gives `differs`: its true
  bytes are `vals`, the new samples of every stretch in scan order, and
  its flips are the stretch edges, with the changed words laid end to
  end.  Where two of them are not adjacent in the frame, differing bytes
  on both sides of their join are two stretches.  A frame whose length is
  not a multiple of 8 compares its last samples as one zero-padded word.
  The gaps between stretches are COPY_FROM_REF entries (temporal
  redundancy).
* Repeat pass (spatio mode only).  Inside a stretch, runs of equal
  neighbours (`vals[1:] == vals[:-1]`) are found by their edges alone.
  Each run of >= min_repeat_run samples becomes one REPEAT_FROM_DIFF with
  a single diff sample (spatial redundancy).  Noise has few equal
  neighbours and constant fill has long runs, so both give few edges.
* Entries.  The records tile the frame, so each count is the distance to
  the next record's first sample.  Without repeats the records are the
  gaps and the stretches, one COPY_FROM_DIFF entry each, and the diff is
  `vals` itself.  Each repeat opens its own entry and, unless its stretch
  ends or the next repeat starts there, a COPY_FROM_DIFF entry after it.
  These are merged in by position, so the work is per stretch and per
  repeat.  The diff then drops the samples after each repeat's first.

The standard baseline mode skips the repeat pass and copies every stretch
literally, so it only ever emits -1/-2/-3.
"""

from __future__ import annotations

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
    Samples,
    concat_ranges,
    samples_equal,
)

# Samples are compared eight at a time.  A little-endian word holds sample
# 8*w + k in its byte k on any host.
_WORD = np.dtype("<u8")


def _require_same_geometry(ref: Frame, new: Frame) -> None:
    if ref.geometry != new.geometry:
        raise GeometryMismatch(f"{ref.geometry} != {new.geometry}")


def _changed_words(ref: Samples, new: Samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        old = np.append(old, np.frombuffer(bytes(ref[-tail:]).ljust(8, b"\0"), _WORD))
        cur = np.append(cur, np.frombuffer(bytes(new[-tail:]).ljust(8, b"\0"), _WORD))
    return words, old, cur


# perfbench/spans.py times this pass by this name.
def segment_runs(ref: Samples, new: Samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The differing stretches: their [start, end) sample positions and new samples.

    The third array holds the new samples of every stretch, concatenated in
    scan order.  One compare of the changed words' bytes gives both: the
    differing bytes are the samples, and its flips are the stretch edges.
    Nothing is built per sample outside the changed words.
    """
    words, old, cur = _changed_words(ref, new)
    new_bytes = cur.view(np.uint8)
    # differs[i + 1]: byte i of the changed words differs; False at both ends.
    differs = np.zeros(len(new_bytes) + 2, dtype=bool)
    np.not_equal(old.view(np.uint8), new_bytes, out=differs[1:-1])
    vals = new_bytes[differs[1:-1]]
    # With the changed words laid end to end, a stretch opens or closes
    # wherever `differs` flips, so `edges` alternates first byte and end.
    edges = np.flatnonzero(differs[1:] != differs[:-1])
    # Where a word follows one that is not its neighbour in the frame, a run
    # of differing bytes through the join is two stretches: it closes and
    # reopens there.
    join = 8 * (np.flatnonzero(words[1:] != words[:-1] + 1) + 1)
    split = join[differs[join] & differs[join + 1]]
    edges = np.insert(edges, np.searchsorted(edges, split).repeat(2), split.repeat(2))
    first, last = edges[0::2], edges[1::2] - 1
    start = words[first >> 3] * 8 + (first & 7)
    end = words[last >> 3] * 8 + (last & 7) + 1
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


def encode_delta(ref: Frame, new: Frame, cfg: EncoderConfig = EncoderConfig()) -> FrameDelta:
    """Encode `new` against `ref` under the given configuration.

    Lossless: decode.decode_delta(ref, result) reproduces `new` exactly.
    Identical frames collapse to the single EQUAL_FRAMES entry.
    """
    _require_same_geometry(ref, new)
    if samples_equal(ref.samples, new.samples):
        return EQUAL_FRAMES_DELTA

    start, end, vals = segment_runs(ref.samples, new.samples)
    # Records tile the frame, each starting where the one before it ends:
    # the equal gap before each stretch, the stretch's entries, and the tail.
    # Only the first gap and the tail can be empty; they are sliced off below.
    bounds = np.empty(2 * len(start) + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1::2] = start
    bounds[2::2] = end
    codes = np.full(len(bounds), CODE_COPY_FROM_REF, dtype=np.int8)
    codes[1::2] = CODE_COPY_FROM_DIFF
    diff = vals
    if cfg.mode is EncoderMode.SPATIO_TEMPORAL:
        lengths = end - start
        firsts = np.cumsum(lengths) - lengths  # each stretch's first sample in vals
        repeat_start, repeat_end = _repeats(vals, firsts, cfg.min_repeat_run)
        if len(repeat_start):
            bounds, codes = _open_repeats(bounds, codes, firsts, repeat_start, repeat_end)
            diff = _drop_repeat_tails(vals, repeat_start, repeat_end)

    counts = np.diff(bounds, append=len(new.samples))
    records = np.empty(len(bounds), dtype=INDEX_RECORD)
    records["code"] = codes
    records["count"] = counts
    first = 0 if counts[0] else 1  # no gap before a difference at sample 0
    stop = len(records) if counts[-1] else -1  # nor after one at the last sample
    return FrameDelta(records[first:stop], diff.tobytes())


def _open_repeats(
    bounds: np.ndarray,
    codes: np.ndarray,
    firsts: np.ndarray,
    repeat_start: np.ndarray,
    repeat_end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """`bounds` and `codes` with an entry opened at each repeat and after it.

    A repeat that opens its stretch turns the stretch's entry into the
    repeat; a COPY_FROM_DIFF entry resumes after a repeat unless its stretch
    ends there or the next repeat begins there.
    """
    stretch = np.searchsorted(firsts, repeat_start, side="right") - 1
    at = bounds[2 * stretch + 1] + (repeat_start - firsts[stretch])
    to = at + (repeat_end - repeat_start)
    opens = at == bounds[2 * stretch + 1]
    codes[2 * stretch[opens] + 1] = CODE_REPEAT_FROM_DIFF
    resumes = to != bounds[2 * stretch + 2]
    resumes[:-1] &= to[:-1] != at[1:]
    # A repeat's new entries go before the gap after its stretch, and after
    # those of earlier repeats.
    added = resumes + (~opens).astype(np.int64)
    repeat_row = 2 * stretch + 2 + (np.cumsum(added) - added)
    resume_row = repeat_row + ~opens
    repeat_row, resume_row = repeat_row[~opens], resume_row[resumes]
    carried = np.ones(len(bounds) + len(repeat_row) + len(resume_row), dtype=bool)
    carried[repeat_row] = carried[resume_row] = False
    merged_bounds = np.empty(len(carried), dtype=bounds.dtype)
    merged_bounds[carried] = bounds
    merged_bounds[repeat_row] = at[~opens]
    merged_bounds[resume_row] = to[resumes]
    merged_codes = np.empty(len(carried), dtype=codes.dtype)
    merged_codes[carried] = codes
    merged_codes[repeat_row] = CODE_REPEAT_FROM_DIFF
    merged_codes[resume_row] = CODE_COPY_FROM_DIFF
    return merged_bounds, merged_codes


def _drop_repeat_tails(vals: np.ndarray, repeat_start: np.ndarray, repeat_end: np.ndarray) -> np.ndarray:
    """`vals` keeping only the first sample of each repeat.

    Whichever is shorter is indexed: the samples kept, or the repeat tails.
    """
    tails = repeat_end - repeat_start - 1
    kept = len(vals) - int(tails.sum())
    if kept < len(vals) - kept:
        keep_from = np.concatenate(([0], repeat_end))
        keep_to = np.concatenate((repeat_start + 1, [len(vals)]))
        return vals[concat_ranges(keep_from, keep_to - keep_from)]
    return np.delete(vals, concat_ranges(repeat_start + 1, tails))


def advance_reference(current_ref: Frame, just_encoded: Frame) -> Frame:
    """Step the reference chain: the frame just encoded becomes the reference.

    Losslessness keeps the encoder- and decoder-side references identical,
    so both ends advance with this same rule.
    """
    _require_same_geometry(current_ref, just_encoded)
    return just_encoded
