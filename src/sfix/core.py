"""Shared domain types for the frame-indexing codec.

Everything here is an immutable value object: frames, index entries,
deltas and encoder configuration.  No I/O happens in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Union

import numpy as np

MAX_TOTAL_SAMPLES = 2**32 - 1

# One index record: code(s8) count(u32, little-endian), packed to 5 bytes,
# which is exactly the wire layout, so (de)serialising is a buffer copy.
INDEX_RECORD = np.dtype([("code", "i1"), ("count", "<u4")])


class CodecError(Exception):
    """Base class for all codec-level failures."""


class GeometryMismatch(CodecError):
    """Two frames that must share a geometry do not."""


class InvalidDelta(CodecError):
    """A delta fails structural validation against its geometry."""


class CountMismatch(InvalidDelta):
    """Index entry counts do not add up to the frame's sample total."""


class DiffMismatch(InvalidDelta):
    """Difference buffer length disagrees with what the index consumes."""


class BadEntry(InvalidDelta):
    """An index entry carries an unassigned code, or a count its code does not allow."""


class LoneEqualViolated(InvalidDelta):
    """An equal-frames marker appears alongside other entries or diff data."""


class IndexCode(IntEnum):
    """Wire-level instruction codes for the index buffer.

    -4 is reserved and never emitted.
    """

    EQUAL_FRAMES = -1      # whole frame identical to the reference
    COPY_FROM_DIFF = -2    # copy literal samples from the difference buffer
    COPY_FROM_REF = -3     # copy samples from the reference at the same positions
    REPEAT_FROM_DIFF = -5  # read one diff sample, replicate it count times


# The codes as plain ints, for comparisons with numpy arrays on hot paths:
# there an IntEnum member takes numpy's generic scalar path, ~6x slower.
CODE_EQUAL_FRAMES = int(IndexCode.EQUAL_FRAMES)
CODE_COPY_FROM_DIFF = int(IndexCode.COPY_FROM_DIFF)
CODE_COPY_FROM_REF = int(IndexCode.COPY_FROM_REF)
CODE_REPEAT_FROM_DIFF = int(IndexCode.REPEAT_FROM_DIFF)

# Indexed by int8 codes: negative indices wrap, so all 256 values land in range.
_IS_ASSIGNED = np.zeros(256, dtype=bool)
_IS_ASSIGNED[[int(code) for code in IndexCode]] = True


def unassigned_codes(code: np.ndarray) -> np.ndarray:
    """Positions in an int8 code array that hold no assigned IndexCode."""
    return np.flatnonzero(~_IS_ASSIGNED[code])


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions [s, s + n) for each start s and length n, concatenated in order."""
    positions = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    positions += np.arange(len(positions))
    return positions


class EncoderMode(Enum):
    SPATIO_TEMPORAL = "spatio"
    STANDARD_BASELINE = "standard"


@dataclass(frozen=True)
class FrameGeometry:
    """Fixed grid shape of a frame: width x height x channels, 8-bit samples."""

    width: int
    height: int
    channels: int = 1

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.width * self.height * self.channels > MAX_TOTAL_SAMPLES:
            raise ValueError("total sample count does not fit in 32 bits")

    @property
    def total_samples(self) -> int:
        return self.width * self.height * self.channels


@dataclass(frozen=True)
class Frame:
    """One frame: a flat row-major, channel-interleaved stream of 8-bit samples."""

    geometry: FrameGeometry
    samples: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.samples, bytes):
            object.__setattr__(self, "samples", bytes(self.samples))
        if len(self.samples) != self.geometry.total_samples:
            raise ValueError(
                f"expected {self.geometry.total_samples} samples, got {len(self.samples)}"
            )


@dataclass(frozen=True)
class IndexEntry:
    """One index instruction: a code plus the number of output samples it produces.

    The code/count consistency rules (count >= 1 for copy/repeat codes,
    count == 0 for EQUAL_FRAMES) are checked by validate_delta, not here,
    so that entries deserialized from a corrupt stream can still be
    represented and rejected with a precise error.
    """

    code: IndexCode
    count: int

    def __post_init__(self) -> None:
        if not 0 <= self.count <= MAX_TOTAL_SAMPLES:
            raise ValueError(f"entry count out of range: {self.count}")


IndexLike = Union[np.ndarray, Iterable[IndexEntry]]


def index_records(index: IndexLike) -> np.ndarray:
    """The index as an INDEX_RECORD array; an array already in that layout is returned as is."""
    if isinstance(index, np.ndarray):
        if index.dtype != INDEX_RECORD:
            raise TypeError(f"index records must have dtype {INDEX_RECORD}, got {index.dtype}")
        return index
    return np.array([(int(e.code), e.count) for e in index], dtype=INDEX_RECORD)


class FrameDelta:
    """An encoded frame: the ordered index records plus the difference buffer.

    `records` is one INDEX_RECORD array, the wire record layout, and every
    hot path (encode, serialise, validate, replay) works on it as whole
    arrays.  The constructor also takes a sequence of IndexEntry; `index`
    is the same index as a tuple of IndexEntry, built on first use for
    callers that want objects, and never built on the hot paths.  The
    records are not copied: they are made read-only through this delta.
    """

    __slots__ = ("records", "diff", "_entries")

    def __init__(self, index: IndexLike, diff: bytes) -> None:
        records = index_records(index).view()
        records.flags.writeable = False
        self.records = records
        self.diff = diff if isinstance(diff, bytes) else bytes(diff)
        self._entries = None

    @property
    def index(self) -> tuple[IndexEntry, ...]:
        if self._entries is None:
            codes = map(IndexCode, self.records["code"].tolist())
            self._entries = tuple(map(IndexEntry, codes, self.records["count"].tolist()))
        return self._entries

    def _key(self) -> tuple[bytes, bytes]:
        return self.records.tobytes(), self.diff

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameDelta):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FrameDelta({len(self.records)} index entries, {len(self.diff)} diff bytes)"


EQUAL_FRAMES_DELTA = FrameDelta(index=(IndexEntry(IndexCode.EQUAL_FRAMES, 0),), diff=b"")


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder mode plus the minimum run length worth collapsing to a repeat."""

    mode: EncoderMode = EncoderMode.SPATIO_TEMPORAL
    min_repeat_run: int = 3

    def __post_init__(self) -> None:
        if self.min_repeat_run < 2:
            raise ValueError(f"min_repeat_run must be >= 2, got {self.min_repeat_run}")


def validate_delta(delta: FrameDelta, geom: FrameGeometry) -> None:
    """Check a delta's structural invariants against a frame geometry.

    Raises a specific InvalidDelta subclass on the first violation found:

    * BadEntry          -- unassigned code, or count rule broken for an entry's code
    * LoneEqualViolated -- EQUAL_FRAMES not the sole entry / diff not empty
    * CountMismatch     -- entry counts do not sum to geom.total_samples
    * DiffMismatch      -- diff length differs from what the index consumes

    Sums are taken in 64 bits, so counts near 2**32 cannot wrap around.
    """
    code = delta.records["code"]
    count = delta.records["count"]
    unassigned = unassigned_codes(code)
    if unassigned.size:
        raise BadEntry(f"index code {code[unassigned[0]]} is not assigned")
    equal = code == CODE_EQUAL_FRAMES
    broken = np.flatnonzero(np.where(equal, count != 0, count == 0))
    if broken.size:
        first = broken[0]
        if equal[first]:
            raise BadEntry(f"EQUAL_FRAMES entry must carry count 0, got {count[first]}")
        raise BadEntry(f"{IndexCode(code[first]).name} entry must carry count >= 1")

    if equal.any():
        if len(code) != 1:
            raise LoneEqualViolated("EQUAL_FRAMES must be the only index entry")
        if delta.diff:
            raise LoneEqualViolated("EQUAL_FRAMES delta must have an empty difference buffer")
        return

    produced = int(count.sum(dtype=np.uint64))
    if produced != geom.total_samples:
        raise CountMismatch(
            f"index produces {produced} samples, geometry needs {geom.total_samples}"
        )

    literal = count[code == CODE_COPY_FROM_DIFF].sum(dtype=np.uint64)
    consumed = int(literal) + int(np.count_nonzero(code == CODE_REPEAT_FROM_DIFF))
    if consumed != len(delta.diff):
        raise DiffMismatch(
            f"index consumes {consumed} diff samples, buffer holds {len(delta.diff)}"
        )
