"""Bit-exact wire format: index serialization, compression, message framing.

All integers are little-endian.  Message layout:

    type(1) + payload_len(u32) + payload

    0x01 HELLO     width(u32) height(u32) channels(u8) fps_num(u16)
                   fps_den(u16) flags(u8, bit0 = baseline mode)
    0x02 REF_FRAME frame_no(u32) raw_len(u32) + compressed samples
    0x03 DELTA     frame_no(u32), then for index and diff in turn:
                   raw_len(u32) comp_len(u32) + compressed bytes
    0x04 END       empty payload

Index entries serialize to 5 bytes each: code(s8) count(u32), which is
core.INDEX_RECORD, so an index is written with one buffer copy and read
with np.frombuffer.  Buffer
compression is the DEFLATE algorithm in a zlib wrapper, whose adler32 is
the only integrity check on the wire.

compress() picks how to deflate from the buffer itself.  A buffer of at
most 4 KiB is deflated at COMPRESSION_LEVEL.  A larger one is sampled
first: 8 windows of 512 bytes spread evenly across it, deflated at level
1.  If the sample shrinks by less than 2%, the buffer (noise, say) is
written as stored blocks (RFC 1951 section 3.2.4), which cost 5 bytes per
64 KiB and no search; otherwise it is deflated at COMPRESSION_LEVEL.  The
choice reads only the input bytes, so the same input still gives the same
stream, and every inflater reads stored blocks, so readers need no change.

Every buffer deflated at COMPRESSION_LEVEL takes one path: it is cut into
max(1, ceil(n / 512 KiB)) near-equal parts.  Each part is raw DEFLATE
primed with the 32 KiB of input before it; every part but the last ends in
a sync flush, so the parts join into one ordinary zlib stream (header
78 9C, the parts, the adler32 of the whole buffer).  One part is deflated
inline and gives zlib.compress's own bytes; more (a 1920x1620 keyframe,
say) are deflated in parallel by worker threads at a lower CPU priority, as
pigz does.  Part bounds depend only on the length, so the same input still
gives the same bytes whatever the thread count or timing.

The `.sfix` container is magic "SFIX", a version byte, then one session's
message stream verbatim: HELLO first, END last.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from .core import (
    INDEX_RECORD,
    FrameDelta,
    FrameGeometry,
    IndexLike,
    index_records,
    unassigned_codes,
)

INDEX_ENTRY_SIZE = INDEX_RECORD.itemsize
_MSG_HEADER = struct.Struct("<BI")
_HELLO_PAYLOAD = struct.Struct("<IIBHHB")

MSG_HELLO = 0x01
MSG_REF_FRAME = 0x02
MSG_DELTA = 0x03
MSG_END = 0x04

SFIX_MAGIC = b"SFIX"
SFIX_VERSION = 1

# Fixed, like the store-or-deflate choice, so identical inputs produce
# identical streams.
COMPRESSION_LEVEL = 6
_PROBE_ABOVE = 4 << 10  # buffers up to this size are deflated unsampled
_PROBE_WINDOWS = 8
_PROBE_WINDOW = 512
_STORED_BLOCK = 0xFFFF  # a stored block's LEN field is 16 bits
_STORED_BLOCK_HEADER = struct.Struct("<BHH")  # BFINAL/BTYPE=00 byte, LEN, NLEN
_ZLIB_STORED_HEADER = b"\x78\x01"  # RFC 1950: deflate, 32 KiB window, FLEVEL 0
_PART = 512 << 10  # deflated buffers longer than this are cut into parts
_WINDOW = 32 << 10  # DEFLATE's window: the input that primes the next part
_ZLIB_HEADER = zlib.compress(b"", COMPRESSION_LEVEL)[:2]  # 78 9C at level 6
_PART_NICE = 10  # nice value of the part workers, so the broadcast comes first


class WireFormatError(Exception):
    """Base class for malformed wire data."""


class BadLength(WireFormatError):
    """Serialized index length is not a whole number of entries."""


class UnknownCode(WireFormatError):
    """Index code byte outside the assigned set (-4 is reserved)."""


class CorruptStream(WireFormatError):
    """Compressed data or container structure cannot be decoded."""


class LengthMismatch(WireFormatError):
    """A raw length disagrees with the decompressed data or the session geometry."""


class TruncatedMessage(WireFormatError):
    """Byte stream ended in the middle of a message."""


class UnknownType(WireFormatError):
    """Message type byte outside the assigned set."""


class PayloadLengthMismatch(WireFormatError):
    """Message payload shorter or longer than its fields require."""


class UnsupportedVersion(WireFormatError):
    """Container version byte this implementation does not understand."""


class PayloadTooLarge(WireFormatError):
    """A message header declares more payload than the session geometry allows."""


@dataclass(frozen=True)
class Hello:
    geometry: FrameGeometry
    fps_num: int
    fps_den: int
    baseline: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.fps_num <= 0xFFFF and 0 <= self.fps_den <= 0xFFFF):
            raise ValueError(
                f"frame rate {self.fps_num}:{self.fps_den} does not fit HELLO's u16 fields"
            )

    @property
    def fps(self) -> Fraction:
        """The session's frame rate, as every reader takes it: 25 when either term is 0."""
        if self.fps_num and self.fps_den:
            return Fraction(self.fps_num, self.fps_den)
        return Fraction(25, 1)


@dataclass(frozen=True)
class RefFrame:
    frame_no: int
    raw_len: int
    payload: Union[bytes, memoryview]  # compressed samples


@dataclass(frozen=True)
class Delta:
    frame_no: int
    index_raw_len: int
    index_payload: Union[bytes, memoryview]  # compressed serialized index
    diff_raw_len: int
    diff_payload: Union[bytes, memoryview]  # compressed difference buffer


@dataclass(frozen=True)
class End:
    pass


StreamMessage = Union[Hello, RefFrame, Delta, End]


def serialize_index(index: IndexLike) -> bytes:
    """Pack index records (or entries) as consecutive 5-byte code/count records."""
    return index_records(index).tobytes()


def deserialize_index(data: bytes) -> np.ndarray:
    """Inverse of serialize_index: a read-only INDEX_RECORD array over `data`."""
    if len(data) % INDEX_ENTRY_SIZE:
        raise BadLength(f"index buffer length {len(data)} not a multiple of {INDEX_ENTRY_SIZE}")
    records = np.frombuffer(data, dtype=INDEX_RECORD)
    unassigned = unassigned_codes(records["code"])
    if unassigned.size:
        raise UnknownCode(f"index code {records['code'][unassigned[0]]} is not assigned")
    return records


def compress(data: bytes) -> bytes:
    """A zlib stream of `data`: stored blocks if a sample barely deflates, else level 6.

    Level 6 is deflated in parts of at most 512 KiB, joined into one zlib
    stream whose bytes depend only on `data`.
    """
    if len(data) > _PROBE_ABOVE and _barely_deflates(data):
        return _stored(data)
    return _deflate_parted(data)


def _barely_deflates(data: bytes) -> bool:
    """Whether evenly spread windows of `data` shrink by under 2% at level 1."""
    view = memoryview(data)
    step = (len(view) - _PROBE_WINDOW) // (_PROBE_WINDOWS - 1)
    sample = b"".join(
        view[i * step:i * step + _PROBE_WINDOW] for i in range(_PROBE_WINDOWS)
    )
    return len(zlib.compress(sample, 1)) * 50 > len(sample) * 49


def _stored(data: bytes) -> bytes:
    """`data` as a zlib stream of stored DEFLATE blocks, 5 bytes per 64 KiB block."""
    view = memoryview(data)
    parts = [_ZLIB_STORED_HEADER]
    for start in range(0, len(view), _STORED_BLOCK):
        block = view[start:start + _STORED_BLOCK]
        final = start + _STORED_BLOCK >= len(view)
        parts += (_STORED_BLOCK_HEADER.pack(final, len(block), len(block) ^ 0xFFFF), block)
    parts.append(zlib.adler32(data).to_bytes(4, "big"))
    return b"".join(parts)


def _deflate_parted(data: bytes) -> bytes:
    """`data` as one level-6 zlib stream, deflated in parts: inline if one.

    Worker threads deflate more than one while the caller only waits: it
    keeps its own priority and deflates nothing, so the threads it might
    delay (a broadcast, say) are not held back.
    """
    view = memoryview(data)
    n = len(view)
    count = max(1, -(-n // _PART))
    bounds = [n * i // count for i in range(count + 1)]
    if count == 1:
        parts = [_deflate_part(view, 0, n, True)]
    else:
        with ThreadPoolExecutor(min(_cpus(), count), initializer=_lower_priority) as pool:
            parts = list(pool.map(
                lambda i: _deflate_part(view, bounds[i], bounds[i + 1], i == count - 1),
                range(count),
            ))
    return b"".join((_ZLIB_HEADER, *parts, zlib.adler32(view).to_bytes(4, "big")))


def _deflate_part(view: memoryview, start: int, end: int, last: bool) -> bytes:
    """Raw DEFLATE of view[start:end], primed with the window before it."""
    primer = {"zdict": view[start - _WINDOW:start]} if start else {}
    deflater = zlib.compressobj(COMPRESSION_LEVEL, zlib.DEFLATED, -15, **primer)
    body = deflater.compress(view[start:end])
    return body + deflater.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lower_priority() -> None:
    """Give the calling thread nice value _PART_NICE, or keep a higher one.

    Only on Linux is a nice value per thread; elsewhere it would apply to
    the whole process, so threads there keep the default priority.  A
    thread started by a caller past _PART_NICE keeps the caller's value:
    raising a thread's priority needs privilege.
    """
    if sys.platform.startswith("linux"):
        tid = threading.get_native_id()
        nice = max(os.getpriority(os.PRIO_PROCESS, tid), _PART_NICE)
        os.setpriority(os.PRIO_PROCESS, tid, nice)


def decompress(data: bytes, expected_raw_len: int) -> bytes:
    """Decompress, insisting the output is exactly `expected_raw_len` bytes.

    The expected length bounds the allocation: decompression stops one byte
    past it rather than inflating an adversarial stream.
    """
    d = zlib.decompressobj()
    try:
        out = d.decompress(data, expected_raw_len + 1)
    except zlib.error as exc:
        raise CorruptStream(f"deflate stream undecodable: {exc}") from None
    if len(out) > expected_raw_len:
        raise LengthMismatch(f"decompressed past expected {expected_raw_len} bytes")
    if not d.eof:
        raise CorruptStream("deflate stream truncated")
    if d.unused_data:
        raise CorruptStream(f"{len(d.unused_data)} trailing bytes after deflate stream")
    if len(out) != expected_raw_len:
        raise LengthMismatch(f"expected {expected_raw_len} bytes, got {len(out)}")
    return out


def _payload_parts(msg: StreamMessage) -> tuple[int, tuple[bytes, ...]]:
    if isinstance(msg, Hello):
        g = msg.geometry
        flags = 0x01 if msg.baseline else 0x00
        return MSG_HELLO, (
            _HELLO_PAYLOAD.pack(g.width, g.height, g.channels, msg.fps_num, msg.fps_den, flags),
        )
    if isinstance(msg, RefFrame):
        return MSG_REF_FRAME, (struct.pack("<II", msg.frame_no, msg.raw_len), msg.payload)
    if isinstance(msg, Delta):
        return MSG_DELTA, (
            struct.pack("<III", msg.frame_no, msg.index_raw_len, len(msg.index_payload)),
            msg.index_payload,
            struct.pack("<II", msg.diff_raw_len, len(msg.diff_payload)),
            msg.diff_payload,
        )
    if isinstance(msg, End):
        return MSG_END, ()
    raise TypeError(f"not a stream message: {msg!r}")


def frame_message(msg: StreamMessage) -> bytes:
    """Frame one message as header + payload bytes, copying each payload once."""
    msg_type, parts = _payload_parts(msg)
    header = _MSG_HEADER.pack(msg_type, sum(map(len, parts)))
    return b"".join((header, *parts))


def wire_size(msg: StreamMessage) -> int:
    """Framed size of a message in bytes, from its field lengths."""
    return _MSG_HEADER.size + sum(map(len, _payload_parts(msg)[1]))


def check_declared_lengths(msg: StreamMessage, geometry: FrameGeometry) -> None:
    """Reject raw lengths the session geometry rules out, before any inflate.

    A REF_FRAME must declare exactly one frame of samples; a DELTA's index
    can hold at most one record per sample and its diff at most one byte
    per sample.  This bounds every allocation decompress makes by the
    geometry HELLO announced, not by what the peer declares.
    """
    total = geometry.total_samples
    if isinstance(msg, RefFrame):
        if msg.raw_len != total:
            raise LengthMismatch(f"REF_FRAME declares {msg.raw_len} samples, frame has {total}")
    elif isinstance(msg, Delta):
        if msg.index_raw_len % INDEX_ENTRY_SIZE:
            raise BadLength(
                f"index raw length {msg.index_raw_len} not a multiple of {INDEX_ENTRY_SIZE}"
            )
        if msg.index_raw_len > INDEX_ENTRY_SIZE * total:
            raise LengthMismatch(
                f"index raw length {msg.index_raw_len} exceeds {INDEX_ENTRY_SIZE} x {total}"
            )
        if msg.diff_raw_len > total:
            raise LengthMismatch(f"diff raw length {msg.diff_raw_len} exceeds {total} samples")


def _deflate_bound(n: int) -> int:
    """A generous cap on a DEFLATE stream of n bytes from any conforming encoder.

    Stored blocks cost 5 bytes per 64 KiB and zlib's compressBound adds
    about n/4096; n/8 + 64 KiB leaves room for other encoders while still
    keeping a declared length to a small multiple of the frame size.
    """
    return n + (n >> 3) + (64 << 10)


def payload_limits(geometry: FrameGeometry) -> dict[int, int]:
    """Largest payload_len of each message type accepted in a session of this geometry.

    A REF_FRAME holds one compressed frame and a DELTA an index of at most
    one record per sample plus a diff of at most one byte per sample, each
    compressed; these bound what the peer may declare before any read.
    """
    total = geometry.total_samples
    return {
        MSG_HELLO: _HELLO_PAYLOAD.size,
        MSG_REF_FRAME: 8 + _deflate_bound(total),
        MSG_DELTA: 20 + _deflate_bound(INDEX_ENTRY_SIZE * total) + _deflate_bound(total),
        MSG_END: 0,
    }


# Before HELLO no geometry is known.  A session must open with HELLO, so the
# opening message of any type may declare at most 64 KiB: every HELLO fits,
# a small misplaced message still reaches its caller's ordering check, and
# a hostile length sizes no large allocation.
OPENING_LIMITS = {t: 64 << 10 for t in (MSG_HELLO, MSG_REF_FRAME, MSG_DELTA, MSG_END)}


def _decode_payload(msg_type: int, payload: bytes) -> StreamMessage:
    """Decode one payload; compressed fields are memoryviews into `payload`, not copies."""
    if msg_type == MSG_HELLO:
        if len(payload) != _HELLO_PAYLOAD.size:
            raise PayloadLengthMismatch(
                f"HELLO payload must be {_HELLO_PAYLOAD.size} bytes, got {len(payload)}"
            )
        width, height, channels, fps_num, fps_den, flags = _HELLO_PAYLOAD.unpack(payload)
        try:
            geometry = FrameGeometry(width, height, channels)
        except ValueError as exc:
            raise PayloadLengthMismatch(f"HELLO geometry invalid: {exc}") from None
        return Hello(geometry, fps_num, fps_den, baseline=bool(flags & 0x01))
    if msg_type == MSG_REF_FRAME:
        if len(payload) < 8:
            raise PayloadLengthMismatch("REF_FRAME payload shorter than its header")
        frame_no, raw_len = struct.unpack_from("<II", payload)
        return RefFrame(frame_no, raw_len, memoryview(payload)[8:])
    if msg_type == MSG_DELTA:
        if len(payload) < 12:
            raise PayloadLengthMismatch("DELTA payload shorter than its header")
        (frame_no,) = struct.unpack_from("<I", payload)
        view = memoryview(payload)
        pos = 4
        parts = []
        for label in ("index", "diff"):
            if pos + 8 > len(payload):
                raise PayloadLengthMismatch(f"DELTA {label} header truncated")
            raw_len, comp_len = struct.unpack_from("<II", payload, pos)
            pos += 8
            if pos + comp_len > len(payload):
                raise PayloadLengthMismatch(f"DELTA {label} payload truncated")
            parts.append((raw_len, view[pos:pos + comp_len]))
            pos += comp_len
        if pos != len(payload):
            raise PayloadLengthMismatch(f"{len(payload) - pos} stray bytes after DELTA payload")
        (index_raw, index_comp), (diff_raw, diff_comp) = parts
        return Delta(frame_no, index_raw, index_comp, diff_raw, diff_comp)
    if msg_type == MSG_END:
        if payload:
            raise PayloadLengthMismatch("END payload must be empty")
        return End()
    raise UnknownType(f"message type 0x{msg_type:02x} is not assigned")


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    data = stream.read(n)
    if len(data) == n:
        return data  # a buffered stream's read(n) is usually whole: no further copy
    chunks = bytearray(data)
    while len(chunks) < n:
        chunk = stream.read(n - len(chunks))
        if not chunk:
            raise TruncatedMessage(f"stream ended, needed {n - len(chunks)} more bytes")
        chunks += chunk
    return bytes(chunks)


def parse_message(stream: BinaryIO, limits: Optional[dict[int, int]] = None) -> StreamMessage:
    """Read exactly one framed message from a binary stream.

    With `limits` (see payload_limits), a header that declares more payload
    than its type may carry is rejected before any of the payload is read,
    so the declared length never sizes an allocation.
    """
    msg_type, payload_len = _MSG_HEADER.unpack(_read_exact(stream, _MSG_HEADER.size))
    if limits is not None:
        if msg_type not in limits:
            raise UnknownType(f"message type 0x{msg_type:02x} is not assigned")
        if payload_len > limits[msg_type]:
            raise PayloadTooLarge(
                f"message type 0x{msg_type:02x} declares {payload_len} payload bytes,"
                f" the session allows at most {limits[msg_type]}"
            )
    payload = _read_exact(stream, payload_len) if payload_len else b""
    return _decode_payload(msg_type, payload)


def delta_to_message(frame_no: int, delta: FrameDelta) -> Delta:
    """Compress a frame delta's two buffers into a wire message."""
    raw_index = serialize_index(delta.records)
    return Delta(
        frame_no=frame_no,
        index_raw_len=len(raw_index),
        index_payload=compress(raw_index),
        diff_raw_len=len(delta.diff),
        diff_payload=compress(delta.diff),
    )


def message_to_delta(msg: Delta) -> FrameDelta:
    """Decompress a wire message back into a frame delta."""
    raw_index = decompress(msg.index_payload, msg.index_raw_len)
    diff = decompress(msg.diff_payload, msg.diff_raw_len)
    return FrameDelta(deserialize_index(raw_index), diff)


def samples_to_message(frame_no: int, samples: bytes) -> RefFrame:
    return RefFrame(frame_no, len(samples), compress(samples))


def message_to_samples(msg: RefFrame) -> bytes:
    return decompress(msg.payload, msg.raw_len)


def write_container(stream: BinaryIO, messages: Iterable[StreamMessage]) -> int:
    """Write a `.sfix` container: magic, version, then the message stream.

    The caller supplies the session's messages in order (HELLO first, END
    last).  Returns the number of bytes written.
    """
    written = stream.write(SFIX_MAGIC + bytes([SFIX_VERSION]))
    for msg in messages:
        written += stream.write(frame_message(msg))
    return written


def read_container(stream: BinaryIO) -> Iterator[StreamMessage]:
    """Yield the message stream of a `.sfix` container, END inclusive.

    The container must open with HELLO.  Each message header is checked
    before its payload is read: the HELLO against OPENING_LIMITS, the rest
    against the payload_limits of its geometry.  Reading stops at END, so
    any bytes after END are never read and never rejected.
    """
    try:
        header = _read_exact(stream, len(SFIX_MAGIC) + 1)
    except TruncatedMessage:
        raise CorruptStream("container shorter than its header") from None
    if header[: len(SFIX_MAGIC)] != SFIX_MAGIC:
        raise CorruptStream(f"bad container magic {header[:len(SFIX_MAGIC)]!r}")
    version = header[len(SFIX_MAGIC)]
    if version != SFIX_VERSION:
        raise UnsupportedVersion(f"unsupported container version {version}")
    msg = parse_message(stream, OPENING_LIMITS)
    if not isinstance(msg, Hello):
        raise CorruptStream("container must open with a HELLO message")
    yield msg
    limits = payload_limits(msg.geometry)
    while not isinstance(msg, End):
        msg = parse_message(stream, limits)
        yield msg
