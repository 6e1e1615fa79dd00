"""The session rules of each direction, with no I/O: frames in, messages out, and back.

SessionEncoder turns source frames into a session's messages: a REF_FRAME
for the first frame, then a DELTA against the reference for each frame
after it, numbered from 0.  SessionDecoder checks a received message
stream against the same rules: HELLO first, then a REF_FRAME, then DELTAs
numbered without a gap, until END.  It rebuilds each frame and says what
the next message header may declare.

Both work on whole messages.  The callers already hold a buffered stream
(a file or a socket's makefile) that parse_message reads payloads from
without a further copy.  The layer functions are called as module
attributes (encode.encode_delta, wirecodec.message_to_delta, ...) so a
caller can swap them, as a tracer does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from . import decode, encode, wirecodec
from .core import EncoderConfig, EncoderMode, Frame, FrameGeometry
from .ingest import SourceError
from .wirecodec import Delta, End, Hello, RefFrame, StreamMessage


class NetError(Exception):
    """Base class for streaming failures."""


class ProtocolViolation(NetError):
    """Message order or frame numbering broke the session rules."""


class SessionEncoder:
    """Send rules: the first frame as a REF_FRAME, every later one as a DELTA."""

    def __init__(self, geometry: FrameGeometry, fps: Fraction,
                 config: EncoderConfig = EncoderConfig()):
        self.hello = Hello(
            geometry, fps.numerator, fps.denominator,
            baseline=config.mode is EncoderMode.STANDARD_BASELINE,
        )
        self.reference: Optional[Frame] = None
        self.frames = 0  # pushed so far; the next frame's number
        self._config = config

    def push(self, frame: Frame) -> Union[RefFrame, Delta]:
        """The message for the next source frame; the frame becomes the reference."""
        if self.reference is None:
            if frame.geometry != self.hello.geometry:
                raise SourceError(f"source yielded a {frame.geometry} frame")
            msg = wirecodec.samples_to_message(self.frames, frame.samples)
            self.reference = frame
        else:
            delta = encode.encode_delta(self.reference, frame, self._config)
            msg = wirecodec.delta_to_message(self.frames, delta)
            self.reference = encode.advance_reference(self.reference, frame)
        self.frames += 1
        return msg


class SessionDecoder:
    """Receive rules: HELLO, one REF_FRAME, then gap-free DELTAs until END.

    `where` names the message stream in ordering errors ("session",
    "container").  Ordering faults raise ProtocolViolation; a payload that
    does not fit the geometry or does not decode raises the wire or codec
    error as it is.
    """

    def __init__(self, where: str = "session"):
        self.hello: Optional[Hello] = None
        self.reference: Optional[Frame] = None
        self.limits = wirecodec.OPENING_LIMITS  # what the next header may declare
        self._where = where
        self._next_no = 0

    def accept(self, msg: StreamMessage) -> Optional[Frame]:
        """Apply one message; the rebuilt frame, or None for HELLO and END."""
        if self.hello is None:
            if not isinstance(msg, Hello):
                raise ProtocolViolation(f"first message must be HELLO, got {type(msg).__name__}")
            self.hello = msg
            self.limits = wirecodec.payload_limits(msg.geometry)
            return None
        if isinstance(msg, End):
            return None
        if isinstance(msg, Hello):
            raise ProtocolViolation(f"HELLO repeated mid-{self._where}")
        geometry = self.hello.geometry
        if isinstance(msg, RefFrame):
            if self.reference is not None:
                raise ProtocolViolation(f"REF_FRAME repeated mid-{self._where}")
            wirecodec.check_declared_lengths(msg, geometry)
            self.reference = Frame(geometry, wirecodec.message_to_samples(msg))
        else:
            if self.reference is None:
                raise ProtocolViolation("DELTA before any REF_FRAME")
            if msg.frame_no != self._next_no:
                raise ProtocolViolation(f"frame_no gap: expected {self._next_no}, got {msg.frame_no}")
            wirecodec.check_declared_lengths(msg, geometry)
            frame = decode.decode_delta(self.reference, wirecodec.message_to_delta(msg))
            self.reference = encode.advance_reference(self.reference, frame)
        self._next_no = msg.frame_no + 1
        return self.reference
