"""Live streaming over TCP: encode once on the server, fan out to clients.

This module is the I/O around session.py's rules.  One thread owns the
source and a SessionEncoder and broadcasts each frame's wire bytes.  One
loop thread owns the listener and every client socket, non-blocking, and
sends each client what its kernel buffer takes from its queue of shared
framed blobs.  Every message goes out by one rule, StreamServer._broadcast,
which cuts a client holding more than OUTBOX_SIZE blobs as a slow consumer
if none of its bytes move until the loop's next pass has tried it: no
timer, and no lock held while it waits.  A client leaves the fan-out list
one way, StreamServer._drop: when the broadcast cuts it, or when a send
fails.  receive() reads messages off the socket for a SessionDecoder.

A client joining mid-stream gets HELLO, a REF_FRAME of the reference
current when it connected, then the deltas everyone gets.  The keyframe is
compressed with no lock held, on a thread that ends once it is queued; the
deltas broadcast meanwhile are held behind it; the joiner is judged after.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO, Callable, Optional

from .bench import FrameMetrics, frame_metrics, write_metrics_csv
from .core import CodecError, EncoderConfig, Frame, FrameGeometry
from .ingest import VideoSource
from .session import NetError, SessionDecoder, SessionEncoder
from .session import ProtocolViolation  # noqa: F401 - public here as net.ProtocolViolation
from .wirecodec import (
    MSG_END,
    End,
    Hello,
    RefFrame,
    StreamMessage,
    WireFormatError,
    frame_message,
    parse_message,
    samples_to_message,
)

# Not called here since session.py took the session rules; still bound
# because perfbench/spans.py's _patch_table patches these names on net.
from .decode import decode_delta  # noqa: F401
from .encode import encode_delta  # noqa: F401
from .wirecodec import delta_to_message, message_to_delta, message_to_samples  # noqa: F401

log = logging.getLogger("sfix.net")

OUTBOX_SIZE = 32  # blobs a client may hold after a broadcast before the loop must move its bytes
_JOIN_TIMEOUT = 10.0
_END_TYPE = bytes((MSG_END,))


class BindFailure(NetError):
    """Listen address could not be bound."""


class ConnectFailure(NetError):
    """Server address could not be reached."""


class DecodeFailure(NetError):
    """A received payload could not be decompressed or reconstructed."""


class ReceiveFailure(NetError):
    """A read from the server's socket failed, as when it reset the connection or stalled."""


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """Accept 'host:port' strings (IPv6 in brackets) or (host, port) pairs."""
    if isinstance(address, tuple):
        parsed = address
    else:
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"address must look like host:port, got {address!r}")
        parsed = (host.strip("[]") or "127.0.0.1", int(port))
    if not 0 <= parsed[1] <= 0xFFFF:
        raise ValueError(f"port must be in 0..65535, got {parsed[1]}")
    return parsed


@dataclass
class ServeReport:
    frames_encoded: int = 0
    snapshot_calls: int = 0  # keyframes compressed for joining clients
    clients_total: int = 0
    clients_dropped: int = 0


@dataclass
class ReceiveReport:
    frames_received: int = 0
    first_frame_no: Optional[int] = None
    geometry: Optional[FrameGeometry] = None
    fps: Fraction = Fraction(25, 1)
    baseline: bool = False


@dataclass(eq=False)
class _Client:
    sock: socket.socket
    peer: str
    outbox: deque = field(default_factory=deque)  # framed blobs, shared; only the loop pops
    sent: int = 0  # bytes of outbox[0] the kernel has taken
    held: Optional[list] = None  # blobs broadcast while its keyframe compresses
    moved: int = 0  # bytes the kernel has taken from it in all


class StreamServer:
    """Fan-out streaming session over one source.

    start() binds and starts the loop; stream() runs the paced broadcast
    to source exhaustion and returns the session report.  Tests can
    instead drive send_next_frame()/finish() directly for deterministic
    frame-boundary control.
    """

    def __init__(
        self,
        source: VideoSource,
        config: EncoderConfig = EncoderConfig(),
        address: str | tuple[str, int] = ("127.0.0.1", 0),
        fps: Optional[Fraction] = None,
    ):
        self._frames = iter(source)
        self._bind_address = parse_address(address)
        self._fps = fps if fps is not None else source.fps
        self._session = SessionEncoder(source.geometry, self._fps, config)
        self._hello_blob = frame_message(self._session.hello)
        self._lock = threading.Lock()
        self._passed = threading.Condition(self._lock)  # notified as each loop pass ends
        self._clients: list[_Client] = []
        self._ref: Optional[tuple] = (-1, None)  # (frame_no, reference) a joiner starts from
        self._passes = self._passes_done = 0  # loop passes begun, and the last one ended
        self._stopping = False
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[threading.Thread] = None
        self.report = ServeReport()

    def start(self) -> "StreamServer":
        try:
            self._listener = socket.create_server(self._bind_address)
        except OSError as exc:
            raise BindFailure(f"cannot bind {self._bind_address}: {exc}") from exc
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._loop = threading.Thread(target=self._serve_loop, daemon=True)
        self._loop.start()
        log.info("serving on %s:%d", *self.address)
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    @property
    def client_count(self) -> int:
        with self._lock:
            return len(self._clients)

    def wait_for_clients(self, n: int, timeout: float = 5.0) -> bool:
        with self._passed:  # the loop lists a client in the pass that admits it
            return self._passed.wait_for(lambda: len(self._clients) >= n, timeout)

    def _serve_loop(self) -> None:
        """Admit clients and send each what its kernel buffer takes, until close()."""
        owned: list[_Client] = []  # every client whose socket is open
        try:
            while not self._stopping:
                for key, _ in self._selector.select():
                    if key.fileobj is self._listener:
                        self._admit(owned)
                    elif key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                with self._lock:
                    self._passes += 1
                    pass_no, listed = self._passes, set(self._clients)
                owned = [c for c in owned if self._flush(c, c in listed)]
                with self._passed:
                    self._passes_done = pass_no
                    self._passed.notify_all()
        finally:
            self._selector.close()
            for sock in [c.sock for c in owned] + [self._listener, self._wake_r, self._wake_w]:
                sock.close()
            with self._passed:
                self._stopping = True
                self._passed.notify_all()

    def _admit(self, owned: list[_Client]) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:  # the peer left before it was accepted
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client = _Client(sock, f"{addr[0]}:{addr[1]}", deque([self._hello_blob]))
        with self._lock:
            ref = self._ref
            if ref is not None:  # None: END is out
                client.held = None if ref[1] is None else []
                self._clients.append(client)
                self.report.clients_total += 1
        if ref is None:
            sock.close()
            return
        owned.append(client)
        if ref[1] is None:
            log.info("client %s joined before the first frame", client.peer)
        else:
            threading.Thread(target=self._keyframe, args=(client, *ref), daemon=True).start()

    def _keyframe(self, client: _Client, ref_no: int, ref: Frame) -> None:
        """Queue the joiner's REF_FRAME, compressed with no lock held, then what it held."""
        started = time.perf_counter()
        blob = frame_message(samples_to_message(ref_no, ref.samples))
        compress_ms = (time.perf_counter() - started) * 1e3
        with self._lock:
            self.report.snapshot_calls += 1
            client.outbox.extend([blob, *client.held])
            client.held = None
        self._wake()
        log.info("client %s joined at frame %d: keyframe %d bytes, compressed in %.1f ms",
                 client.peer, ref_no, len(blob), compress_ms)

    def _flush(self, client: _Client, keep: bool) -> bool:
        """Send what the kernel takes; False once the socket closes: END sent, or off the list."""
        try:
            while keep and client.outbox:
                blob = client.outbox[0]
                moved = client.sock.send(memoryview(blob)[client.sent:])
                client.sent += moved
                client.moved += moved
                if client.sent == len(blob):
                    client.outbox.popleft()
                    client.sent = 0
                    keep = blob[:1] != _END_TYPE  # END is the last message a client gets
        except BlockingIOError:
            pass  # the kernel buffer is full: wait in the selector for room
        except OSError as exc:
            with self._lock:
                self._drop(client, f"send failed: {exc}")
            keep = False
        watched = client.sock in self._selector.get_map()
        if keep and client.outbox and not watched:
            self._selector.register(client.sock, selectors.EVENT_WRITE)
        elif watched and not (keep and client.outbox):
            self._selector.unregister(client.sock)
        if not keep:
            client.sock.close()
        return keep

    def _wake(self) -> None:
        """Make the loop run a pass."""
        if self._loop is not None:
            with contextlib.suppress(OSError):  # closed: the loop has ended
                self._wake_w.send(b"\0")

    def _drop(self, client: _Client, reason: str) -> None:
        """Take a client off the fan-out list, once, and count it as dropped; lock held."""
        if client not in self._clients:
            return
        self._clients.remove(client)
        self.report.clients_dropped += 1
        log.info("client %s dropped: %s", client.peer, reason)

    # -- broadcasting ------------------------------------------------------

    def send_next_frame(self) -> bool:
        """Pull, encode and broadcast one frame.  False once exhausted."""
        frame = next(self._frames, None)
        if frame is None:
            return False
        msg = self._session.push(frame)
        self._broadcast(frame_message(msg), (msg.frame_no, self._session.reference))
        self.report.frames_encoded += 1
        return True

    def _broadcast(self, blob: bytes, ref: Optional[tuple[int, Frame]]) -> None:
        """Give `blob` to every client: one delivery rule for frames and END.

        In one lock hold, `blob` is queued for every client (held behind a
        joiner's keyframe while that compresses) and `ref` (None once END is
        out) is published with it, never before: a client admitted between
        push() and here must still get this frame as a DELTA.  A client then
        holding more than OUTBOX_SIZE blobs is cut as a slow consumer if none
        of its bytes move from this hold to the end of the loop's first pass
        begun after it.  That pass, waited for with no lock held, tries every
        client afresh, so a loop that has not run yet cuts no one.
        """
        with self._lock:
            for client in self._clients:
                (client.outbox if client.held is None else client.held).append(blob)
            full = [(c, c.moved) for c in self._clients if len(c.outbox) > OUTBOX_SIZE]
            self._ref = ref
            fresh = self._passes + 1
        self._wake()
        if full:
            with self._passed:
                self._passed.wait_for(lambda: self._passes_done >= fresh or self._stopping)
                for client, moved in full:
                    if client.moved == moved:
                        self._drop(client, "slow consumer")

    def finish(self) -> ServeReport:
        """Broadcast END, wait until the loop has sent it, and drop whom it could not reach."""
        self._broadcast(frame_message(End()), None)

        def owed() -> list[_Client]:
            return [c for c in self._clients if c.outbox or c.held is not None]

        with self._passed:
            self._passed.wait_for(lambda: not owed(), _JOIN_TIMEOUT)
            for client in owed():
                self._drop(client, "END not sent in time")
        return self.report

    def close(self) -> None:
        """Stop the loop, which closes every socket; listed clients are not counted dropped."""
        with self._lock:
            self._clients.clear()
            self._stopping = True
        self._wake()
        if self._loop is not None:
            self._loop.join()

    def stream(self) -> ServeReport:
        """Paced broadcast loop: one frame per 1/fps tick until exhaustion."""
        tick = float(1 / self._fps) if self._fps > 0 else 0.0
        next_deadline = time.monotonic()
        while self.send_next_frame():
            next_deadline += tick
            delay = next_deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        return self.finish()


def serve(
    source: VideoSource,
    config: EncoderConfig = EncoderConfig(),
    listen_address: str | tuple[str, int] = ("127.0.0.1", 0),
    fps_override: Optional[Fraction] = None,
) -> ServeReport:
    """Stream a whole source to however many clients connect; see StreamServer."""
    server = StreamServer(source, config, listen_address, fps=fps_override)
    server.start()
    try:
        return server.stream()
    finally:
        server.close()


def _read_message(stream: BinaryIO, limits: dict[int, int]) -> StreamMessage:
    """The next message off the socket's stream; an OSError becomes ReceiveFailure."""
    try:
        return parse_message(stream, limits)
    except OSError as exc:
        raise ReceiveFailure(f"connection failed: {type(exc).__name__}: {exc}") from exc


def receive(
    connect_address: str | tuple[str, int],
    sink: Optional[Callable[[Frame], None]] = None,
    metrics_path: Optional[str] = None,
    on_hello: Optional[Callable[[Hello], None]] = None,
    timeout: float = 30.0,
) -> ReceiveReport:
    """Connect, reconstruct every delivered frame, and hand each to `sink`.

    The session must follow SessionDecoder's rules: HELLO, a REF_FRAME,
    then gap-free DELTAs until END.  A payload that does not decode raises
    DecodeFailure, with the wire or codec error as its cause; a socket read
    that fails raises ReceiveFailure, with the OSError as its cause.  What
    `sink` raises propagates as it is.  Per-frame reconstruction metrics
    are written as CSV when metrics_path is given.
    """
    host, port = parse_address(connect_address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailure(f"cannot connect to {host}:{port}: {exc}") from exc

    report = ReceiveReport()
    rows: list[FrameMetrics] = []
    session = SessionDecoder()
    with sock, sock.makefile("rb") as stream:
        sock.settimeout(timeout)
        hello = _read_message(stream, session.limits)
        session.accept(hello)
        report.geometry = hello.geometry
        report.fps = hello.fps
        report.baseline = hello.baseline
        mode = "standard" if hello.baseline else "spatio"
        if on_hello is not None:
            on_hello(hello)

        while True:
            msg = _read_message(stream, session.limits)
            started = time.perf_counter()
            try:
                frame = session.accept(msg)
            except (WireFormatError, CodecError, ValueError) as exc:
                what = "reference frame" if isinstance(msg, RefFrame) else f"frame {msg.frame_no}"
                raise DecodeFailure(f"{what} unusable: {exc}") from exc
            build_seconds = time.perf_counter() - started
            if frame is None:  # END; a repeated HELLO raised in accept()
                break
            if isinstance(msg, RefFrame):
                report.first_frame_no = msg.frame_no
            elif metrics_path is not None:
                total = hello.geometry.total_samples
                # encode time is not observable on this side
                rows.append(frame_metrics(msg, total, mode, 0.0, build_seconds))
            report.frames_received += 1
            if sink is not None:
                sink(frame)

    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return report
