"""Live streaming over TCP: encode once on the server, fan out to clients.

FanOut holds the fan-out rules with no socket, clock, lock or thread: who
gets which blob, a joiner's deltas held behind its keyframe, the judgement
of slow consumers, the client cap and END owed.  StreamServer, its shell,
calls it under one lock from three kinds of thread:
- the caller of send_next_frame() and finish() broadcasts each frame, then
  END, and waits with no lock held for the loop pass a broadcast names;
- one loop thread owns every socket, non-blocking: it admits clients, and
  begins and ends each pass, reporting what each send moved or its failure;
- at most one keyframe thread compresses, with no lock held, the REF_FRAME
  that every joiner admitted meanwhile shares, and reports it ready or failed.
receive() reads messages off the socket for a SessionDecoder.
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
OUTBOX_CAP = 2 * OUTBOX_SIZE  # blobs a client may hold once that pass has run, moved or not
# Clients listed at once.  Blobs and the keyframe in flight are shared, so
# this bounds the open sockets and the work of each loop pass and broadcast.
MAX_CLIENTS = 32
_JOIN_TIMEOUT = 10.0


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
    clients_refused: int = 0  # closed on arrival: MAX_CLIENTS were listed


@dataclass
class ReceiveReport:
    frames_received: int = 0
    first_frame_no: Optional[int] = None
    geometry: Optional[FrameGeometry] = None
    fps: Fraction = Fraction(25, 1)
    baseline: bool = False


@dataclass(eq=False)
class _Client:
    peer: str
    outbox: deque = field(default_factory=deque)  # framed blobs, shared
    sent: int = 0  # bytes of outbox[0] sent
    held: Optional[list] = None  # blobs broadcast since its keyframe began compressing, shared
    moved: int = 0  # bytes sent in all


class FanOut:
    """The fan-out rules, with no I/O: events in, what follows out; one call at a time.

    A client is listed from its admission until it is dropped or the server
    closes; one that END has reached stays listed.
    """

    def __init__(self, hello_blob: bytes):
        self._hello = hello_blob
        self.clients: list[_Client] = []
        self._ref: Optional[tuple] = (-1, None)  # (frame_no, reference) a joiner starts from
        self._held: Optional[list] = None  # blobs broadcast since the keyframe in flight began
        self.passes_done = self._passes = 0  # the last loop pass ended, and passes begun
        self._judged: list[tuple[int, _Client, int]] = []  # (pass, client, moved then)
        self.report = ServeReport()

    def admit(self, peer: str) -> tuple[Optional[_Client], Optional[tuple[int, Frame]]]:
        """List a client; the (frame_no, reference) of a keyframe to compress, if it starts one.

        A joiner attaches to the keyframe in flight or starts one, held until it is ready.
        (None, None) once END is out or MAX_CLIENTS are listed: close it before HELLO.
        """
        if self._ref is None:
            return None, None
        if len(self.clients) >= MAX_CLIENTS:
            self.report.clients_refused += 1
            log.info("client %s refused: %d clients listed", peer, len(self.clients))
            return None, None
        start = self._ref if self._ref[1] is not None and self._held is None else None
        if start is not None:
            self._held = []
        client = _Client(peer, deque([self._hello]), held=self._held)
        self.clients.append(client)
        self.report.clients_total += 1
        return client, start

    def keyframe_ready(self, blob: Optional[bytes]) -> int:
        """Queue the keyframe in flight, then the held blobs, to its joiners; None: drop them."""
        held, self._held = self._held, None
        joiners = [c for c in self.clients if c.held is not None]  # one keyframe is in flight
        for client in joiners:
            client.held = None
            if blob is None:
                self.drop(client, "keyframe failed")
            else:
                client.outbox.extend([blob, *held])
        self.report.snapshot_calls += blob is not None
        return len(joiners)

    def broadcast(self, blob: bytes, ref: Optional[tuple[int, Frame]]) -> Optional[int]:
        """Queue `blob` for every client; the pass to wait for before the next broadcast, if any.

        Joiners' blobs are held behind the keyframe in flight.  `ref` (None
        once END is out) becomes the reference a joiner starts from only now:
        one admitted earlier must still get this frame as a DELTA.  A client then
        holding more than OUTBOX_SIZE blobs is judged when the first pass
        begun after this ends, which tries every client afresh: it is cut as
        a slow consumer if none of its bytes moved meanwhile, or if it still
        holds more than OUTBOX_CAP blobs, as a peer reading a trickle would
        keep alive every blob the others have released.
        """
        for client in self.clients:
            if client.held is None:
                client.outbox.append(blob)
        if self._held is not None:
            self._held.append(blob)
        self._ref = ref
        self.report.frames_encoded += ref is not None
        fresh = self._passes + 1
        full = [(fresh, c, c.moved) for c in self.clients if len(c.outbox) > OUTBOX_SIZE]
        self._judged += full
        return fresh if full else None

    def begin_pass(self) -> int:
        self._passes += 1
        return self._passes

    def end_pass(self, pass_no: int) -> None:
        """Judge the clients a broadcast found full before this pass began."""
        self.passes_done = pass_no
        due = [j for j in self._judged if j[0] <= pass_no]
        self._judged = [j for j in self._judged if j[0] > pass_no]
        for _, client, moved in due:
            if client.moved == moved:
                self.drop(client, "slow consumer")
            elif len(client.outbox) > OUTBOX_CAP:
                self.drop(client, f"slow consumer: {len(client.outbox)} blobs queued")

    def pending(self, client: _Client) -> Optional[memoryview]:
        """What to send a listed client next: the rest of its first queued blob."""
        if client.outbox and client in self.clients:
            return memoryview(client.outbox[0])[client.sent:]
        return None

    def sent(self, client: _Client, n: int) -> Optional[memoryview]:
        """n bytes of the client's pending blob went out; what to send it next."""
        client.sent += n
        client.moved += n
        if client.sent == len(client.outbox[0]):
            client.outbox.popleft()
            client.sent = 0
        return self.pending(client)

    def serves(self, client: _Client) -> bool:
        """Whether the client's connection stays open: listed, and not sent END, its last blob."""
        return client in self.clients and (
            self._ref is not None or bool(client.outbox) or client.held is not None)

    def owed(self) -> list[_Client]:
        """Listed clients that END, once broadcast, has not yet reached."""
        return [c for c in self.clients if self.serves(c)]

    def drop(self, client: _Client, reason: str) -> None:
        """Unlist a client once, counted as dropped: cut by a rule, or a send or keyframe failed."""
        if client not in self.clients:
            return
        self.clients.remove(client)
        self.report.clients_dropped += 1
        log.info("client %s dropped: %s", client.peer, reason)


class StreamServer:
    """Fan-out streaming session over one source: FanOut's socket and thread shell.

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
        self._fan = FanOut(frame_message(self._session.hello))
        self._lock = threading.Lock()  # held around every FanOut call
        self._passed = threading.Condition(self._lock)  # notified as each loop pass ends
        self._stopping = False
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[threading.Thread] = None
        self.report = self._fan.report

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
            return len(self._fan.clients)

    def wait_for_clients(self, n: int, timeout: float = 5.0) -> bool:
        with self._passed:  # the loop lists a client in the pass that admits it
            return self._passed.wait_for(lambda: len(self._fan.clients) >= n, timeout)

    def _serve_loop(self) -> None:
        """Admit clients and send each what its kernel buffer takes, until close()."""
        socks: dict[_Client, socket.socket] = {}  # every client whose socket is open
        try:
            while not self._stopping:
                for key, _ in self._selector.select():
                    if key.fileobj is self._listener:
                        self._admit(socks)
                    elif key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                with self._lock:
                    pass_no = self._fan.begin_pass()
                socks = {c: sock for c, sock in socks.items() if self._flush(c, sock)}
                with self._passed:
                    self._fan.end_pass(pass_no)
                    self._passed.notify_all()
        finally:
            self._selector.close()
            for sock in [*socks.values(), self._listener, self._wake_r, self._wake_w]:
                sock.close()
            with self._passed:
                self._stopping = True
                self._passed.notify_all()

    def _admit(self, socks: dict[_Client, socket.socket]) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:  # the peer left before it was accepted
            return
        with self._lock:
            client, ref = self._fan.admit(f"{addr[0]}:{addr[1]}")
        if client is None:
            sock.close()
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks[client] = sock
        if ref is not None:
            threading.Thread(target=self._keyframe, args=ref, daemon=True).start()

    def _keyframe(self, ref_no: int, ref: Frame) -> None:
        """Compress REF_FRAME(ref_no) with no lock held; report it, ready or failed, to FanOut."""
        started, failure = time.perf_counter(), ""
        try:
            blob = frame_message(samples_to_message(ref_no, ref.samples))
        except Exception as exc:  # the stream goes on without the joiners, dropped at once
            log.debug("keyframe of frame %d failed", ref_no, exc_info=True)
            blob, failure = None, f"keyframe failed: {type(exc).__name__}: {exc}"
        with self._lock:
            joiners = self._fan.keyframe_ready(blob)
        log.info("keyframe of frame %d for %d joiners: %s in %.1f ms", ref_no, joiners,
                 failure or f"{len(blob)} bytes", (time.perf_counter() - started) * 1e3)
        self._wake()

    def _flush(self, client: _Client, sock: socket.socket) -> bool:
        """Send what the kernel takes of what FanOut has for the client; False once closed."""
        with self._lock:
            data = self._fan.pending(client)
        try:
            while data:
                n = sock.send(data)
                with self._lock:
                    data = self._fan.sent(client, n)
        except BlockingIOError:
            pass  # the kernel buffer is full: wait in the selector for room
        except OSError as exc:
            data = None
            with self._lock:
                self._fan.drop(client, f"send failed: {exc}")
        with self._lock:
            keep = self._fan.serves(client)
        watched = sock in self._selector.get_map()
        if keep and data and not watched:
            self._selector.register(sock, selectors.EVENT_WRITE)
        elif watched and not (keep and data):
            self._selector.unregister(sock)
        if not keep:
            sock.close()
        return keep

    def _wake(self) -> None:
        """Make the loop run a pass."""
        if self._loop is not None:
            with contextlib.suppress(OSError):  # closed: the loop has ended
                self._wake_w.send(b"\0")

    def send_next_frame(self) -> bool:
        """Pull, encode and broadcast one frame.  False once exhausted."""
        frame = next(self._frames, None)
        if frame is None:
            return False
        msg = self._session.push(frame)
        self._broadcast(frame_message(msg), (msg.frame_no, self._session.reference))
        return True

    def _broadcast(self, blob: bytes, ref: Optional[tuple[int, Frame]]) -> None:
        """FanOut.broadcast, then the wait for the pass it names, with no lock held."""
        with self._lock:
            fresh = self._fan.broadcast(blob, ref)
        self._wake()
        if fresh is not None:
            with self._passed:
                self._passed.wait_for(lambda: self._fan.passes_done >= fresh or self._stopping)

    def finish(self) -> ServeReport:
        """Broadcast END, wait until the loop has sent it, and drop whom it could not reach."""
        self._broadcast(frame_message(End()), None)
        with self._passed:
            self._passed.wait_for(lambda: not self._fan.owed(), _JOIN_TIMEOUT)
            for client in self._fan.owed():
                self._fan.drop(client, "END not sent in time")
        return self.report

    def close(self) -> None:
        """Stop the loop, which closes every socket; listed clients are not counted dropped."""
        with self._lock:
            self._fan.clients.clear()
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

    A frame `sink` keeps, or any view of its samples, never changes; one it
    lets go lets the next frame be rebuilt in its buffer, with no
    whole-frame copy.  The SessionDecoder is this call's own, so no other
    thread calls its accept() or reads its reference.
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
            del frame  # unheld, the next frame is rebuilt in this one's buffer

    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return report
