"""Live streaming over TCP: encode once on the server, fan out to clients.

One thread owns the source and the reference frame and broadcasts each
frame's wire bytes to every connected client; an acceptor thread admits
clients; one writer thread per client drains its bounded queue.  A client
that cannot keep up is disconnected rather than stalling the pipeline.

A client joining mid-stream is bootstrapped with HELLO plus a REF_FRAME
snapshot of the reference current when it connected, after which it
receives the same deltas as everyone else.  The snapshot is compressed by
the joiner's own writer thread with no lock held: the acceptor only queues
a token for it, so a join never stalls the broadcast to the other clients,
and the deltas broadcast meanwhile wait in the joiner's bounded outbox like
any other client's.
"""

from __future__ import annotations

import logging
import queue
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .bench import FrameMetrics, write_metrics_csv
from .core import CodecError, EncoderConfig, Frame, FrameGeometry
from .decode import decode_delta
from .encode import advance_reference, encode_delta
from .ingest import SourceError, VideoSource
from .wirecodec import (
    OPENING_LIMITS,
    Delta,
    End,
    Hello,
    RefFrame,
    WireFormatError,
    check_declared_lengths,
    delta_to_message,
    frame_message,
    message_to_delta,
    message_to_samples,
    parse_message,
    payload_limits,
    samples_to_message,
    wire_size,
)

log = logging.getLogger("sfix.net")

DEFAULT_CLIENT_QUEUE = 32
_JOIN_TIMEOUT = 10.0
_WRITER_GRACE = 0.005  # a runnable writer gets the interpreter lock within ~one switch interval


class NetError(Exception):
    """Base class for streaming failures."""


class BindFailure(NetError):
    """Listen address could not be bound."""


class ConnectFailure(NetError):
    """Server address could not be reached."""


class ProtocolViolation(NetError):
    """Message order or frame numbering broke the session rules."""


class DecodeFailure(NetError):
    """A received payload could not be decompressed or reconstructed."""


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """Accept 'host:port' strings (IPv6 in brackets) or (host, port) pairs."""
    if isinstance(address, tuple):
        return address
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must look like host:port, got {address!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


@dataclass
class ServeReport:
    frames_encoded: int = 0
    encode_calls: int = 0
    serialize_calls: int = 0
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


@dataclass
class _Client:
    sock: socket.socket
    outbox: queue.Queue
    peer: str
    writer: Optional[threading.Thread] = None
    dropped: bool = field(default=False)


@dataclass(frozen=True)
class _Bootstrap:
    """Outbox token: send HELLO, then a REF_FRAME of `ref` if there is one.

    The writer thread compresses the keyframe when it dequeues the token, so
    the broadcast lock is never held around it.  `Frame` is immutable, so
    holding the reference here is safe while the broadcast moves on.
    """

    ref_no: int
    ref: Optional[Frame]


class StreamServer:
    """Fan-out streaming session over one source.

    start() binds and begins accepting; stream() runs the paced broadcast
    loop to source exhaustion and returns the session report.  Tests can
    instead drive send_next_frame()/finish() directly for deterministic
    frame-boundary control.
    """

    def __init__(
        self,
        source: VideoSource,
        config: EncoderConfig = EncoderConfig(),
        address: str | tuple[str, int] = ("127.0.0.1", 0),
        fps: Optional[Fraction] = None,
        queue_size: int = DEFAULT_CLIENT_QUEUE,
        on_frame: Optional[Callable[[int], None]] = None,
    ):
        self._source = source
        self._frames = iter(source)
        self._config = config
        self._bind_address = parse_address(address)
        self._fps = fps if fps is not None else source.fps
        self._queue_size = queue_size
        self._on_frame = on_frame
        self._hello_blob = frame_message(
            Hello(
                source.geometry,
                self._fps.numerator,
                self._fps.denominator,
                baseline=config.mode.value == "standard",
            )
        )
        self._lock = threading.Lock()
        self._clients: list[_Client] = []
        self._reference: Optional[Frame] = None
        self._ref_no = -1
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._closing = False
        self.report = ServeReport()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StreamServer":
        try:
            self._listener = socket.create_server(self._bind_address)
        except OSError as exc:
            raise BindFailure(f"cannot bind {self._bind_address}: {exc}") from exc
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()
        log.info("serving on %s:%d", *self.address)
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    @property
    def client_count(self) -> int:
        with self._lock:
            return len(self._clients)

    def wait_for_clients(self, n: int, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.client_count >= n:
                return True
            time.sleep(0.002)
        return self.client_count >= n

    # -- accepting ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            self._admit(sock, f"{addr[0]}:{addr[1]}")

    def _admit(self, sock: socket.socket, peer: str) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client = _Client(sock, queue.Queue(maxsize=self._queue_size), peer)
        # the writer runs before the client is listed, so finish() never
        # meets a listed client whose writer thread it cannot join yet
        client.writer = threading.Thread(target=self._write_loop, args=(client,), daemon=True)
        client.writer.start()
        with self._lock:
            if self._closing:
                client.outbox.put(None)  # the writer stops and closes the socket
                return
            # the token and the client's first delta sit on the same frame
            # boundary; the outbox is empty, so the token always fits
            client.outbox.put_nowait(_Bootstrap(self._ref_no, self._reference))
            self._clients.append(client)
            self.report.clients_total += 1

    def _write_loop(self, client: _Client) -> None:
        try:
            while True:
                blob = client.outbox.get()
                if blob is None:
                    return
                if isinstance(blob, _Bootstrap):
                    client.sock.sendall(self._hello_blob)
                    blob = self._keyframe(client, blob)
                client.sock.sendall(blob)
        except OSError:
            client.dropped = True
        finally:
            client.sock.close()

    def _keyframe(self, client: _Client, token: _Bootstrap) -> bytes:
        """The joiner's REF_FRAME; runs on its writer thread with no lock held."""
        if token.ref is None:
            log.info("client %s joined before the first frame", client.peer)
            return b""
        started = time.perf_counter()
        blob = frame_message(samples_to_message(token.ref_no, token.ref.samples))
        compress_ms = (time.perf_counter() - started) * 1e3
        with self._lock:
            self.report.snapshot_calls += 1
        log.info(
            "client %s joined at frame %d: keyframe %d bytes, compressed in %.1f ms",
            client.peer, token.ref_no, len(blob), compress_ms,
        )
        return blob

    def _drop(self, client: _Client) -> None:
        # caller holds the lock; closing the socket unblocks the writer
        client.dropped = True
        self._clients.remove(client)
        self.report.clients_dropped += 1
        try:
            client.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        client.sock.close()
        log.info("client %s dropped as slow consumer", client.peer)

    # -- broadcasting ------------------------------------------------------

    def send_next_frame(self) -> bool:
        """Pull, encode and broadcast one frame.  False once exhausted."""
        frame = next(self._frames, None)
        if frame is None:
            return False
        frame_no = self._ref_no + 1
        if self._reference is None:
            if frame.geometry != self._source.geometry:
                raise SourceError(f"source yielded a {frame.geometry} frame")
            msg = samples_to_message(frame_no, frame.samples)
        else:
            delta = encode_delta(self._reference, frame, self._config)
            self.report.encode_calls += 1
            msg = delta_to_message(frame_no, delta)
        blob = frame_message(msg)
        self.report.serialize_calls += 1
        with self._lock:
            for client in list(self._clients):
                if not self._offer(client, blob):
                    self._drop(client)
            if self._reference is not None:
                frame = advance_reference(self._reference, frame)
            self._reference = frame
            self._ref_no = frame_no
        self.report.frames_encoded += 1
        if self._on_frame is not None:
            self._on_frame(frame_no)
        return True

    @staticmethod
    def _offer(client: _Client, blob: bytes) -> bool:
        """Queue a blob for a client; False if the client is a slow consumer.

        A full outbox means a slow consumer when its writer is gone or its
        socket has no room: the peer is not reading.  With room on the
        socket, the writer only has not been scheduled yet (a burst of cheap
        frames can hold the interpreter lock for a whole switch interval),
        and waiting on the queue releases that lock so the writer drains it.
        """
        try:
            client.outbox.put_nowait(blob)
            return True
        except queue.Full:
            pass
        try:
            _, writable, _ = select.select([], [client.sock], [], 0)
        except (OSError, ValueError):  # the writer already closed the socket
            return False
        if client.dropped or not writable:
            return False
        try:
            client.outbox.put(blob, timeout=_WRITER_GRACE)
        except queue.Full:
            return False
        return True

    def finish(self) -> ServeReport:
        """Broadcast END, stop accepting, and wait for writers to drain."""
        end_blob = frame_message(End())
        with self._lock:
            self._closing = True
            clients = list(self._clients)
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for client in clients:
            # bounded blocking put: a draining client gets END even if its
            # queue is momentarily full; a stalled one is still cut, and no
            # single client can burn the whole join deadline
            try:
                for item in (end_blob, None):
                    wait = max(0.0, min(2.0, deadline - time.monotonic()))
                    client.outbox.put(item, timeout=wait)
            except queue.Full:
                with self._lock:
                    if client in self._clients:
                        self._drop(client)
        if self._listener is not None:
            self._listener.close()
        for client in clients:
            if client.writer is None:
                continue
            client.writer.join(max(0.0, deadline - time.monotonic()))
            if client.writer.is_alive():
                client.sock.close()  # force a stuck sendall to fail
                client.writer.join(1.0)
        return self.report

    def close(self) -> None:
        with self._lock:
            self._closing = True
            clients = list(self._clients)
            self._clients.clear()
        if self._listener is not None:
            self._listener.close()
        for client in clients:
            client.sock.close()

    def stream(self) -> ServeReport:
        """Paced broadcast loop: one frame per 1/fps tick until exhaustion."""
        tick = float(1 / self._fps) if self._fps > 0 else 0.0
        next_deadline = time.monotonic()
        while True:
            if not self.send_next_frame():
                break
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


def receive(
    connect_address: str | tuple[str, int],
    sink: Optional[Callable[[Frame], None]] = None,
    metrics_path: Optional[str] = None,
    on_hello: Optional[Callable[[Hello], None]] = None,
    timeout: float = 30.0,
) -> ReceiveReport:
    """Connect, reconstruct every delivered frame, and hand each to `sink`.

    The session must open with HELLO and deliver a REF_FRAME before any
    DELTA; frame numbers after the reference must be gap-free.  Per-frame
    reconstruction metrics are written as CSV when metrics_path is given.
    """
    host, port = parse_address(connect_address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailure(f"cannot connect to {host}:{port}: {exc}") from exc

    report = ReceiveReport()
    rows: list[FrameMetrics] = []
    with sock, sock.makefile("rb") as stream:
        sock.settimeout(timeout)
        msg = parse_message(stream, OPENING_LIMITS)
        if not isinstance(msg, Hello):
            raise ProtocolViolation(f"first message must be HELLO, got {type(msg).__name__}")
        geometry = msg.geometry
        report.geometry = geometry
        report.fps = Fraction(msg.fps_num, msg.fps_den) if msg.fps_den else Fraction(25, 1)
        report.baseline = msg.baseline
        mode = "standard" if msg.baseline else "spatio"
        if on_hello is not None:
            on_hello(msg)

        limits = payload_limits(geometry)
        reference: Optional[Frame] = None
        expected_no = 0
        while True:
            msg = parse_message(stream, limits)
            if isinstance(msg, End):
                break
            if isinstance(msg, Hello):
                raise ProtocolViolation("HELLO repeated mid-session")
            if isinstance(msg, RefFrame):
                if reference is not None:
                    raise ProtocolViolation("REF_FRAME repeated mid-session")
                try:
                    check_declared_lengths(msg, geometry)
                    samples = message_to_samples(msg)
                    reference = Frame(geometry, samples)
                except (WireFormatError, ValueError) as exc:
                    raise DecodeFailure(f"reference frame unusable: {exc}") from exc
                report.first_frame_no = msg.frame_no
                expected_no = msg.frame_no + 1
            elif isinstance(msg, Delta):
                if reference is None:
                    raise ProtocolViolation("DELTA before any REF_FRAME")
                if msg.frame_no != expected_no:
                    raise ProtocolViolation(
                        f"frame_no gap: expected {expected_no}, got {msg.frame_no}"
                    )
                started = time.perf_counter()
                try:
                    check_declared_lengths(msg, geometry)
                    delta = message_to_delta(msg)
                    frame = decode_delta(reference, delta)
                except (WireFormatError, CodecError) as exc:
                    raise DecodeFailure(f"frame {msg.frame_no} unusable: {exc}") from exc
                build_seconds = time.perf_counter() - started
                if metrics_path is not None:
                    total = geometry.total_samples
                    size = wire_size(msg)
                    rows.append(
                        FrameMetrics(
                            frame_no=msg.frame_no,
                            mode=mode,
                            total_samples=total,
                            diff_samples=len(delta.diff),
                            diff_pct=100.0 * len(delta.diff) / total,
                            index_entries=len(delta.records),
                            wire_bytes=size,
                            ratio_samples=len(delta.diff) / total,
                            ratio_wire=size / total,
                            encode_seconds=0.0,  # not observable on this side
                            build_seconds=build_seconds,
                        )
                    )
                reference = advance_reference(reference, frame)
                expected_no += 1
            else:  # pragma: no cover - parse_message only returns the four kinds
                raise ProtocolViolation(f"unexpected message {type(msg).__name__}")
            report.frames_received += 1
            if sink is not None:
                sink(reference)

    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return report
