"""Live streaming over TCP: encode once on the server, fan out to clients.

This module is the I/O around session.py's rules.  One thread owns the
source and a SessionEncoder and broadcasts each frame's wire bytes to
every connected client; an acceptor thread admits clients; one writer
thread per client drains its bounded outbox.  A client leaves the fan-out
list one way, StreamServer._drop: when its outbox is still full after a
short grace (a slow consumer, cut rather than stalling the pipeline), when
its writer's send fails (the peer has gone), or when finish() cannot queue
END for it.  receive() reads messages off the socket and hands each to a
SessionDecoder.

A client joining mid-stream is bootstrapped with HELLO plus a REF_FRAME
snapshot of the reference current when it connected, after which it
receives the same deltas as everyone else.  The broadcast publishes that
reference in the same lock hold as the frame's bytes, so a joiner's
keyframe and its first delta sit on one frame boundary.  The snapshot is
compressed by the joiner's own writer thread with no lock held: the
acceptor only queues a token for it, so a join never stalls the broadcast
to the other clients, and the deltas broadcast meanwhile wait in the
joiner's bounded outbox like any other client's.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bench import FrameMetrics, frame_metrics, write_metrics_csv
from .core import CodecError, EncoderConfig, Frame, FrameGeometry
from .ingest import VideoSource
from .session import NetError, SessionDecoder, SessionEncoder
from .session import ProtocolViolation  # noqa: F401 - public here as net.ProtocolViolation
from .wirecodec import (
    End,
    Hello,
    RefFrame,
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

OUTBOX_SIZE = 32  # messages queued per client before the broadcast waits on it
_JOIN_TIMEOUT = 10.0
_WRITER_GRACE = 0.005  # a runnable writer gets the interpreter lock within ~one switch interval


class BindFailure(NetError):
    """Listen address could not be bound."""


class ConnectFailure(NetError):
    """Server address could not be reached."""


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
    ):
        self._frames = iter(source)
        self._bind_address = parse_address(address)
        self._fps = fps if fps is not None else source.fps
        self._session = SessionEncoder(source.geometry, self._fps, config)
        self._hello_blob = frame_message(self._session.hello)
        self._lock = threading.Lock()
        self._clients: list[_Client] = []
        self._bootstrap = _Bootstrap(-1, None)  # what a client admitted now starts from
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
        client = _Client(sock, queue.Queue(maxsize=OUTBOX_SIZE), peer)
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
            client.outbox.put_nowait(self._bootstrap)
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
        except OSError as exc:
            with self._lock:
                self._drop(client, f"send failed: {exc}")
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

    def _drop(self, client: _Client, reason: str) -> None:
        """Take a client off the fan-out list and count it as dropped.

        The one way off the list for a client that stops receiving; the
        caller holds the lock.  A client already off the list is left
        alone, so a writer whose send fails after the broadcast cut it
        (closing its socket fails that send) is not counted twice.
        Closing the socket unblocks the writer.
        """
        if client not in self._clients:
            return
        self._clients.remove(client)
        self.report.clients_dropped += 1
        try:
            client.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        client.sock.close()
        log.info("client %s dropped: %s", client.peer, reason)

    # -- broadcasting ------------------------------------------------------

    def send_next_frame(self) -> bool:
        """Pull, encode and broadcast one frame.  False once exhausted."""
        frame = next(self._frames, None)
        if frame is None:
            return False
        msg = self._session.push(frame)
        blob = frame_message(msg)
        with self._lock:
            for client in list(self._clients):
                if not self._offer(client, blob):
                    self._drop(client, "slow consumer")
            # published with the broadcast, never before: a client admitted
            # between push() and here must still get this frame as a DELTA
            self._bootstrap = _Bootstrap(msg.frame_no, self._session.reference)
        self.report.frames_encoded += 1
        return True

    @staticmethod
    def _offer(client: _Client, blob: bytes) -> bool:
        """Queue a blob for a client; False if the client is a slow consumer.

        A full outbox may only mean that its writer has not been scheduled
        yet (a burst of cheap frames can hold the interpreter lock for a
        whole switch interval), and waiting on the queue releases that lock
        so the writer drains it.  An outbox still full after the grace
        belongs to a peer that is not reading.  A peer that has gone is not
        met here: its writer's failed send took it off the list.
        """
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
                    self._drop(client, "END could not be queued")
        if self._listener is not None:
            self._listener.close()
        for client in clients:
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

    The session must follow SessionDecoder's rules: HELLO, a REF_FRAME,
    then gap-free DELTAs until END.  A payload that does not decode raises
    DecodeFailure, with the wire or codec error as its cause.  Per-frame
    reconstruction metrics are written as CSV when metrics_path is given.
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
        hello = parse_message(stream, session.limits)
        session.accept(hello)
        report.geometry = hello.geometry
        report.fps = hello.fps
        report.baseline = hello.baseline
        mode = "standard" if hello.baseline else "spatio"
        if on_hello is not None:
            on_hello(hello)

        while True:
            msg = parse_message(stream, session.limits)
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
