"""TCP streaming: fan-out, mid-join bootstrap, protocol policing, back-pressure.

Deterministic tests drive StreamServer.send_next_frame() manually so client
joins happen at exact frame boundaries; pacing is covered separately.
"""

import contextlib
import hashlib
import io
import itertools
import socket
import struct
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import hello_then, reset
from sfix import encode, net
from sfix import wirecodec as wc
from sfix.bench import read_metrics_csv
from sfix.core import EncoderConfig, EncoderMode, Frame, FrameGeometry
from sfix.encode import encode_delta
from sfix.ingest import SourceError, SynthParams, VideoSource, gen_low_motion
from sfix.session import SessionEncoder


def make_source(frames, fps=Fraction(25, 1)):
    return VideoSource(frames[0].geometry, fps, iter(frames))


def synth_frames(n, seed=11, **kwargs):
    return list(gen_low_motion(SynthParams(seed=seed, n_frames=n, **kwargs)))


def noise_frames(n, geometry, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Frame(geometry, rng.integers(0, 256, geometry.total_samples, dtype=np.uint8).tobytes())
        for _ in range(n)
    ]


class Receiver:
    """Runs net.receive in a thread, collecting delivered frames."""

    def __init__(self, address, **kwargs):
        self.samples = []
        self.report = None
        self.error = None
        self._thread = threading.Thread(target=self._run, args=(address,), kwargs=kwargs)
        self._thread.start()

    def _run(self, address, **kwargs):
        try:
            self.report = net.receive(
                address, sink=lambda f: self.samples.append(f.samples),
                timeout=10.0, **kwargs
            )
        except Exception as exc:  # surfaced by join()
            self.error = exc

    def samples_seen(self, n, timeout=5.0):
        """Whether n frames have arrived, waiting up to timeout for them."""
        deadline = time.monotonic() + timeout
        while len(self.samples) < n and time.monotonic() < deadline:
            time.sleep(0.002)
        return len(self.samples) >= n

    def join(self):
        self._thread.join(timeout=15.0)
        assert not self._thread.is_alive(), "receiver did not finish"
        if self.error is not None:
            raise self.error
        return self.report


class TestParseAddress:
    def test_host_port_string(self):
        assert net.parse_address("example.org:5000") == ("example.org", 5000)

    def test_tuple_passthrough(self):
        assert net.parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)

    def test_bracketed_ipv6(self):
        assert net.parse_address("[::1]:8080") == ("::1", 8080)

    def test_empty_host_defaults_to_loopback(self):
        assert net.parse_address(":9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("bad", [
        "nocolon", "host:", "host:port", "host:-1x",
        "127.0.0.1:70000", ("127.0.0.1", 70000), ("127.0.0.1", -1),
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            net.parse_address(bad)


class TestLoopbackStreaming:
    def test_full_session_delivers_every_frame(self):
        frames = synth_frames(50)
        server = net.StreamServer(make_source(frames)).start()
        try:
            client = Receiver(server.address)
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            server.close()
        received = client.join()
        assert received.frames_received == 50
        assert received.first_frame_no == 0
        assert received.geometry == frames[0].geometry
        assert client.samples == [f.samples for f in frames]
        assert report.frames_encoded == 50
        assert report.clients_total == 1
        assert report.clients_dropped == 0

    def test_a_sink_that_lets_go_gets_each_frame_rebuilt_in_place(self, rebuilds):
        frames = synth_frames(20, seed=5)
        digests = []
        server = net.StreamServer(make_source(frames)).start()
        try:
            client = threading.Thread(target=net.receive, args=(server.address,), kwargs={
                "sink": lambda f: digests.append(hashlib.sha256(f.samples).digest())})
            client.start()
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            server.finish()
            client.join(timeout=15.0)
        finally:
            server.close()
        assert digests == [hashlib.sha256(f.samples).digest() for f in frames]
        assert rebuilds == [False] + [True] * 18

    def test_mid_join_bootstraps_from_current_reference(self):
        frames = synth_frames(50, seed=3)
        server = net.StreamServer(make_source(frames)).start()
        try:
            early = Receiver(server.address)
            assert server.wait_for_clients(1)
            for _ in range(21):  # frames 0..20 go out before the late join
                assert server.send_next_frame()
            late = Receiver(server.address)
            assert server.wait_for_clients(2)
            while server.send_next_frame():
                pass
            server.finish()
        finally:
            server.close()
        early_report, late_report = early.join(), late.join()
        assert early_report.frames_received == 50
        assert late_report.first_frame_no == 20
        assert late_report.frames_received == 30  # snapshot of 20 + deltas 21..49
        assert late.samples == [f.samples for f in frames[20:]]
        assert early.samples == [f.samples for f in frames]

    def test_fan_out_encodes_and_serializes_once_per_frame(self, monkeypatch):
        frames = synth_frames(12, seed=8)
        server = net.StreamServer(make_source(frames)).start()
        encoded, framed = [], []
        encode_delta, frame_message = encode.encode_delta, net.frame_message
        monkeypatch.setattr(
            encode, "encode_delta", lambda *args: encoded.append(1) or encode_delta(*args)
        )
        monkeypatch.setattr(
            net, "frame_message", lambda msg: framed.append(msg) or frame_message(msg)
        )
        try:
            clients = [Receiver(server.address) for _ in range(3)]
            assert server.wait_for_clients(3)
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            server.close()
        for client in clients:
            assert client.join().frames_received == 12
            assert client.samples == [f.samples for f in frames]
        assert report.clients_total == 3
        assert len(encoded) == 11  # every frame but the reference
        # once per frame, not per client, then END
        assert [msg.frame_no for msg in framed[:-1]] == list(range(12))
        assert framed[-1] == wc.End()
        assert report.frames_encoded == 12

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_client_from_frame_0_gets_the_container_bytes(self, mode):
        # a stream is a container's message stream: HELLO through END, byte for byte
        frames = synth_frames(30, seed=51, width=96, height=64)
        config = EncoderConfig(mode)
        server = net.StreamServer(make_source(frames), config).start()
        peer = socket.create_connection(server.address, timeout=10.0)
        try:
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            server.finish()
            with peer.makefile("rb") as stream:
                streamed = stream.read()
        finally:
            peer.close()
            server.close()
        session = SessionEncoder(frames[0].geometry, Fraction(25, 1), config)
        container = io.BytesIO()
        wc.write_container(container, [session.hello, *map(session.push, frames), wc.End()])
        assert streamed == container.getvalue()[len(wc.SFIX_MAGIC) + 1:]

    def test_identical_frames_stream_as_equal_deltas(self):
        geometry = FrameGeometry(8, 8, 1)
        frames = [Frame(geometry, bytes(64))] * 5
        server = net.StreamServer(make_source(frames)).start()
        try:
            client = Receiver(server.address)
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            server.finish()
        finally:
            server.close()
        assert client.join().frames_received == 5
        assert client.samples == [bytes(64)] * 5

    def test_baseline_mode_flag_reaches_client(self):
        frames = synth_frames(3, seed=5)
        cfg = EncoderConfig(EncoderMode.STANDARD_BASELINE)
        server = net.StreamServer(make_source(frames), cfg).start()
        try:
            client = Receiver(server.address)
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            server.finish()
        finally:
            server.close()
        assert client.join().baseline is True

    def test_receive_writes_reconstruction_metrics(self, tmp_path):
        frames = synth_frames(10, seed=21)
        metrics_path = str(tmp_path / "recv.csv")
        server = net.StreamServer(make_source(frames)).start()
        try:
            client = Receiver(server.address, metrics_path=metrics_path)
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            server.finish()
        finally:
            server.close()
        client.join()
        rows = read_metrics_csv(metrics_path)
        assert [r.frame_no for r in rows] == list(range(1, 10))
        total = frames[0].geometry.total_samples
        for row in rows:
            assert row.mode == "spatio"
            assert row.total_samples == total
            assert row.build_seconds > 0.0
            assert row.encode_seconds == 0.0
            assert row.wire_bytes > 0

    def test_paced_stream_wrapper(self):
        frames = synth_frames(10, seed=2)
        report = net.serve(make_source(frames), fps_override=Fraction(1000, 1))
        assert report.frames_encoded == 10
        assert report.clients_total == 0


class CompressionGate:
    """Stands in for net.samples_to_message: each call waits until open()."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self._open = threading.Event()
        compress = net.samples_to_message

        def gated(*args):
            self.entered.set()
            self._open.wait(10.0)
            return compress(*args)

        monkeypatch.setattr(net, "samples_to_message", gated)

    def open(self):
        self._open.set()


def completes(fn, timeout=5.0):
    """Whether fn() returns within timeout; it runs on a daemon thread."""
    worker = threading.Thread(target=fn, daemon=True)
    worker.start()
    worker.join(timeout)
    return not worker.is_alive()


def send_frames(server, n):
    return lambda: [server.send_next_frame() for _ in range(n)]


def eventually(predicate, timeout=5.0):
    """Whether predicate() holds within timeout, polling it."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


class TestJoinPath:
    """One keyframe compresses at a time, on its own thread with no lock held, for every joiner."""

    def test_broadcast_runs_while_a_joiner_compresses(self, monkeypatch):
        frames = synth_frames(20, seed=13)
        server = net.StreamServer(make_source(frames)).start()
        gate = None
        try:
            early = Receiver(server.address)
            assert server.wait_for_clients(1)
            assert completes(send_frames(server, 6))  # frames 0..5
            gate = CompressionGate(monkeypatch)
            late = Receiver(server.address)
            assert gate.entered.wait(5.0)
            # frames 6..9 go out while the joiner's keyframe is still
            # compressing; under a held lock they would wait out the gate
            assert completes(send_frames(server, 4), timeout=2.0)
            assert early.samples_seen(10)
            gate.open()
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            if gate is not None:
                gate.open()
            server.close()
        late_report = late.join()
        assert early.join().frames_received == 20
        assert early.samples == [f.samples for f in frames]
        assert late_report.first_frame_no == 5
        assert late.samples == [f.samples for f in frames[5:]]
        assert report.snapshot_calls == 1
        assert report.clients_total == 2
        assert report.clients_dropped == 0

    def test_joiners_get_the_reference_keyframe(self, monkeypatch):
        frames = synth_frames(10, seed=17)
        server = net.StreamServer(make_source(frames)).start()
        joiners, gate = [], CompressionGate(monkeypatch)
        try:
            assert completes(send_frames(server, 4))  # frames 0..3
            joiners = [socket.create_connection(server.address, timeout=10.0) for _ in range(2)]
            assert server.wait_for_clients(2)
            gate.open()
            while server.send_next_frame():
                pass
            report = server.finish()
            streams = [j.makefile("rb").read() for j in joiners]
        finally:
            gate.open()
            for joiner in joiners:
                joiner.close()
            server.close()
        assert report.snapshot_calls == 1  # both joined while it compressed: they share it
        assert report.clients_total == 2
        hello = wc.frame_message(wc.Hello(frames[0].geometry, 25, 1))
        keyframe = wc.frame_message(wc.samples_to_message(3, frames[3].samples))
        for data in streams:
            assert data.startswith(hello + keyframe)
            stream = io.BytesIO(data[len(hello) + len(keyframe):])
            numbers = [wc.parse_message(stream).frame_no for _ in range(6)]
            assert numbers == [4, 5, 6, 7, 8, 9]
            assert wc.parse_message(stream) == wc.End()

    def test_a_join_storm_shares_one_compression(self, monkeypatch):
        # four joiners arrive while one keyframe compresses, a frame broadcast
        # after each: every one gets that keyframe and each delta since it began
        calls, peak, counting = 0, 0, threading.Lock()
        keyframe = net.StreamServer._keyframe

        def counted(server, *args):
            nonlocal calls, peak
            with counting:
                calls += 1
                peak = max(peak, calls)
            try:
                keyframe(server, *args)
            finally:
                with counting:
                    calls -= 1

        monkeypatch.setattr(net.StreamServer, "_keyframe", counted)
        frames = synth_frames(12, seed=67)
        server = net.StreamServer(make_source(frames)).start()
        joiners, gate = [], CompressionGate(monkeypatch)
        try:
            steady = Receiver(server.address)
            assert server.wait_for_clients(1)
            assert completes(send_frames(server, 4))  # frames 0..3
            for listed in range(2, 6):
                joiners.append(socket.create_connection(server.address, timeout=10.0))
                assert server.wait_for_clients(listed)
                assert gate.entered.wait(5.0)
                assert completes(send_frames(server, 1))  # frames 4..7
            gate.open()
            while server.send_next_frame():
                pass
            report = server.finish()
            streams = [j.makefile("rb").read() for j in joiners]
        finally:
            gate.open()
            for joiner in joiners:
                joiner.close()
            server.close()
        assert steady.join().frames_received == 12
        assert steady.samples == [f.samples for f in frames]
        assert (report.snapshot_calls, peak, report.clients_dropped) == (1, 1, 0)
        session = SessionEncoder(frames[0].geometry, Fraction(25, 1))
        deltas = [session.push(f) for f in frames][4:]
        expected = b"".join(map(wc.frame_message, [
            session.hello, wc.samples_to_message(3, frames[3].samples), *deltas, wc.End()]))
        assert streams == [expected] * 4

    def test_joiner_is_not_judged_while_its_keyframe_compresses(self, monkeypatch):
        monkeypatch.setattr(net, "OUTBOX_SIZE", 4)
        frames = synth_frames(12, seed=19)
        server = net.StreamServer(make_source(frames)).start()
        gate = None
        try:
            early = Receiver(server.address)
            assert server.wait_for_clients(1)
            assert completes(send_frames(server, 3))  # frames 0..2
            gate = CompressionGate(monkeypatch)
            late = Receiver(server.address)
            assert gate.entered.wait(5.0)
            # five deltas, past the 4-blob bound, are held behind the joiner's
            # keyframe while it compresses: the broadcast neither waits on the
            # joiner nor cuts it
            assert completes(send_frames(server, 5), timeout=2.0)
            assert server.client_count == 2
            gate.open()
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            if gate is not None:
                gate.open()
            server.close()
        late_report = late.join()
        assert late_report.first_frame_no == 2  # REF_FRAME(2), then DELTAs 3..11 once each
        assert late.samples == [f.samples for f in frames[2:]]
        assert early.join().frames_received == 12
        assert early.samples == [f.samples for f in frames]
        assert report.snapshot_calls == 1
        assert report.clients_total == 2
        assert report.clients_dropped == 0

    def test_finish_delivers_end_to_a_join_in_flight(self, monkeypatch):
        failures = []
        monkeypatch.setattr(threading, "excepthook", failures.append)
        frames = synth_frames(6, seed=23)
        server = net.StreamServer(make_source(frames)).start()
        gate = None
        try:
            assert completes(send_frames(server, 3))  # frames 0..2
            gate = CompressionGate(monkeypatch)
            late = Receiver(server.address)
            assert gate.entered.wait(5.0)
            finisher = threading.Thread(target=server.finish, daemon=True)
            finisher.start()
            gate.open()
            finisher.join(5.0)
            assert not finisher.is_alive()
        finally:
            if gate is not None:
                gate.open()
            server.close()
        late_report = late.join()
        assert late_report.first_frame_no == 2
        assert late.samples == [frames[2].samples]
        assert server.report.clients_dropped == 0
        assert failures == []

    def test_joiner_whose_keyframe_fails_is_dropped(self, monkeypatch, caplog):
        # as when the part workers cannot start a thread; held behind a keyframe
        # that never comes, a joiner took every later blob and stalled finish().
        # The second joiner attaches to the same failing compression.
        failures = []
        monkeypatch.setattr(threading, "excepthook", failures.append)

        def failing(*args):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(net, "samples_to_message", failing)
        gate = CompressionGate(monkeypatch)
        frames = synth_frames(50, seed=59)
        server = net.StreamServer(make_source(frames)).start()
        joiners = []
        try:
            steady = Receiver(server.address)
            assert server.wait_for_clients(1)
            assert completes(send_frames(server, 5))  # frames 0..4
            with caplog.at_level("DEBUG", logger="sfix.net"):
                joiners.append(socket.create_connection(server.address, timeout=10.0))
                assert gate.entered.wait(5.0)
                assert completes(send_frames(server, 2))  # frames 5..6, held for both
                joiners.append(socket.create_connection(server.address, timeout=10.0))
                assert server.wait_for_clients(3)
                gate.open()
                assert eventually(lambda: server.report.clients_dropped == 2)
            while server.send_next_frame():
                pass
            started = time.monotonic()
            report = server.finish()
            finish_seconds = time.monotonic() - started
            streams = [j.makefile("rb").read() for j in joiners]
        finally:
            gate.open()
            for joiner in joiners:
                joiner.close()
            server.close()
        assert steady.join().frames_received == 50
        assert steady.samples == [f.samples for f in frames]
        hello = wc.frame_message(wc.Hello(frames[0].geometry, 25, 1))
        assert all(streamed in (b"", hello) for streamed in streams)
        assert finish_seconds < 2.0
        assert (report.clients_total, report.clients_dropped, report.snapshot_calls) == (3, 2, 0)
        # the reason is logged once, for the compression, with its traceback at debug
        assert ("keyframe of frame 4 for 2 joiners: keyframe failed: RuntimeError: can't start"
                " new thread") in caplog.text
        [reason] = [r for r in caplog.records if "can't start new thread" in r.getMessage()]
        [traced] = [r for r in caplog.records if r.exc_info]
        assert (reason.levelname, traced.levelname) == ("INFO", "DEBUG")
        assert failures == []

    def test_joiners_leave_no_thread_once_their_keyframes_are_queued(self, monkeypatch):
        frames = synth_frames(8, seed=53)
        server = net.StreamServer(make_source(frames)).start()
        joiners, gate = [], CompressionGate(monkeypatch)
        try:
            assert completes(send_frames(server, 3))  # frames 0..2
            before = set(threading.enumerate())
            joiners = [socket.create_connection(server.address, timeout=10.0) for _ in range(8)]
            assert server.wait_for_clients(8)
            gate.open()
            for joiner in joiners:
                with joiner.makefile("rb") as stream:
                    assert isinstance(wc.parse_message(stream), wc.Hello)
                    assert wc.parse_message(stream).frame_no == 2  # the REF_FRAME
            # no thread per client: each keyframe's thread has ended
            assert eventually(lambda: set(threading.enumerate()) <= before)
            assert threading.active_count() <= len(before)
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            gate.open()
            for joiner in joiners:
                joiner.close()
            server.close()
        assert report.snapshot_calls == 1
        assert report.clients_dropped == 0

    def test_join_during_an_unpaced_burst(self):
        frames = synth_frames(120, seed=29)
        server = net.StreamServer(make_source(frames)).start()
        try:
            early = Receiver(server.address)
            assert server.wait_for_clients(1)
            for frame_no in range(120):
                assert server.send_next_frame()
                if frame_no == 30:  # the burst resumes as soon as the joiner is listed
                    late = Receiver(server.address)
                    assert server.wait_for_clients(2)
            assert not server.send_next_frame()
            report = server.finish()
        finally:
            server.close()
        late_report = late.join()
        assert early.join().frames_received == 120
        assert early.samples == [f.samples for f in frames]
        assert late_report.first_frame_no == 30
        assert late.samples == [f.samples for f in frames[30:]]
        assert report.clients_dropped == 0

    def test_joins_racing_an_unpaced_burst_each_get_a_gap_free_stream(self):
        # joiners are admitted while the broadcast runs, with the interpreter
        # switching threads ~500 times more often than by default: a token
        # published off its frame boundary would skip or repeat a frame
        frames = synth_frames(150, seed=47)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server = net.StreamServer(make_source(frames)).start()
        try:
            joiners = []
            for frame_no in range(150):
                assert server.send_next_frame()
                if frame_no % 20 == 5:
                    joiners.append(Receiver(server.address))
            assert server.wait_for_clients(len(joiners))
            report = server.finish()
        finally:
            server.close()
            sys.setswitchinterval(interval)
        for joiner in joiners:
            first = joiner.join().first_frame_no
            assert joiner.samples == [f.samples for f in frames[first:]]
        assert report.clients_total == len(joiners) == 8
        assert report.clients_dropped == 0


class TestDeparture:
    """A client leaves the fan-out list once, whichever way it goes."""

    def test_departed_peer_leaves_at_its_writers_first_failed_send(self):
        frames = synth_frames(40, seed=31)
        server = net.StreamServer(make_source(frames)).start()
        departing = socket.create_connection(server.address, timeout=10.0)
        try:
            healthy = Receiver(server.address)
            assert server.wait_for_clients(2)
            assert server.send_next_frame()  # frame 0, the REF_FRAME
            with departing.makefile("rb") as stream:
                assert isinstance(wc.parse_message(stream), wc.Hello)
                assert isinstance(wc.parse_message(stream), wc.RefFrame)
            departing.close()
            assert completes(send_frames(server, 3))  # frames 1..3
            assert eventually(lambda: server.client_count == 1)
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            departing.close()
            server.close()
        assert healthy.join().frames_received == 40
        assert healthy.samples == [f.samples for f in frames]
        assert report.clients_total == 2
        assert report.clients_dropped == 1

    def test_cut_client_is_counted_once(self, monkeypatch):
        monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
        reasons = []
        drop = net.FanOut.drop

        def recording_drop(fan, client, reason):
            reasons.append(reason)
            drop(fan, client, reason)

        monkeypatch.setattr(net.FanOut, "drop", recording_drop)
        # 48 KiB of noise per frame fills the socket of a client that never reads
        frames = noise_frames(120, FrameGeometry(128, 128, 3))
        server = net.StreamServer(make_source(frames)).start()
        stalled = socket.create_connection(server.address)
        try:
            assert server.wait_for_clients(1)
            while server.client_count and server.send_next_frame():
                pass
            assert server.client_count == 0
            report = server.finish()
        finally:
            stalled.close()
            server.close()  # the loop has closed the cut client's socket once this returns
        assert reasons == ["slow consumer"]
        assert report.clients_dropped == 1


class TestBackPressure:
    def test_stalled_client_dropped_and_stream_continues(self, monkeypatch):
        # 48 KiB of noise per frame swamps the socket buffers of a client
        # that never reads; its bounded queue then overflows and it is cut.
        monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
        geometry = FrameGeometry(128, 128, 3)
        frames = noise_frames(120, geometry)
        server = net.StreamServer(make_source(frames)).start()
        try:
            healthy = Receiver(server.address)
            stalled = socket.create_connection(server.address)
            assert server.wait_for_clients(2)
            while server.send_next_frame():
                pass
            report = server.finish()
            assert healthy.join().frames_received == 120
            assert healthy.samples == [f.samples for f in frames]
            assert report.frames_encoded == 120
            assert report.clients_total == 2
            assert report.clients_dropped == 1
            assert server.client_count == 1
        finally:
            stalled.close()
            server.close()

    def test_trickle_reader_is_cut_at_the_cap(self, monkeypatch):
        # 64 KiB of noise every 10 ms to a peer with a 2 KiB receive buffer
        # that reads 512 B every 0.5 ms: its bytes keep moving, and without
        # the cap it stayed listed to the end, holding 93-95 blobs
        queued = []
        drop = net.FanOut.drop

        def recording_drop(fan, client, reason):
            queued.append((client.peer, reason, len(client.outbox)))
            drop(fan, client, reason)

        monkeypatch.setattr(net.FanOut, "drop", recording_drop)
        frames = noise_frames(150, FrameGeometry(256, 256))
        server = net.StreamServer(make_source(frames)).start()
        trickle = socket.socket()
        trickle.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
        done = threading.Event()

        def sip():
            with contextlib.suppress(OSError):
                while not done.is_set() and trickle.recv(512):
                    time.sleep(0.0005)

        sipper = threading.Thread(target=sip, daemon=True)
        try:
            trickle.connect(server.address)
            sipper.start()
            healthy = Receiver(server.address)
            assert server.wait_for_clients(2)
            while server.send_next_frame():
                time.sleep(0.01)
            report = server.finish()
            assert healthy.join().frames_received == 150
            assert healthy.samples == [f.samples for f in frames]
            [(peer, reason, blobs)] = queued
            assert peer == "%s:%d" % trickle.getsockname() and reason.startswith("slow consumer")
        finally:
            done.set()
            sipper.join(5.0)
            trickle.close()
            server.close()
        assert report.clients_dropped == 1
        assert blobs <= net.OUTBOX_CAP + 1  # cut by the broadcast that took it past the cap

    def test_connection_past_the_cap_is_refused_before_hello(self, monkeypatch):
        monkeypatch.setattr(net, "MAX_CLIENTS", 1)
        frames = synth_frames(10, seed=61)
        server = net.StreamServer(make_source(frames)).start()
        try:
            listed = Receiver(server.address)
            assert server.wait_for_clients(1)
            with socket.create_connection(server.address, timeout=10.0) as refused:
                with refused.makefile("rb") as stream:
                    assert stream.read() == b""  # closed at once, before HELLO
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            server.close()
        assert listed.join().frames_received == 10
        assert listed.samples == [f.samples for f in frames]
        assert (report.clients_total, report.clients_refused, report.clients_dropped) == (1, 1, 0)

    def test_healthy_writer_delayed_once_is_not_cut(self, monkeypatch):
        # the loop loses 20 ms once in a send, as it may waiting for the
        # interpreter lock, while an unpaced burst fills the client's queue
        calls = itertools.count(1)
        send = socket.socket.send

        def delayed(sock, data, *args):
            # the broadcast's wake-ups run on the main thread; the loop's sends do not
            if threading.current_thread() is not threading.main_thread() and next(calls) == 5:
                time.sleep(0.02)
            return send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", delayed)
        frames = synth_frames(120, seed=37)
        server = net.StreamServer(make_source(frames)).start()
        try:
            healthy = Receiver(server.address)
            assert server.wait_for_clients(1)
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            server.close()
        assert healthy.join().frames_received == 120
        assert healthy.samples == [f.samples for f in frames]
        assert report.clients_dropped == 0

    def test_wait_for_the_loop_holds_no_lock(self, monkeypatch):
        monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
        # 48 KiB of noise per frame fills the socket of a client that never reads
        frames = noise_frames(120, FrameGeometry(128, 128, 3))
        server = net.StreamServer(make_source(frames)).start()
        held, release = threading.Event(), threading.Event()
        send = socket.socket.send

        def held_send(sock, data, *args):
            # hold the loop in a send to a client past the bound: a broadcast
            # has found that client full and waits for the loop's next pass
            if threading.current_thread().name.endswith("(_serve_loop)") and any(
                    len(c.outbox) > net.OUTBOX_SIZE for c in server._fan.clients):
                held.set()
                release.wait(10.0)
            return send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", held_send)
        stalled = socket.create_connection(server.address)
        try:
            assert server.wait_for_clients(1)

            def broadcast_until_cut():
                while server.client_count and server.send_next_frame():
                    pass

            broadcast = threading.Thread(target=broadcast_until_cut, daemon=True)
            broadcast.start()
            assert held.wait(10.0)
            assert completes(lambda: server.client_count, timeout=1.0)
            assert server.client_count == 1  # not judged before the loop's pass
            assert broadcast.is_alive()
            release.set()
            broadcast.join(10.0)
            assert not broadcast.is_alive()
            assert server.client_count == 0
            assert server.report.clients_dropped == 1
        finally:
            release.set()
            stalled.close()
            server.close()


def threads_running(target, started_before):
    """Threads alive now, not in started_before, whose target is `target`."""
    return [
        t for t in threading.enumerate()
        if t not in started_before and t.name.endswith(f"({target.__name__})")
    ]


class TestThreadsEnd:
    """Every server thread ends once the server is closed."""

    def test_acceptor_ends_after_finish_and_close(self):
        # the loop is the acceptor; a joiner's keyframe thread ends too
        frames = synth_frames(5, seed=41)
        started_before = set(threading.enumerate())
        server = net.StreamServer(make_source(frames)).start()
        try:
            client = Receiver(server.address)
            assert server.wait_for_clients(1)
            assert server.send_next_frame()
            late = Receiver(server.address)
            assert server.wait_for_clients(2)
            while server.send_next_frame():
                pass
            server.finish()
        finally:
            server.close()
        assert client.join().frames_received == 5
        assert late.join().first_frame_no == 0
        assert server.report.snapshot_calls == 1
        assert not threads_running(net.StreamServer._serve_loop, started_before)
        assert eventually(
            lambda: not threads_running(net.StreamServer._keyframe, started_before), timeout=1.0
        )

    def test_close_after_a_source_error_ends_every_writer(self):
        frames = synth_frames(8, seed=43)

        def failing():
            yield from frames[:4]
            raise SourceError("frame 4 unreadable")

        started_before = set(threading.enumerate())
        source = VideoSource(frames[0].geometry, Fraction(1000, 1), failing())
        server = net.StreamServer(source).start()
        peer = socket.create_connection(server.address, timeout=10.0)
        try:
            assert server.wait_for_clients(1)
            with pytest.raises(SourceError):
                server.stream()
        finally:
            server.close()
            peer.close()
        assert not threads_running(net.StreamServer._serve_loop, started_before)


def scripted_server(blobs):
    """One-shot server that plays back canned bytes, then closes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        try:
            for blob in blobs:
                conn.sendall(blob)
            time.sleep(0.2)  # let the client fail on content, not on EOF
        except OSError:
            pass
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()


GEOM = FrameGeometry(4, 2, 1)
HELLO = wc.frame_message(wc.Hello(GEOM, 25, 1))
REF0 = wc.frame_message(wc.samples_to_message(0, bytes(8)))


def delta_blob(frame_no, ref_samples=bytes(8), new_samples=b"\x01" * 8):
    delta = encode_delta(Frame(GEOM, ref_samples), Frame(GEOM, new_samples))
    return wc.frame_message(wc.delta_to_message(frame_no, delta))


class TestProtocolPolicing:
    def test_first_message_must_be_hello(self):
        address = scripted_server([REF0])
        with pytest.raises(net.ProtocolViolation, match="HELLO"):
            net.receive(address, timeout=5.0)

    def test_delta_before_reference_rejected(self):
        address = scripted_server([HELLO, delta_blob(1)])
        with pytest.raises(net.ProtocolViolation, match="REF_FRAME"):
            net.receive(address, timeout=5.0)

    def test_repeated_hello_rejected(self):
        address = scripted_server([HELLO, HELLO])
        with pytest.raises(net.ProtocolViolation, match="repeated"):
            net.receive(address, timeout=5.0)

    def test_repeated_reference_rejected(self):
        address = scripted_server([HELLO, REF0, REF0])
        with pytest.raises(net.ProtocolViolation, match="repeated"):
            net.receive(address, timeout=5.0)

    def test_frame_number_gap_rejected(self):
        address = scripted_server([HELLO, REF0, delta_blob(2)])
        with pytest.raises(net.ProtocolViolation, match="gap"):
            net.receive(address, timeout=5.0)

    def test_corrupt_delta_payload_is_decode_failure(self):
        bad = wc.frame_message(wc.Delta(1, 10, b"garbage!", 4, b"junk"))
        address = scripted_server([HELLO, REF0, bad])
        with pytest.raises(net.DecodeFailure):
            net.receive(address, timeout=5.0)

    @pytest.mark.parametrize("blob,cause", [
        # 16 samples inflate cleanly, but the HELLO geometry holds 8
        (wc.frame_message(wc.samples_to_message(0, bytes(16))), wc.LengthMismatch),
        (wc.frame_message(wc.Delta(1, 7, wc.compress(bytes(7)), 0, b"")), wc.BadLength),
        (wc.frame_message(wc.Delta(1, 45, wc.compress(bytes(45)), 0, b"")), wc.LengthMismatch),
        (wc.frame_message(wc.Delta(1, 5, b"", 9, wc.compress(bytes(9)))), wc.LengthMismatch),
    ])
    def test_lengths_past_the_geometry_are_decode_failures(self, blob, cause):
        blobs = [HELLO, blob] if blob[0] == 0x02 else [HELLO, REF0, blob]
        address = scripted_server(blobs)
        with pytest.raises(net.DecodeFailure) as failure:
            net.receive(address, timeout=5.0)
        assert isinstance(failure.value.__cause__, cause)

    @pytest.mark.parametrize("opening", [[], [HELLO]], ids=["first", "after-hello"])
    def test_hostile_payload_length_allocates_nothing(self, opening):
        # a DELTA on a 4x2 session, or any message before HELLO, is far smaller
        declared = 32 << 20
        header = struct.pack("<BI", wc.MSG_DELTA if opening else wc.MSG_HELLO, declared)
        address = scripted_server(opening + [header + bytes(16)])
        tracemalloc.start()
        try:
            with pytest.raises(wc.PayloadTooLarge):
                net.receive(address, timeout=5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < declared // 8

    def test_reference_geometry_mismatch_is_decode_failure(self):
        short_ref = wc.frame_message(wc.samples_to_message(0, bytes(4)))
        address = scripted_server([HELLO, short_ref])
        with pytest.raises(net.DecodeFailure):
            net.receive(address, timeout=5.0)


class TestConnectionErrors:
    def test_rate_past_the_hello_fields_rejected(self):
        with pytest.raises(ValueError, match="u16"):
            net.StreamServer(make_source(synth_frames(1)), fps=Fraction(70000))

    def test_bind_failure(self):
        taken = socket.create_server(("127.0.0.1", 0))
        try:
            server = net.StreamServer(
                make_source(synth_frames(1)), address=taken.getsockname()
            )
            with pytest.raises(net.BindFailure):
                server.start()
        finally:
            taken.close()

    def test_connect_failure(self):
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        with pytest.raises(net.ConnectFailure):
            net.receive(address, timeout=2.0)

    def test_reset_after_hello_is_receive_failure(self):
        with pytest.raises(net.ReceiveFailure) as failure:
            net.receive(hello_then(reset), timeout=5.0)
        assert isinstance(failure.value.__cause__, ConnectionResetError)

    def test_stall_past_the_timeout_is_receive_failure(self):
        release = threading.Event()
        try:
            with pytest.raises(net.ReceiveFailure) as failure:
                net.receive(hello_then(lambda conn: release.wait(10.0)), timeout=0.5)
        finally:
            release.set()
        assert isinstance(failure.value.__cause__, TimeoutError)

    def test_what_the_sink_raises_is_not_wrapped(self):
        def sink(frame):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full") as failure:
            net.receive(scripted_server([HELLO, REF0]), sink=sink, timeout=5.0)
        assert not isinstance(failure.value, net.NetError)
