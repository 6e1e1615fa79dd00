"""TCP streaming: fan-out, mid-join bootstrap, protocol policing, back-pressure.

Deterministic tests drive StreamServer.send_next_frame() manually so client
joins happen at exact frame boundaries; pacing is covered separately.
"""

import io
import socket
import struct
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sfix import encode, net
from sfix import wirecodec as wc
from sfix.bench import read_metrics_csv
from sfix.core import EncoderConfig, EncoderMode, Frame, FrameGeometry
from sfix.encode import encode_delta
from sfix.ingest import SynthParams, VideoSource, gen_low_motion


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

    @pytest.mark.parametrize("bad", ["nocolon", "host:", "host:port", "host:-1x"])
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
    """The joiner's keyframe is compressed by its own writer, with no lock held."""

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

    def test_joiners_get_the_reference_keyframe(self):
        frames = synth_frames(10, seed=17)
        server = net.StreamServer(make_source(frames)).start()
        joiners = []
        try:
            assert completes(send_frames(server, 4))  # frames 0..3
            joiners = [socket.create_connection(server.address, timeout=10.0) for _ in range(2)]
            assert server.wait_for_clients(2)
            while server.send_next_frame():
                pass
            report = server.finish()
            streams = [j.makefile("rb").read() for j in joiners]
        finally:
            for joiner in joiners:
                joiner.close()
            server.close()
        assert report.snapshot_calls == 2  # one compression per joiner
        assert report.clients_total == 2
        hello = wc.frame_message(wc.Hello(frames[0].geometry, 25, 1))
        keyframe = wc.frame_message(wc.samples_to_message(3, frames[3].samples))
        for data in streams:
            assert data.startswith(hello + keyframe)
            stream = io.BytesIO(data[len(hello) + len(keyframe):])
            numbers = [wc.parse_message(stream).frame_no for _ in range(6)]
            assert numbers == [4, 5, 6, 7, 8, 9]
            assert wc.parse_message(stream) == wc.End()

    def test_overflowing_outbox_drops_only_the_joiner(self, monkeypatch):
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
            # four deltas fill the joiner's 4-slot outbox while its keyframe
            # compresses; the fifth finds its writer busy past the grace
            assert completes(send_frames(server, 5))
            assert server.client_count == 1
            gate.open()
            while server.send_next_frame():
                pass
            report = server.finish()
        finally:
            if gate is not None:
                gate.open()
            server.close()
        with pytest.raises(wc.TruncatedMessage):  # HELLO, then the socket closed
            late.join()
        assert early.join().frames_received == 12
        assert early.samples == [f.samples for f in frames]
        assert report.clients_total == 2
        assert report.clients_dropped == 1

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

    def test_cut_client_whose_send_then_fails_is_counted_once(self, monkeypatch):
        monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
        reasons = []
        drop = net.StreamServer._drop

        def recording_drop(server, client, reason):
            reasons.append(reason)
            drop(server, client, reason)

        monkeypatch.setattr(net.StreamServer, "_drop", recording_drop)
        # 48 KiB of noise per frame fills the socket of a client that never reads
        frames = noise_frames(120, FrameGeometry(128, 128, 3))
        server = net.StreamServer(make_source(frames)).start()
        stalled = socket.create_connection(server.address)
        try:
            assert server.wait_for_clients(1)
            while server.client_count and server.send_next_frame():
                pass
            assert server.client_count == 0
            # closing its socket fails the writer's blocked send
            assert eventually(lambda: len(reasons) == 2)
            report = server.finish()
        finally:
            stalled.close()
            server.close()
        assert reasons[0] == "slow consumer"
        assert reasons[1].startswith("send failed")
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
