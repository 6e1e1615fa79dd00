"""Command-line behaviour: flags, exit codes, file handling, logging."""

import io
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import decode_container, hello_then, reset
from sfix import cli, net
from sfix.ingest import SynthParams, VideoSource, gen_low_motion, read_y4m, write_y4m
from sfix.session import SessionEncoder
from sfix.wirecodec import End, Hello, frame_message, read_container, write_container

DATA = Path(__file__).parent / "data"


def gen_video(tmp_path, name="in.y4m", seed=7, frames=8):
    path = tmp_path / name
    rc = cli.main(
        ["gen", "--output", str(path), "--seed", str(seed), "--frames", str(frames)]
    )
    assert rc == 0
    return path


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transcode"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", "--output", "x.sfix"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["1", "0", "-2", "three"])
    def test_min_run_below_two_is_usage_error(self, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["encode", "--input", "in.y4m", "--output", "out.sfix",
                 "--min-run", value]
            )
        assert exc.value.code == 2

    def test_bad_fps_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", "--input", "a", "--output", "b", "--fps", "0"])
        assert exc.value.code == 2

    def test_bench_has_no_fps_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--input", "a", "--report", "r.csv", "--fps", "25"])
        assert exc.value.code == 2

    def test_raw_without_geometry_is_usage_error(self, tmp_path):
        raw = tmp_path / "frames.raw"
        raw.write_bytes(bytes(64))
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["encode", "--raw", "--input", str(raw), "--output", "out.sfix"]
            )
        assert exc.value.code == 2


class TestHelp:
    def run_help(self, capsys, *words):
        with pytest.raises(SystemExit) as exc:
            cli.main([*words, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_top_level_lists_commands(self, capsys):
        out = self.run_help(capsys)
        for command in ("encode", "decode", "serve", "recv", "bench", "gen"):
            assert command in out

    def test_encode_flags(self, capsys):
        out = self.run_help(capsys, "encode")
        for flag in ("--input", "--output", "--mode", "--min-run", "--fps",
                     "--raw", "--width", "--height"):
            assert flag in out

    def test_bench_flags(self, capsys):
        out = self.run_help(capsys, "bench")
        for flag in ("--compare", "--report", "--summary", "--min-run"):
            assert flag in out

    def test_gen_flags(self, capsys):
        out = self.run_help(capsys, "gen")
        for flag in ("--seed", "--frames", "--width", "--height", "--fill"):
            assert flag in out

    def test_recv_flags(self, capsys):
        out = self.run_help(capsys, "recv")
        for flag in ("--connect", "--output", "--metrics"):
            assert flag in out


class TestEncodeDecode:
    def test_round_trip_is_lossless(self, tmp_path, rebuilds):
        video = gen_video(tmp_path)
        container = tmp_path / "v.sfix"
        restored = tmp_path / "restored.y4m"
        assert cli.main(["encode", "--input", str(video), "--output", str(container)]) == 0
        assert cli.main(["decode", "--input", str(container), "--output", str(restored)]) == 0
        assert restored.read_bytes() == video.read_bytes()
        # each frame is written and let go, so every DELTA after the first is rebuilt in place
        assert rebuilds == [False] + [True] * 6

    def test_container_is_deterministic(self, tmp_path):
        video = gen_video(tmp_path)
        one, two = tmp_path / "one.sfix", tmp_path / "two.sfix"
        cli.main(["encode", "--input", str(video), "--output", str(one)])
        cli.main(["encode", "--input", str(video), "--output", str(two)])
        assert one.read_bytes() == two.read_bytes()

    def test_standard_mode_sets_baseline_flag(self, tmp_path):
        video = gen_video(tmp_path)
        container = tmp_path / "v.sfix"
        cli.main(["encode", "--input", str(video), "--output", str(container),
                  "--mode", "standard"])
        with open(container, "rb") as fh:
            hello = next(read_container(fh))
        assert hello.baseline is True

    def test_raw_input_round_trip(self, tmp_path, rebuilds):
        frames = list(
            gen_low_motion(
                SynthParams(seed=3, n_frames=5, width=16, height=8,
                            block_count=1, block_size=2)
            )
        )
        raw_in = tmp_path / "in.raw"
        raw_in.write_bytes(b"".join(f.samples for f in frames))
        container = tmp_path / "v.sfix"
        raw_out = tmp_path / "out.raw"
        assert cli.main(
            ["encode", "--raw", "--input", str(raw_in), "--output", str(container),
             "--width", "16", "--height", "8"]
        ) == 0
        assert cli.main(
            ["decode", "--input", str(container), "--output", str(raw_out), "--raw"]
        ) == 0
        assert raw_out.read_bytes() == raw_in.read_bytes()
        assert rebuilds == [False] + [True] * 3

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(
            ["encode", "--input", str(tmp_path / "absent.y4m"),
             "--output", str(tmp_path / "x.sfix")]
        )
        assert rc == 1
        assert "sfix: error:" in capsys.readouterr().err

    def test_not_a_container_is_runtime_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.sfix"
        bogus.write_bytes(b"not a container at all")
        rc = cli.main(["decode", "--input", str(bogus), "--output", str(tmp_path / "o.y4m")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_future_container_version_named_in_error(self, tmp_path, capsys):
        future = tmp_path / "future.sfix"
        future.write_bytes(b"SFIX\x02" + b"\x04\x00\x00\x00\x00")
        rc = cli.main(["decode", "--input", str(future), "--output", str(tmp_path / "o.y4m")])
        assert rc == 1
        assert "version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ["100000", "59.94006"])
    def test_rate_past_the_hello_fields_is_runtime_error(self, tmp_path, capsys, fps):
        video = gen_video(tmp_path, frames=2)
        out = tmp_path / "v.sfix"
        rc = cli.main(["encode", "--input", str(video), "--output", str(out), "--fps", fps])
        assert rc == 1
        assert "sfix: error:" in capsys.readouterr().err
        assert list(tmp_path.glob("v.sfix*")) == []

    @pytest.mark.parametrize("rate", ["F70000:1", "F-25:1"])
    def test_y4m_rate_the_hello_cannot_carry_is_runtime_error(self, tmp_path, capsys, rate):
        video = tmp_path / "in.y4m"
        video.write_bytes(f"YUV4MPEG2 W4 H2 {rate} Cmono\nFRAME\n".encode() + bytes(8))
        out = tmp_path / "v.sfix"
        assert cli.main(["encode", "--input", str(video), "--output", str(out)]) == 1
        assert "sfix: error:" in capsys.readouterr().err
        assert list(tmp_path.glob("v.sfix*")) == []

    def test_three_channels_need_raw_output(self, tmp_path, capsys):
        out = tmp_path / "o.y4m"
        rc = cli.main(["decode", "--input", str(DATA / "standard_rgb.sfix"), "--output", str(out)])
        assert rc == 1
        assert "--raw" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("num,den", [(0, 1), (5, 0)])
    def test_a_zero_rate_term_decodes_as_25(self, tmp_path, num, den):
        frames = list(gen_low_motion(SynthParams(seed=9, n_frames=3, width=16, height=8,
                                                 block_count=1, block_size=2)))
        session = SessionEncoder(frames[0].geometry, Fraction(25, 1))
        container, video = tmp_path / "v.sfix", tmp_path / "v.y4m"
        with open(container, "wb") as fh:
            write_container(fh, [Hello(frames[0].geometry, num, den),
                                 *map(session.push, frames), End()])
        assert cli.main(["decode", "--input", str(container), "--output", str(video)]) == 0
        assert video.read_bytes().startswith(b"YUV4MPEG2 W16 H8 F25:1 Cmono\n")
        again = tmp_path / "again.sfix"
        assert cli.main(["encode", "--input", str(video), "--output", str(again)]) == 0
        with open(again, "rb") as fh:
            assert next(read_container(fh)).fps == Fraction(25, 1)
        assert decode_container(io.BytesIO(again.read_bytes())) == [f.samples for f in frames]

    def test_failed_decode_leaves_no_partial_output(self, tmp_path):
        from sfix.core import FrameGeometry

        clipped = tmp_path / "clipped.sfix"
        hello = frame_message(Hello(FrameGeometry(4, 4), 25, 1))
        clipped.write_bytes(b"SFIX\x01" + hello + b"\x02\x08\x00")  # torn message
        out = tmp_path / "out.y4m"
        assert cli.main(["decode", "--input", str(clipped), "--output", str(out)]) == 1
        assert not out.exists()
        assert list(tmp_path.glob("out.y4m*")) == []

    def test_decode_reports_frame_gap(self, tmp_path, capsys):
        from conftest import rows_to_frame
        from sfix.encode import encode_delta
        from sfix.wirecodec import delta_to_message, samples_to_message, write_container
        from sfix.wirecodec import End

        ref = rows_to_frame([[1, 2], [3, 4]])
        new = rows_to_frame([[1, 9], [3, 4]])
        delta = delta_to_message(5, encode_delta(ref, new))  # should be frame 1
        path = tmp_path / "gap.sfix"
        with open(path, "wb") as fh:
            write_container(fh, [
                Hello(ref.geometry, 25, 1),
                samples_to_message(0, ref.samples),
                delta,
                End(),
            ])
        rc = cli.main(["decode", "--input", str(path), "--output", str(tmp_path / "o.y4m")])
        assert rc == 1
        assert "gap" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,message", [
        ("ref_raw_len", "REF_FRAME declares 16 samples"),
        ("diff_raw_len", "diff raw length 9 exceeds 8"),
    ])
    def test_lengths_past_the_geometry_are_wire_errors(self, tmp_path, capsys, bad, message):
        from sfix import wirecodec as wc
        from sfix.core import FrameGeometry

        # Each payload inflates to exactly its declared length, so only the
        # 8-sample geometry HELLO announced rules the message out.
        ref = wc.samples_to_message(0, bytes(16 if bad == "ref_raw_len" else 8))
        diff = bytes(9 if bad == "diff_raw_len" else 0)
        index = b"\xfd\x08\x00\x00\x00"  # COPY_FROM_REF 8
        delta = wc.Delta(1, len(index), wc.compress(index), len(diff), wc.compress(diff))
        buf = io.BytesIO()
        wc.write_container(buf, [wc.Hello(FrameGeometry(4, 2), 25, 1), ref, delta, wc.End()])
        buf.seek(0)
        with pytest.raises(wc.WireFormatError, match=message):
            decode_container(buf)
        path = tmp_path / "bad.sfix"
        path.write_bytes(buf.getvalue())
        rc = cli.main(["decode", "--input", str(path), "--output", str(tmp_path / "o.y4m")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("opening", [False, True], ids=["first", "after-hello"])
    def test_hostile_payload_length_allocates_nothing(self, tmp_path, capsys, opening):
        from sfix import wirecodec as wc
        from sfix.core import FrameGeometry

        # a REF_FRAME on a 4x2 session, or any message before HELLO, is far smaller
        declared = 32 << 20
        path = tmp_path / "hostile.sfix"
        with open(path, "wb") as fh:
            wc.write_container(fh, [wc.Hello(FrameGeometry(4, 2), 25, 1)] if opening else [])
            msg_type = wc.MSG_REF_FRAME if opening else wc.MSG_HELLO
            fh.write(struct.pack("<BI", msg_type, declared) + bytes(16))
        tracemalloc.start()
        try:
            with open(path, "rb") as fh, pytest.raises(wc.PayloadTooLarge):
                decode_container(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < declared // 8
        rc = cli.main(["decode", "--input", str(path), "--output", str(tmp_path / "o.y4m")])
        assert rc == 1
        assert f"declares {declared} payload bytes" in capsys.readouterr().err


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a = gen_video(tmp_path, "a.y4m", seed=123)
        b = gen_video(tmp_path, "b.y4m", seed=123)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = gen_video(tmp_path, "a.y4m", seed=1)
        b = gen_video(tmp_path, "b.y4m", seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_header_carries_fps_and_size(self, tmp_path):
        path = tmp_path / "v.y4m"
        rc = cli.main(["gen", "--output", str(path), "--seed", "0", "--frames", "2",
                       "--width", "32", "--height", "16", "--fps", "30000:1001",
                       "--blocks", "1", "--block-size", "4"])
        assert rc == 0
        with open(path, "rb") as fh:
            src = read_y4m(fh)
            assert src.geometry.width == 32
            assert src.geometry.height == 16
            assert src.fps == Fraction(30000, 1001)
            assert len(list(src)) == 2

    def test_impossible_params_rejected(self, tmp_path, capsys):
        rc = cli.main(["gen", "--output", str(tmp_path / "v.y4m"), "--seed", "0",
                       "--frames", "2", "--width", "16", "--height", "16"])
        assert rc == 1
        assert "budget" in capsys.readouterr().err


class TestBenchCommand:
    def test_compare_writes_report_and_summary(self, tmp_path, capsys):
        video = gen_video(tmp_path, frames=6)
        report = tmp_path / "rows.csv"
        summary = tmp_path / "summary.csv"
        rc = cli.main(["bench", "--input", str(video), "--compare",
                       "--report", str(report), "--summary", str(summary)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement:" in out
        assert "spatio:" in out and "standard:" in out
        header = report.read_text().splitlines()[0]
        assert header == ("frame_no,mode,total_samples,diff_samples,diff_pct,"
                          "index_entries,wire_bytes,ratio_samples,ratio_wire,"
                          "encode_seconds,build_seconds")
        assert summary.exists()

    def test_single_mode_run(self, tmp_path, capsys):
        video = gen_video(tmp_path, frames=4)
        report = tmp_path / "rows.csv"
        rc = cli.main(["bench", "--input", str(video), "--mode", "standard",
                       "--report", str(report)])
        assert rc == 0
        assert "improvement:" not in capsys.readouterr().out


class TestServeCommand:
    def test_serve_port_outside_u16_is_runtime_error(self, tmp_path, capsys):
        video = gen_video(tmp_path, frames=2)
        rc = cli.main(["serve", "--input", str(video), "--listen", "127.0.0.1:70000"])
        assert rc == 1
        assert "sfix: error: port" in capsys.readouterr().err

    def test_serve_reports_refusals_and_keyframes(self, tmp_path, capsys):
        video = gen_video(tmp_path, frames=3)
        capsys.readouterr()
        rc = cli.main(["serve", "--input", str(video), "--listen", "127.0.0.1:0", "--fps", "1000"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "served frames=3 clients=0 dropped=0 refused=0 keyframes=0\n")


class TestRecvCommand:
    def test_recv_writes_matching_y4m(self, tmp_path, rebuilds):
        frames = list(gen_low_motion(SynthParams(seed=4, n_frames=6)))
        source = VideoSource(frames[0].geometry, Fraction(25, 1), iter(frames))
        server = net.StreamServer(source).start()
        host, port = server.address

        def pump():
            server.wait_for_clients(1, timeout=10.0)
            while server.send_next_frame():
                pass
            server.finish()

        pumper = threading.Thread(target=pump)
        pumper.start()
        out = tmp_path / "rx.y4m"
        metrics = tmp_path / "rx.csv"
        try:
            rc = cli.main(["recv", "--connect", f"{host}:{port}",
                           "--output", str(out), "--metrics", str(metrics)])
        finally:
            pumper.join(timeout=15.0)
            server.close()
        assert rc == 0
        want = io.BytesIO()
        write_y4m(want, frames[0].geometry, frames, Fraction(25, 1))
        assert out.read_bytes() == want.getvalue()
        assert metrics.read_text().count("\n") == 6  # header + 5 delta rows
        assert rebuilds == [False] + [True] * 4  # the sink writes each frame and lets it go

    def test_recv_of_three_channels_needs_raw_output(self, tmp_path, capsys):
        frames = list(gen_low_motion(SynthParams(seed=4, n_frames=3, channels=3)))
        server = net.StreamServer(VideoSource(frames[0].geometry, Fraction(25, 1), iter(frames)))
        host, port = server.start().address

        def pump():
            server.wait_for_clients(1, timeout=10.0)
            while server.send_next_frame():
                pass
            server.finish()

        pumper = threading.Thread(target=pump)
        pumper.start()
        out = tmp_path / "rx.y4m"
        try:
            rc = cli.main(["recv", "--connect", f"{host}:{port}", "--output", str(out)])
        finally:
            pumper.join(timeout=15.0)
            server.close()
        assert rc == 1
        assert "--raw" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_recv_connect_failure(self, tmp_path, capsys):
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        rc = cli.main(["recv", "--connect", f"{host}:{port}",
                       "--output", str(tmp_path / "rx.y4m")])
        assert rc == 1
        assert not (tmp_path / "rx.y4m").exists()

    def test_recv_reset_mid_stream_is_runtime_error(self, tmp_path, capsys):
        host, port = hello_then(reset)
        rc = cli.main(["recv", "--connect", f"{host}:{port}", "--output", str(tmp_path / "rx.y4m")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("sfix: error: connection failed")
        assert not (tmp_path / "rx.y4m").exists()


def run_cli_subprocess(args, **env_extra):
    env = {**os.environ, **env_extra}
    return subprocess.run(
        [sys.executable, "-m", "sfix.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestEntryPoint:
    def test_module_invocation_usage_error(self):
        proc = run_cli_subprocess([])
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    def test_log_env_debug_adds_traceback(self, tmp_path):
        args = ["encode", "--input", str(tmp_path / "none.y4m"),
                "--output", str(tmp_path / "o.sfix")]
        quiet = run_cli_subprocess(args)
        assert quiet.returncode == 1
        assert "Traceback" not in quiet.stderr
        chatty = run_cli_subprocess(args, SFIX_LOG="debug")
        assert chatty.returncode == 1
        assert "Traceback" in chatty.stderr
