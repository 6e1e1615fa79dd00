"""Parent side of a live run: steady receiver, join probes, and verification.

The server runs in a child process (server.py).  This process holds one
steady net.receive client for the whole run and, from the main thread, one
join probe at a time, so at most 2 connections are open at once.  For every
`probe_every`-th frame f, a probe connects 5 ms before frame f+1 is due and
stops at its first frame by raising from its sink; that frame must be the
source frame f, or one next to it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from sfix import bench, ingest, net
from sfix.core import CodecError
from sfix.wirecodec import WireFormatError

from calibrate import REF_NS
from spans import NullTracer, Tracer, now_ns, patched
from workloads import LIVE_FPS, Workload, clip_params

SERVER = Path(__file__).with_name("server.py")
PERIOD_NS = round(1e9 / LIVE_FPS)
# A probe connects just before the next frame is due, so its admit holds the
# broadcast lock while that frame is encoded: every join stalls the frame
# behind it, however long the keyframe compression takes.
PROBE_PHASE_NS = PERIOD_NS - 5_000_000
PROBE_TAIL = 3  # no probe in the last frames, so none meets finish()


def digest(samples: bytes) -> bytes:
    return hashlib.sha256(samples).digest()


class _FirstFrame(Exception):
    """Raised by a probe's sink: the probe has its frame and disconnects."""

    def __init__(self, at_ns: int, frame_digest: bytes):
        super().__init__()
        self.at_ns = at_ns
        self.digest = frame_digest


@dataclass
class LiveRun:
    frames: int
    setup_ns: list[int] = field(default_factory=list)  # the child's, at the reference speed
    server: dict = field(default_factory=dict)  # the child's RESULT
    sink_ns: list[int] = field(default_factory=list)  # steady receiver, per frame
    digests: list[bytes] = field(default_factory=list)
    join_ns: list[int] = field(default_factory=list)
    probes: int = 0
    probe_failures: int = 0
    probe_digests: list[tuple[int, bytes]] = field(default_factory=list)  # (f, first frame)
    steady_error: str = ""
    max_open: int = 0
    rows: list = field(default_factory=list)  # steady receiver's metrics CSV
    failed: int = 0  # frames missing or wrong, plus probes that failed

    def scale(self) -> float:
        """REF_NS / the median kernel time the server child measured while it paced."""
        kernel = self.server.get("kernel_ns")
        return REF_NS / median(kernel) if kernel else 1.0


def _spawn(w: Workload, seed: int, frames: int, traced: bool) -> tuple[subprocess.Popen, int, int]:
    proc = subprocess.Popen(
        [sys.executable, str(SERVER), "--workload", w.name, "--seed", str(seed),
         "--frames", str(frames), "--trace", "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().split()
    if not line or line[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server child failed to start: {line}")
    return proc, int(line[1]), int(line[2])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_live(w: Workload, seed: int, frames: int, probe_every: int, work_dir: Path,
             tracer: Tracer | NullTracer = NullTracer(), setup_repeats: int = 1) -> LiveRun:
    run = LiveRun(frames)
    for _ in range(setup_repeats - 1):
        proc, _, setup_ns = _spawn(w, seed, frames, tracer.enabled)
        run.setup_ns.append(setup_ns)
        proc.communicate("QUIT\n", timeout=30)
    proc, port, setup_ns = _spawn(w, seed, frames, tracer.enabled)
    run.setup_ns.append(setup_ns)
    address = ("127.0.0.1", port)
    csv_path = work_dir / f"recv-{w.name}-{seed}.csv"
    open_lock = threading.Lock()
    open_now = 0

    def opened(delta: int) -> None:
        nonlocal open_now
        with open_lock:
            open_now += delta
            run.max_open = max(run.max_open, open_now)

    def steady_sink(frame) -> None:
        run.sink_ns.append(now_ns())
        with tracer.span("harness.verify"):
            run.digests.append(digest(frame.samples))

    def steady() -> None:
        opened(1)
        try:
            with tracer.span("net.receive", role="steady"):
                net.receive(address, sink=steady_sink, metrics_path=str(csv_path))
        except Exception as exc:  # reported as missing frames below
            run.steady_error = f"{type(exc).__name__}: {exc}"
        finally:
            opened(-1)

    def probe_sink(frame) -> None:
        raise _FirstFrame(now_ns(), digest(frame.samples))

    def probe(f: int) -> None:
        run.probes += 1
        opened(1)
        started = now_ns()
        try:
            with tracer.span("net.receive", role="probe"):
                net.receive(address, sink=probe_sink, timeout=10.0)
            run.probe_failures += 1  # END before any frame
        except _FirstFrame as first:
            run.join_ns.append(first.at_ns - started)
            run.probe_digests.append((f, first.digest))
        except (net.NetError, WireFormatError, CodecError, OSError):
            run.probe_failures += 1
        finally:
            opened(-1)

    try:
        with patched(tracer):
            receiver = threading.Thread(target=steady, name="steady", daemon=True)
            receiver.start()
            proc.stdin.write("GO\n")
            proc.stdin.flush()
            line = proc.stdout.readline().split()
            if not line or line[0] != "T0":
                raise RuntimeError(f"server child did not start streaming: {line}")
            t0 = int(line[1])
            for f in range(probe_every, frames - PROBE_TAIL, probe_every):
                wait = t0 + f * PERIOD_NS + PROBE_PHASE_NS - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                probe(f)
            line = proc.stdout.readline()
            receiver.join(timeout=60.0)
        if not line.startswith("RESULT ") or receiver.is_alive():
            raise RuntimeError("server child ended without a result")
        run.server = json.loads(line[len("RESULT "):])
        proc.wait(timeout=30)
    finally:
        _stop(proc)

    if csv_path.exists():
        run.rows = bench.read_metrics_csv(str(csv_path))
        csv_path.unlink()
    for s in run.server["spans"]:
        s["proc"] = "server"
    _verify(run, w, seed)
    return run


def _verify(run: LiveRun, w: Workload, seed: int) -> None:
    """Check the steady frames and probe frames against the regenerated source."""
    source = [digest(f.samples) for f in ingest.gen_low_motion(clip_params(w, seed, run.frames))]
    got = run.digests
    run.failed = sum(1 for i, d in enumerate(source) if i >= len(got) or got[i] != d)
    run.failed += len(got) > len(source)
    # A probe connects between frames f and f+1 being due, so its keyframe is
    # frame f, or f-1 or f+1 if the server ran late or early.
    run.failed += run.probe_failures + sum(
        1 for f, d in run.probe_digests if d not in source[max(f - 1, 0):f + 2]
    )
