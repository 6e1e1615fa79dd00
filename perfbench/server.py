"""Server child process of the live runs: one StreamServer, paced open-loop.

live.py starts it as
    python3 perfbench/server.py --workload NAME --seed N --frames N --trace 0|1
and talks to it one line at a time:
    child  -> READY <port> <setup_ns>   set-up done, listening; set-up time at
                                        the reference speed (calibrate.py)
    parent -> GO | QUIT
    child  -> T0 <ns>         CLOCK_MONOTONIC time at which frame 0 is due
    child  -> RESULT <json>   schedule, send times, kernel times, ServeReport
                              and spans
The loop calls send_next_frame() when each frame is due, however late the
previous one ran, so a stall shows as latency of the frames behind it.  In
the idle time before a frame is due it times the calibration kernel.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from checkout import use_sources

LEAD_NS = 100_000_000  # gap between T0 being sent and frame 0, for the parent to read it
# The kernel runs this long before a frame is due: after the last frame has
# usually reached the receiver, and ending before a probe connects.
CALIBRATE_LEAD_NS = 25_000_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_sources()
    from sfix import ingest, net
    from calibrate import Speed, pin_allocator
    from spans import NullTracer, Tracer, now_ns, patched
    from workloads import LIVE_FPS, WORKLOADS, LazyY4M, clip_params

    pin_allocator()
    tracer = Tracer() if args.trace else NullTracer()
    setup_speed = Speed()
    setup_speed.sample(2)
    started = now_ns()
    stream = LazyY4M(clip_params(WORKLOADS[args.workload], args.seed, args.frames))
    source = ingest.read_y4m(stream)
    stream.prefetch()
    if tracer.enabled:
        source = ingest.VideoSource(source.geometry, source.fps, tracer.traced_frames(source))
    server = net.StreamServer(source, fps=LIVE_FPS).start()
    setup_ns = now_ns() - started
    setup_speed.sample(2)
    try:
        print(f"READY {server.address[1]} {setup_ns * setup_speed.scale():.0f}", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        if not server.wait_for_clients(1, timeout=10.0):
            raise SystemExit("perfbench server: steady receiver never connected")
        period = round(1e9 / LIVE_FPS)
        t0 = now_ns() + LEAD_NS
        print(f"T0 {t0}", flush=True)
        due, start, end = [], [], []
        speed = Speed()
        with patched(tracer):
            for k in range(args.frames):
                wait = t0 + k * period - CALIBRATE_LEAD_NS - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                    speed.sample()
                wait = t0 + k * period - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                tracer.frame = k
                due.append(t0 + k * period)
                start.append(now_ns())
                with tracer.span("net.send_next_frame"):
                    sent = server.send_next_frame()
                end.append(now_ns())
                if not sent:
                    raise SystemExit(f"perfbench server: source ended at frame {k}")
                stream.prefetch()
            report = server.finish()
        result = {
            "due": due,
            "start": start,
            "end": end,
            "kernel_ns": speed.samples,
            "frames_encoded": report.frames_encoded,
            "clients_total": report.clients_total,
            "clients_dropped": report.clients_dropped,
            "spans": getattr(tracer, "spans", []),
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        server.close()


if __name__ == "__main__":
    sys.exit(main())
