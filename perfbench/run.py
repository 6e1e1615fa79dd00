"""sfix benchmark: seeded workloads through the codec's public functions.

    python3 perfbench/run.py --workload hd_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports sfix from <checkout>/src.
Workloads (see workloads.py): hd_heavy and hd_light encode a 16-frame
1920x1620 clip into an in-memory .sfix container and decode it again, over
and over; live_join streams an hd_light clip from a StreamServer child
process at 12.5 fps to one steady receiver while join probes connect.

--trace 0 prints every end-to-end metric, then one JSON line.  Every
decoded or received frame is checked against its source outside the timed
window, and any mismatch makes the exit status 1.
--trace 1 runs an untraced and a traced half (offline: cycle by cycle in
turn), prints the span table (sample counts, p50/p90, self time) and the
per-layer metrics, and writes the spans to perfbench/out/.

Every time is reported at the reference CPU speed of calibrate.py: the
measured time times REF_NS over the median time of a fixed kernel timed in
the same phase.  The "# speed" line gives the kernel's median.

End-to-end metrics, on every workload:
  setup_s          median of 5 set-ups: building the clip's Y4M bytes
                   (offline), or the server child's set-up from its
                   imports done to listening (live_join)
  encode_fps       offline: frames / s through read_y4m -> encode_delta ->
                   delta_to_message -> write_container, keyframe included,
                   median over cycles;
                   live_join: 1 / median send_next_frame time
  decode_fps       offline: frames / s through read_container ->
                   message_to_delta -> decode_delta -> write_y4m, median
                   over cycles;
                   live_join: 1 / median receive build time (its CSV)
  wire_ratio       offline: container bytes / raw bytes;
                   live_join: delta wire bytes / raw bytes (receiver CSV)
  diff_ratio       diff samples / samples, over delta frames
  frame_latency_ms_p50, _p90
                   live_join: from a frame's scheduled send time to the
                   steady receiver's sink call, CLOCK_MONOTONIC across the
                   two processes; offline: a frame's encode plus decode
                   time, over every frame of every cycle
  join_ms_p50      live_join: probe connect to its first frame;
                   offline: container opened to its first frame rebuilt
  peak_rss_mb      largest resident set of this process or a child
  delivered_frac   1 - failed_frac: frames delivered byte-identical (and
                   probes that got a correct first frame) / attempted
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import zlib
from statistics import median

from calibrate import REF_NS, Speed, pin_allocator
from checkout import WORK_DIR, use_sources
from spans import NullTracer, Tracer, durations_ms, now_ns, pct, summarize, with_self_time

SETUP_REPEATS = 5
LIVE_PROBE_EVERY = 5  # every join stalls the next frame: ~20% of frames, so p90 falls among them
MINI_FRAMES = 25  # live_join-style pass giving the offline traces their net numbers
LAYERS = ("ingest", "encode", "core", "decode", "wirecodec", "net", "harness")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_record(args: argparse.Namespace) -> dict:
    import numpy
    import sfix

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sfix": sfix.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def _over(num: float, den: float) -> float:
    """num / den, or 0 when a failed run left nothing to divide by."""
    return num / den if den else 0.0


# -- end-to-end ------------------------------------------------------------


def offline_e2e(run, setup_ns: float) -> dict[str, float]:
    clip_frames = run.frames / len(run.encode_ns)
    return {
        "setup_s": setup_ns / 1e9,
        "encode_fps": clip_frames / (median(run.encode_ns) / 1e9),
        "decode_fps": clip_frames / (median(run.decode_ns) / 1e9),
        "wire_ratio": run.container_bytes / run.raw_bytes,
        "diff_ratio": run.diff_bytes / (run.delta_frames * run.raw_bytes / run.frames),
        "frame_latency_ms_p50": pct(run.latency_ns, 50) / 1e6,
        "frame_latency_ms_p90": pct(run.latency_ns, 90) / 1e6,
        "join_ms_p50": pct(run.first_frame_ns, 50) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "delivered_frac": 1 - run.failed / run.frames,
    }


def live_latency_ms(run) -> list[float]:
    """Per frame the steady receiver got: sink call minus scheduled send, at reference speed."""
    scale = run.scale()
    return [(s - d) * scale / 1e6 for s, d in zip(run.sink_ns, run.server["due"])]


def live_e2e(run) -> dict[str, float]:
    """End-to-end metrics of a live run; a steady receiver that failed leaves its CSV empty."""
    scale = run.scale()
    send = [(e - s) * scale / 1e6 for s, e in zip(run.server["start"], run.server["end"])]
    total = sum(r.total_samples for r in run.rows)
    latency = live_latency_ms(run)
    return {
        "setup_s": median(run.setup_ns) / 1e9,
        "encode_fps": _over(1e3, pct(send, 50)),
        "decode_fps": _over(1, pct([r.build_seconds * scale for r in run.rows], 50)),
        "wire_ratio": _over(sum(r.wire_bytes for r in run.rows), total),
        "diff_ratio": _over(sum(r.diff_samples for r in run.rows), total),
        "frame_latency_ms_p50": pct(latency, 50),
        "frame_latency_ms_p90": pct(latency, 90),
        "join_ms_p50": pct(run.join_ns, 50) * scale / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "delivered_frac": 1 - run.failed / (run.frames + run.probes),
    }


# -- per layer -------------------------------------------------------------


def _under(spans: list[dict], name: str, parent_name: str) -> list[float]:
    """Durations (ms) of `name` spans whose parent span is a `parent_name`."""
    parents = {(s.get("proc", ""), s["id"]) for s in spans if s["name"] == parent_name}
    return [
        (s["end"] - s["start"]) / 1e6
        for s in spans
        if s["name"] == name and (s.get("proc", ""), s["parent"]) in parents
    ]


def net_layer(live_run, spans: list[dict]) -> dict[str, float]:
    """net.* metrics of one live run; admits are keyframe compressions off the send path."""
    server, scale = live_run.server, live_run.scale()
    send = [(e - s) * scale / 1e6 for s, e in zip(server["start"], server["end"])]
    lag = [(s - d) / 1e6 for s, d in zip(server["start"], server["due"])]  # wall time: a schedule
    admits = [
        (s["start"], s["end"]) for s in spans
        if s["name"] == "wirecodec.samples_to_message" and s.get("proc") == "server"
        and s["parent"] == 0
    ]
    stalled, clear = [], []  # send times; lateness from earlier frames is not the admit's
    for start, end, ms in zip(server["start"], server["end"], send):
        hit = any(a < end and start < b for a, b in admits)
        (stalled if hit else clear).append(ms)
    steady_dropped = int(bool(live_run.steady_error) or len(live_run.sink_ns) < live_run.frames)
    return {
        "net.send_next_frame_ms_p50": pct(send, 50),
        "net.recv_build_ms_p50": pct([r.build_seconds * 1e3 * scale for r in live_run.rows], 50),
        "net.join_stall_ms": pct(stalled, 50) - pct(clear, 50) if stalled and clear else 0.0,
        "net.gen_lag_ms_p50": pct(lag, 50),
        "net.gen_lag_ms_p90": pct(lag, 90),
        "net.clients_total": server["clients_total"],
        "net.clients_dropped": server["clients_dropped"],
        "net.probe_exits": server["clients_dropped"] - steady_dropped,
        "net.max_open_clients": live_run.max_open,
    }


def layer_metrics(spans: list[dict], frames: int, scale: float, live_run, live_spans: list[dict],
                  overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics; the net layer's come from `live_run` and `live_spans`."""
    def p50(name: str, **match) -> float:
        return pct(durations_ms(spans, name, **match), 50) * scale

    encodes = [s["attrs"] for s in spans if s["name"] == "encode.encode_delta"]
    deltas = [s["attrs"]["bytes"] for s in spans
              if s["name"] == "wirecodec.frame_message" and s["attrs"].get("kind") == "Delta"]

    def per_frame(key: str) -> float:
        return _over(sum(a[key] for a in encodes), len(encodes))

    metrics = {
        "encode.encode_delta_ms_p50": p50("encode.encode_delta"),
        "encode.segment_runs_ms_p50": p50("encode.segment_runs"),
        "encode.index_entries_per_frame": per_frame("entries"),
        "encode.repeat_entries_per_frame": per_frame("repeats"),
        "encode.diff_bytes_per_frame": per_frame("diff_bytes"),
        "wirecodec.serialize_index_ms_p50": p50("wirecodec.serialize_index"),
        "wirecodec.compress_ms_p50": pct(
            _under(spans, "wirecodec.compress", "wirecodec.delta_to_message"), 50) * scale,
        "wirecodec.frame_message_ms_p50": p50("wirecodec.frame_message", kind="Delta"),
        "wirecodec.keyframe_compress_ms": p50("wirecodec.samples_to_message"),
        "wirecodec.parse_message_ms_p50": p50("wirecodec.parse_message"),
        "wirecodec.decompress_ms_p50": pct(
            _under(spans, "wirecodec.decompress", "wirecodec.message_to_delta"), 50) * scale,
        "wirecodec.deserialize_index_ms_p50": p50("wirecodec.deserialize_index"),
        "wirecodec.wire_bytes_per_frame": _over(sum(deltas), len(deltas)),
        "core.validate_delta_ms_p50": p50("core.validate_delta"),
        "decode.decode_delta_ms_p50": p50("decode.decode_delta"),
        "ingest.read_frame_ms_p50": p50("ingest.read_frame"),
        "bench.measure_pair_ms": p50("bench.measure_pair"),
    }
    metrics.update(net_layer(live_run, live_spans))
    for layer in LAYERS:
        own, n, k = (live_spans, live_run.frames, live_run.scale()) if layer == "net" \
            else (spans, frames, scale)
        self_ns = sum(s["self"] for s in own if s["name"].split(".", 1)[0] == layer)
        metrics[f"{layer}.self_ms_per_frame"] = self_ns * k / 1e6 / n
    metrics["trace.overhead_ms_per_frame"] = overhead_ms
    return metrics


# -- workloads -------------------------------------------------------------


# The workload modules import sfix, so they load only after use_sources().


def offline_workload(w, args):
    import checks
    import live
    import offline
    from workloads import CLIP_FRAMES, WORKLOADS, clip_params, clip_y4m

    params = clip_params(w, args.seed, CLIP_FRAMES)
    speed, setup_ns = Speed(), []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        started = now_ns()
        y4m = clip_y4m(params)
        setup_ns.append(now_ns() - started)
    speed.sample()
    setup = median(setup_ns) * speed.scale()
    source_frames = offline.frame_bodies(y4m)
    tracer = Tracer() if args.trace else NullTracer()
    checks.check_cli_encode(w, args.seed, WORK_DIR)
    checks.check_measure_pair(w, args.seed, tracer)

    if not args.trace:
        [run] = offline.run_offline(y4m, source_frames, args.seconds, [NullTracer()])
        return run.frames, run.failed, offline_e2e(run, setup), median(run.scales), None

    base, run = offline.run_offline(y4m, source_frames, args.seconds, [NullTracer(), tracer])
    mini_tracer = Tracer()
    mini = live.run_live(WORKLOADS["live_join"], args.seed, MINI_FRAMES, LIVE_PROBE_EVERY,
                         WORK_DIR, mini_tracer)

    def per_frame(r) -> float:
        return (sum(r.encode_ns) + sum(r.decode_ns)) / 1e6 / r.frames

    return (
        base.frames + run.frames + mini.frames + mini.probes,
        base.failed + run.failed + mini.failed,
        {"untraced": offline_e2e(base, setup), "traced": offline_e2e(run, setup)},
        median(base.scales + run.scales),
        (tracer.spans, run.frames, median(run.scales), mini,
         mini_tracer.spans + mini.server["spans"], per_frame(run) - per_frame(base)),
    )


def live_workload(w, args):
    import checks
    import live
    from workloads import LIVE_FPS

    frames = round(args.seconds * LIVE_FPS)
    tracer = Tracer() if args.trace else NullTracer()
    checks.check_cli_encode(w, args.seed, WORK_DIR)
    checks.check_measure_pair(w, args.seed, tracer)

    if not args.trace:
        run = live.run_live(w, args.seed, frames, LIVE_PROBE_EVERY, WORK_DIR,
                            setup_repeats=SETUP_REPEATS)
        return run.frames + run.probes, run.failed, live_e2e(run), run.scale(), None

    half = frames // 2
    base = live.run_live(w, args.seed, half, LIVE_PROBE_EVERY, WORK_DIR)
    run = live.run_live(w, args.seed, half, LIVE_PROBE_EVERY, WORK_DIR, tracer)
    base_e2e, run_e2e = live_e2e(base), live_e2e(run)
    spans = tracer.spans + run.server["spans"]
    overhead = run_e2e["frame_latency_ms_p50"] - base_e2e["frame_latency_ms_p50"]
    return (
        base.frames + base.probes + run.frames + run.probes,
        base.failed + run.failed,
        {"untraced": base_e2e, "traced": run_e2e},
        median([base.scale(), run.scale()]),
        (spans, run.frames, run.scale(), run, spans, overhead),
    )


# -- output ----------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "encode_fps": "1/s", "decode_fps": "1/s", "wire_ratio": "ratio",
    "diff_ratio": "ratio", "frame_latency_ms_p50": "ms", "frame_latency_ms_p90": "ms",
    "join_ms_p50": "ms", "peak_rss_mb": "MB", "delivered_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    return "bytes" if "bytes" in name else "count"


def report_traced(e2e: dict, traced: tuple, env: dict, workload: str) -> dict:
    spans, frames, scale, live_run, live_spans, overhead = traced
    with_self_time(spans)
    with_self_time(live_spans)
    print(f"{'span (ms at reference speed)':34} {'n':>6} {'p50_ms':>10} {'p90_ms':>10}"
          f" {'self_ms':>11}")
    tables = [(spans, scale)] + ([] if live_spans is spans else [(live_spans, live_run.scale())])
    for table, k in tables:
        if table is not spans:
            print("# net pass: the live_join stream, for the net.* metrics")
        for name, row in summarize(table).items():
            print(f"{name:34} {row['n']:6d} {row['p50_ms'] * k:10.3f} {row['p90_ms'] * k:10.3f}"
                  f" {row['self_ms'] * k:11.1f}")
    for key in E2E_UNITS:
        print(f"{key:34} untraced {e2e['untraced'][key]:.6g}  traced {e2e['traced'][key]:.6g}")
    metrics = layer_metrics(spans, frames, scale, live_run, live_spans, overhead)
    for name, value in metrics.items():
        print(f"{name:40} {value:.6g} {layer_unit(name)}")
    out = WORK_DIR / f"spans-{workload}-{env['seed']}.json"
    out.write_text(json.dumps({"env": env, "spans": spans,
                               "live_spans": [] if live_spans is spans else live_spans}))
    print(f"# spans written to {out.relative_to(WORK_DIR.parent.parent)}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sfix benchmark")
    parser.add_argument("--workload", required=True, choices=("hd_heavy", "hd_light", "live_join"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_allocator()
    use_sources()
    from workloads import WORKLOADS

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    env = env_record(args)
    print("# env " + json.dumps(env), flush=True)
    w = WORKLOADS[args.workload]
    attempted, failed, e2e, scale, traced = (live_workload if w.live else offline_workload)(w, args)
    print(f"# speed: kernel median {REF_NS / scale / 1e6:.3f} ms, reference {REF_NS / 1e6:g} ms")

    if traced is None:
        for key, unit in E2E_UNITS.items():
            print(f"{key:24} {e2e[key]:.6g} {unit}")
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    else:
        metrics = report_traced(e2e, traced, env, args.workload)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
