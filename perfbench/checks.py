"""Fidelity cross-checks run once per workload during set-up.

They keep the benchmark's own compositions honest against the program's:
its encode must write the same bytes as `sfix encode`, and its per-frame
counts must equal bench.measure_pair's, the per-frame CSV contract.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from sfix import bench, cli, ingest, wirecodec

import offline
from spans import NullTracer, Tracer
from workloads import Workload, clip_params, clip_y4m


class FidelityError(Exception):
    """The benchmark's composition disagrees with the program's own."""


def check_cli_encode(w: Workload, seed: int, work_dir: Path) -> None:
    """On a small clip, encode_clip and `sfix encode` must write identical bytes."""
    y4m = clip_y4m(clip_params(w, seed, 6, small=True))
    src, dst = work_dir / f"{w.name}-small.y4m", work_dir / f"{w.name}-small.sfix"
    src.write_bytes(y4m)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["encode", "--input", str(src), "--output", str(dst)])
    try:
        if status != 0:
            raise FidelityError(f"sfix encode exited {status}")
        if dst.read_bytes() != offline.encode_clip(y4m).container:
            raise FidelityError("benchmark encode and `sfix encode` wrote different bytes")
    finally:
        src.unlink(missing_ok=True)
        dst.unlink(missing_ok=True)


def check_measure_pair(w: Workload, seed: int, tracer: Tracer | NullTracer) -> None:
    """On the first frame pair, entries, diff samples and wire bytes match measure_pair's."""
    y4m = clip_y4m(clip_params(w, seed, 2))
    ref, new = ingest.read_y4m(io.BytesIO(y4m))
    with tracer.span("bench.measure_pair", frame=1):
        want = bench.measure_pair(ref, new, offline.CONFIG, frame_no=1)
    _, _, delta_msg, _ = wirecodec.read_container(io.BytesIO(offline.encode_clip(y4m).container))
    delta = wirecodec.message_to_delta(delta_msg)
    got = (len(delta.index), len(delta.diff), len(wirecodec.frame_message(delta_msg)))
    if got != (want.index_entries, want.diff_samples, want.wire_bytes):
        raise FidelityError(
            f"frame 1 (entries, diff, wire) {got} != measure_pair's "
            f"{(want.index_entries, want.diff_samples, want.wire_bytes)}"
        )
