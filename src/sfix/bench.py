"""Per-frame codec measurement: diff-buffer size, wire size, timing.

Each frame pair is measured as: encode (timed), serialize + compress (wire
bytes), decode (timed), round-trip check.  Timings are wall-clock around
the pure codec call, median of three runs, no I/O inside the window.
Results go to CSV so external tools can plot them.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable, Optional, Sequence, TypeVar, get_type_hints

from .core import CodecError, EncoderConfig, EncoderMode, Frame
from .decode import decode_delta
from .encode import advance_reference, encode_delta
from .ingest import SourceError, VideoSource
from .wirecodec import INDEX_ENTRY_SIZE, Delta, delta_to_message, wire_size

_TIMING_RUNS = 3

T = TypeVar("T")


@dataclass(frozen=True)
class FrameMetrics:
    """One CSV row: how one frame fared under one encoder mode."""

    frame_no: int
    mode: str  # "spatio" or "standard"
    total_samples: int
    diff_samples: int
    diff_pct: float
    index_entries: int
    wire_bytes: int
    ratio_samples: float  # diff samples / frame samples
    ratio_wire: float  # framed compressed bytes / raw frame bytes
    encode_seconds: float
    build_seconds: float


# The metrics CSV's columns are FrameMetrics's fields, in order.
CSV_HEADER = ",".join(f.name for f in fields(FrameMetrics))
_FIELD_TYPES = get_type_hints(FrameMetrics)  # each column's parser: int, str or float


@dataclass
class RunSummary:
    """Per-mode means plus spatio-vs-standard improvement percentages."""

    frames: int
    mean_diff_pct: dict[str, float]
    mean_ratio_samples: dict[str, float]
    mean_build_seconds: dict[str, float]
    improvement_diff_pct: float = 0.0
    improvement_ratio_pct: float = 0.0
    improvement_build_pct: float = 0.0
    improvement_defined: bool = False


def _timed_median(fn: Callable[[], T], runs: int = _TIMING_RUNS) -> tuple[T, float]:
    """Run fn several times; return its (deterministic) result and median time."""
    times = []
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    times.sort()
    return result, times[len(times) // 2]


def measure_pair(
    ref: Frame,
    new: Frame,
    cfg: EncoderConfig = EncoderConfig(),
    frame_no: int = 0,
) -> FrameMetrics:
    """Encode, serialize, decode and time one frame pair under one config."""
    delta, encode_seconds = _timed_median(lambda: encode_delta(ref, new, cfg))
    message = delta_to_message(frame_no, delta)
    rebuilt, build_seconds = _timed_median(lambda: decode_delta(ref, delta))
    if rebuilt.samples != new.samples:
        raise CodecError(f"round trip mismatch on frame {frame_no}")
    return frame_metrics(
        message, ref.geometry.total_samples, cfg.mode.value, encode_seconds, build_seconds
    )


def frame_metrics(
    message: Delta, total: int, mode: str, encode_seconds: float, build_seconds: float
) -> FrameMetrics:
    """The CSV row of one DELTA message in a frame of `total` samples.

    The counts come from the raw lengths the message declares, which are
    the delta's own once the message has decoded.
    """
    diff_samples = message.diff_raw_len
    wire_bytes = wire_size(message)
    return FrameMetrics(
        frame_no=message.frame_no,
        mode=mode,
        total_samples=total,
        diff_samples=diff_samples,
        diff_pct=100.0 * diff_samples / total,
        index_entries=message.index_raw_len // INDEX_ENTRY_SIZE,
        wire_bytes=wire_bytes,
        ratio_samples=diff_samples / total,
        ratio_wire=wire_bytes / total,
        encode_seconds=encode_seconds,
        build_seconds=build_seconds,
    )


def write_metrics_csv(path: str, rows: Iterable[FrameMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(row) for row in rows)  # csv writes a float as its repr()


def read_metrics_csv(path: str) -> list[FrameMetrics]:
    """Parse a metrics CSV back into rows; floats round-trip exactly."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header {reader.fieldnames}")
        for record in reader:
            rows.append(FrameMetrics(**{
                name: _FIELD_TYPES[name](value) for name, value in record.items()
            }))
    return rows


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _improvement(standard: float, spatio: float) -> float:
    return 100.0 * (standard - spatio) / standard if standard else 0.0


def summarize(rows: Sequence[FrameMetrics]) -> RunSummary:
    """Aggregate rows into per-mode means and improvement percentages."""
    modes = sorted({row.mode for row in rows})
    by_mode = {m: [r for r in rows if r.mode == m] for m in modes}
    summary = RunSummary(
        frames=max((len(v) for v in by_mode.values()), default=0),
        mean_diff_pct={m: _mean([r.diff_pct for r in v]) for m, v in by_mode.items()},
        mean_ratio_samples={m: _mean([r.ratio_samples for r in v]) for m, v in by_mode.items()},
        mean_build_seconds={m: _mean([r.build_seconds for r in v]) for m, v in by_mode.items()},
    )
    if "spatio" in by_mode and "standard" in by_mode:
        std_diff = summary.mean_diff_pct["standard"]
        summary.improvement_defined = std_diff > 0.0
        summary.improvement_diff_pct = _improvement(std_diff, summary.mean_diff_pct["spatio"])
        summary.improvement_ratio_pct = _improvement(
            summary.mean_ratio_samples["standard"], summary.mean_ratio_samples["spatio"]
        )
        summary.improvement_build_pct = _improvement(
            summary.mean_build_seconds["standard"], summary.mean_build_seconds["spatio"]
        )
    return summary


def write_summary_csv(path: str, summary: RunSummary) -> None:
    """One row per mode plus the improvement figures and defined flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mode", "frames", "mean_diff_pct", "mean_ratio_samples", "mean_build_seconds"]
        )
        for mode in sorted(summary.mean_diff_pct):
            writer.writerow(
                [
                    mode,
                    summary.frames,
                    repr(summary.mean_diff_pct[mode]),
                    repr(summary.mean_ratio_samples[mode]),
                    repr(summary.mean_build_seconds[mode]),
                ]
            )
        writer.writerow([])
        writer.writerow(
            [
                "improvement_diff_pct",
                "improvement_ratio_pct",
                "improvement_build_pct",
                "improvement_defined",
            ]
        )
        writer.writerow(
            [
                repr(summary.improvement_diff_pct),
                repr(summary.improvement_ratio_pct),
                repr(summary.improvement_build_pct),
                summary.improvement_defined,
            ]
        )


def run_benchmark(
    source: VideoSource,
    modes: Sequence[EncoderMode] = (EncoderMode.SPATIO_TEMPORAL, EncoderMode.STANDARD_BASELINE),
    report_path: Optional[str] = None,
    min_repeat_run: int = 3,
    summary_path: Optional[str] = None,
) -> RunSummary:
    """Measure every consecutive frame pair of a source under each mode.

    The chain advances frame to frame: frame k-1 is the reference for
    frame k.  Requires at least two frames.
    """
    configs = [EncoderConfig(mode, min_repeat_run) for mode in modes]
    frames = iter(source)
    reference = next(frames, None)
    if reference is None:
        raise SourceError("benchmark needs at least two frames, source was empty")

    rows: list[FrameMetrics] = []
    frame_no = 0
    for frame in frames:
        frame_no += 1
        for cfg in configs:
            rows.append(measure_pair(reference, frame, cfg, frame_no=frame_no))
        reference = advance_reference(reference, frame)
    if frame_no == 0:
        raise SourceError("benchmark needs at least two frames, source had one")

    if report_path is not None:
        write_metrics_csv(report_path, rows)
    summary = summarize(rows)
    if summary_path is not None:
        write_summary_csv(summary_path, summary)
    return summary
