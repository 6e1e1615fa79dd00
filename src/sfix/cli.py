"""Command-line front end: encode, decode, serve, recv, bench, gen.

encode and decode are file I/O around session.py's SessionEncoder and
SessionDecoder, the same session rules serve and recv run through net.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Set SFIX_LOG to
off|info|debug to control log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from fractions import Fraction
from typing import BinaryIO, Iterator, Optional

from . import bench, ingest, net, wirecodec
from .core import CodecError, EncoderConfig, EncoderMode, Frame, FrameGeometry
from .session import SessionDecoder, SessionEncoder

log = logging.getLogger("sfix.cli")


def _min_run_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("minimum repeat run must be >= 2")
    return value


def _fps_arg(text: str) -> Fraction:
    try:
        if ":" in text:
            num, den = text.split(":", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"fps must be N or N:D, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("fps must be positive")
    return value


def _mode_config(args: argparse.Namespace) -> EncoderConfig:
    mode = EncoderMode(args.mode)
    return EncoderConfig(mode, getattr(args, "min_run", 3))


def _open_source(args: argparse.Namespace, stack: contextlib.ExitStack) -> ingest.VideoSource:
    stream = stack.enter_context(open(args.input, "rb"))
    if getattr(args, "raw", False):
        if args.width is None or args.height is None:
            args.parser.error("--raw input requires --width and --height")
        geometry = FrameGeometry(args.width, args.height, args.channels)
        fps = getattr(args, "fps", None) or Fraction(25, 1)
        return ingest.read_raw(stream, geometry, fps)
    return ingest.read_y4m(stream)


@contextlib.contextmanager
def _atomic_output(path: str) -> Iterator[BinaryIO]:
    """Write to path via a sibling temp file; no partial file survives errors."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input video (Y4M, or raw with --raw)")
    p.add_argument("--raw", action="store_true", help="input is headerless raw samples")
    p.add_argument("--width", type=int, help="frame width for --raw input")
    p.add_argument("--height", type=int, help="frame height for --raw input")
    p.add_argument("--channels", type=int, default=1, choices=(1, 3),
                   help="channels for --raw input (default 1)")


def _add_codec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=[m.value for m in EncoderMode], default="spatio",
                   help="indexing mode (default spatio)")
    p.add_argument("--min-run", dest="min_run", type=_min_run_arg, default=3,
                   help="smallest equal-value run collapsed to a repeat (>= 2, default 3)")


# -- encode ------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace) -> int:
    cfg = _mode_config(args)
    diff_pct_sum = 0.0

    with contextlib.ExitStack() as stack:
        source = _open_source(args, stack)
        session = SessionEncoder(source.geometry, args.fps or source.fps, cfg)

        def messages() -> Iterator[wirecodec.StreamMessage]:
            nonlocal diff_pct_sum
            yield session.hello
            for frame in source:
                msg = session.push(frame)
                if isinstance(msg, wirecodec.Delta):
                    diff_pct_sum += 100.0 * msg.diff_raw_len / source.geometry.total_samples
                yield msg
            yield wirecodec.End()

        with _atomic_output(args.output) as out:
            total_bytes = wirecodec.write_container(out, messages())

    deltas = session.frames - 1
    mean_diff = diff_pct_sum / deltas if deltas > 0 else 0.0
    print(
        f"{args.output}: frames={session.frames} wire_bytes={total_bytes}"
        f" mean_diff_pct={mean_diff:.3f}"
    )
    return 0


# -- decode ------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    count = 0
    with open(args.input, "rb") as stream:
        messages = wirecodec.read_container(stream)
        session = SessionDecoder("container")
        session.accept(next(messages))
        hello = session.hello
        if hello.geometry.channels != 1 and not args.raw:
            raise ingest.UnsupportedColorspace(
                "3-channel streams have no mono Y4M form; decode with --raw"
            )

        def frames() -> Iterator[Frame]:
            nonlocal count
            for msg in messages:
                frame = session.accept(msg)
                if frame is not None:
                    count += 1
                    yield frame
                    del frame  # written: the next frame is rebuilt in its buffer

        with _atomic_output(args.output) as out:
            if args.raw:
                ingest.write_raw(out, frames())
            else:
                ingest.write_y4m(out, hello.geometry, frames(), hello.fps)
    print(f"{args.output}: frames={count}")
    return 0


# -- streaming ---------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    cfg = _mode_config(args)
    with contextlib.ExitStack() as stack:
        source = _open_source(args, stack)
        report = net.serve(source, cfg, args.listen, fps_override=args.fps)
    print(
        f"served frames={report.frames_encoded} clients={report.clients_total}"
        f" dropped={report.clients_dropped} refused={report.clients_refused}"
        f" keyframes={report.snapshot_calls}"
    )
    return 0


def cmd_recv(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_atomic_output(args.output))

        def on_hello(hello: wirecodec.Hello) -> None:
            if args.raw:
                return
            if hello.geometry.channels != 1:
                raise ingest.UnsupportedColorspace(
                    "3-channel streams have no mono Y4M form; receive with --raw"
                )
            ingest.write_y4m(out, hello.geometry, (), hello.fps)

        def sink(frame: Frame) -> None:
            if not args.raw:
                out.write(b"FRAME\n")
            out.write(frame.samples)

        report = net.receive(
            args.connect, sink=sink, metrics_path=args.metrics, on_hello=on_hello
        )
    print(f"received frames={report.frames_received} first_frame={report.first_frame_no}")
    return 0


# -- bench / gen ---------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    if args.compare:
        modes = [EncoderMode.SPATIO_TEMPORAL, EncoderMode.STANDARD_BASELINE]
    else:
        modes = [EncoderMode(args.mode)]
    with contextlib.ExitStack() as stack:
        source = _open_source(args, stack)
        summary = bench.run_benchmark(
            source,
            modes=modes,
            report_path=args.report,
            min_repeat_run=args.min_run,
            summary_path=args.summary,
        )
    for mode in sorted(summary.mean_diff_pct):
        print(
            f"{mode}: mean_diff_pct={summary.mean_diff_pct[mode]:.3f}"
            f" mean_ratio={summary.mean_ratio_samples[mode]:.4f}"
            f" mean_build_s={summary.mean_build_seconds[mode]:.6f}"
        )
    if len(modes) == 2:
        print(
            f"improvement: diff_pct={summary.improvement_diff_pct:.2f}%"
            f" ratio={summary.improvement_ratio_pct:.2f}%"
            f" build={summary.improvement_build_pct:.2f}%"
            f" defined={summary.improvement_defined}"
        )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    params = ingest.SynthParams(
        seed=args.seed,
        n_frames=args.frames,
        width=args.width,
        height=args.height,
        channels=args.channels,
        block_count=args.blocks,
        block_size=args.block_size,
        fill_mode=args.fill,
        change_fraction=args.change_fraction,
        fps=args.fps or Fraction(25, 1),
    )
    source = ingest.gen_low_motion(params)
    with _atomic_output(args.output) as out:
        written = ingest.write_y4m(out, source.geometry, source, source.fps)
    print(f"{args.output}: frames={args.frames} bytes={written}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfix",
        description="Lossless inter-frame delta codec and live-streaming toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("encode", help="encode a video into a .sfix container")
    _add_source_flags(p)
    _add_codec_flags(p)
    p.add_argument("--output", required=True, help="output .sfix path")
    p.add_argument("--fps", type=_fps_arg, help="frame rate override (N or N:D)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .sfix container back to video")
    p.add_argument("--input", required=True, help="input .sfix path")
    p.add_argument("--output", required=True, help="output video path")
    p.add_argument("--raw", action="store_true", help="write headerless raw samples")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("serve", help="stream a video to connecting clients")
    _add_source_flags(p)
    _add_codec_flags(p)
    p.add_argument("--listen", required=True, help="listen address host:port")
    p.add_argument("--fps", type=_fps_arg, help="pacing override (N or N:D)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("recv", help="receive a stream and write the frames")
    p.add_argument("--connect", required=True, help="server address host:port")
    p.add_argument("--output", required=True, help="output video path")
    p.add_argument("--raw", action="store_true", help="write headerless raw samples")
    p.add_argument("--metrics", help="write per-frame reconstruction metrics CSV here")
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("bench", help="measure per-frame codec metrics over a video")
    _add_source_flags(p)
    p.add_argument("--mode", choices=[m.value for m in EncoderMode], default="spatio",
                   help="single mode to measure (default spatio)")
    p.add_argument("--compare", action="store_true",
                   help="measure both modes and report the improvement")
    p.add_argument("--min-run", dest="min_run", type=_min_run_arg, default=3,
                   help="smallest equal-value run collapsed to a repeat (>= 2, default 3)")
    p.add_argument("--report", required=True, help="per-frame CSV output path")
    p.add_argument("--summary", help="optional summary CSV output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a deterministic synthetic low-motion video")
    p.add_argument("--output", required=True, help="output Y4M path")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--frames", type=int, required=True, help="number of frames")
    p.add_argument("--width", type=int, default=64, help="frame width (default 64)")
    p.add_argument("--height", type=int, default=64, help="frame height (default 64)")
    p.add_argument("--channels", type=int, default=1, choices=(1, 3),
                   help="channels (default 1)")
    p.add_argument("--blocks", type=int, default=3, help="mutated blocks per frame (default 3)")
    p.add_argument("--block-size", dest="block_size", type=int, default=8,
                   help="mutated block side in pixels (default 8)")
    p.add_argument("--fill", choices=("constant", "noise"), default="constant",
                   help="block fill mode (default constant)")
    p.add_argument("--change-fraction", dest="change_fraction", type=float, default=0.05,
                   help="expected differing-sample fraction bound (default 0.05)")
    p.add_argument("--fps", type=_fps_arg, help="frame rate (N or N:D, default 25)")
    p.set_defaults(func=cmd_gen)

    for action in sub.choices.values():
        action.set_defaults(parser=action)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("SFIX_LOG", "off").lower()
    if level == "debug":
        logging.basicConfig(level=logging.DEBUG)
    elif level == "info":
        logging.basicConfig(level=logging.INFO)


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CodecError,
        wirecodec.WireFormatError,
        ingest.SourceError,
        net.NetError,
        OSError,
        ValueError,
    ) as exc:
        print(f"sfix: error: {exc}", file=sys.stderr)
        log.debug("command failed", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
