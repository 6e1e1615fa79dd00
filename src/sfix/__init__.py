"""Lossless inter-frame delta codec with live streaming and benchmarking.

The codec keeps one reference frame and describes each new frame as an index
of positional run instructions plus a buffer of only the samples that
actually changed.  Two indexing modes are provided: the spatio-temporal mode
additionally collapses repeated new values inside changed regions, and a
standard baseline that copies every changed sample literally.
"""

from .bench import FrameMetrics, RunSummary, measure_pair, run_benchmark
from .core import (
    CodecError,
    EncoderConfig,
    EncoderMode,
    Frame,
    FrameDelta,
    FrameGeometry,
    IndexCode,
    IndexEntry,
    validate_delta,
)
from .decode import decode_delta, decode_prefix
from .encode import advance_reference, encode_delta
from .ingest import SynthParams, VideoSource, gen_low_motion, read_raw, read_y4m, write_y4m
from .net import StreamServer, receive, serve
from .wirecodec import parse_message, read_container, write_container

__version__ = "0.1.0"

__all__ = [
    "CodecError",
    "EncoderConfig",
    "EncoderMode",
    "Frame",
    "FrameDelta",
    "FrameGeometry",
    "FrameMetrics",
    "IndexCode",
    "IndexEntry",
    "RunSummary",
    "StreamServer",
    "SynthParams",
    "VideoSource",
    "advance_reference",
    "decode_delta",
    "decode_prefix",
    "encode_delta",
    "gen_low_motion",
    "measure_pair",
    "parse_message",
    "read_container",
    "read_raw",
    "read_y4m",
    "receive",
    "run_benchmark",
    "serve",
    "validate_delta",
    "write_container",
    "write_y4m",
    "__version__",
]
