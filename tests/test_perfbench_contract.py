"""The names the benchmark under perfbench/ patches and reads must stay put.

A traced benchmark run swaps sfix functions for span-recording wrappers
by module attribute, and counts index entries from the deltas encode
returns.  A refactor that renames one of those attributes, or stops
calling a layer through its module's globals, would crash or silently
zero the per-layer figures; these tests catch it without running the
benchmark.  The last ones run the benchmark's own set-up checks and a
short live_join stream, untraced and traced.  They import perfbench's
modules, never change them.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_INDEX
from sfix import decode, encode, wirecodec
from sfix.core import EncoderConfig, IndexCode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists(spans):
    table = spans._patch_table()
    assert table
    for module, attr, name, _, _ in table:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr} ({name})"


def test_delta_counts_agree_with_the_records(spans, golden_ref, golden_new):
    delta = encode.encode_delta(golden_ref, golden_new, EncoderConfig(min_repeat_run=3))
    code = delta.records["code"]
    assert spans._delta_counts((), delta) == {
        "entries": len(delta.records),
        "repeats": int(np.count_nonzero(code == IndexCode.REPEAT_FROM_DIFF)),
        "diff_bytes": len(delta.diff),
    }
    assert spans._delta_counts((), delta)["entries"] == len(GOLDEN_INDEX)


def test_hot_path_calls_layers_through_module_globals(spans, golden_ref, golden_new):
    """Every span the traced offline run reads is recorded on an encode/decode round trip."""
    tracer = spans.Tracer()
    with spans.patched(tracer):
        delta = encode.encode_delta(golden_ref, golden_new)
        msg = wirecodec.delta_to_message(1, delta)
        rebuilt = decode.decode_delta(golden_ref, wirecodec.message_to_delta(msg))
    assert rebuilt.samples == golden_new.samples
    recorded = {span["name"] for span in tracer.spans}
    assert {
        "encode.encode_delta",
        "encode.segment_runs",
        "wirecodec.delta_to_message",
        "wirecodec.serialize_index",
        "wirecodec.compress",
        "wirecodec.message_to_delta",
        "wirecodec.decompress",
        "wirecodec.deserialize_index",
        "decode.decode_delta",
        "core.validate_delta",
    } <= recorded


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules import each other by bare name, so its folder goes on sys.path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import live
        import spans
        from workloads import WORKLOADS

        yield checks, live, spans, WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["hd_heavy", "hd_light"])
def test_setup_checks_pass(perfbench, tmp_path, workload):
    """`sfix encode` writes encode_clip's bytes, and measure_pair counts what the container holds."""
    checks, _, spans, workloads = perfbench
    checks.check_cli_encode(workloads[workload], 3, tmp_path)
    checks.check_measure_pair(workloads[workload], 3, spans.NullTracer())


def test_live_join_stream_delivers_every_frame(perfbench, tmp_path):
    _, live, _, workloads = perfbench
    run = live.run_live(workloads["live_join"], 3, 12, 5, tmp_path)
    assert run.steady_error == ""
    assert run.failed == 0
    assert run.probes == 1 and len(run.rows) == 11
    # the probe leaves after its first frame, at its writer's first failed send
    assert run.server["clients_dropped"] == run.probes


def test_traced_live_join_records_every_layer(perfbench, tmp_path):
    _, live, spans, workloads = perfbench
    tracer = spans.Tracer()
    run = live.run_live(workloads["live_join"], 3, 12, 5, tmp_path, tracer)
    assert run.steady_error == ""
    assert run.failed == 0
    recorded = {span["name"] for span in tracer.spans + run.server["spans"]}
    assert {
        "encode.encode_delta",
        "wirecodec.parse_message",
        "wait.recv",
        "decode.decode_delta",
    } <= recorded
