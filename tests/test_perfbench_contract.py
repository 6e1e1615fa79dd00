"""The names the benchmark under perfbench/ patches and reads must stay put.

A traced benchmark run swaps sfix functions for span-recording wrappers
by module attribute, and counts index entries from the deltas encode
returns.  A refactor that renames one of those attributes, or stops
calling a layer through its module's globals, would crash or silently
zero the per-layer figures; these tests catch it without running the
benchmark.  They only import perfbench/spans.py, never change it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_INDEX
from sfix import decode, encode, wirecodec
from sfix.core import EncoderConfig, IndexCode

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
        "wirecodec.delta_to_message",
        "wirecodec.serialize_index",
        "wirecodec.compress",
        "wirecodec.message_to_delta",
        "wirecodec.decompress",
        "wirecodec.deserialize_index",
        "decode.decode_delta",
        "core.validate_delta",
    } <= recorded
