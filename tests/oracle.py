"""Naive reference implementations used to cross-check the real codec.

Everything here is deliberately slow: plain Python loops, no numpy, no code
shared with the package under test.  When the production encoder/decoder and
these agree across thousands of randomized inputs, an off-by-one in the
vectorized run arithmetic would have to be mirrored here to go unnoticed.

Index pairs use raw integers (code, count) so the oracle does not even
depend on the package's enum types.
"""

from __future__ import annotations

EQUAL = -1
LITERAL = -2
FROM_REF = -3
REPEAT = -5


def oracle_encode(
    ref: bytes, new: bytes, min_repeat_run: int | None = 3
) -> tuple[list[tuple[int, int]], bytes]:
    """Encode `new` against `ref` by direct rule-following.

    min_repeat_run None selects the baseline: differing stretches are always
    copied literally, with no repeat collapsing.
    """
    if len(ref) != len(new):
        raise ValueError("length mismatch")
    if ref == new:
        return [(EQUAL, 0)], b""

    index: list[tuple[int, int]] = []
    diff = bytearray()
    n = len(ref)
    i = 0
    while i < n:
        j = i
        if ref[i] == new[i]:
            while j < n and ref[j] == new[j]:
                j += 1
            index.append((FROM_REF, j - i))
        else:
            while j < n and ref[j] != new[j]:
                j += 1
            if min_repeat_run is None:
                index.append((LITERAL, j - i))
                diff += new[i:j]
            else:
                _collapse(index, diff, new, i, j, min_repeat_run)
        i = j
    return index, bytes(diff)


def oracle_stretches(ref: bytes, new: bytes) -> tuple[list[int], list[int], bytes]:
    """[start, end) of every maximal run of differing positions, in order,
    with the new samples of all of them concatenated."""
    if len(ref) != len(new):
        raise ValueError("length mismatch")
    starts: list[int] = []
    ends: list[int] = []
    samples = bytearray()
    n = len(new)
    i = 0
    while i < n:
        if ref[i] == new[i]:
            i += 1
            continue
        j = i
        while j < n and ref[j] != new[j]:
            j += 1
        starts.append(i)
        ends.append(j)
        samples += new[i:j]
        i = j
    return starts, ends, bytes(samples)


def _collapse(
    index: list[tuple[int, int]],
    diff: bytearray,
    new: bytes,
    start: int,
    stop: int,
    min_repeat_run: int,
) -> None:
    """Split new[start:stop] into repeat runs and literal remainders."""
    k = start
    literal_from: int | None = None
    while k < stop:
        m = k
        while m < stop and new[m] == new[k]:
            m += 1
        if m - k >= min_repeat_run:
            if literal_from is not None:
                index.append((LITERAL, k - literal_from))
                diff += new[literal_from:k]
                literal_from = None
            index.append((REPEAT, m - k))
            diff.append(new[k])
        elif literal_from is None:
            literal_from = k
        k = m
    if literal_from is not None:
        index.append((LITERAL, stop - literal_from))
        diff += new[literal_from:stop]


def oracle_decode(ref: bytes, index: list[tuple[int, int]], diff: bytes) -> bytes:
    """Replay an index against a reference, one entry at a time."""
    if len(index) == 1 and index[0][0] == EQUAL:
        return bytes(ref)
    out = bytearray()
    pos = 0
    for code, count in index:
        at = len(out)
        if code == FROM_REF:
            out += ref[at:at + count]
        elif code == LITERAL:
            out += diff[pos:pos + count]
            pos += count
        elif code == REPEAT:
            out += diff[pos:pos + 1] * count
            pos += 1
        else:
            raise ValueError(f"unknown code {code}")
    return bytes(out)


def count_differing(ref: bytes, new: bytes) -> int:
    """Number of positions whose sample changed."""
    return sum(1 for a, b in zip(ref, new) if a != b)


def has_collapsible_run(ref: bytes, new: bytes, min_repeat_run: int) -> bool:
    """True if some stretch of >= min_repeat_run consecutive positions all
    differ from the reference and share one new value.

    Exactly the situations where repeat-collapsing must strictly shrink the
    difference buffer relative to literal copying.
    """
    run = 0
    for i, (a, b) in enumerate(zip(ref, new)):
        if a == b:
            run = 0
        elif run and new[i] == new[i - 1]:
            run += 1
        else:
            run = 1
        if run >= min_repeat_run:
            return True
    return False
