"""net.FanOut, the fan-out rules, driven over random schedules with no socket.

A hypothesis state machine plays the three kinds of thread StreamServer
runs around FanOut: the broadcaster (frames, END, and the overdue drop
after END), the loop (admissions; passes that try every client once, each
client's kernel taking all it is given, nothing, or a few bytes a pass;
failed sends) and at most one keyframe thread at a time (ready or failed),
whose REF_FRAME every joiner admitted while it runs shares, in any
interleaving the shell allows: a broadcast that names a pass is not
followed by another until that pass has ended.  The machine keeps its own
model of every client's queue and of the bytes it has moved, and after
every step checks that
- a joiner starts a compression only when none is in flight, and each
  compression is counted once, however many joiners it serves;
- each client's bytes are HELLO, then REF_FRAME(k), k of the compression
  in flight at its admission, else the current frame, then DELTA k+1,
  k+2, ... with no gap, then END, and nothing after;
- the listed clients are exactly the model's: a client is cut only by the
  rule (a slow consumer judged at the end of the first pass begun after
  the broadcast that found it full, a failed send, a failed keyframe for
  every joiner attached to it, END overdue)
  and always by it, and no judged queue is left past OUTBOX_CAP;
- a client leaves the list once and is counted once, and a refused one is
  counted and never listed;
- a client that drains its queue in every pass is never cut.
A direct test pins one compression shared by joiners admitted while it
runs, ready or failed, whatever schedules the machine happens to draw.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from sfix import net
from sfix import wirecodec as wc
from sfix.core import Frame, FrameGeometry
from sfix.encode import encode_delta

GEOM = FrameGeometry(4, 2, 1)
FRAMES = 40
HELLO = wc.frame_message(wc.Hello(GEOM, 25, 1))
END = wc.frame_message(wc.End())
_DELTA = encode_delta(Frame(GEOM, bytes(8)), Frame(GEOM, b"\x01" * 8))
REF = [wc.frame_message(wc.samples_to_message(k, bytes(8))) for k in range(FRAMES)]
DELTA = [wc.frame_message(wc.delta_to_message(k, _DELTA)) for k in range(FRAMES)]


@dataclass(eq=False)
class Peer:
    """The model of one admitted client, and the bytes FanOut gave it."""

    client: object  # FanOut's handle
    rate: Optional[int]  # bytes its kernel takes in a pass; None: its whole queue
    start: int  # frame of its REF_FRAME
    held: Optional[list]  # while its keyframe compresses: the machine's held list, shared
    queue: deque = field(default_factory=deque)
    offset: int = 0  # bytes of queue[0] sent
    moved: int = 0
    judged: list = field(default_factory=list)  # (pass, moved then)
    listed: bool = True
    open: bool = True  # its socket: FanOut still serves it
    flushed_in: int = 0  # the last pass that tried it
    got: bytearray = field(default_factory=bytearray)
    got_end: bool = False


class FanOutMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fan = net.FanOut(HELLO)
        self.peers: list[Peer] = []
        self.frames = 0  # broadcast so far
        self.ended = self.expired = False
        self.waiting: Optional[int] = None  # the pass the broadcaster waits for
        self.flight: Optional[int] = None  # frame of the keyframe compressing, if one is
        self.held: list = []  # blobs broadcast since it began
        self.passes = 0
        self.in_pass = False
        self.dropped = self.refused = self.keyframes = 0

    # -- the broadcaster ---------------------------------------------------

    def _free(self):
        return self.waiting is None or self.fan.passes_done >= self.waiting

    @precondition(lambda self: not self.ended and self.frames < FRAMES and self._free())
    @rule()
    def broadcast(self):
        k = self.frames
        self._broadcast(REF[0] if k == 0 else DELTA[k], (k, f"reference {k}"))
        self.frames += 1

    @precondition(lambda self: not self.ended and self._free())
    @rule(now=st.integers(0, 5))
    def finish(self, now):
        if now == 0:  # most streams run a while first
            self._broadcast(END, None)
            self.ended = True

    def _broadcast(self, blob, ref):
        fresh, full = self.passes + 1, False
        for peer in self._listed():
            if peer.held is not None:
                continue
            peer.queue.append(blob)
            if len(peer.queue) > net.OUTBOX_SIZE:
                peer.judged.append((fresh, peer.moved))
                full = True
        if self.flight is not None:
            self.held.append(blob)
        self.waiting = self.fan.broadcast(blob, ref)
        assert self.waiting == (fresh if full else None)

    @precondition(lambda self: self.ended and not self.expired and self._free())
    @rule()
    def drop_overdue(self):
        # finish() once its wall-clock wait is over
        owed = [p for p in self._listed() if not p.got_end]
        assert set(self.fan.owed()) == {p.client for p in owed}
        for client in self.fan.owed():
            self.fan.drop(client, "END not sent in time")
        self._unlist(owed)
        self.expired = True

    # -- the loop ----------------------------------------------------------

    @initialize()
    def admit_a_drainer_and_a_trickle_reader(self):
        self.admit(None)
        self.admit(1)

    @rule(rate=st.sampled_from([None, 0, 1, 4, 64]))
    def admit(self, rate):
        client, ref = self.fan.admit("peer")
        if self.ended:
            assert client is None and ref is None
        elif len(self._listed()) >= net.MAX_CLIENTS:
            assert client is None and ref is None
            self.refused += 1
        else:
            assert client is not None
            joins = self.frames > 0
            assert (ref is not None) == (joins and self.flight is None)  # start, or attach
            if ref is not None:
                k = self.frames - 1
                assert ref == (k, f"reference {k}")
                self.flight, self.held = k, []
            peer = Peer(client, rate, self.flight if joins else 0, self.held if joins else None)
            peer.queue.append(HELLO)
            self.peers.append(peer)

    @precondition(lambda self: not self.in_pass)
    @rule()
    def begin_pass(self):
        self.passes += 1
        assert self.fan.begin_pass() == self.passes
        self.in_pass = True

    def _untried(self):
        return [p for p in self.peers if p.open and p.flushed_in < self.passes]

    @precondition(lambda self: self.in_pass and self._untried())
    @rule(data=st.data())
    def flush(self, data):
        self._flush(data.draw(st.sampled_from(self._untried())))

    @precondition(lambda self: self.in_pass)
    @rule(data=st.data(), now=st.integers(0, 3))
    def send_fails(self, data, now):
        readers = [p for p in self.peers if p.open and p.rate is not None]
        if readers and now == 0:  # most sends succeed
            peer = data.draw(st.sampled_from(readers))
            self.fan.drop(peer.client, "send failed")
            self._unlist([peer])

    @precondition(lambda self: self.in_pass)
    @rule()
    def end_pass(self):
        for peer in self._untried():  # the loop tries every client once a pass
            self._flush(peer)
        judged, cut = [], []
        for peer in self._listed():
            due = [moved for pass_no, moved in peer.judged if pass_no <= self.passes]
            peer.judged = [j for j in peer.judged if j[0] > self.passes]
            if due:
                judged.append(peer)
            if any(moved == peer.moved for moved in due) or (
                    due and len(peer.queue) > net.OUTBOX_CAP):
                cut.append(peer)
        before = set(self.fan.clients)
        self.fan.end_pass(self.passes)
        gone = before - set(self.fan.clients)
        assert not any(p.rate is None and p.client in gone for p in self.peers), \
            "a client that drains its queue every pass was cut"
        assert gone == {p.client for p in cut}
        assert all(len(p.client.outbox) <= net.OUTBOX_CAP for p in judged if p.client not in gone)
        self._unlist(cut)
        self.in_pass = False

    def _flush(self, peer):
        view, budget = self.fan.pending(peer.client), peer.rate
        assert bool(view) == (peer.listed and bool(peer.queue))
        while view and budget != 0:
            n = len(view) if budget is None else min(budget, len(view))
            peer.got += view[:n]
            self._sent(peer, n)
            budget = None if budget is None else budget - n
            view = self.fan.sent(peer.client, n)
        peer.open = self.fan.serves(peer.client)
        assert peer.open == (peer.listed and not peer.got_end)
        peer.flushed_in = self.passes

    def _sent(self, peer, n):
        peer.moved += n
        peer.offset += n
        if peer.offset == len(peer.queue[0]):
            peer.got_end = peer.queue.popleft() is END
            peer.offset = 0

    # -- the keyframe thread -----------------------------------------------

    def _end_flight(self):
        """End the compression in flight: the listed clients attached to it, maybe none."""
        joiners = [p for p in self._listed() if p.held is not None]
        for peer in joiners:
            assert peer.held is self.held and peer.start == self.flight
            peer.held = None
        self.flight = None
        return joiners

    @precondition(lambda self: self.flight is not None)
    @rule(now=st.integers(0, 2))
    def keyframe_ready(self, now):
        if now:  # most compressions span a few other events
            return
        blob = REF[self.flight]
        joiners = self._end_flight()
        assert self.fan.keyframe_ready(blob) == len(joiners)
        for peer in joiners:
            peer.queue.extend([blob, *self.held])
        self.keyframes += 1

    @precondition(lambda self: self.flight is not None)
    @rule(now=st.integers(0, 5))
    def keyframe_fails(self, now):
        if now:  # most compressions succeed
            return
        joiners = self._end_flight()
        assert self.fan.keyframe_ready(None) == len(joiners)
        self._unlist(joiners)

    # -- the model ---------------------------------------------------------

    def _listed(self):
        return [p for p in self.peers if p.listed]

    def _unlist(self, peers):
        for peer in peers:
            if peer.listed:
                peer.listed = False
                self.dropped += 1

    @invariant()
    def agrees_with_the_model(self):
        assert self.fan.clients == [p.client for p in self._listed()]  # in admission order
        report = self.fan.report
        assert (report.clients_total, report.clients_dropped, report.clients_refused) == (
            len(self.peers), self.dropped, self.refused)
        assert (report.frames_encoded, report.snapshot_calls) == (self.frames, self.keyframes)
        for peer in self.peers:
            stream = HELLO  # then REF_FRAME(start) and DELTAs, once frame 0 is out
            if self.frames:
                stream += REF[peer.start] + b"".join(DELTA[peer.start + 1:self.frames])
            stream += END if self.ended else b""
            assert peer.got == stream[:len(peer.got)]
            assert peer.got_end == (len(peer.got) == len(stream) and self.ended)


def test_fan_out_rules_hold_over_any_schedule(monkeypatch):
    # small bounds, so that a schedule of 60 steps reaches every rule
    monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
    monkeypatch.setattr(net, "OUTBOX_CAP", 4)
    monkeypatch.setattr(net, "MAX_CLIENTS", 4)
    run_state_machine_as_test(FanOutMachine, settings=settings(
        max_examples=60, stateful_step_count=60, deadline=None, derandomize=True, database=None))


@pytest.mark.parametrize("compressed", [True, False])
def test_joiners_admitted_during_one_compression_share_it(monkeypatch, compressed):
    monkeypatch.setattr(net, "OUTBOX_SIZE", 2)
    fan = net.FanOut(HELLO)
    fan.broadcast(REF[0], (0, "reference 0"))
    first, start = fan.admit("first")
    assert start == (0, "reference 0")
    fan.broadcast(DELTA[1], (1, "reference 1"))
    second, start = fan.admit("second")
    assert start is None  # it attaches to the compression of frame 0
    for k in (2, 3):  # past OUTBOX_SIZE, but held blobs are not judged
        assert fan.broadcast(DELTA[k], (k, f"reference {k}")) is None
    assert fan.keyframe_ready(REF[0] if compressed else None) == 2
    if compressed:
        for client in (first, second):
            assert list(client.outbox) == [HELLO, REF[0], DELTA[1], DELTA[2], DELTA[3]]
        assert (fan.clients, fan.report.snapshot_calls) == ([first, second], 1)
    else:
        assert (fan.clients, fan.report.clients_dropped, fan.report.snapshot_calls) == ([], 2, 0)
    third, start = fan.admit("third")
    assert start == (3, "reference 3")  # none in flight: it starts one of the current frame
