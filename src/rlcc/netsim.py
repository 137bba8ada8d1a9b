"""Discrete-event simulator of one bulk-transfer flow over a dumbbell topology.

Topology: sender host -- access link -- router1 == bottleneck == router2 --
access link -- receiver host.  The sender has an infinite backlog (FTP bulk
model) and is gated only by an externally controlled congestion window: there
is no slow start, no AIMD and no fast retransmit, so whoever calls
``set_cwnd`` is the sole congestion controller.  ``Simulator`` first runs
``SimConfig.validate``, which raises ``ValueError`` naming the field.

Data segments are store-and-forward serialized on every hop.  The bottleneck
ingress queue is drop-tail; forward segments surviving the queue can still be
lost to a per-segment Bernoulli channel-error draw.  ACKs travel an
uncongested reverse path with fixed latency and are never lost.  Un-ACKed
segments retransmit a fixed RTO after each (re)transmission; RTT samples
follow Karn's rule (never-retransmitted segments only) and feed an EWMA.

``advance`` is one event loop over local state.  Events come from three
sources, each already in event order, and the next event is the least of
their heads by whole event key: the one pending finish or kick of the sender
link, a FIFO of ACK arrivals and a deadline-ordered deque of retransmission
timers.  One block hands segments to the sender link: after an ACK, after a
retransmission, and for the window a ``set_cwnd`` opened, which the next
``advance`` fills at the call's instant.  An idle link's finish is kept
aside: a segment enqueued before it makes it pending again, one enqueued
after it kicks the link instead.
Later hops are FIFO with fixed service times, so a transmission's fate is
computed when it starts, with the sums an event per hop would take, in the
order an event per hop would take them (time, then the times of the events
that led to it, then insertion).  All randomness flows from the
per-instance seeded PRNG: equal configs and call sequences give
bit-identical results.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class LinkSpec:
    rate_bps: int
    prop_delay_ms: float


@dataclass(frozen=True)
class BottleneckSpec(LinkSpec):
    """The router<->router link, the only hop with channel error."""
    loss_prob: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    # Access links host<->router, both sides identical.
    access_link: LinkSpec = LinkSpec(rate_bps=10_000_000, prop_delay_ms=1.0)
    # Router<->router link; the 2 Mbps bottleneck caps throughput at 250000 B/s.
    bottleneck_link: BottleneckSpec = BottleneckSpec(rate_bps=2_000_000,
                                                     prop_delay_ms=5.0)
    segment_bytes: int = 1000
    ack_bytes: int = 40
    # Sized so the whole reachable cwnd range [1, cwnd_max] is queue-drop free
    # on an error-free channel: max standing queue is cwnd_max minus the
    # pipeline segments, which stays below 250.
    queue_capacity_segments: int = 250
    # Must exceed the worst queueing RTT at cwnd_max (~ base RTT plus
    # cwnd_max * bottleneck service time ~ 800 ms with the defaults),
    # otherwise every segment retransmits spuriously before its ACK returns.
    rto_ms: float = 1000.0
    rtt_ewma_alpha: float = 0.125
    cwnd_max: int = 200
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError("<field>: <rule>"), a link field dotted
        ("bottleneck_link.loss_prob"), for the first field that breaks
        its rule."""
        for name, link in (("access_link", self.access_link),
                           ("bottleneck_link", self.bottleneck_link)):
            if not 0 < link.rate_bps < math.inf:
                raise ValueError(f"{name}.rate_bps: must be in (0, inf)")
            if not 0 <= link.prop_delay_ms < math.inf:
                raise ValueError(f"{name}.prop_delay_ms: "
                                 "must be finite and non-negative")
        if not 0.0 <= self.bottleneck_link.loss_prob <= 1.0:
            raise ValueError("bottleneck_link.loss_prob: must be in [0, 1]")
        if self.ack_bytes < 1:
            raise ValueError("ack_bytes: must be >= 1")
        if self.segment_bytes < self.ack_bytes:
            raise ValueError("segment_bytes: must be >= ack_bytes")
        if self.queue_capacity_segments < 1:
            raise ValueError("queue_capacity_segments: must be >= 1")
        one_way_ms = 2 * self.access_link.prop_delay_ms \
            + self.bottleneck_link.prop_delay_ms
        if not 4 * one_way_ms < self.rto_ms < math.inf:
            raise ValueError("rto_ms: must be finite and exceed 4x one-way "
                             f"propagation ({4 * one_way_ms} ms)")
        if not 0.0 < self.rtt_ewma_alpha <= 1.0:
            raise ValueError("rtt_ewma_alpha: must be in (0, 1]")
        if self.cwnd_max < 1:
            raise ValueError("cwnd_max: must be >= 1")
        if self.seed < 0:
            raise ValueError("seed: must be a non-negative integer")


class FlowCounters(NamedTuple):
    bytes_sent_total: int
    segments_acked_total: int
    rtt_ewma_ms: float
    retransmissions: int
    drops_error: int
    drops_queue: int
    cwnd_segments: int


def update_rtt_ewma(ewma_ms: float | None, sample_ms: float,
                    alpha: float) -> float:
    """EWMA step; the first sample initializes the average (ewma_ms=None)."""
    if ewma_ms is None:
        return sample_ms
    return (1.0 - alpha) * ewma_ms + alpha * sample_ms


# An event is (time, parent time, grandparent time, great-grandparent time,
# insertion seq, kind, payload) and compares as a whole: the seq is unique,
# so the four times order events and the seq breaks their ties.  An event
# d ms after the one keyed k, or a hop computed d ms after it, is keyed
# (k[0] + d, k[0], k[1], k[2]).
_SND_READY = 0       # sender link finished a segment, or a kick of it idle
_ACK_ARRIVE = 1      # cumulative ACK delivered to the sender
_RTO_FIRE = 2        # a retransmission timer


@dataclass(slots=True)
class _Segment:
    first_send_ms: float = -1.0
    retrans_count: int = 0
    xmit_id: int = 0


class Simulator:
    """Single-flow dumbbell simulator; see module docstring for the model."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.now = 0.0
        self._evseq = 0
        self._rng = random.Random(cfg.seed)

        seg_bits = cfg.segment_bytes * 8
        ack_bits = cfg.ack_bytes * 8
        self._ser_access_ms = seg_bits / cfg.access_link.rate_bps * 1000.0
        self._ser_bottleneck_ms = seg_bits / cfg.bottleneck_link.rate_bps * 1000.0
        # Reverse path is uncongested: ACK latency is the fixed sum of
        # serialization and propagation over access/bottleneck/access.
        self._ack_delay_ms = (
            2 * (ack_bits / cfg.access_link.rate_bps * 1000.0
                 + cfg.access_link.prop_delay_ms)
            + ack_bits / cfg.bottleneck_link.rate_bps * 1000.0
            + cfg.bottleneck_link.prop_delay_ms)

        self.cwnd = 1
        # The largest window set since the last advance, which fills it.
        self._fill_to = 1
        self._next_seq = 0
        self._last_acked = -1
        self._unacked: dict[int, _Segment] = {}

        # The one pending _SND_READY, a finish or a kick of the idle link,
        # or None.  An idle link keeps its last finish in _snd_done, which
        # becomes pending again if a segment is enqueued before it in event
        # order.
        self._snd_next: tuple | None = None
        self._snd_done: tuple = (-math.inf,)
        self._snd_queue: deque[int] = deque()
        # Keys of the bottleneck departures still ahead, the one in service
        # first, and of the receiver link's latest departure.
        self._bn: deque[tuple] = deque()
        self._rcv_done: tuple = (-math.inf,)
        # ACK arrivals in event order: receiver-link finishes rise strictly
        # in the order transmissions are processed.
        self._acks: deque[tuple] = deque()
        # Timers in deadline order; the head is the next timer event.
        self._rto: deque[tuple] = deque()
        # Per drop counter, the times its dropped segments reach the router.
        self._drop_times = {"drops_queue": [], "drops_error": []}

        self._expected_seq = 0
        self._ooo: set[int] = set()

        self.bytes_sent_total = 0
        self.segments_acked_total = 0
        self.rtt_ewma_ms: float | None = None
        self.retransmissions = 0
        self.drops_error = 0
        self.drops_queue = 0

    # -- public surface ----------------------------------------------------

    def counters(self) -> FlowCounters:
        return FlowCounters(
            bytes_sent_total=self.bytes_sent_total,
            segments_acked_total=self.segments_acked_total,
            rtt_ewma_ms=self.rtt_ewma_ms if self.rtt_ewma_ms is not None else 0.0,
            retransmissions=self.retransmissions,
            drops_error=self.drops_error,
            drops_queue=self.drops_queue,
            cwnd_segments=self.cwnd,
        )

    def set_cwnd(self, segments: int) -> None:
        """Set the sender window.  Rejects out-of-range values; in-flight
        segments are never discarded by a shrink.  The window this opens is
        filled by the next ``advance``, at this call's instant; a window
        raised and lowered in between still sends the raised one's
        segments."""
        if not isinstance(segments, int) or isinstance(segments, bool):
            raise ValueError(f"cwnd must be an integer, got {segments!r}")
        if not 1 <= segments <= self.cfg.cwnd_max:
            raise ValueError(
                f"cwnd {segments} outside [1, {self.cfg.cwnd_max}]")
        self.cwnd = segments
        self._fill_to = max(self._fill_to, segments)

    def advance(self, interval_ms: float) -> float:
        """Process all events up to now + interval_ms and return the
        interval's throughput in bytes per second."""
        interval_s = interval_ms / 1000.0
        if not 0 < interval_s < math.inf:
            raise ValueError("interval_ms must be finite and positive in "
                             "seconds")
        cfg = self.cfg
        now = self.now
        t_end = now + interval_ms
        acked_before = acked = self.segments_acked_total

        unacked, snd_queue, ooo = self._unacked, self._snd_queue, self._ooo
        bn, acks, rto = self._bn, self._acks, self._rto
        random_draw = self._rng.random
        queue_drops = self._drop_times["drops_queue"]
        error_drops = self._drop_times["drops_error"]
        cwnd, seg_bytes, rto_ms = self.cwnd, cfg.segment_bytes, cfg.rto_ms
        alpha = cfg.rtt_ewma_alpha
        ser_access, ser_bn = self._ser_access_ms, self._ser_bottleneck_ms
        access_prop = cfg.access_link.prop_delay_ms
        bn_prop = cfg.bottleneck_link.prop_delay_ms
        loss = cfg.bottleneck_link.loss_prob
        capacity = cfg.queue_capacity_segments
        ack_delay = self._ack_delay_ms
        evseq, next_seq = self._evseq, self._next_seq
        last_acked, expected = self._last_acked, self._expected_seq
        snd_next, snd_done = self._snd_next, self._snd_done
        rcv_done, ewma = self._rcv_done, self.rtt_ewma_ms
        sent, retransmissions = self.bytes_sent_total, self.retransmissions

        # The window set_cwnd opened is filled at the call's instant, after
        # every event processed at it.
        opened, want = (now, math.inf, math.inf), self._fill_to
        self._fill_to = 0
        while True:
            if opened is not None:
                # Hand segments to the sender link.  If the kept finish is
                # still ahead of the event that opened the window, the busy
                # link takes them when it finishes; otherwise the idle link
                # is kicked.  A non-empty queue always has a _SND_READY
                # pending, so testing once after the appends is exact.
                while len(unacked) < want:
                    unacked[next_seq] = _Segment()
                    snd_queue.append(next_seq)
                    next_seq += 1
                if snd_queue and snd_next is None:
                    if snd_done > opened:
                        snd_next = snd_done
                    else:
                        evseq += 1
                        snd_next = (now, opened[0], opened[1], opened[2],
                                    evseq, _SND_READY, None)
                opened = None
            # The next event is the least head of the three sources.
            ev = snd_next
            if acks and (ev is None or acks[0] < ev):
                ev = acks[0]
            if rto and (ev is None or rto[0] < ev):
                ev = rto[0]
            if ev is None or ev[0] > t_end:
                break
            now = ev[0]
            kind = ev[5]

            if kind == _SND_READY:
                # Retransmissions acked while queued are skipped.
                snd_next = None
                while snd_queue:
                    seq = snd_queue.popleft()
                    seg = unacked.get(seq)
                    if seg is not None:
                        break
                else:
                    continue
                p1, p2 = ev[1], ev[2]
                sent += seg_bytes
                if seg.first_send_ms < 0:
                    seg.first_send_ms = now
                seg.xmit_id += 1
                evseq += 2
                rto.append((now + rto_ms, now, p1, p2, evseq - 1, _RTO_FIRE,
                            (seq, seg.xmit_id)))
                t = now + ser_access
                snd_done = (t, now, p1, p2, evseq, _SND_READY, None)
                if snd_queue:
                    snd_next = snd_done

                r1 = (t + access_prop, t, now, p1)
                while bn and bn[0] < r1:
                    bn.popleft()   # departed before it reached router1
                if len(bn) > capacity:
                    # one segment in service and a full queue: drop-tail
                    queue_drops.append(r1[0])
                    continue
                # Service starts at the last departure if busy, else on
                # arrival.
                p = bn[-1] if bn else r1
                t = p[0] + ser_bn
                bn.append((t, p[0], p[1], p[2]))
                r2 = (t + bn_prop, t, p[0], p[1])
                # Channel error after the segment used the bottleneck's
                # capacity: a fresh draw per traversal, in bottleneck FIFO
                # order.
                if loss > 0.0 and random_draw() < loss:
                    error_drops.append(r2[0])
                    continue
                # The receiver link is idle if its last finish precedes the
                # arrival.
                p = r2 if rcv_done < r2 else rcv_done
                t = p[0] + ser_access
                rcv_done = (t, p[0], p[1], p[2])
                if seq == expected:
                    expected += 1
                    while expected in ooo:
                        ooo.discard(expected)
                        expected += 1
                    # One cumulative ACK per in-order arrival; seq is the
                    # trigger segment used for RTT sampling.
                    arrive = t + access_prop
                    evseq += 1
                    acks.append((arrive + ack_delay, arrive, t, p[0], evseq,
                                 _ACK_ARRIVE, (expected - 1, seq)))
                elif seq > expected:
                    ooo.add(seq)
                # seq < expected: a duplicate of a delivered segment.

            elif kind == _ACK_ARRIVE:
                acks.popleft()
                cum, trigger = ev[6]
                if cum > last_acked:
                    acked += cum - last_acked
                    while last_acked < cum:
                        last_acked += 1
                        seg = unacked.pop(last_acked)
                        # Karn's rule: sample RTT only from the trigger, and
                        # only if it was never retransmitted.
                        if last_acked == trigger and seg.retrans_count == 0:
                            ewma = update_rtt_ewma(
                                ewma, now - seg.first_send_ms, alpha)
                    opened, want = ev, cwnd

            else:
                # A timer is live while its segment is unacked and not sent
                # again.
                rto.popleft()
                seq, xmit_id = ev[6]
                seg = unacked.get(seq)
                if seg is not None and seg.xmit_id == xmit_id:
                    retransmissions += 1
                    seg.retrans_count += 1
                    snd_queue.append(seq)
                    opened, want = ev, 0
                # Drop the dead timers now at the head; acked or superseded
                # ones would only fire as no-ops.
                while rto:
                    seq, xmit_id = rto[0][6]
                    seg = unacked.get(seq)
                    if seg is not None and seg.xmit_id == xmit_id:
                        break
                    rto.popleft()

        self.now = t_end
        self._evseq, self._next_seq = evseq, next_seq
        self._last_acked, self._expected_seq = last_acked, expected
        self._snd_next, self._snd_done = snd_next, snd_done
        self._rcv_done, self.rtt_ewma_ms = rcv_done, ewma
        self.bytes_sent_total, self.retransmissions = sent, retransmissions
        self.segments_acked_total = acked
        for name, times in self._drop_times.items():
            n = bisect.bisect_right(times, t_end)
            setattr(self, name, getattr(self, name) + n)
            del times[:n]

        return (acked - acked_before) * seg_bytes / interval_s
