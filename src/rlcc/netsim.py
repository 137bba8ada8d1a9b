"""Discrete-event simulator of one bulk-transfer flow over a dumbbell topology.

Topology: sender host -- access link -- router1 == bottleneck == router2 --
access link -- receiver host.  The sender has an infinite backlog (FTP bulk
model) and is gated only by an externally controlled congestion window: there
is no slow start, no AIMD and no fast retransmit, so whoever calls
``set_cwnd`` is the sole congestion controller.

Data segments are store-and-forward serialized on every hop.  The bottleneck
ingress queue is drop-tail; forward segments surviving the queue can still be
lost to a per-segment Bernoulli channel-error draw.  ACKs travel an
uncongested reverse path with fixed latency and are never lost.  Un-ACKed
segments retransmit a fixed RTO after each (re)transmission; RTT samples
follow Karn's rule (never-retransmitted segments only) and feed an EWMA.

Heap events are ACK arrivals, one armed retransmission timer and the sender
link's finish, which enters the heap only when a segment waits for it.  An
idle link's finish is kept aside: a segment enqueued before it pushes it, one
enqueued after it kicks the link instead.  The kick waits in a slot of its
own, and ``advance`` takes it without a heap push whenever it is the next
event, so a clean flow costs about one heap push per delivered segment.
Later hops are FIFO with fixed service times, so a transmission's fate is
computed when it starts, with the sums an event per hop would take, in the
order an event per hop would take them (time, then the times of the events
that led to it, then insertion).  All randomness flows from the
per-instance seeded PRNG: equal configs and call sequences give
bit-identical results.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass


class InvalidConfigError(ValueError):
    """A configuration field violates its invariant; names the field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


class CwndRangeError(ValueError):
    """set_cwnd called with a window outside [1, cwnd_max]."""


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


@dataclass(frozen=True)
class FlowCounters:
    bytes_sent_total: int
    segments_acked_total: int
    rtt_ewma_ms: float
    retransmissions: int
    drops_error: int
    drops_queue: int
    cwnd_segments: int


def validate_config(cfg: SimConfig) -> None:
    """Raise InvalidConfigError naming the first violated field."""
    for name, link in (("access_link", cfg.access_link),
                       ("bottleneck_link", cfg.bottleneck_link)):
        if not 0 < link.rate_bps < math.inf:
            raise InvalidConfigError(f"{name}.rate_bps", "must be in (0, inf)")
        if not 0 <= link.prop_delay_ms < math.inf:
            raise InvalidConfigError(f"{name}.prop_delay_ms",
                                     "must be finite and non-negative")
    if not 0.0 <= cfg.bottleneck_link.loss_prob <= 1.0:
        raise InvalidConfigError("bottleneck_link.loss_prob",
                                 "must be in [0, 1]")
    if cfg.ack_bytes < 1:
        raise InvalidConfigError("ack_bytes", "must be >= 1")
    if cfg.segment_bytes < cfg.ack_bytes:
        raise InvalidConfigError("segment_bytes", "must be >= ack_bytes")
    if cfg.queue_capacity_segments < 1:
        raise InvalidConfigError("queue_capacity_segments", "must be >= 1")
    one_way_ms = 2 * cfg.access_link.prop_delay_ms \
        + cfg.bottleneck_link.prop_delay_ms
    if not 4 * one_way_ms < cfg.rto_ms < math.inf:
        raise InvalidConfigError("rto_ms", "must be finite and exceed 4x "
                                 f"one-way propagation ({4 * one_way_ms} ms)")
    if not 0.0 < cfg.rtt_ewma_alpha <= 1.0:
        raise InvalidConfigError("rtt_ewma_alpha", "must be in (0, 1]")
    if cfg.cwnd_max < 1:
        raise InvalidConfigError("cwnd_max", "must be >= 1")
    if cfg.seed < 0:
        raise InvalidConfigError("seed", "must be a non-negative integer")


def update_rtt_ewma(ewma_ms: float | None, sample_ms: float,
                    alpha: float) -> float:
    """EWMA step; the first sample initializes the average (ewma_ms=None)."""
    if ewma_ms is None:
        return sample_ms
    return (1.0 - alpha) * ewma_ms + alpha * sample_ms


# A heap entry is (time, parent time, grandparent time, great-grandparent
# time, insertion seq, kind, payload); its first four fields are its key.
# An event d ms after the one keyed k, or a hop computed d ms after it, is
# keyed (k[0] + d, k[0], k[1], k[2]).  Kinds index advance()'s handlers.
_SND_READY = 0       # sender link finished a segment, or a kick of it idle
_ACK_ARRIVE = 1      # cumulative ACK delivered to the sender
_RTO_FIRE = 2        # the armed retransmission timer


@dataclass(slots=True)
class _Segment:
    first_send_ms: float = -1.0
    retrans_count: int = 0
    xmit_id: int = 0


class Simulator:
    """Single-flow dumbbell simulator; see module docstring for the model."""

    def __init__(self, cfg: SimConfig):
        validate_config(cfg)
        self.cfg = cfg
        self.now = 0.0
        self._heap: list = []
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
        self._next_seq = 0
        self._last_acked = -1
        self._unacked: dict[int, _Segment] = {}

        # At most one _SND_READY is pending: a finish in the heap or a kick
        # in _kick.  An idle link keeps its last finish in _snd_done, which
        # is pushed if a segment is enqueued before it in event order.
        self._snd_ready_pending = False
        self._snd_done: tuple = (-math.inf,)
        self._kick: tuple | None = None
        self._snd_queue: deque[int] = deque()
        # Keys of the bottleneck departures still ahead, the one in service
        # first, and of the receiver link's latest departure.
        self._bn: deque[tuple] = deque()
        self._rcv_done: tuple = (-math.inf,)
        # Timer entries in deadline order; the head is the armed one.
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

        self._try_send((self.now, math.inf, math.inf))

    # -- public surface ----------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

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
        segments are never discarded by a shrink."""
        if not isinstance(segments, int) or isinstance(segments, bool):
            raise CwndRangeError(f"cwnd must be an integer, got {segments!r}")
        if not 1 <= segments <= self.cfg.cwnd_max:
            raise CwndRangeError(
                f"cwnd {segments} outside [1, {self.cfg.cwnd_max}]")
        self.cwnd = segments
        self._try_send((self.now, math.inf, math.inf))

    def advance(self, interval_ms: float) -> float:
        """Process all events up to now + interval_ms and return the
        interval's throughput in bytes per second."""
        interval_s = interval_ms / 1000.0
        if not 0 < interval_s < math.inf:
            raise ValueError("interval_ms must be finite and positive in "
                             "seconds")
        t_end = self.now + interval_ms
        acked_before = self.segments_acked_total

        heap = self._heap
        handlers = (self._on_snd_ready, self._on_ack_arrive, self._on_rto_fire)
        while True:
            # A kick is never later than t_end; heappushpop hands it back
            # untouched when it is the next event.
            kick = self._kick
            if kick is not None:
                self._kick = None
                ev = heapq.heappushpop(heap, kick)
            elif heap and heap[0][0] <= t_end:
                ev = heapq.heappop(heap)
            else:
                break
            self.now = ev[0]
            handlers[ev[5]](ev)
        self.now = t_end
        for name, times in self._drop_times.items():
            n = bisect.bisect_right(times, t_end)
            setattr(self, name, getattr(self, name) + n)
            del times[:n]

        return (self.segments_acked_total - acked_before) \
            * self.cfg.segment_bytes / interval_s

    # -- sender ------------------------------------------------------------

    def _try_send(self, ev: tuple) -> None:
        """Fill the window opened by ``ev``; a call from outside passes
        (now, inf, inf), after every event processed at now."""
        while len(self._unacked) < self.cwnd:
            seq = self._next_seq
            self._next_seq += 1
            self._unacked[seq] = _Segment()
            self._enqueue_snd(seq, ev)

    def _enqueue_snd(self, seq: int, ev: tuple) -> None:
        # Transmission starts from the event loop, so counters only move in
        # advance(); a busy link takes the segment when it finishes.
        self._snd_queue.append(seq)
        if not self._snd_ready_pending:
            self._snd_ready_pending = True
            # The kept finish is still ahead of ev in event order (for a call
            # from outside, done[0] > now): the busy link takes the segment
            # when it finishes.  Otherwise the idle link is kicked.
            if self._snd_done > ev:
                heapq.heappush(self._heap, self._snd_done)
            else:
                self._evseq += 1
                self._kick = (self.now, ev[0], ev[1], ev[2], self._evseq,
                              _SND_READY, None)

    def _on_snd_ready(self, ev: tuple) -> None:
        """The sender link finished a segment, or an idle one is kicked."""
        self._snd_ready_pending = False
        while self._snd_queue:
            seq = self._snd_queue.popleft()
            seg = self._unacked.get(seq)
            if seg is None:
                continue  # retransmission that was queued but acked meanwhile
            now, p1, p2 = ev[0], ev[1], ev[2]
            self.bytes_sent_total += self.cfg.segment_bytes
            if seg.first_send_ms < 0:
                seg.first_send_ms = now
            seg.xmit_id += 1
            # The timer waits in deadline order; it enters the heap once every
            # earlier one has fired or been found stale.
            self._evseq += 2
            timer = (now + self.cfg.rto_ms, now, p1, p2, self._evseq - 1,
                     _RTO_FIRE, (seq, seg.xmit_id))
            self._rto.append(timer)
            if len(self._rto) == 1:
                heapq.heappush(self._heap, timer)
            done = (now + self._ser_access_ms, now, p1, p2, self._evseq,
                    _SND_READY, None)
            self._snd_done = done
            if self._snd_queue:
                self._snd_ready_pending = True
                heapq.heappush(self._heap, done)
            self._forward(seq, done)
            return

    def _forward(self, seq: int, done: tuple) -> None:
        """Carry a transmission from its sender-link finish ``done`` through
        the bottleneck and receiver link, and schedule the ACK it causes."""
        cfg = self.cfg
        t = done[0]
        r1 = (t + cfg.access_link.prop_delay_ms, t, done[1], done[2])
        bn = self._bn
        while bn and bn[0] < r1:
            bn.popleft()   # departed before the segment reached router1
        if len(bn) > cfg.queue_capacity_segments:
            # one segment in service and a full queue: drop-tail
            self._drop_times["drops_queue"].append(r1[0])
            return
        # Service starts at the last departure if busy, else on arrival.
        p = bn[-1] if bn else r1
        t = p[0] + self._ser_bottleneck_ms
        bn.append((t, p[0], p[1], p[2]))
        r2 = (t + cfg.bottleneck_link.prop_delay_ms, t, p[0], p[1])
        # Channel error after the segment used the bottleneck's capacity: a
        # fresh draw per traversal, in bottleneck FIFO order.
        loss = cfg.bottleneck_link.loss_prob
        if loss > 0.0 and self._rng.random() < loss:
            self._drop_times["drops_error"].append(r2[0])
            return
        # The receiver link is idle if its last finish precedes the arrival.
        p = r2 if self._rcv_done < r2 else self._rcv_done
        t = p[0] + self._ser_access_ms
        self._rcv_done = (t, p[0], p[1], p[2])
        arrive = t + cfg.access_link.prop_delay_ms
        if seq == self._expected_seq:
            self._expected_seq += 1
            while self._expected_seq in self._ooo:
                self._ooo.discard(self._expected_seq)
                self._expected_seq += 1
            # One cumulative ACK per in-order arrival; seq is the trigger
            # segment used for RTT sampling at the sender.
            self._evseq += 1
            heapq.heappush(self._heap, (
                arrive + self._ack_delay_ms, arrive, t, p[0], self._evseq,
                _ACK_ARRIVE, (self._expected_seq - 1, seq)))
        elif seq > self._expected_seq:
            self._ooo.add(seq)
        # seq < expected: duplicate of an already delivered segment; ignore.

    # -- ACK and timer side ------------------------------------------------

    def _on_ack_arrive(self, ev: tuple) -> None:
        cum, trigger_seq = ev[6]
        if cum <= self._last_acked:
            return
        trigger_seg = None
        for s in range(self._last_acked + 1, cum + 1):
            seg = self._unacked.pop(s)
            self.segments_acked_total += 1
            if s == trigger_seq:
                trigger_seg = seg
        self._last_acked = cum
        # Karn's rule: sample RTT only from never-retransmitted segments.
        if trigger_seg is not None and trigger_seg.retrans_count == 0:
            sample = self.now - trigger_seg.first_send_ms
            self.rtt_ewma_ms = update_rtt_ewma(
                self.rtt_ewma_ms, sample, self.cfg.rtt_ewma_alpha)
        self._try_send(ev)

    def _on_rto_fire(self, ev: tuple) -> None:
        # A timer is live while its segment is unacked and not sent again.
        rto, unacked = self._rto, self._unacked
        rto.popleft()
        seq, xmit_id = ev[6]
        seg = unacked.get(seq)
        if seg is not None and seg.xmit_id == xmit_id:
            self.retransmissions += 1
            seg.retrans_count += 1
            self._enqueue_snd(seq, ev)
        # Arm the next live timer; acked or superseded ones would only have
        # fired as no-ops.
        while rto:
            seq, xmit_id = rto[0][6]
            seg = unacked.get(seq)
            if seg is not None and seg.xmit_id == xmit_id:
                heapq.heappush(self._heap, rto[0])
                break
            rto.popleft()
