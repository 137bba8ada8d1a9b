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

All randomness flows from the per-instance seeded PRNG and events are ordered
by (timestamp, insertion sequence), so two simulators with the same config
produce bit-identical results for identical call sequences.
"""

from __future__ import annotations

import heapq
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
    loss_prob: float = 0.0


#: Access links host<->router, both sides identical.
DEFAULT_ACCESS = LinkSpec(rate_bps=10_000_000, prop_delay_ms=1.0)
#: Router<->router link; the 2 Mbps bottleneck caps throughput at 250000 B/s.
DEFAULT_BOTTLENECK = LinkSpec(rate_bps=2_000_000, prop_delay_ms=5.0)


@dataclass(frozen=True)
class SimConfig:
    access_link: LinkSpec = DEFAULT_ACCESS
    bottleneck_link: LinkSpec = DEFAULT_BOTTLENECK
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


@dataclass(frozen=True)
class IntervalStats:
    acked_bytes: int
    throughput_Bps: float
    avg_rtt_ms: float
    loss_events: int
    interval_ms: float


def validate_config(cfg: SimConfig) -> None:
    """Raise InvalidConfigError naming the first violated field."""
    for name, link in (("access_link", cfg.access_link),
                       ("bottleneck_link", cfg.bottleneck_link)):
        if link.rate_bps <= 0:
            raise InvalidConfigError(f"{name}.rate_bps", "must be positive")
        if link.prop_delay_ms < 0:
            raise InvalidConfigError(f"{name}.prop_delay_ms",
                                     "must be non-negative")
        if not 0.0 <= link.loss_prob <= 1.0:
            raise InvalidConfigError(f"{name}.loss_prob",
                                     "must be in [0, 1]")
    if cfg.ack_bytes < 1:
        raise InvalidConfigError("ack_bytes", "must be >= 1")
    if cfg.segment_bytes < cfg.ack_bytes:
        raise InvalidConfigError("segment_bytes", "must be >= ack_bytes")
    if cfg.queue_capacity_segments < 1:
        raise InvalidConfigError("queue_capacity_segments", "must be >= 1")
    one_way_ms = 2 * cfg.access_link.prop_delay_ms \
        + cfg.bottleneck_link.prop_delay_ms
    if cfg.rto_ms <= 4 * one_way_ms:
        raise InvalidConfigError(
            "rto_ms", f"must exceed 4x one-way propagation ({4 * one_way_ms} ms)")
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


# Event kinds, dispatched in _dispatch.
_SND_TX_DONE = 0     # sender access link finished serializing a segment
_R1_ARRIVE = 1       # segment reached the bottleneck ingress
_BN_TX_DONE = 2      # bottleneck finished serializing a segment
_R2_ARRIVE = 3       # segment reached router2 (channel-error draw here)
_RCV_TX_DONE = 4     # receiver-side access link finished serializing
_RCV_ARRIVE = 5      # segment delivered to the receiver
_ACK_ARRIVE = 6      # cumulative ACK delivered to the sender
_RTO_FIRE = 7        # retransmission timer
_SND_KICK = 8        # poke the sender access link to start serializing


class _Segment:
    __slots__ = ("seq", "first_send_ms", "retrans_count", "xmit_id")

    def __init__(self, seq: int):
        self.seq = seq
        self.first_send_ms = -1.0
        self.retrans_count = 0
        self.xmit_id = 0


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

        self._snd_busy = False
        self._snd_queue: deque[int] = deque()
        self._bn_busy = False
        self._bn_queue: deque[int] = deque()
        self._rcv_busy = False
        self._rcv_queue: deque[int] = deque()

        self._expected_seq = 0
        self._ooo: set[int] = set()

        self.bytes_sent_total = 0
        self.segments_acked_total = 0
        self.rtt_ewma_ms: float | None = None
        self.retransmissions = 0
        self.drops_error = 0
        self.drops_queue = 0

        self._try_send()

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
        self._try_send()

    def advance(self, interval_ms: float) -> IntervalStats:
        """Process all events up to now + interval_ms and return the
        interval's stats."""
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        t_end = self.now + interval_ms
        acked_before = self.segments_acked_total
        drops_before = self.drops_error + self.drops_queue

        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time_ms, _, kind, payload = heapq.heappop(heap)
            self.now = time_ms
            self._dispatch(kind, payload)
        self.now = t_end

        acked_bytes = (self.segments_acked_total - acked_before) \
            * self.cfg.segment_bytes
        return IntervalStats(
            acked_bytes=acked_bytes,
            throughput_Bps=acked_bytes / (interval_ms / 1000.0),
            avg_rtt_ms=self.rtt_ewma_ms if self.rtt_ewma_ms is not None else 0.0,
            loss_events=self.drops_error + self.drops_queue - drops_before,
            interval_ms=interval_ms,
        )

    # -- event machinery ---------------------------------------------------

    def _schedule(self, at_ms: float, kind: int, payload) -> None:
        self._evseq += 1
        heapq.heappush(self._heap, (at_ms, self._evseq, kind, payload))

    def _dispatch(self, kind: int, payload) -> None:
        if kind == _SND_TX_DONE:
            self._on_snd_tx_done(payload)
        elif kind == _R1_ARRIVE:
            self._on_r1_arrive(payload)
        elif kind == _BN_TX_DONE:
            self._on_bn_tx_done(payload)
        elif kind == _R2_ARRIVE:
            self._on_r2_arrive(payload)
        elif kind == _RCV_TX_DONE:
            self._on_rcv_tx_done(payload)
        elif kind == _RCV_ARRIVE:
            self._on_rcv_arrive(payload)
        elif kind == _ACK_ARRIVE:
            self._on_ack_arrive(payload)
        elif kind == _RTO_FIRE:
            self._on_rto_fire(payload)
        elif kind == _SND_KICK:
            if not self._snd_busy:
                self._snd_start_next()

    # -- sender ------------------------------------------------------------

    def _try_send(self) -> None:
        while len(self._unacked) < self.cwnd:
            seq = self._next_seq
            self._next_seq += 1
            self._unacked[seq] = _Segment(seq)
            self._enqueue_snd(seq)

    def _enqueue_snd(self, seq: int) -> None:
        # Transmission starts from the event loop, never synchronously, so
        # counters only move during advance().
        self._snd_queue.append(seq)
        self._schedule(self.now, _SND_KICK, None)

    def _snd_start_next(self) -> None:
        while self._snd_queue:
            seq = self._snd_queue.popleft()
            seg = self._unacked.get(seq)
            if seg is None:
                continue  # retransmission that was queued but acked meanwhile
            self._snd_busy = True
            self.bytes_sent_total += self.cfg.segment_bytes
            if seg.first_send_ms < 0:
                seg.first_send_ms = self.now
            seg.xmit_id += 1
            self._schedule(self.now + self.cfg.rto_ms, _RTO_FIRE,
                           (seq, seg.xmit_id))
            self._schedule(self.now + self._ser_access_ms, _SND_TX_DONE, seq)
            return

    def _on_snd_tx_done(self, seq: int) -> None:
        self._schedule(self.now + self.cfg.access_link.prop_delay_ms,
                       _R1_ARRIVE, seq)
        self._snd_busy = False
        self._snd_start_next()

    # -- bottleneck --------------------------------------------------------

    def _on_r1_arrive(self, seq: int) -> None:
        if self._bn_busy:
            if len(self._bn_queue) < self.cfg.queue_capacity_segments:
                self._bn_queue.append(seq)
            else:
                self.drops_queue += 1
        else:
            self._start_bn(seq)

    def _start_bn(self, seq: int) -> None:
        self._bn_busy = True
        self._schedule(self.now + self._ser_bottleneck_ms, _BN_TX_DONE, seq)

    def _on_bn_tx_done(self, seq: int) -> None:
        self._schedule(self.now + self.cfg.bottleneck_link.prop_delay_ms,
                       _R2_ARRIVE, seq)
        if self._bn_queue:
            self._start_bn(self._bn_queue.popleft())
        else:
            self._bn_busy = False

    def _on_r2_arrive(self, seq: int) -> None:
        # Channel error on the congested link; the corrupted segment has
        # already consumed bottleneck capacity.  Fresh draw per traversal.
        if self.cfg.bottleneck_link.loss_prob > 0.0 \
                and self._rng.random() < self.cfg.bottleneck_link.loss_prob:
            self.drops_error += 1
            return
        if self._rcv_busy:
            self._rcv_queue.append(seq)
        else:
            self._start_rcv(seq)

    def _start_rcv(self, seq: int) -> None:
        self._rcv_busy = True
        self._schedule(self.now + self._ser_access_ms, _RCV_TX_DONE, seq)

    def _on_rcv_tx_done(self, seq: int) -> None:
        self._schedule(self.now + self.cfg.access_link.prop_delay_ms,
                       _RCV_ARRIVE, seq)
        if self._rcv_queue:
            self._start_rcv(self._rcv_queue.popleft())
        else:
            self._rcv_busy = False

    # -- receiver ----------------------------------------------------------

    def _on_rcv_arrive(self, seq: int) -> None:
        if seq == self._expected_seq:
            self._expected_seq += 1
            while self._expected_seq in self._ooo:
                self._ooo.discard(self._expected_seq)
                self._expected_seq += 1
            # One cumulative ACK per in-order arrival; seq is the trigger
            # segment used for RTT sampling at the sender.
            self._schedule(self.now + self._ack_delay_ms, _ACK_ARRIVE,
                           (self._expected_seq - 1, seq))
        elif seq > self._expected_seq:
            self._ooo.add(seq)
        # seq < expected: duplicate of an already delivered segment; ignore.

    # -- sender, ACK and timer side ---------------------------------------

    def _on_ack_arrive(self, payload) -> None:
        cum, trigger_seq = payload
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
        self._try_send()

    def _on_rto_fire(self, payload) -> None:
        seq, xmit_id = payload
        seg = self._unacked.get(seq)
        if seg is None or seg.xmit_id != xmit_id:
            return  # acked, or superseded by a later (re)transmission
        self.retransmissions += 1
        seg.retrans_count += 1
        self._enqueue_snd(seq)
