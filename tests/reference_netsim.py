"""Test-only reference: the event-per-hop simulator that ``rlcc.netsim``
computed before its forward path became arithmetic.

Every hop of every segment is a heap event ordered by (timestamp, insertion
sequence).  ``tests/test_netsim_differential.py`` runs it side by side with
``rlcc.netsim.Simulator`` and requires equal throughput and counters after
every call.  Kept as it was; only the dataclasses come from the package, and
it checks its config with ``cfg.validate()`` (``SimConfig.validate``).  The
RTT EWMA step is written out here, so a change to
``rlcc.netsim.update_rtt_ewma`` fails the comparison.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from rlcc.netsim import FlowCounters, SimConfig


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


class ReferenceSimulator:
    """Single-flow dumbbell simulator with one heap event per hop."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
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
            raise ValueError(f"cwnd must be an integer, got {segments!r}")
        if not 1 <= segments <= self.cfg.cwnd_max:
            raise ValueError(
                f"cwnd {segments} outside [1, {self.cfg.cwnd_max}]")
        self.cwnd = segments
        self._try_send()

    def advance(self, interval_ms: float) -> float:
        """Process all events up to now + interval_ms and return the
        interval's throughput in bytes per second."""
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        t_end = self.now + interval_ms
        acked_before = self.segments_acked_total

        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time_ms, _, kind, payload = heapq.heappop(heap)
            self.now = time_ms
            self._dispatch(kind, payload)
        self.now = t_end

        return (self.segments_acked_total - acked_before) \
            * self.cfg.segment_bytes / (interval_ms / 1000.0)

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
            alpha = self.cfg.rtt_ewma_alpha
            self.rtt_ewma_ms = sample if self.rtt_ewma_ms is None else (
                (1.0 - alpha) * self.rtt_ewma_ms + alpha * sample)
        self._try_send()

    def _on_rto_fire(self, payload) -> None:
        seq, xmit_id = payload
        seg = self._unacked.get(seq)
        if seg is None or seg.xmit_id != xmit_id:
            return  # acked, or superseded by a later (re)transmission
        self.retransmissions += 1
        seg.retrans_count += 1
        self._enqueue_snd(seq)
