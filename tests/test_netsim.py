import math
import re
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from rlcc.netsim import (BottleneckSpec, LinkSpec, SimConfig, Simulator,
                         update_rtt_ewma)
from rlcc.schema import EnvConfig

CAPACITY_BPS = 250_000  # 2 Mbps bottleneck in bytes/second


def lossy_config(loss_prob, seed=0, **kw):
    return SimConfig(bottleneck_link=BottleneckSpec(2_000_000, 5.0, loss_prob),
                     seed=seed, **kw)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        Simulator(SimConfig())

    def test_bottleneck_service_time_is_4ms(self):
        # 1000-byte segment on the 2 Mbps link: 8000 bits / 2 Mbps = 4 ms
        sim = Simulator(SimConfig())
        assert sim._ser_bottleneck_ms == pytest.approx(4.0)

    @pytest.mark.parametrize("cfg,field", [
        (SimConfig(queue_capacity_segments=0), "queue_capacity_segments"),
        (SimConfig(access_link=LinkSpec(0, 1.0)), "access_link.rate_bps"),
        (SimConfig(bottleneck_link=BottleneckSpec(2_000_000, -1.0)),
         "bottleneck_link.prop_delay_ms"),
        (SimConfig(bottleneck_link=BottleneckSpec(2_000_000, 5.0, 1.5)),
         "bottleneck_link.loss_prob"),
        (SimConfig(segment_bytes=20, ack_bytes=40), "segment_bytes"),
        (SimConfig(ack_bytes=0), "ack_bytes"),
        (SimConfig(rto_ms=10.0), "rto_ms"),
        (SimConfig(rtt_ewma_alpha=0.0), "rtt_ewma_alpha"),
        (SimConfig(cwnd_max=0), "cwnd_max"),
    ])
    def test_invalid_config_names_field(self, cfg, field):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: "):
            Simulator(cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call,field", [
        (lambda v: Simulator(SimConfig()).advance(v), "interval_ms"),
        (lambda v: Simulator(SimConfig(rto_ms=v)), "rto_ms"),
        (lambda v: Simulator(SimConfig(access_link=LinkSpec(10_000_000, v))),
         "access_link.prop_delay_ms"),
        (lambda v: Simulator(SimConfig(
            bottleneck_link=BottleneckSpec(2_000_000, v))),
         "bottleneck_link.prop_delay_ms"),
        (lambda v: EnvConfig(decision_interval_ms=v).validate(),
         "decision_interval_ms"),
        (lambda v: Simulator(SimConfig(
            bottleneck_link=BottleneckSpec(v, 5.0))),
         "bottleneck_link.rate_bps"),
    ], ids=["advance", "rto", "access_delay", "bottleneck_delay",
            "decision_interval", "bottleneck_rate"])
    def test_non_finite_time_rejected(self, call, field, value):
        with pytest.raises(ValueError, match=field):
            call(value)

    @pytest.mark.parametrize("value", [5e-324, 1e-321])
    @pytest.mark.parametrize("call,field", [
        (lambda v: Simulator(SimConfig()).advance(v), "interval_ms"),
        (lambda v: EnvConfig(decision_interval_ms=v).validate(),
         "decision_interval_ms"),
    ], ids=["advance", "decision_interval"])
    def test_interval_zero_in_seconds_rejected(self, call, field, value):
        # positive in ms, but the interval in seconds underflows to 0.0
        with pytest.raises(ValueError, match=field):
            call(value)

    def test_fresh_simulator_state(self):
        sim = Simulator(SimConfig(seed=3))
        c = sim.counters()
        assert sim.now == 0.0
        assert c.cwnd_segments == 1
        assert c.bytes_sent_total == 0
        assert c.segments_acked_total == 0


class TestSetCwnd:
    def test_setter_contract(self):
        sim = Simulator(SimConfig())
        sim.set_cwnd(5)
        assert sim.counters().cwnd_segments == 5

    @pytest.mark.parametrize("bad", [0, -1, 201])
    def test_out_of_range_rejected(self, bad):
        sim = Simulator(SimConfig())
        with pytest.raises(ValueError,
                           match=rf"^cwnd {bad} outside \[1, 200\]$"):
            sim.set_cwnd(bad)

    def test_shrink_gates_sends_until_inflight_below_window(self):
        # 5 segments in flight, window shrunk to 3: no new transmissions
        # until three ACKs have drained the flight below the new window.
        sim = Simulator(SimConfig(seed=0))
        sim.set_cwnd(5)
        sim.advance(5.0)  # all five transmitted, none acked yet
        assert list(sim._unacked) == [0, 1, 2, 3, 4]
        sim.set_cwnd(3)
        sent_at_shrink = sim.counters().bytes_sent_total
        acked_at_shrink = sim.counters().segments_acked_total
        for _ in range(200):
            sim.advance(1.0)
            c = sim.counters()
            if c.segments_acked_total - acked_at_shrink < 3:
                assert c.bytes_sent_total == sent_at_shrink
            else:
                break
        sim.advance(50.0)
        assert sim.counters().bytes_sent_total > sent_at_shrink
        assert len(sim._unacked) <= 3


class TestAdvance:
    def test_capacity_saturation_cwnd64(self):
        sim = Simulator(SimConfig(seed=1))
        sim.set_cwnd(64)
        assert sim.advance(5000.0) == pytest.approx(CAPACITY_BPS, rel=0.02)

    def test_hand_trace_cwnd1(self):
        # Hand event trace with the default links: forward
        # 0.8+1+4+5+0.8+1 ms, reverse 0.032+1+0.16+5+0.032+1 ms, so one
        # 1000-byte segment every 19.824 ms -> 50444 B/s steady state.
        sim = Simulator(SimConfig(seed=1))
        assert sim.advance(5000.0) == pytest.approx(50_444, rel=0.01)
        assert sim.counters().rtt_ewma_ms == pytest.approx(19.824, rel=1e-6)

    def test_zero_loss_never_drops(self):
        sim = Simulator(SimConfig(seed=5))
        sim.set_cwnd(32)
        sim.advance(3000.0)
        assert sim.counters().drops_error == 0

    def test_certain_loss(self):
        sim = Simulator(lossy_config(1.0, seed=2))
        sim.set_cwnd(4)
        throughput = sim.advance(5000.0)
        c = sim.counters()
        assert throughput == 0.0
        assert c.drops_error > 0
        assert c.retransmissions > 0

    def test_interval_must_be_positive(self):
        sim = Simulator(SimConfig())
        with pytest.raises(ValueError):
            sim.advance(0.0)

    def test_queue_overflow_drops(self):
        cfg = SimConfig(queue_capacity_segments=5, cwnd_max=200)
        sim = Simulator(cfg)
        sim.set_cwnd(64)  # initial burst overruns the 5-slot queue
        sim.advance(100.0)
        assert sim.counters().drops_queue > 0


class TestRttEwma:
    def test_fixed_point(self):
        assert update_rtt_ewma(20.0, 20.0, 0.125) == pytest.approx(20.0)

    def test_weighted_update(self):
        assert update_rtt_ewma(20.0, 28.0, 0.125) == pytest.approx(21.0)

    def test_first_sample_initializes(self):
        assert update_rtt_ewma(None, 14.0, 0.125) == 14.0

    @given(st.floats(0.001, 1.0), st.floats(0.1, 1000.0), st.floats(0.1, 1000.0))
    def test_result_between_ewma_and_sample(self, alpha, ewma, sample):
        out = update_rtt_ewma(ewma, sample, alpha)
        lo, hi = min(ewma, sample), max(ewma, sample)
        assert lo - 1e-9 <= out <= hi + 1e-9


class TestInvariants:
    def test_conservation_acked_never_exceeds_sent(self):
        sim = Simulator(lossy_config(0.2, seed=9))
        sim.set_cwnd(32)
        for _ in range(50):
            sim.advance(100.0)
            c = sim.counters()
            assert c.segments_acked_total * sim.cfg.segment_bytes \
                <= c.bytes_sent_total

    def test_counters_monotone(self):
        sim = Simulator(lossy_config(0.2, seed=4))
        sim.set_cwnd(64)
        prev = sim.counters()
        for _ in range(40):
            sim.advance(100.0)
            c = sim.counters()
            for name in ("bytes_sent_total", "segments_acked_total",
                         "retransmissions", "drops_error", "drops_queue"):
                assert getattr(c, name) >= getattr(prev, name)
            prev = c

    def test_capacity_bound_over_40ms_windows(self):
        # loss-free: no cumulative-ACK jumps, so every 40 ms window obeys
        # the bottleneck rate plus one segment of rounding
        sim = Simulator(SimConfig(seed=11))
        sim.set_cwnd(64)
        bound = CAPACITY_BPS + sim.cfg.segment_bytes / 0.040
        for _ in range(250):
            assert sim.advance(40.0) <= bound

    def test_window_gating(self):
        sim = Simulator(lossy_config(0.1, seed=13))
        sim.set_cwnd(20)
        for _ in range(100):
            sim.advance(10.0)
            assert len(sim._unacked) <= sim.cwnd

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(lossy_config(0.2, seed=seed))
            sim.set_cwnd(50)
            return [(sim.advance(100.0), sim.counters()) for _ in range(30)]

        assert run(21) == run(21)
        assert run(21) != run(22)

    def test_interval_partition_invariance(self):
        a = Simulator(lossy_config(0.2, seed=7))
        b = Simulator(lossy_config(0.2, seed=7))
        a.set_cwnd(64)
        b.set_cwnd(64)
        a.advance(5000.0)
        for _ in range(50):
            b.advance(100.0)
        assert a.counters() == b.counters()

    def test_loss_monotonicity_statistical(self):
        def mean_throughput(loss):
            vals = []
            for seed in range(10):
                sim = Simulator(lossy_config(loss, seed=seed))
                sim.set_cwnd(64)
                vals.append(sim.advance(3000.0))
            return statistics.mean(vals)

        assert mean_throughput(0.2) < mean_throughput(0.0)


class SimulatorMachine(RuleBasedStateMachine):
    """Random set_cwnd / advance sequences on lossy, small-queue configs."""

    @initialize(loss=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
                queue=st.integers(1, 250), seed=st.integers(0, 2**32 - 1))
    def start(self, loss, queue, seed):
        self.sim = Simulator(lossy_config(loss, seed=seed,
                                          queue_capacity_segments=queue))
        self.max_cwnd = self.sim.cwnd
        self.prev = self.sim.counters()

    @rule(cwnd=st.integers(1, 200))
    def set_cwnd(self, cwnd):
        self.sim.set_cwnd(cwnd)
        self.max_cwnd = max(self.max_cwnd, cwnd)

    @rule(interval=st.floats(1.0, 250.0))
    def advance(self, interval):
        before = self.sim.now
        acked_before = self.sim.counters().segments_acked_total
        throughput = self.sim.advance(interval)
        assert self.sim.now == before + interval
        acked = self.sim.counters().segments_acked_total - acked_before
        assert throughput == \
            acked * self.sim.cfg.segment_bytes / (interval / 1000.0)

    @invariant()
    def counters_consistent(self):
        c = self.sim.counters()
        for name in ("bytes_sent_total", "segments_acked_total",
                     "retransmissions", "drops_error", "drops_queue"):
            assert getattr(c, name) >= getattr(self.prev, name)
        self.prev = c
        # unacknowledged segments, and the window the next advance fills
        assert len(self.sim._unacked) <= self.max_cwnd
        assert self.sim._fill_to <= self.max_cwnd
        seg = self.sim.cfg.segment_bytes
        assert c.segments_acked_total * seg <= c.bytes_sent_total
        assert c.bytes_sent_total // seg >= \
            c.segments_acked_total + c.drops_error + c.drops_queue

    @invariant()
    def event_sources_ordered(self):
        # advance takes the least head, so each source must be in key order
        for source in (self.sim._acks, self.sim._rto):
            events = list(source)
            assert all(a <= b for a, b in zip(events, events[1:]))
        # a queued segment always has a finish or kick of the link pending
        assert not self.sim._snd_queue or self.sim._snd_next is not None


SimulatorMachine.TestCase.settings = settings(max_examples=60, deadline=None)
TestSimulatorMachine = SimulatorMachine.TestCase
