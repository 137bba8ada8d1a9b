"""Differential test: rlcc.netsim.Simulator against the event-per-hop
reference it replaced (tests/reference_netsim.py).

Configs mix "round" values, under which events of different hops land on
the same timestamp and only the tie order decides what happens, with
arbitrary ones.  After every call the two simulators must agree exactly:
the interval throughput ``advance`` returns, the flow counters (which hold
the RTT average and the drops), the in-flight count and the clock, compared
with ``==``.
"""

from hypothesis import example, given, settings, strategies as st

from reference_netsim import ReferenceSimulator
from rlcc.netsim import BottleneckSpec, LinkSpec, SimConfig, Simulator

ROUND_RATES = [500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000,
               10_000_000, 16_000_000]
ROUND_DELAYS = [0.0, 0.5, 0.8, 1.0, 2.0, 4.0, 5.0]
LOSS_PROBS = [0.0, 0.05, 0.2, 0.5, 1.0]


def rates():
    return st.sampled_from(ROUND_RATES) | st.integers(500_000, 16_000_000)


def delays():
    return st.sampled_from(ROUND_DELAYS) | st.floats(0.0, 10.0)


@st.composite
def sim_configs(draw):
    loss_prob = draw(st.sampled_from(LOSS_PROBS))
    if draw(st.booleans()):
        # FINISH_TIE's family.  With no propagation delay and rates of
        # 1 Mbps times a power of two, every time is a dyadic number of ms,
        # and a segment's time on the access link, ack_bytes * (2 + ratio)
        # bytes, equals an ACK's return over access, bottleneck (ratio times
        # slower) and access: ACKs return exactly as the sender link
        # finishes.  A timeout of 1-4 segment times is at most the round
        # trip of 3 + ratio, so timers fire too, and as the link finishes.
        ratio = draw(st.sampled_from([1, 2, 4]))
        rate = 1_000_000 * 2 ** draw(st.integers(2, 5))
        access = LinkSpec(rate * ratio, 0.0)
        bottleneck = BottleneckSpec(rate, 0.0, loss_prob)
        ack_bytes = draw(st.sampled_from([125, 250]))
        segment_bytes = ack_bytes * (2 + ratio)
        rto_ms = (draw(st.integers(1, 4)) * segment_bytes * 8000
                  / access.rate_bps)
    else:
        access = LinkSpec(draw(rates()), draw(delays()))
        bottleneck = BottleneckSpec(draw(rates()), draw(delays()), loss_prob)
        segment_bytes = draw(st.sampled_from([40, 500, 1000, 1500])
                             | st.integers(40, 1500))
        ack_bytes = draw(st.sampled_from([1, 40, segment_bytes])
                         | st.integers(1, segment_bytes))
        # SimConfig.validate requires rto_ms > 4x the one-way propagation delay
        floor_ms = 4 * (2 * access.prop_delay_ms + bottleneck.prop_delay_ms)
        rto_ms = floor_ms + draw(st.sampled_from([1e-3, 0.5, 4.0, 20.0, 1000.0])
                                 | st.floats(1e-3, 1000.0))
    return SimConfig(
        access_link=access, bottleneck_link=bottleneck,
        segment_bytes=segment_bytes, ack_bytes=ack_bytes,
        queue_capacity_segments=draw(st.integers(1, 250)),
        rto_ms=rto_ms,
        rtt_ewma_alpha=draw(st.sampled_from([0.125, 0.5, 1.0])
                            | st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**32 - 1)))


calls = st.lists(
    st.tuples(st.just("cwnd"), st.integers(1, 200))
    | st.tuples(st.just("advance"),
                st.sampled_from([1.0, 4.0, 10.0, 100.0, 250.0])
                | st.floats(1.0, 250.0)),
    min_size=2, max_size=12)


def assert_same_state(new, ref):
    assert new.counters() == ref.counters()
    assert new.in_flight == ref.in_flight
    assert new.now == ref.now


# Pinned configs whose ties each need one of the ordering rules.  Here 500-
# byte segments take 4 ms on the 1 Mbps bottleneck, the access links'
# propagation delay, so a departure and an arrival at router1 share a
# timestamp and the instant they were scheduled at; only the older events
# that led to them decide which comes first.
DEEP_TIE = SimConfig(access_link=LinkSpec(4_000_000, 4.0),
                     bottleneck_link=BottleneckSpec(1_000_000, 1.0),
                     segment_bytes=500, queue_capacity_segments=1,
                     seed=140271)
# A departure at the time of an arrival at router1 that leaves after it ...
ARRIVAL_FIRST = SimConfig(access_link=LinkSpec(16_000_000, 2.0),
                          bottleneck_link=BottleneckSpec(4_000_000, 0.5, 0.05),
                          segment_bytes=120, queue_capacity_segments=5,
                          rto_ms=28.0, seed=480595)
# ... and one that leaves before it.
DEPARTURE_FIRST = SimConfig(access_link=LinkSpec(16_000_000, 1.0),
                            bottleneck_link=BottleneckSpec(4_000_000, 0.5),
                            segment_bytes=1500, queue_capacity_segments=5,
                            seed=390463)

# With no propagation delay and a 1 ms RTO, timers, sender-link finishes and
# ACKs share timestamps; the heap must order them by when they were
# scheduled, not by when they entered it.
HEAP_TIE = SimConfig(access_link=LinkSpec(10_000_000, 0.0),
                     bottleneck_link=BottleneckSpec(1_000_000, 0.0, 0.5),
                     segment_bytes=500, queue_capacity_segments=1,
                     rto_ms=1.0, seed=787615)

# An idle sender link keeps its finish out of the heap until a segment is
# enqueued before it in event order.  Here 1000-byte segments take 0.5 ms on
# the sender link and ACKs take 0.5 ms to return, so ACKs arrive as the link
# finishes and tie with the finish in three fields, after it by the fourth;
# the 6 ms timers also fire as the link finishes, before it by their parent
# fields.
FINISH_TIE = SimConfig(access_link=LinkSpec(16_000_000, 0.0),
                       bottleneck_link=BottleneckSpec(8_000_000, 0.0, 0.05),
                       segment_bytes=1000, ack_bytes=250,
                       queue_capacity_segments=1, rto_ms=6.0,
                       seed=3651825266)
# 500-byte segments take 1 ms on the sender link, so the calls below find its
# last finish at now, after now and before now.  The two examples on the
# default config raise the window and lower it again before the next
# advance, which must still send the raised window's segments.
IDLE_LINK = SimConfig(access_link=LinkSpec(4_000_000, 1.0), segment_bytes=500)


@settings(max_examples=300, deadline=None)
@given(cfg=sim_configs(), sequence=calls)
@example(cfg=DEEP_TIE, sequence=[
    ("advance", 250.0), ("cwnd", 39), ("advance", 10.0), ("cwnd", 81),
    ("advance", 250.0), ("cwnd", 134), ("advance", 100.0)])
@example(cfg=HEAP_TIE, sequence=[("advance", 100.0)])
@example(cfg=ARRIVAL_FIRST, sequence=[("cwnd", 178), ("advance", 250.0)])
@example(cfg=DEPARTURE_FIRST, sequence=[
    ("cwnd", 62), ("advance", 1.0), ("advance", 159.75363272187582)])
@example(cfg=FINISH_TIE, sequence=[("cwnd", 3), ("advance", 100.0)])
@example(cfg=IDLE_LINK, sequence=[
    ("advance", 1.0), ("cwnd", 2), ("advance", 0.5), ("cwnd", 3),
    ("advance", 2.5), ("cwnd", 4), ("advance", 100.0)])
@example(cfg=SimConfig(), sequence=[
    ("cwnd", 9), ("cwnd", 2), ("advance", 100.0)])
@example(cfg=SimConfig(), sequence=[
    ("advance", 50.0), ("cwnd", 30), ("cwnd", 4), ("advance", 100.0)])
def test_matches_event_per_hop_reference(cfg, sequence):
    new, ref = Simulator(cfg), ReferenceSimulator(cfg)
    assert_same_state(new, ref)
    for op, arg in sequence:
        if op == "cwnd":
            new.set_cwnd(arg)
            ref.set_cwnd(arg)
        else:
            assert new.advance(arg) == ref.advance(arg)
        assert_same_state(new, ref)
