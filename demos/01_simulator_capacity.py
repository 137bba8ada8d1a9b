"""Narrative walk through the bare simulator.

Shows the three regimes that anchor everything else: a single-segment
stop-and-wait flow, a window large enough to saturate the 2 Mbps
bottleneck, and the same saturating window on a 20% lossy channel.
"""

from rlcc import BottleneckSpec, SimConfig, Simulator
from dataclasses import replace

CAPACITY_BPS = 250_000  # 2 Mbps / 8


def run(cfg, cwnd, duration_ms=5000.0):
    sim = Simulator(cfg)
    sim.set_cwnd(cwnd)
    throughput = sim.advance(duration_ms)
    return throughput, sim.counters()


def main():
    base = SimConfig(seed=42)

    # cwnd=1 is pure stop-and-wait: one segment per round trip.  With the
    # default delays the round trip is 19.824 ms, so ~50.4 kB/s.
    thr, c = run(base, cwnd=1)
    print(f"cwnd=1     throughput {thr:9.0f} B/s   "
          f"rtt {c.rtt_ewma_ms:.3f} ms")

    # cwnd=64 overfills the bandwidth-delay product (~5 segments), so the
    # bottleneck stays busy and throughput pins to capacity.
    thr, _ = run(base, cwnd=64)
    print(f"cwnd=64    throughput {thr:9.0f} B/s   "
          f"({thr / CAPACITY_BPS:.1%} of capacity)")

    # A 20% Bernoulli channel error collapses the fixed-RTO flow: every
    # loss stalls its segment for a full second.
    lossy = replace(base, bottleneck_link=BottleneckSpec(2_000_000, 5.0, 0.2))
    thr, c = run(lossy, cwnd=64)
    print(f"cwnd=64 @ 20% loss: throughput {thr:9.0f} B/s   "
          f"retransmissions {c.retransmissions}, error drops {c.drops_error}")


if __name__ == "__main__":
    main()
