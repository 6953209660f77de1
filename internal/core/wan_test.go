package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/topo"
	"tengig/internal/units"
	"tengig/internal/wan"
)

func TestWANPathParameters(t *testing.T) {
	// The paper's path: ~180 ms RTT, OC-48 bottleneck delivering ~2.39 Gb/s
	// of payload with 9000-byte MTU, BDP ~54 MB.
	cfg := wan.DefaultConfig()
	rtt := 2 * (cfg.SnvChiDelay + cfg.ChiGvaDelay)
	if rtt < 175*units.Millisecond || rtt > 185*units.Millisecond {
		t.Errorf("propagation RTT = %v, want ~180ms", rtt)
	}
	ceiling := wan.PayloadRate(9000).Gbps()
	if ceiling < 2.37 || ceiling > 2.41 {
		t.Errorf("OC-48 payload ceiling = %.3f Gb/s, want ~2.39", ceiling)
	}
}

func TestMultiFlowReceiveBenefitsFromCoalescing(t *testing.T) {
	// §3.5.2: "Packets from multiple hosts are more likely to be received
	// in frequent bursts than are packets from a single host, allowing the
	// receive path to benefit from interrupt coalescing." The aggregated
	// sink should batch more packets per interrupt than a single-flow
	// receiver at comparable load.
	m, err := NewMultiFlow(1, host.PE2650, host.Optimized(9000), 6, GbESenders, false)
	if err != nil {
		t.Fatal(err)
	}
	RunMultiFlow(m, 100*units.Millisecond)
	sinkStats := m.Sink.NIC(0).Adapter.Stats
	if sinkStats.Interrupts == 0 {
		t.Fatal("no interrupts at the sink")
	}
	multi := float64(sinkStats.RxPackets) / float64(sinkStats.Interrupts)

	pair, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 1)
	if err != nil {
		t.Fatal(err)
	}
	var rcv int64
	pair.Dst.SetAutoRead(func(n int64) { rcv += n })
	pair.Src.Send(1<<40, 64*1024, false, nil)
	pair.Eng.RunUntil(pair.Eng.Now() + 100*units.Millisecond)
	single := float64(pair.DstHost.NIC(0).Adapter.Stats.RxPackets) /
		float64(pair.DstHost.NIC(0).Adapter.Stats.Interrupts)

	if multi <= single {
		t.Errorf("aggregated batch size %.2f pkts/irq should exceed single-flow %.2f", multi, single)
	}
}
