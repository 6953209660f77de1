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

func TestWANRecordRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long WAN simulation")
	}
	// §4.2: a single stream with buffers tuned to the BDP sustains
	// 2.38 Gb/s — ~99% of the bottleneck payload rate, zero loss, and a
	// terabyte in under an hour.
	res, err := RunWAN(WANConfig{Seed: 1, Duration: 20 * units.Second})
	if err != nil {
		t.Fatal(err)
	}
	gbps := res.Throughput.Gbps()
	if gbps < 2.25 || gbps > 2.40 {
		t.Errorf("WAN throughput = %.3f Gb/s, want ~2.38", gbps)
	}
	if res.Efficiency < 0.95 || res.Efficiency > 1.0 {
		t.Errorf("payload efficiency = %.3f, want ~0.99", res.Efficiency)
	}
	if res.BottleneckDrops != 0 {
		t.Errorf("bottleneck drops = %d, want 0 (buffer tuned to BDP)", res.BottleneckDrops)
	}
	if res.Retransmits != 0 {
		t.Errorf("retransmits = %d, want 0", res.Retransmits)
	}
	if res.TimeToTerabyte >= units.Hour {
		t.Errorf("time to terabyte = %v, want < 1 hour", res.TimeToTerabyte)
	}
	if res.RTT < 175*units.Millisecond || res.RTT > 200*units.Millisecond {
		t.Errorf("measured RTT = %v, want ~180ms", res.RTT)
	}
}

func TestWANOversizedBufferLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("long WAN simulation")
	}
	// §4.2's motivation: without capping the window to the BDP, the
	// congestion window overruns the bottleneck queue; the loss halves the
	// window and the paper's Table 1 recovery time makes the average
	// throughput collapse.
	good, err := RunWAN(WANConfig{Seed: 1, Duration: 30 * units.Second})
	if err != nil {
		t.Fatal(err)
	}
	over, err := RunWAN(WANConfig{
		Seed:     1,
		Duration: 30 * units.Second,
		SockBuf:  3 * 54 * 1024 * 1024, // ~3x BDP
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.BottleneckDrops == 0 {
		t.Fatal("oversized buffer should overflow the bottleneck queue")
	}
	if over.Retransmits == 0 {
		t.Error("loss should force retransmissions")
	}
	if float64(over.Throughput) > 0.95*float64(good.Throughput) {
		t.Errorf("oversized buffer (%.2f Gb/s) should underperform tuned (%.2f Gb/s)",
			over.Throughput.Gbps(), good.Throughput.Gbps())
	}
}

func TestMultiFlowAggregation(t *testing.T) {
	// §3.5.2: GbE flows aggregated through the switch into one 10GbE host.
	m, err := NewMultiFlow(1, host.PE2650, host.Optimized(9000), 6, GbESenders, false)
	if err != nil {
		t.Fatal(err)
	}
	res := RunMultiFlow(m, 100*units.Millisecond)
	agg := res.Aggregate.Gbps()
	// Six GbE senders offer ~5.9 Gb/s; the PE2650 sink should absorb close
	// to its TCP ceiling (~4 Gb/s).
	if agg < 3.2 || agg > 6.0 {
		t.Errorf("aggregate = %.2f Gb/s", agg)
	}
	if len(res.PerFlow) != 6 {
		t.Fatalf("per-flow results = %d", len(res.PerFlow))
	}
	for i, f := range res.PerFlow {
		if f <= 0 {
			t.Errorf("flow %d starved", i)
		}
	}
}

func TestMultiFlowTransmitEqualsReceive(t *testing.T) {
	// §3.5.2's unexpected result: the transmit and receive paths are of
	// statistically equal performance.
	rx, err := NewMultiFlow(1, host.PE2650, host.Optimized(9000), 6, GbESenders, false)
	if err != nil {
		t.Fatal(err)
	}
	rxRes := RunMultiFlow(rx, 100*units.Millisecond)
	tx, err := NewMultiFlow(1, host.PE2650, host.Optimized(9000), 6, GbESenders, true)
	if err != nil {
		t.Fatal(err)
	}
	txRes := RunMultiFlow(tx, 100*units.Millisecond)
	ratio := txRes.Aggregate.Gbps() / rxRes.Aggregate.Gbps()
	if ratio < 0.75 || ratio > 1.30 {
		t.Errorf("tx/rx aggregate ratio = %.2f (tx %.2f, rx %.2f Gb/s), want ~1",
			ratio, txRes.Aggregate.Gbps(), rxRes.Aggregate.Gbps())
	}
}

func TestMultiFlowItanium(t *testing.T) {
	// §3.4: the quad Itanium-II sinks 7.2 Gb/s of aggregated traffic.
	m, err := NewMultiFlow(1, host.ItaniumII, host.Stock(9000).WithMMRBC(4096).WithSockBuf(256*1024), 10, GbESenders, false)
	if err != nil {
		t.Fatal(err)
	}
	res := RunMultiFlow(m, 100*units.Millisecond)
	agg := res.Aggregate.Gbps()
	if agg < 6.3 || agg > 8.2 {
		t.Errorf("Itanium aggregate = %.2f Gb/s, want ~7.2", agg)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPath := func(path string, g float64, mss int) Table1Row {
		for _, r := range rows {
			if r.Path == path && r.BW == units.FromGbps(g) && r.MSS == mss {
				return r
			}
		}
		t.Fatalf("missing row %s %v %d", path, g, mss)
		return Table1Row{}
	}
	// The legible anchors: Geneva-Chicago 1 Gb/s ~10 min; 10 Gb/s ~1h42m.
	r := byPath("Geneva-Chicago", 1, 1460)
	if r.Recovery < 9*units.Minute || r.Recovery > 11*units.Minute {
		t.Errorf("GC 1G recovery = %v", r.Recovery)
	}
	r = byPath("Geneva-Chicago", 10, 1460)
	if r.Recovery < 100*units.Minute || r.Recovery > 104*units.Minute {
		t.Errorf("GC 10G recovery = %v", r.Recovery)
	}
	// LAN recovery is negligible.
	if r := byPath("LAN", 10, 1460); r.Recovery > 10*units.Millisecond {
		t.Errorf("LAN recovery = %v", r.Recovery)
	}
	// Jumbo MSS recovers ~6x faster than 1460 on the same path.
	std := byPath("Geneva-Sunnyvale", 10, 1460).Recovery
	jumbo := byPath("Geneva-Sunnyvale", 10, 8960).Recovery
	ratio := float64(std) / float64(jumbo)
	if ratio < 6.0 || ratio > 6.3 {
		t.Errorf("MSS recovery ratio = %.2f, want ~6.14", ratio)
	}
}

func TestWindowAudit(t *testing.T) {
	rows := WindowAudit()
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 8's headline: ~31% of the ideal window lost.
	fig8 := rows[0]
	if fig8.LossPct < 28 || fig8.LossPct > 35 {
		t.Errorf("Figure 8 loss = %.0f%%, want ~31%%", fig8.LossPct)
	}
	// §3.5.1's 33000-byte example: advertised 26844, usable 17920.
	if rows[2].Usable != 26844 {
		t.Errorf("advertised = %d, want 26844", rows[2].Usable)
	}
	if rows[3].Usable != 17920 {
		t.Errorf("usable = %d, want 17920", rows[3].Usable)
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
