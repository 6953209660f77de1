package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/units"
)

// TestProbeMatrix prints the calibration matrix when run with -v. It never
// fails; the pinned assertions are the claims of internal/paper, which
// `sweep -all` prints. Keep it for recalibration after model changes:
//
//	go test ./internal/core -run TestProbeMatrix -v
func TestProbeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	payloads := []int{4096, 8148, 8948, 16384}
	count := 2000
	cases := []struct {
		name string
		p    host.Profile
		tun  host.Tuning
	}{
		{"stock-1500", host.PE2650, host.Stock(1500)},
		{"stock-9000", host.PE2650, host.Stock(9000)},
		{"mmrbc-1500", host.PE2650, host.Stock(1500).WithMMRBC(4096)},
		{"mmrbc-9000", host.PE2650, host.Stock(9000).WithMMRBC(4096)},
		{"up-9000", host.PE2650, host.Stock(9000).WithMMRBC(4096).WithUP()},
		{"up-1500", host.PE2650, host.Stock(1500).WithMMRBC(4096).WithUP()},
		{"buf-1500", host.PE2650, host.Optimized(1500)},
		{"buf-9000", host.PE2650, host.Optimized(9000)},
		{"opt-8160", host.PE2650, host.Optimized(8160)},
		{"opt-16000", host.PE2650, host.Optimized(16000)},
		{"e7505-stock-9000-nots", host.IntelE7505, host.Stock(9000).WithoutTimestamps()},
		{"e7505-stock-9000", host.IntelE7505, host.Stock(9000)},
		{"pe4600-opt-9000", host.PE4600, host.Optimized(9000)},
	}
	for _, c := range cases {
		res, err := SweepConfig{Seed: 1, Profile: c.p, Tuning: c.tun,
			Payloads: payloads, Count: count, Workers: -1}.Run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		_, peak := res.Peak()
		t.Logf("%-24s peak=%.2f Gb/s  mean=%.2f  points=%v",
			c.name, peak.Gbps(), res.Mean().Gbps(), res.Series.Y)
	}
	// Latency probes.
	for _, via := range []bool{false, true} {
		pts, err := LatencyConfig{Seed: 1, Profile: host.PE2650,
			Tuning: host.Optimized(9000), Payloads: []int{1, 1024}, Reps: 10, ViaSwitch: via}.Run()
		if err != nil {
			t.Errorf("latency via=%v: %v", via, err)
			continue
		}
		t.Logf("latency via-switch=%v: 1B=%v 1024B=%v", via, pts[0].OneWay, pts[1].OneWay)
	}
	nocoal, err := LatencyConfig{Seed: 1, Profile: host.PE2650,
		Tuning: host.Optimized(9000).WithoutCoalescing(), Payloads: []int{1}, Reps: 10}.Run()
	if err == nil {
		t.Logf("latency no-coalesce: 1B=%v", nocoal[0].OneWay)
	}
	// pktgen probe.
	if res, err := PktgenRun(1, host.PE2650, host.Optimized(8160), 20000, 8160); err == nil {
		t.Logf("pktgen 8160: %.2f Gb/s", res.PayloadRate(8160).Gbps())
	} else {
		t.Errorf("pktgen: %v", err)
	}
	_ = units.Second
}
