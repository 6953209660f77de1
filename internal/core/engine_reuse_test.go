package core

import (
	"bytes"
	"fmt"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Engine-reuse equivalence: SweepConfig.Run and RunMultiFlows now keep one
// warmed engine per worker and Reset it before every run. These tests pin
// the contract that makes that safe — a reused engine is observationally a
// fresh engine — by rebuilding every point the old way (one NewEngine per
// run) and demanding byte-identical results and telemetry exports, at both
// serial and parallel worker counts. Under -race this also proves the
// reused engines stay confined to their workers.

// freshSweepPoints reruns a sweep the pre-reuse way: a brand-new engine per
// payload point, same build path and measurement as SweepConfig.Run.
func freshSweepPoints(t *testing.T, c SweepConfig) []Point {
	t.Helper()
	pts := make([]Point, len(c.Payloads))
	for i, payload := range c.Payloads {
		eng := sim.NewEngine(c.Seed)
		net, err := topo.Compile(eng, testbed(c.Profile, c.Tuning, c.ViaSwitch), c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		pt := Point{Payload: payload}
		if c.Telemetry.Enabled {
			name := fmt.Sprintf("%s_p%d", SanitizeName(c.Tuning.Label()), payload)
			pt.Telemetry = net.AttachTelemetry(name, c.Seed, c.Telemetry)
		}
		r, err := tools.NTTCP(net.Pairs[0], c.Count, payload, c.Timeout)
		if err != nil {
			t.Fatal(err)
		}
		pt.ThroughputResult = r
		if pt.Telemetry != nil {
			pt.Telemetry.CaptureEngine(eng.Executed, eng.HighWater)
		}
		pts[i] = pt
	}
	return pts
}

func TestEngineReuseMatchesFreshEngines(t *testing.T) {
	c := SweepConfig{
		Seed:     23,
		Profile:  host.PE2650,
		Tuning:   host.Optimized(9000),
		Payloads: []int{1448, 8192, 8948, 16384},
		Count:    300,
		Timeout:  10 * units.Minute,
		Telemetry: telemetry.Options{
			Enabled:        true,
			SampleInterval: 50 * units.Microsecond,
		},
	}
	fresh := freshSweepPoints(t, c)

	for _, workers := range []int{1, 3} {
		c := c
		c.Workers = workers
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(fresh) {
			t.Fatalf("workers=%d: point count %d, want %d", workers, len(res.Points), len(fresh))
		}
		for i := range fresh {
			fp, rp := fresh[i], res.Points[i]
			if fp.Payload != rp.Payload {
				t.Fatalf("workers=%d: point %d payload %d, want %d", workers, i, rp.Payload, fp.Payload)
			}
			if fp.ThroughputResult != rp.ThroughputResult {
				t.Errorf("workers=%d payload %d: reused-engine result diverges:\nfresh  %+v\nreused %+v",
					workers, fp.Payload, fp.ThroughputResult, rp.ThroughputResult)
			}
			fe := fp.Telemetry.ExportJSONL()
			re := rp.Telemetry.ExportJSONL()
			if !bytes.Equal(fe, re) {
				t.Errorf("workers=%d payload %d: telemetry export differs (%d vs %d bytes)",
					workers, fp.Payload, len(fe), len(re))
			}
		}
	}
}

// TestMultiFlowEngineReuseMatchesFresh is the aggregation-path twin: the
// reused-engine RunMultiFlows must match fresh-engine builds spec for spec.
func TestMultiFlowEngineReuseMatchesFresh(t *testing.T) {
	tun := host.Optimized(9000)
	tenG := topo.Aggregation(host.PE2650, tun, 2, false, 1)
	for i := 1; i < len(tenG.Hosts); i++ {
		tenG.Hosts[i].NIC = topo.NIC10G // 10GbE senders
	}
	specs := []MultiFlowSpec{
		{Label: "4xGbE", Seed: 5, Duration: 20 * units.Millisecond,
			Spec: topo.Aggregation(host.PE2650, tun, 4, false, 1)},
		{Label: "2x10GbE", Seed: 6, Duration: 20 * units.Millisecond,
			Spec: tenG},
		{Label: "4xGbE-rev", Seed: 5, Duration: 20 * units.Millisecond,
			Spec: topo.Aggregation(host.PE2650, tun, 4, true, 1)},
	}
	fresh := make([]MultiFlowResult, len(specs))
	for i, s := range specs {
		net, err := topo.Compile(sim.NewEngine(s.Seed), s.Spec, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = RunMultiFlow(net, s.Duration)
	}
	for _, workers := range []int{1, 2} {
		got, err := RunMultiFlows(specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if got[i].Aggregate != fresh[i].Aggregate || got[i].Elapsed != fresh[i].Elapsed {
				t.Errorf("workers=%d %s: reused %+v, fresh %+v",
					workers, specs[i].Label, got[i], fresh[i])
			}
			for f := range fresh[i].PerFlow {
				if got[i].PerFlow[f] != fresh[i].PerFlow[f] {
					t.Errorf("workers=%d %s flow %d: reused %v, fresh %v",
						workers, specs[i].Label, f, got[i].PerFlow[f], fresh[i].PerFlow[f])
				}
			}
		}
	}
}
