package core

import (
	"path/filepath"
	"strings"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// checkFilings fails t if eng filed its average executed event more than
// max times. Engine.Filed counts every placement of an event on a wheel
// slot, cascades included, so Filed/Executed is the queue's work per
// event. The count is deterministic, so the bound holds on any host.
func checkFilings(t *testing.T, eng *sim.Engine, max float64) {
	t.Helper()
	ratio := float64(eng.Filed) / float64(eng.Executed)
	t.Logf("%d filings over %d events: %.3f per event", eng.Filed, eng.Executed, ratio)
	if ratio > max {
		t.Errorf("%.3f filings per event, want at most %.2f", ratio, max)
	}
}

// TestWheelFilingsPerEvent holds the event queue's work per event on the
// §3 single-flow per-packet path. A picosecond-wide level 0 filed an event
// about 5.3-5.6 times on these two Figure 3 points, and a 64-slot aligned
// level 0 of 1 µs slots 1.30 and 1.42 times: an event d slots ahead went
// to level 1 with probability d/64 and was cascaded back down. The
// circular 268 µs level 0 files every event due within its window exactly
// once, which is nearly every event here (1.08 and 1.09).
func TestWheelFilingsPerEvent(t *testing.T) {
	for _, tun := range []host.Tuning{host.Stock(1500), host.Optimized(9000)} {
		t.Run(tun.Label(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			net, err := topo.Compile(eng, topo.BackToBack(host.PE2650, tun), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tools.NTTCP(net.Pairs[0], 3000, 8948, 30*units.Second); err != nil {
				t.Fatal(err)
			}
			checkFilings(t, eng, 1.15)
		})
	}
}

// TestWheelFilingsShippedTopologies holds the same ratio on every shipped
// topology, each compiled and run to completion on one engine. Their
// millisecond-scale WAN and torus links and their RTO timers reach past
// the window, so the bound is looser than on the Figure 3 points; the
// 64-slot aligned level 0 filed their events 1.13-1.34 times.
func TestWheelFilingsShippedTopologies(t *testing.T) {
	files, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped topologies: %v", err)
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".json"), func(t *testing.T) {
			spec, err := topo.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine(1)
			net, err := topo.Compile(eng, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.RunFlows(10 * units.Minute); err != nil {
				t.Fatal(err)
			}
			checkFilings(t, eng, 1.2)
		})
	}
}
