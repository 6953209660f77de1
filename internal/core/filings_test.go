package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// TestWheelFilingsPerEvent holds the event queue's work per event on the
// §3 single-flow per-packet path. Engine.Filed counts every placement of an
// event on a wheel slot, so Filed/Executed is how many times the average
// executed event was filed, cascades included. A picosecond-wide level 0
// filed an event about 5.3-5.6 times on these two Figure 3 points; the
// microsecond-wide level 0 filed it about twice while a level-0 slot was
// re-filed onto a separate ready list, and 1.30 and 1.42 times now that
// the current level-0 slot is the ready list. The count is deterministic,
// so the bound holds on any host.
func TestWheelFilingsPerEvent(t *testing.T) {
	const maxFiledPerEvent = 1.5
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
			ratio := float64(eng.Filed) / float64(eng.Executed)
			t.Logf("%d filings over %d events: %.2f per event", eng.Filed, eng.Executed, ratio)
			if ratio > maxFiledPerEvent {
				t.Errorf("%.2f filings per event, want at most %.1f", ratio, maxFiledPerEvent)
			}
		})
	}
}
