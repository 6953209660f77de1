package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Steady-state allocation guards: once a flow is established and the pools
// and slice capacities are warm, advancing the simulation must allocate
// nothing — events, packets, and segments all recycle through free lists.
// A regression here silently reintroduces GC pressure on every hot path.
// The guards run on the timing wheel, whose cascade and ready-list plumbing
// must stay allocation-free.

func steadyStateAllocs(t *testing.T, tun host.Tuning) float64 {
	t.Helper()
	p, err := compilePair(topo.BackToBack(host.PE2650, tun), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Dst.SetAutoRead(func(int64) {})
	p.Src.Send(1<<50, 64*1024, false, nil)
	// Warm-up: reach steady state and let every free list and slice grow to
	// its working size (the event pool keeps growing for a few tens of
	// simulated milliseconds while cancelled timers reach equilibrium).
	p.Eng.RunUntil(p.Eng.Now() + 50*units.Millisecond)
	return testing.AllocsPerRun(50, func() {
		p.Eng.RunUntil(p.Eng.Now() + 100*units.Microsecond)
	})
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		if allocs := steadyStateAllocs(t, host.Optimized(9000)); allocs != 0 {
			t.Errorf("steady-state slice allocated %.1f times (want 0)", allocs)
		}
	})
}

func TestSteadyStateZeroAllocTSO(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		if allocs := steadyStateAllocs(t, host.Optimized(9000).WithTSO()); allocs != 0 {
			t.Errorf("TSO steady-state slice allocated %.1f times (want 0)", allocs)
		}
	})
}
