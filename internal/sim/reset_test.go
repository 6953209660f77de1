package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"tengig/internal/units"
)

// traceRun drives a deterministic random workload on e and returns its
// execution trace plus the final clock — enough observables to prove two
// engines behaved identically.
func traceRun(e *Engine, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	out := ""
	var step func()
	n := 0
	step = func() {
		out += e.Now().String() + ";"
		n++
		if n < 60 {
			d := units.Time(rng.Intn(2000) + 1)
			tm := e.After(d, step)
			if rng.Intn(4) == 0 {
				tm.Reschedule(e.Now() + d/2 + 1)
			}
			if rng.Intn(5) == 0 {
				// Arm-and-cancel churn alongside the live chain.
				dead := e.After(d*3+1, func() { out += "DEAD;" })
				dead.Stop()
			}
		}
	}
	e.After(1, step)
	e.Run()
	return fmt.Sprintf("%s now=%v executed=%d filed=%d highwater=%d", out, e.Now(), e.Executed, e.Filed, e.HighWater)
}

// TestEngineReset proves a reset engine is observationally a fresh engine:
// same trace, same counters, across several reseedings.
func TestEngineReset(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		reused := NewEngine(999)
		// Dirty the engine: run part of a workload and leave events pending.
		reused.After(5, func() {})
		traceRun(reused, 999)
		reused.After(100, func() { t.Error("event survived Reset") })
		reused.AfterCall(200, func(any) { t.Error("call event survived Reset") }, nil)
		stale := reused.After(300, func() {})

		for _, seed := range []int64{1, 7, 42} {
			fresh := NewEngine(seed)
			reused.Reset(seed)
			if got, want := traceRun(reused, seed), traceRun(fresh, seed); got != want {
				t.Fatalf("seed %d: reset engine diverged from fresh engine:\nreset: %s\nfresh: %s", seed, got, want)
			}
		}
		if stale.Pending() || stale.Stop() || stale.Reschedule(units.Second) {
			t.Error("pre-Reset timer handle still live after Reset")
		}
	})
}

// TestResetReleasesBacking pins the memory-trim contract: Reset trims the
// event free list to maxFreeEvents, so a reused engine does not pin its
// peak-watermark footprint, and keeps the wheel's fixed slot arrays.
func TestResetReleasesBacking(t *testing.T) {
	t.Run("free-list-cap", func(t *testing.T) {
		e := NewEngine(1)
		// Retire far more events than the cap in one burst.
		for i := 0; i < maxFreeEvents+5000; i++ {
			e.After(units.Time(i%1000+1), func() {})
		}
		e.Run()
		if e.freeN > maxFreeEvents {
			t.Errorf("free list %d exceeds cap %d", e.freeN, maxFreeEvents)
		}
		n := 0
		for ev := e.freeEv; ev != nil; ev = ev.next {
			n++
		}
		if n != e.freeN {
			t.Errorf("free list accounting: counted %d, freeN %d", n, e.freeN)
		}
		e.Reset(1)
		if e.freeN > maxFreeEvents {
			t.Errorf("free list %d exceeds cap %d after Reset", e.freeN, maxFreeEvents)
		}
	})

	t.Run("wheel-reuses-buckets", func(t *testing.T) {
		e := NewEngine(1)
		w := e.sched
		for i := 0; i < 500; i++ {
			// Microsecond spacing, then a millisecond one: level 0 and
			// the levels above the window.
			e.After(units.Time(i)*units.Microsecond+1, func() {})
			e.After(units.Time(i)*units.Millisecond+1, func() {})
		}
		e.Reset(1)
		if w.peek(maxTime) != nil {
			t.Fatal("wheel not empty after Reset")
		}
		if w.cur != 0 {
			t.Fatalf("wheel cur=%d after Reset, want 0", w.cur)
		}
		if w.sum != 0 || w.occ != [nWords]uint64{} {
			t.Fatal("occupancy bitmaps not cleared by Reset")
		}
		if w.slot != [nSlots]wheelSlot{} {
			t.Fatal("slot lists not cleared by Reset")
		}
		// The engine after Reset schedules from the free list: no allocs.
		if avg := testing.AllocsPerRun(100, func() {
			e.Reset(2)
			tm := e.After(units.Millisecond, func() {})
			tm.Stop()
			e.After(units.Microsecond, func() {})
			e.Run()
		}); avg != 0 {
			t.Errorf("Reset+reuse allocates %.1f/op, want 0", avg)
		}
	})
}
