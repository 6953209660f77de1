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
// same trace, same counters, on the wheel and on the heap oracle, across
// several reseedings.
func TestEngineReset(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			reused := sc.newEngine(999)
			// Dirty the engine: run part of a workload and leave events pending.
			reused.After(5, func() {})
			traceRun(reused, 999)
			reused.After(100, func() { t.Error("event survived Reset") })
			reused.AfterCall(200, func(any) { t.Error("call event survived Reset") }, nil)
			stale := reused.After(300, func() {})

			for _, seed := range []int64{1, 7, 42} {
				fresh := sc.newEngine(seed)
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
}

// TestResetReleasesBacking pins the memory-trim contract: Reset drops a
// grown heap backing array and trims the event free list to maxFreeEvents,
// so a reused engine does not pin its peak-watermark footprint.
func TestResetReleasesBacking(t *testing.T) {
	t.Run("heap-backing-array", func(t *testing.T) {
		e := newHeapEngine(1)
		h := e.sched.(*heapSched)
		for i := 0; i < 5000; i++ {
			e.After(units.Time(i+1), func() {})
		}
		if cap(h.pq) < 5000 {
			t.Fatalf("backing array cap %d, want >= 5000", cap(h.pq))
		}
		e.Reset(1)
		if cap(h.pq) != 0 {
			t.Errorf("Reset kept a %d-event backing array, want released", cap(h.pq))
		}
		if h.len() != 0 {
			t.Errorf("heap still holds %d events after Reset", h.len())
		}
		// A small queue's array is kept: reallocating it would defeat reuse.
		for i := 0; i < 100; i++ {
			e.After(units.Time(i+1), func() {})
		}
		e.Run()
		small := cap(h.pq)
		e.Reset(1)
		if cap(h.pq) != small {
			t.Errorf("Reset dropped a small (%d) backing array", small)
		}
	})

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
		w := e.sched.(*wheelSched)
		for i := 0; i < 500; i++ {
			e.After(units.Time(i)*units.Microsecond+1, func() {})
		}
		e.Reset(1)
		if w.len() != 0 || w.rdHead != nil {
			t.Fatalf("wheel not empty after Reset: len=%d", w.len())
		}
		if w.cur != 0 {
			t.Fatalf("wheel cur=%d after Reset, want 0", w.cur)
		}
		for _, o := range w.occ {
			if o != 0 {
				t.Fatal("occupancy bitmap not cleared by Reset")
			}
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
