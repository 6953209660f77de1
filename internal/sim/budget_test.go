package sim

import (
	"testing"
	"time"

	"tengig/internal/units"
)

// TestEventBudget: LimitEvents stops Step and RunUntil at exactly the cap,
// reports the stop, leaves the queue intact, and both Reset and
// LimitEvents(0) clear it — on the wheel and on the heap oracle.
func TestEventBudget(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("step", func(t *testing.T) { testBudgetStep(t, sc.newEngine(1)) })
			t.Run("run-until", func(t *testing.T) { testBudgetRunUntil(t, sc.newEngine(1)) })
		})
	}
}

func testBudgetStep(t *testing.T, eng *Engine) {
	ran := 0
	for i := 1; i <= 10; i++ {
		eng.After(units.Time(i)*units.Microsecond, func() { ran++ })
	}
	eng.LimitEvents(4)
	for eng.Step() {
	}
	if ran != 4 || eng.Executed != 4 {
		t.Fatalf("ran %d events (Executed=%d), want 4", ran, eng.Executed)
	}
	if !eng.EventBudgetExceeded() {
		t.Fatal("budget stop not reported")
	}
	if eng.Pending() != 6 {
		t.Fatalf("pending = %d, want the 6 unexecuted events", eng.Pending())
	}

	// Raising the cap resumes from where the run stopped.
	eng.LimitEvents(0)
	if eng.EventBudgetExceeded() {
		t.Fatal("LimitEvents(0) did not clear the stop flag")
	}
	for eng.Step() {
	}
	if ran != 10 {
		t.Fatalf("ran %d after lifting the cap, want 10", ran)
	}

	// Reset clears the budget entirely.
	eng.LimitEvents(1)
	eng.Reset(1)
	ran = 0
	for i := 0; i < 5; i++ {
		eng.After(units.Microsecond, func() { ran++ })
	}
	eng.Run()
	if ran != 5 {
		t.Fatalf("budget survived Reset: ran %d, want 5", ran)
	}
	if eng.EventBudgetExceeded() {
		t.Fatal("stop flag survived Reset")
	}
}

// runUntil runs eng.RunUntil(deadline), failing t instead of hanging if it
// does not return.
func runUntil(t *testing.T, eng *Engine, deadline units.Time) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.RunUntil(deadline)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("RunUntil(%v) did not return (Executed=%d)", deadline, eng.Executed)
	}
}

func testBudgetRunUntil(t *testing.T, eng *Engine) {
	ran := 0
	for i := 1; i <= 10; i++ {
		eng.After(units.Time(i)*units.Microsecond, func() { ran++ })
	}
	eng.LimitEvents(4)

	// The cap lands exactly on the deadline's last event: the run is
	// complete, not stopped, and the clock moves to the deadline.
	runUntil(t, eng, 4*units.Microsecond)
	if ran != 4 || eng.EventBudgetExceeded() || eng.Now() != 4*units.Microsecond {
		t.Fatalf("ran %d, budget stop %v, clock %v; want 4, false, 4µs", ran, eng.EventBudgetExceeded(), eng.Now())
	}

	// Events due by the deadline remain: the budget stops the run, and the
	// clock stays at the last executed event, as after Stop.
	runUntil(t, eng, units.Millisecond)
	if ran != 4 || eng.Executed != 4 {
		t.Fatalf("ran %d events (Executed=%d), want 4", ran, eng.Executed)
	}
	if !eng.EventBudgetExceeded() {
		t.Fatal("budget stop not reported")
	}
	if eng.Now() != 4*units.Microsecond {
		t.Fatalf("clock = %v after a budget stop, want the last event's 4µs", eng.Now())
	}
	if eng.Pending() != 6 {
		t.Fatalf("pending = %d, want the 6 unexecuted events", eng.Pending())
	}

	// Raising the cap resumes from where the run stopped.
	eng.LimitEvents(0)
	runUntil(t, eng, units.Millisecond)
	if ran != 10 || eng.EventBudgetExceeded() || eng.Now() != units.Millisecond {
		t.Fatalf("after lifting the cap: ran %d, budget stop %v, clock %v; want 10, false, 1ms",
			ran, eng.EventBudgetExceeded(), eng.Now())
	}
}
