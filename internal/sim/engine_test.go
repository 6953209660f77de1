package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tengig/internal/runner"
	"tengig/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []units.Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(10, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.Schedule(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []units.Time
	for _, at := range []units.Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 5,10", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(ran) != 4 {
		t.Fatalf("ran %v after second RunUntil", ran)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []units.Time {
		e := NewEngine(42)
		var log []units.Time
		var step func()
		step = func() {
			log = append(log, e.Now())
			if len(log) < 50 {
				e.After(units.Time(e.Rand().Intn(100)+1), step)
			}
		}
		e.After(1, step)
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always execute in nondecreasing time order regardless of
// insertion order.
func TestSchedOrderProperty(t *testing.T) {
	for _, sc := range schedulers {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			f := func(seed int64, raw []uint16) bool {
				e := sc.newEngine(seed)
				var order []units.Time
				for _, r := range raw {
					at := units.Time(r)
					e.Schedule(at, func() { order = append(order, e.Now()) })
				}
				e.Run()
				return sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] })
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: cancelling a random subset leaves exactly the uncancelled events.
func TestCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		fired := make(map[int]bool)
		timers := make([]Timer, n)
		for i := 0; i < int(n); i++ {
			i := i
			timers[i] = e.Schedule(units.Time(rng.Intn(1000)), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range timers {
			if rng.Intn(2) == 0 {
				timers[i].Stop()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < int(n); i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestServerFIFOPipeline(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "cpu")
	var done []units.Time
	// Three jobs of 10 each, submitted at t=0: complete at 10, 20, 30.
	for i := 0; i < 3; i++ {
		s.Submit(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []units.Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if s.BusyTime() != 30 {
		t.Errorf("busy = %v, want 30", s.BusyTime())
	}
	if s.Jobs() != 3 {
		t.Errorf("jobs = %d, want 3", s.Jobs())
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "cpu")
	var second units.Time
	s.Submit(10, nil)
	e.Schedule(50, func() {
		s.Submit(10, func() { second = e.Now() })
	})
	e.Run()
	if second != 60 {
		t.Fatalf("second job done at %v, want 60 (starts fresh after idle)", second)
	}
}

func TestServerBacklogAndUtilization(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "bus")
	s.Submit(100, nil)
	s.Submit(100, nil)
	if s.Backlog() != 200 {
		t.Errorf("backlog = %v, want 200", s.Backlog())
	}
	e.RunUntil(400)
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}

func TestServerNegativeCostPanics(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "cpu")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Submit(-1, nil)
}

func TestPipeRate(t *testing.T) {
	e := NewEngine(1)
	p := NewPipe(e, "wire", 10*units.GbitPerSecond)
	var done units.Time
	p.Send(1250, func() { done = e.Now() }) // 1250 B at 10 Gb/s = 1 us
	e.Run()
	if done < units.Microsecond || done > units.Microsecond+units.Nanosecond {
		t.Fatalf("1250B@10G done at %v, want ~1us", done)
	}
	if p.Bytes() != 1250 {
		t.Errorf("bytes = %d", p.Bytes())
	}
}

// Property: a pipe never exceeds its configured rate over any submission mix.
func TestPipeRateProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine(7)
		p := NewPipe(e, "wire", units.GbitPerSecond)
		total := 0
		for _, sz := range sizes {
			n := int(sz)%9000 + 1
			total += n
			p.Send(n, nil)
		}
		e.Run()
		if total == 0 {
			return true
		}
		achieved := units.Throughput(int64(total), e.Now())
		return achieved <= units.GbitPerSecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPipeSetRate(t *testing.T) {
	e := NewEngine(1)
	p := NewPipe(e, "wire", units.GbitPerSecond)
	p.SetRate(2 * units.GbitPerSecond)
	if p.Rate() != 2*units.GbitPerSecond {
		t.Fatal("SetRate did not take effect")
	}
}

// Property: over any interleaving of arm / stop / advance, a timer's
// observable state stays consistent — Stop returns exactly what Pending
// reported, Pending tracks the (not stopped, not fired) model, and at
// quiescence every timer has either fired or been stopped, never both.
// The TCP package leans on these exact semantics (cancelRTO/armRTO pairs,
// persist re-arm inside its own callback), so they are pinned here.
func TestTimerLifecycleProperty(t *testing.T) {
	type tstate struct {
		tm      Timer
		fired   bool
		stopped bool
	}
	f := func(seed int64, ops []uint16) bool {
		e := NewEngine(seed)
		var timers []*tstate
		ok := true
		for _, op := range ops {
			arg := int(op / 4)
			switch op % 4 {
			case 0: // arm a new timer
				ts := &tstate{}
				d := units.Time(arg%97) + 1
				ts.tm = e.After(d, func() { ts.fired = true })
				if !ts.tm.Pending() {
					ok = false
				}
				timers = append(timers, ts)
			case 1: // stop a random timer (possibly already stopped/fired)
				if len(timers) == 0 {
					continue
				}
				ts := timers[arg%len(timers)]
				pend := ts.tm.Pending()
				if pend != (!ts.fired && !ts.stopped) {
					ok = false
				}
				if got := ts.tm.Stop(); got != pend {
					ok = false // Stop must report exactly "was pending"
				}
				if !ts.fired {
					ts.stopped = true
				}
				if ts.tm.Pending() {
					ok = false
				}
			case 2: // advance the clock a bounded amount
				e.RunUntil(e.Now() + units.Time(arg%50))
			case 3: // double-stop must be a no-op reporting false
				if len(timers) == 0 {
					continue
				}
				ts := timers[arg%len(timers)]
				ts.tm.Stop()
				if !ts.fired {
					ts.stopped = true
				}
				if ts.tm.Stop() {
					ok = false
				}
			}
			if !ok {
				return false
			}
		}
		e.Run()
		for _, ts := range timers {
			if ts.fired && ts.stopped {
				return false // a stopped timer ran anyway
			}
			if !ts.fired && !ts.stopped {
				return false // a live timer was dropped
			}
			if ts.tm.Pending() {
				return false // nothing is pending at quiescence
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTimerRearmInsideCallback pins the re-arm idiom the TCP timers use:
// assigning a fresh timer from inside the firing callback works, Stop on
// the just-fired timer reports false, and Pending is false once RunUntil
// passes the final deadline.
func TestTimerRearmInsideCallback(t *testing.T) {
	e := NewEngine(1)
	var fired []units.Time
	var tm Timer
	var cb func()
	cb = func() {
		fired = append(fired, e.Now())
		if tm.Stop() {
			t.Error("Stop inside the timer's own callback reported true")
		}
		if tm.Pending() {
			t.Error("timer still pending inside its own callback")
		}
		if len(fired) < 3 {
			tm = e.After(10, cb)
		}
	}
	tm = e.After(10, cb)
	e.RunUntil(100)
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Fatalf("fired = %v, want [10 20 30]", fired)
	}
	if tm.Pending() {
		t.Error("timer pending after RunUntil passed every deadline")
	}
	if tm.Stop() {
		t.Error("Stop after the chain finished reported true")
	}
}

// TestEngineIsolationUnderRunner runs seeded engines concurrently through
// the parallel experiment runner and checks the event logs match the
// serial runs exactly. Under -race this doubles as proof that engines
// share no hidden mutable state. (runner imports only the standard
// library, so there is no import cycle.)
func TestEngineIsolationUnderRunner(t *testing.T) {
	trace := func(seed int64) string {
		e := NewEngine(seed)
		out := ""
		var step func()
		n := 0
		step = func() {
			out += e.Now().String() + ";"
			n++
			if n < 40 {
				e.After(units.Time(e.Rand().Intn(500)+1), step)
			}
		}
		e.After(1, step)
		e.Run()
		return out
	}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	run := func(workers int) ([]string, error) {
		out, _, errs := runner.Map(seeds, runner.Options[struct{}]{Workers: workers},
			func(_ struct{}, _ int, seed int64) (string, error) { return trace(seed), nil })
		return out, runner.FirstErr(errs)
	}
	serial, serr := run(1)
	par, perr := run(0)
	if serr != nil || perr != nil {
		t.Fatalf("runs errored: %v / %v", serr, perr)
	}
	for i := range seeds {
		if serial[i] != par[i] {
			t.Errorf("run %d: parallel trace diverged from serial", i)
		}
	}
}
