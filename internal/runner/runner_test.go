package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tengig/internal/sim"
	"tengig/internal/units"
)

// pool is the stateless Options for a pool size.
func pool(workers int) Options[struct{}] { return Options[struct{}]{Workers: workers} }

func TestResultsInInputOrder(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 0} {
		out, walls, errs := Map(items, pool(workers), func(_ struct{}, i, item int) (int, error) {
			if i != item {
				return 0, fmt.Errorf("index %d carried item %d", i, item)
			}
			return item * item, nil
		})
		if len(out) != len(items) || len(walls) != len(items) || len(errs) != len(items) {
			t.Fatalf("workers=%d: lengths %d/%d/%d", workers, len(out), len(walls), len(errs))
		}
		for i, v := range out {
			if v != i*i || errs[i] != nil {
				t.Fatalf("workers=%d: result %d out of order: %d (%v)", workers, i, v, errs[i])
			}
		}
	}
}

func TestPanicBecomesFailedRow(t *testing.T) {
	_, _, errs := Map([]string{"ok", "boom", "ok"}, pool(2), func(_ struct{}, _ int, s string) (string, error) {
		if s == "boom" {
			panic("kaboom")
		}
		return "fine", nil
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy runs failed: %v %v", errs[0], errs[2])
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) || pe.Label != "boom" {
		t.Fatalf("panicking run reported %v, want a PanicError labeled boom", errs[1])
	}
}

func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("sim blew up")
	_, _, errs := Map([]int{1, 2, 3}, pool(2), func(_ struct{}, _ int, n int) (int, error) {
		if n == 2 {
			return 0, sentinel
		}
		return n, nil
	})
	if err := FirstErr(errs); !errors.Is(err, sentinel) {
		t.Fatalf("FirstErr = %v, want %v", err, sentinel)
	}
	if err := FirstErr(make([]error, 3)); err != nil {
		t.Fatalf("FirstErr with no failures = %v", err)
	}
}

func TestMapOrderAndValues(t *testing.T) {
	in := []int{5, 3, 8, 1, 9, 2}
	out, _, errs := Map(in, pool(0), func(_ struct{}, _ int, n int) (int, error) { return n * 10, nil })
	if err := FirstErr(errs); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != in[i]*10 {
			t.Fatalf("out[%d] = %d, want %d", i, v, in[i]*10)
		}
	}
}

// TestWorkersActuallyOverlap proves the pool runs items concurrently: with
// 4 workers, 4 runs all block on a barrier that only opens once all 4 have
// started. A serial executor would deadlock; a timeout here means the pool
// is not parallel.
func TestWorkersActuallyOverlap(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	Map(make([]int, n), pool(n), func(struct{}, int, int) (int, error) {
		barrier.Done()
		barrier.Wait() // releases only when all n run at once
		return 0, nil
	})
}

// engineTrace drives a seeded random-timer simulation on eng and summarizes
// its end state.
func engineTrace(eng *sim.Engine, seed int64, steps, spread int) string {
	rng := rand.New(rand.NewSource(seed))
	var log []units.Time
	var step func()
	step = func() {
		log = append(log, eng.Now())
		if len(log) < steps {
			eng.After(units.Time(rng.Intn(spread)+1), step)
		}
	}
	eng.After(1, step)
	eng.Run()
	return fmt.Sprintf("%v@%v hw=%d", eng.Executed, eng.Now(), eng.HighWater)
}

// TestDeterministicAcrossWorkerCounts runs the same seeded simulations
// serially and with a full pool: per-item results must be identical, since
// each run owns a private engine.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	run := func(workers int) []string {
		out, _, errs := Map(seeds, pool(workers), func(_ struct{}, _ int, seed int64) (string, error) {
			return engineTrace(sim.NewEngine(seed), seed, 200, 50), nil
		})
		if err := FirstErr(errs); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := run(1), run(0)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("run %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestMapStateConfinement proves each worker gets exactly one state, built
// lazily, and that no state is ever shared across workers: every item
// records which state instance served it, and the distinct states must
// number at most the pool size with no item left unserved.
func TestMapStateConfinement(t *testing.T) {
	type state struct{ worker, uses int }
	for _, workers := range []int{1, 3, 0} {
		var mu sync.Mutex
		var built []*state
		items := make([]int, 40)
		for i := range items {
			items[i] = i
		}
		out, _, errs := Map(items, Options[*state]{
			Workers: workers,
			NewState: func(worker int) *state {
				s := &state{worker: worker}
				mu.Lock()
				built = append(built, s)
				mu.Unlock()
				return s
			},
		}, func(s *state, i int, item int) (int, error) {
			s.uses++ // unsynchronized on purpose: -race fails if states leak across workers
			return item * 2, nil
		})
		if err := FirstErr(errs); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != items[i]*2 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, items[i]*2)
			}
		}
		total := 0
		seen := map[int]bool{}
		for _, s := range built {
			if seen[s.worker] {
				t.Fatalf("workers=%d: worker %d built two states", workers, s.worker)
			}
			seen[s.worker] = true
			total += s.uses
		}
		if total != len(items) {
			t.Fatalf("workers=%d: states served %d items, want %d", workers, total, len(items))
		}
		if workers == 1 && len(built) != 1 {
			t.Fatalf("serial run built %d states, want 1", len(built))
		}
	}
}

// TestMapEngineReuseDeterminism is the runner-level contract behind
// SweepConfig.Run's engine reuse: a per-worker engine Reset to each item's
// seed must reproduce fresh-engine results exactly, at any worker count.
func TestMapEngineReuseDeterminism(t *testing.T) {
	seeds := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	fresh := make([]string, len(seeds))
	for i, seed := range seeds {
		fresh[i] = engineTrace(sim.NewEngine(seed), seed, 150, 70)
	}
	for _, workers := range []int{1, 3, 0} {
		reused, _, errs := Map(seeds, Options[*sim.Engine]{
			Workers:  workers,
			NewState: func(int) *sim.Engine { return sim.NewEngine(0) },
		}, func(eng *sim.Engine, _ int, seed int64) (string, error) {
			eng.Reset(seed)
			return engineTrace(eng, seed, 150, 70), nil
		})
		if err := FirstErr(errs); err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if reused[i] != fresh[i] {
				t.Fatalf("workers=%d: seed %d: reused engine %q != fresh %q",
					workers, seeds[i], reused[i], fresh[i])
			}
		}
	}
}

// Progress fires once per item with a monotone done count, failed and
// panicking items included.
func TestProgressCallback(t *testing.T) {
	var seen []int
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	_, _, errs := Map(items, Options[struct{}]{
		Workers: 3,
		Progress: func(done, total int) {
			seen = append(seen, done) // serialized by the runner's mutex
			if total != 10 {
				t.Errorf("total = %d", total)
			}
		},
	}, func(_ struct{}, _ int, item int) (int, error) {
		switch item {
		case 3:
			return 0, errors.New("planted failure")
		case 7:
			panic("planted panic")
		}
		return item, nil
	})
	if errs[3] == nil || errs[7] == nil {
		t.Fatalf("planted failures not reported: %v", errs)
	}
	if len(seen) != 10 {
		t.Fatalf("progress fired %d times, want 10", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done counter not monotone: %v", seen)
		}
	}
}

func TestMapTimedWithProgress(t *testing.T) {
	items := make([]int, 25)
	for i := range items {
		items[i] = i
	}
	var seen []int
	out, _, errs := Map(items, Options[struct{}]{
		Workers: 4,
		Progress: func(done, total int) {
			seen = append(seen, done) // serialized by the runner's mutex
			if total != len(items) {
				t.Errorf("total = %d", total)
			}
		},
	}, func(_ struct{}, _ int, item int) (int, error) { return item * 2, nil })
	if err := FirstErr(errs); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("progress fired %d times, want %d", len(seen), len(items))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done counter not monotone: %v", seen)
		}
	}
}

func TestEmptyAndWide(t *testing.T) {
	identity := func(_ struct{}, _ int, n int) (int, error) { return n, nil }
	if out, walls, errs := Map([]int(nil), pool(0), identity); len(out)+len(walls)+len(errs) != 0 {
		t.Fatal("nil items should yield no results")
	}
	// More workers than items must not deadlock or drop runs.
	out, _, errs := Map([]int{7}, pool(64), identity)
	if len(out) != 1 || out[0] != 7 || errs[0] != nil {
		t.Fatalf("wide pool mangled results: %v %v", out, errs)
	}
}
