package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapContainsFailures: one panicking item and one erroring item leave
// every other item's result intact, with errors index-aligned.
func TestMapContainsFailures(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	out, walls, errs := Map(items, pool(2), func(_ struct{}, i, item int) (int, error) {
		switch item {
		case 2:
			panic("kaboom")
		case 4:
			return 0, errors.New("plain failure")
		}
		return item * 10, nil
	})
	if len(out) != 6 || len(walls) != 6 || len(errs) != 6 {
		t.Fatalf("lengths %d/%d/%d", len(out), len(walls), len(errs))
	}
	for i, item := range items {
		switch item {
		case 2:
			var pe *PanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("item 2: want PanicError, got %v", errs[i])
			}
			if pe.Index != 2 || fmt.Sprint(pe.Value) != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("panic misrecorded: %+v", pe)
			}
			if !strings.Contains(pe.Error(), "kaboom") {
				t.Fatalf("PanicError.Error() lost the value: %v", pe)
			}
		case 4:
			if errs[i] == nil || errs[i].Error() != "plain failure" {
				t.Fatalf("item 4: got %v", errs[i])
			}
		default:
			if errs[i] != nil {
				t.Fatalf("healthy item %d failed: %v", item, errs[i])
			}
			if out[i] != item*10 {
				t.Fatalf("item %d result %d", item, out[i])
			}
		}
	}
}

// TestMapRebuildsStateAfterPanic: a panic poisons the worker's reusable
// state, so the next item on that worker must see a fresh one — with no
// retries configured too — while plain errors keep the state (nothing
// suggests it is corrupt).
func TestMapRebuildsStateAfterPanic(t *testing.T) {
	type state struct{ id int }
	built := 0
	var seen []int
	_, _, errs := Map([]int{0, 1, 2, 3}, Options[*state]{
		Workers:  1,
		NewState: func(int) *state { built++; return &state{id: built} },
	}, func(s *state, _ int, item int) (int, error) {
		seen = append(seen, s.id)
		if item == 1 {
			panic("poisoned")
		}
		if item == 2 {
			return 0, errors.New("plain")
		}
		return 0, nil
	})
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("errs = %v", errs)
	}
	// Items 0,1 share state 1; the panic on 1 forces a rebuild, so 2,3 share
	// state 2. The plain error on 2 must NOT force another rebuild.
	want := []int{1, 1, 2, 2}
	if built != 2 || fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("states seen %v (built %d), want %v (built 2)", seen, built, want)
	}
}

// TestFirstErrInputOrder: FirstErr reports the failure with the lowest
// input index, even when a later item failed earlier in wall-clock time on
// another worker.
func TestFirstErrInputOrder(t *testing.T) {
	laterFailed := make(chan struct{})
	_, _, errs := Map([]int{0, 1, 2, 3, 4, 5}, pool(2), func(_ struct{}, _ int, item int) (int, error) {
		switch item {
		case 1:
			<-laterFailed // the other worker runs items 2-4 meanwhile
			panic("early index, late failure")
		case 4:
			close(laterFailed)
			return 0, errors.New("later index, early failure")
		}
		return item, nil
	})
	var pe *PanicError
	if err := FirstErr(errs); !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("FirstErr = %v, want item 1's panic", err)
	}
	if errs[4] == nil {
		t.Fatal("item 4's failure was lost")
	}
}

// TestMapRetries: a flaky item succeeds within its retry allowance; a
// deterministic failure exhausts it and the last error stands.
func TestMapRetries(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int]int{}
	out, _, errs := Map([]int{0, 1, 2}, Options[struct{}]{Workers: 2, Retry: Retry{Max: 2}},
		func(_ struct{}, _, item int) (int, error) {
			mu.Lock()
			attempts[item]++
			n := attempts[item]
			mu.Unlock()
			switch {
			case item == 1 && n < 3: // succeeds on the 3rd attempt
				panic(fmt.Sprintf("flaky attempt %d", n))
			case item == 2: // always fails
				return 0, fmt.Errorf("hard failure %d", n)
			}
			return item + 100, nil
		})
	if errs[0] != nil || out[0] != 100 {
		t.Fatalf("item 0: %v %d", errs[0], out[0])
	}
	if errs[1] != nil || out[1] != 101 || attempts[1] != 3 {
		t.Fatalf("flaky item not healed by retries: err=%v attempts=%d", errs[1], attempts[1])
	}
	if errs[2] == nil || attempts[2] != 3 {
		t.Fatalf("hard failure: err=%v attempts=%d (want 1+2 retries)", errs[2], attempts[2])
	}
}

// Progress must fire exactly once per item, after the item's final attempt —
// retried and failed items included.
func TestMapProgressCountsRetriedItems(t *testing.T) {
	var attempts [6]int32
	var fired int32
	out, _, errs := Map([]int{0, 1, 2, 3, 4, 5}, Options[struct{}]{
		Workers: 3,
		Retry:   Retry{Max: 2},
		Progress: func(done, total int) {
			atomic.AddInt32(&fired, 1)
			if done < 1 || done > total || total != 6 {
				t.Errorf("bad progress (%d/%d)", done, total)
			}
		},
	}, func(_ struct{}, i, item int) (int, error) {
		n := atomic.AddInt32(&attempts[i], 1)
		if item == 2 && n < 3 {
			return 0, fmt.Errorf("transient")
		}
		if item == 4 {
			return 0, fmt.Errorf("permanent")
		}
		return item, nil
	})
	if fired != 6 {
		t.Fatalf("progress fired %d times, want 6 (once per item)", fired)
	}
	if errs[4] == nil || errs[2] != nil {
		t.Fatalf("retry/failure handling broke: %v", errs)
	}
	if out[2] != 2 {
		t.Fatalf("retried item lost its value: %d", out[2])
	}
}

// TestMapRetryBackoff: each retry is preceded by a sleep that grows
// exponentially from Base, never exceeds Cap plus its jitter allowance, and
// is deterministic for a fixed (Seed, index, attempt) — two identical
// campaigns back off on an identical schedule.
func TestMapRetryBackoff(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		retry := Retry{
			Max:  5,
			Base: 2 * time.Millisecond,
			Cap:  10 * time.Millisecond,
			Seed: 7,
			Sleep: func(d time.Duration) {
				slept = append(slept, d)
			},
		}
		_, _, errs := Map([]int{0}, Options[struct{}]{Workers: 1, Retry: retry},
			func(_ struct{}, _, _ int) (int, error) {
				return 0, errors.New("always fails")
			})
		if errs[0] == nil {
			t.Fatal("hard failure healed itself")
		}
		return slept
	}
	first := run()
	if len(first) != 5 {
		t.Fatalf("5 retries should sleep 5 times, slept %d", len(first))
	}
	for k, d := range first {
		// Attempt k+1 backs off in [min(Base<<k, Cap), min(Base<<k, Cap)*1.5].
		base := 2 * time.Millisecond << k
		if base > 10*time.Millisecond {
			base = 10 * time.Millisecond
		}
		if d < base || d > base+base/2 {
			t.Errorf("retry %d slept %v, want within [%v, %v]", k+1, d, base, base+base/2)
		}
	}
	if fmt.Sprint(first) != fmt.Sprint(run()) {
		t.Errorf("backoff schedule not deterministic: %v vs rerun", first)
	}
	if first[0] == first[1] && first[1] == first[2] {
		t.Errorf("no jitter visible in schedule %v", first)
	}
}

// TestMapSurfacesAttempt: the PanicError an exhausted item reports carries
// the attempt number that produced it, and Error() mentions it.
func TestMapSurfacesAttempt(t *testing.T) {
	noSleep := Retry{Max: 2, Sleep: func(time.Duration) {}}
	_, _, errs := Map([]int{0}, Options[struct{}]{Workers: 1, Retry: noSleep},
		func(_ struct{}, _, _ int) (int, error) {
			panic("always panics")
		})
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("want PanicError, got %v", errs[0])
	}
	if pe.Attempt != 3 {
		t.Fatalf("want attempt 3 (1 try + 2 retries), got %d", pe.Attempt)
	}
	if !strings.Contains(pe.Error(), "attempt 3") {
		t.Fatalf("Error() hides the attempt count: %v", pe.Error())
	}
}
