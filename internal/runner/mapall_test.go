package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"
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
// state, so the next item on that worker must see a fresh one, while plain
// errors keep the state (nothing suggests it is corrupt).
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
