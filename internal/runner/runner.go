// Package runner executes independent experiment runs across a worker
// pool. Every run owns a private sim.Engine (built or Reset inside its
// closure and seeded from the run spec), so results are identical
// regardless of worker count or scheduling: parallelism lives strictly at
// the experiment level, never inside a simulation.
//
// Map is the one entry point. It runs every item to completion and returns
// outputs, host wall-clock times, and errors index-aligned with the input.
// A run that panics is reported as a *PanicError rather than crashing the
// whole sweep; FirstErr gives callers that abort on any failure the first
// one in input order.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// PanicError is a captured run panic: the worker pool converts a crash into
// this structured error so a sweep can report, skip, or replay the failing
// point instead of dying. Callers unwrap it with errors.As to reach the
// original panic value and stack.
type PanicError struct {
	Index int    // input index of the failing run
	Label string // the run's label (Map uses the item's %v form)
	Value any    // the value passed to panic()
	Stack []byte // goroutine stack at the recover point
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: run %d (%s) panicked: %v\n%s",
		e.Index, e.Label, e.Value, e.Stack)
}

// Options configures Map. S is the per-worker reusable state type; callers
// without state use struct{}.
type Options[S any] struct {
	// Workers is the pool size: 1 runs every item serially on the calling
	// goroutine; 0 or negative uses one worker per CPU (GOMAXPROCS).
	Workers int
	// NewState, if set, is called once per worker (lazily, on its first
	// item), and that state is passed to every f call the worker executes.
	// The canonical state is a warmed simulation engine that f resets per
	// run, so a sweep stops paying construction and steady-state allocation
	// costs per point. f owns making the state run-order independent (e.g.
	// by reseeding); the runner only guarantees each state is confined to
	// one worker goroutine. Nil means the zero S.
	NewState func(worker int) S
	// Progress, if set, is called once per item after it finishes, with
	// the count finished so far and the total. Calls are serialized but
	// may arrive out of input order when Workers > 1 — the hook drives
	// live status lines, not result handling, which happens on the
	// index-aligned return values.
	Progress func(done, total int)
}

// Map fans f over items and runs every item to completion, returning the
// outputs, each item's host wall-clock time, and each item's error, all
// index-aligned with items. A panic in f is captured as the item's
// *PanicError, and the worker's reusable state is discarded and rebuilt
// before its next call, since a crash mid-run can leave it arbitrarily
// corrupt; plain errors keep the state.
func Map[S, T, R any](items []T, opt Options[S], f func(state S, i int, item T) (R, error)) ([]R, []time.Duration, []error) {
	out := make([]R, len(items))
	walls := make([]time.Duration, len(items))
	errs := make([]error, len(items))
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(items) {
		w = len(items)
	}
	states := make([]S, w)
	inited := make([]bool, w)
	tick := progressFunc(opt.Progress, len(items))
	fan(len(items), w, func(worker, i int) {
		start := time.Now()
		if !inited[worker] {
			var s S
			if opt.NewState != nil {
				s = opt.NewState(worker)
			}
			states[worker], inited[worker] = s, true
		}
		errs[i] = runGuarded(states[worker], i, items[i], f, out)
		if errs[i] != nil {
			var pe *PanicError
			if errors.As(errs[i], &pe) {
				inited[worker] = false
			}
		}
		walls[i] = time.Since(start)
		tick()
	})
	return out, walls, errs
}

// FirstErr returns the first non-nil error in input order, or nil — the
// fail-fast reading of Map's errors.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fan executes exec(worker, i) for every i in [0, n), spread across the
// worker pool. With one worker everything runs on the calling goroutine;
// otherwise each worker goroutine pulls indexes from a shared channel. The
// worker id is stable for the lifetime of the call, which is what lets Map
// give each worker private reusable state.
func fan(n, workers int, exec func(worker, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			exec(0, i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				exec(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// progressFunc wraps a user progress callback into a goroutine-safe tick, or
// a no-op when the callback is nil so hot paths pay one comparison.
func progressFunc(progress func(done, total int), total int) func() {
	if progress == nil {
		return func() {}
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		done++
		progress(done, total)
		mu.Unlock()
	}
}

// runGuarded executes one f call with panic containment, writing the output
// in place and returning the run's error (a *PanicError for a crash).
func runGuarded[S, T, R any](state S, i int, item T, f func(state S, i int, item T) (R, error), out []R) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Label: fmt.Sprintf("%v", item),
				Value: p, Stack: debug.Stack()}
		}
	}()
	out[i], err = f(state, i, item)
	return err
}
