package bench

import (
	"fmt"
	"runtime"

	"tengig/internal/core"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// The probes reproduce the internal/core benchmark workloads (see
// bench_kernel_test.go) without the testing package, so the regression gate
// can run them inside the sweep CLI. Each probe returns a setup function
// whose result is the per-op closure, plus the iteration count to average
// over. Iteration counts are high enough that sub-once-per-op incidental
// allocations truncate to zero in the integer average — the same rounding
// testing.Benchmark applies.
type probe struct {
	iters int
	setup func() (op func(), err error)
}

var probes = map[string]probe{
	"TimerChurn": {iters: 4096, setup: func() (func(), error) {
		eng := sim.NewEngine(1)
		cb := func() {}
		for i := 0; i < 256; i++ {
			eng.After(10*units.Minute+units.Time(i), cb)
		}
		i := 0
		return func() {
			tm := eng.After(10*units.Microsecond, cb)
			tm.Stop()
			if i&63 == 63 {
				eng.RunUntil(eng.Now() + units.Microsecond)
			}
			i++
		}, nil
	}},
	"TimerReschedule": {iters: 4096, setup: func() (func(), error) {
		eng := sim.NewEngine(1)
		cb := func() {}
		for i := 0; i < 256; i++ {
			eng.After(10*units.Minute+units.Time(i), cb)
		}
		tm := eng.After(10*units.Microsecond, cb)
		i := 0
		return func() {
			tm.Reschedule(eng.Now() + 10*units.Microsecond + units.Time(i&7))
			i++
		}, nil
	}},
	"SingleFlowSteadyState": {iters: 128, setup: func() (func(), error) {
		p, err := core.BackToBack(1, core.PE2650, core.Optimized(9000))
		if err != nil {
			return nil, err
		}
		p.Dst.SetAutoRead(func(int64) {})
		p.Src.Send(1<<50, 64*1024, false, nil)
		// 50 ms of simulated warm-up: the event pool keeps growing for a few
		// tens of milliseconds while cancelled timers reach equilibrium (same
		// margin as the core alloc guards).
		p.Eng.RunUntil(p.Eng.Now() + 50*units.Millisecond)
		return func() {
			p.Eng.RunUntil(p.Eng.Now() + 100*units.Microsecond)
		}, nil
	}},
	"MultiFlow16PE2650": {iters: 64, setup: func() (func(), error) {
		m, err := core.NewMultiFlow(1, core.PE2650, core.Optimized(9000),
			16, core.GbESenders, false)
		if err != nil {
			return nil, err
		}
		for _, p := range m.Pairs {
			p.Dst.SetAutoRead(func(int64) {})
			p.Src.Send(1<<50, 64*1024, false, nil)
		}
		m.Eng.RunUntil(m.Eng.Now() + 50*units.Millisecond)
		return func() {
			m.Eng.RunUntil(m.Eng.Now() + 100*units.Microsecond)
		}, nil
	}},
}

// MeasureAllocs runs the named workload and returns its steady-state heap
// allocations per op, averaged (integer-truncated) over the probe's
// iteration budget. Unknown names error rather than gate vacuously.
func MeasureAllocs(name string) (int64, error) {
	p, ok := probes[name]
	if !ok {
		return 0, fmt.Errorf("bench: no alloc probe for benchmark %q", name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op, err := p.setup()
	if err != nil {
		return 0, fmt.Errorf("bench: %s setup: %w", name, err)
	}
	op() // warm up: first op may fault in lazy state the steady path reuses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < p.iters; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(p.iters), nil
}
