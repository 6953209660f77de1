package core

import (
	"encoding/json"
	"os"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Kernel hot-path benchmarks. These measure the discrete-event kernel under
// the load patterns the TCP model actually produces: timer churn (every
// acknowledgment cancels and re-arms the RTO), a single saturated flow, and
// the 16-sender aggregation testbed. Results are recorded in
// BENCH_kernel.json at the repo root (see TestWriteKernelBenchJSON).
//
// BenchmarkTimerChurn and the flow benchmarks intentionally use only API
// that exists on both sides of the pooled-kernel change (tm := After(...);
// tm.Stop()), so the same file produces comparable before/after numbers.

func BenchmarkTimerChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	cb := func() {}
	// A standing population of far-future timers gives every heap operation
	// a realistic depth (a busy host holds one RTO/delack timer per flow
	// plus device timers).
	for i := 0; i < 256; i++ {
		eng.After(10*units.Minute+units.Time(i), cb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := eng.After(10*units.Microsecond, cb)
		tm.Stop()
		if i&63 == 63 {
			// Let the kernel retire cancelled work, as a real run would.
			eng.RunUntil(eng.Now() + units.Microsecond)
		}
	}
}

func BenchmarkTimerReschedule(b *testing.B) {
	eng := sim.NewEngine(1)
	cb := func() {}
	for i := 0; i < 256; i++ {
		eng.After(10*units.Minute+units.Time(i), cb)
	}
	tm := eng.After(10*units.Microsecond, cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tm.Reschedule(eng.Now() + 10*units.Microsecond + units.Time(i&7)) {
			b.Fatal("timer not pending")
		}
	}
}

// benchSteadyPair builds a saturated single flow and advances it to steady
// state so the measured slices contain only established-flow work.
func benchSteadyPair(b *testing.B) *tools.Pair {
	b.Helper()
	p, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 1)
	if err != nil {
		b.Fatal(err)
	}
	p.Dst.SetAutoRead(func(int64) {})
	p.Src.Send(1<<50, 64*1024, false, nil)
	p.Eng.RunUntil(p.Eng.Now() + 10*units.Millisecond)
	return p
}

func BenchmarkSingleFlowSteadyState(b *testing.B) {
	p := benchSteadyPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eng.RunUntil(p.Eng.Now() + 100*units.Microsecond)
	}
}

func BenchmarkMultiFlow16PE2650(b *testing.B) {
	m, err := NewMultiFlow(1, host.PE2650, host.Optimized(9000), 16, GbESenders, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range m.Pairs {
		p.Dst.SetAutoRead(func(int64) {})
		p.Src.Send(1<<50, 64*1024, false, nil)
	}
	m.Eng.RunUntil(m.Eng.Now() + 10*units.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eng.RunUntil(m.Eng.Now() + 100*units.Microsecond)
	}
}

// kernelBenchResult is one benchmark's measurement as recorded in
// BENCH_kernel.json.
type kernelBenchResult struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
}

// TestWriteKernelBenchJSON runs the kernel benchmarks and writes their
// results to the path in BENCH_KERNEL_JSON (skipped when unset). The
// committed BENCH_kernel.json pairs a run of this from the pre-pooling
// commit ("before") with one from the current tree ("after").
func TestWriteKernelBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_KERNEL_JSON")
	if path == "" {
		t.Skip("set BENCH_KERNEL_JSON=<path> to record kernel benchmarks")
	}
	out := make(map[string]kernelBenchResult)
	for name, fn := range map[string]func(*testing.B){
		"TimerChurn":            BenchmarkTimerChurn,
		"TimerReschedule":       BenchmarkTimerReschedule,
		"SingleFlowSteadyState": BenchmarkSingleFlowSteadyState,
		"MultiFlow16PE2650":     BenchmarkMultiFlow16PE2650,
	} {
		r := testing.Benchmark(fn)
		out[name] = kernelBenchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
