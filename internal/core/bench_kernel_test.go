package core

import (
	"encoding/json"
	"os"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Kernel hot-path benchmarks. These measure the discrete-event kernel under
// the load patterns the TCP model actually produces: timer churn (every
// acknowledgment cancels and re-arms the RTO), a single saturated flow, and
// the 16-sender aggregation testbed — plus the telemetry JSONL export a
// long-haul run ends with. Results are recorded in BENCH_kernel.json at the
// repo root (see TestWriteKernelBenchJSON), and TestKernelBenchAllocs holds
// each workload to its committed allocs/op.
//
// The timer and flow workloads intentionally use only API that exists on
// both sides of the pooled-kernel change (tm := After(...); tm.Stop()), so
// the same file produces comparable before/after numbers.

// kernelWorkload is one benchmark's workload: setup builds its state and
// returns the per-op closure; allocRuns is how many ops TestKernelBenchAllocs
// averages over, enough that an allocation rarer than once per op
// truncates to zero, as testing.Benchmark's average does.
type kernelWorkload struct {
	allocRuns int
	setup     func(tb testing.TB) func()
}

// kernelWorkloads are the BENCH_kernel.json workloads by name.
var kernelWorkloads = map[string]kernelWorkload{
	"TimerChurn": {4096, func(testing.TB) func() {
		eng := sim.NewEngine(1)
		cb := func() {}
		// A standing population of far-future timers gives every heap
		// operation a realistic depth (a busy host holds one RTO/delack
		// timer per flow plus device timers).
		for i := 0; i < 256; i++ {
			eng.After(10*units.Minute+units.Time(i), cb)
		}
		i := 0
		return func() {
			tm := eng.After(10*units.Microsecond, cb)
			tm.Stop()
			if i&63 == 63 {
				// Let the kernel retire cancelled work, as a real run would.
				eng.RunUntil(eng.Now() + units.Microsecond)
			}
			i++
		}
	}},
	"TimerReschedule": {4096, func(tb testing.TB) func() {
		eng := sim.NewEngine(1)
		cb := func() {}
		for i := 0; i < 256; i++ {
			eng.After(10*units.Minute+units.Time(i), cb)
		}
		tm := eng.After(10*units.Microsecond, cb)
		i := 0
		return func() {
			if !tm.Reschedule(eng.Now() + 10*units.Microsecond + units.Time(i&7)) {
				tb.Fatal("timer not pending")
			}
			i++
		}
	}},
	"SingleFlowSteadyState": {128, func(tb testing.TB) func() {
		p, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 1)
		if err != nil {
			tb.Fatal(err)
		}
		p.Dst.SetAutoRead(func(int64) {})
		p.Src.Send(1<<50, 64*1024, false, nil)
		// 50 ms of simulated warm-up: the event pool keeps growing for a few
		// tens of milliseconds while cancelled timers reach equilibrium (the
		// same margin as TestSteadyStateZeroAlloc).
		p.Eng.RunUntil(p.Eng.Now() + 50*units.Millisecond)
		return func() { p.Eng.RunUntil(p.Eng.Now() + 100*units.Microsecond) }
	}},
	"MultiFlow16PE2650": {64, func(tb testing.TB) func() {
		net, err := topo.Compile(sim.NewEngine(1),
			topo.Aggregation(host.PE2650, host.Optimized(9000), 16, false, 1), 1)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range net.Pairs {
			p.Dst.SetAutoRead(func(int64) {})
			p.Src.Send(1<<50, 64*1024, false, nil)
		}
		net.Eng.RunUntil(net.Eng.Now() + 50*units.Millisecond)
		return func() { net.Eng.RunUntil(net.Eng.Now() + 100*units.Microsecond) }
	}},
	// The fixed synthetic telemetry bundle (16 connections × 256 samples ×
	// 1024 events, one ring wrapped). Its allocations are not zero — the
	// export allocates its buffer and a few per-bundle lines — but they
	// must not grow with the record count.
	"ExportJSONL": {8, func(testing.TB) func() {
		bundle := telemetry.SyntheticBundle(1)
		return func() { bundle.ExportJSONL() }
	}},
}

// benchKernel runs the named workload as a benchmark.
func benchKernel(b *testing.B, name string) {
	op := kernelWorkloads[name].setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTimerChurn(b *testing.B)            { benchKernel(b, "TimerChurn") }
func BenchmarkTimerReschedule(b *testing.B)       { benchKernel(b, "TimerReschedule") }
func BenchmarkSingleFlowSteadyState(b *testing.B) { benchKernel(b, "SingleFlowSteadyState") }
func BenchmarkMultiFlow16PE2650(b *testing.B)     { benchKernel(b, "MultiFlow16PE2650") }
func BenchmarkExportJSONL(b *testing.B)           { benchKernel(b, "ExportJSONL") }

// kernelBenchResult is one benchmark's measurement as recorded in
// BENCH_kernel.json.
type kernelBenchResult struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
}

// TestWriteKernelBenchJSON runs the kernel benchmarks and writes their
// results to the path in BENCH_KERNEL_JSON (skipped when unset). The
// committed BENCH_kernel.json pairs a run of this on the commit before the
// latest kernel change ("before") with one on the current tree ("after"),
// both on the host its description names.
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
		"ExportJSONL":           BenchmarkExportJSONL,
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

// TestKernelBenchAllocs measures each kernel workload's allocations per op
// and fails when one allocates more than the 'after' column of the
// committed BENCH_kernel.json claims for the current tree, or when a
// committed benchmark has no workload or a workload no committed entry.
// Allocations are deterministic, so the check holds on any host; ns/op is
// never checked. testing.AllocsPerRun pins GOMAXPROCS to 1 and makes one
// warm-up call, as a benchmark's first iteration does.
func TestKernelBenchAllocs(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Benchmarks map[string]struct {
			After kernelBenchResult `json:"after"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	for name := range committed.Benchmarks {
		if _, ok := kernelWorkloads[name]; !ok {
			t.Errorf("%s: committed in BENCH_kernel.json, but no workload has the name", name)
		}
	}
	for name, w := range kernelWorkloads {
		entry, ok := committed.Benchmarks[name]
		if !ok {
			t.Errorf("%s: no entry in BENCH_kernel.json", name)
			continue
		}
		got := int64(testing.AllocsPerRun(w.allocRuns, w.setup(t)))
		if got > entry.After.AllocsPerOp {
			t.Errorf("%s: %d allocs/op, committed %d", name, got, entry.After.AllocsPerOp)
		} else {
			t.Logf("%s: %d allocs/op, committed %d", name, got, entry.After.AllocsPerOp)
		}
	}
}
