package bench

import (
	"testing"
)

// The probes must reproduce the committed claim: every kernel hot-path
// workload runs allocation-free at steady state. This is the same contract
// the gate enforces against BENCH_kernel.json.
func TestProbesMatchZeroAllocContract(t *testing.T) {
	for _, name := range []string{
		"TimerChurn", "TimerReschedule", "SingleFlowSteadyState", "MultiFlow16PE2650",
	} {
		got, err := MeasureAllocs(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != 0 {
			t.Errorf("%s: %d allocs/op, want 0", name, got)
		}
	}
}

func TestMeasureAllocsUnknownName(t *testing.T) {
	if _, err := MeasureAllocs("NoSuchBenchmark"); err == nil {
		t.Error("unknown probe name should error")
	}
}

// CompareKernel against the committed file is the gate's real code path end
// to end: load, probe, compare.
func TestGateAgainstCommittedFiles(t *testing.T) {
	kf, err := Load("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareKernel(kf.Kernel)
	if rep.Failed() {
		t.Errorf("kernel gate failed: %v", rep.Regressions)
	}
	if rep.Compared == 0 {
		t.Error("kernel gate compared nothing")
	}
}

// A doctored baseline claiming fewer allocations than the tree delivers
// must fail — the synthetic-regression proof for the alloc gate.
func TestKernelGateCatchesSyntheticRegression(t *testing.T) {
	kf := &KernelFile{Benchmarks: map[string]KernelEntry{
		"TimerChurn": {After: Measurement{AllocsPerOp: -1}},
	}}
	rep := CompareKernel(kf)
	if !rep.Failed() {
		t.Fatal("gate passed against an impossible baseline")
	}
}
