package bench

import (
	"strings"
	"testing"
)

func TestParseDetectsShapes(t *testing.T) {
	cases := []struct {
		data string
		kind Kind
	}{
		{`{"meta":{"scheduler":"wheel"},"sweeps":[{"figure":"fig3","label":"x","points":[]}]}`, KindSweep},
		{`{"description":"d","benchmarks":{"TimerChurn":{"before":{"ns_op":1},"after":{"allocs_op":0}}}}`, KindKernel},
		{`{"meta":{"topology":"t.json","cpus":4},"pdes":[{"shards":1,"wall_ms":10,"speedup":1}]}`, KindPDES},
	}
	for _, c := range cases {
		f, err := Parse([]byte(c.data))
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if f.Kind != c.kind {
			t.Errorf("detected %s, want %s", f.Kind, c.kind)
		}
	}
	if _, err := Parse([]byte(`{"something":"else"}`)); err == nil {
		t.Error("unrecognized shape should fail")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("malformed input should fail")
	}
}

func TestLoadCommittedBaselines(t *testing.T) {
	for path, kind := range map[string]Kind{
		"../../BENCH_sweep.json":  KindSweep,
		"../../BENCH_kernel.json": KindKernel,
		"../../BENCH_pdes.json":   KindPDES,
	} {
		f, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if f.Kind != kind {
			t.Errorf("%s: detected %s, want %s", path, f.Kind, kind)
		}
	}
}

func sweepFile(gbps float64) *SweepFile {
	return &SweepFile{
		Meta: &Meta{Seed: 1, Count: 3000},
		Sweeps: []Sweep{{
			Figure: "fig3", Label: "stock-mtu9000", Profile: "pe2650",
			Points: []SweepPoint{
				{Payload: 1024, Gbps: gbps},
				{Payload: 8948, Gbps: gbps * 1.5},
			},
			PeakPayload: 8948, PeakGbps: gbps * 1.5,
		}},
	}
}

// The acceptance path: an injected synthetic regression must produce a
// failing report, while an identical or improved run must pass.
func TestCompareSweepsSyntheticRegression(t *testing.T) {
	base := sweepFile(2.70)
	if rep := CompareSweeps(base, sweepFile(2.70), 0.02); rep.Failed() {
		t.Fatalf("identical run failed the gate: %v", rep.Regressions)
	}
	if rep := CompareSweeps(base, sweepFile(2.90), 0.02); rep.Failed() {
		t.Fatalf("improvement failed the gate: %v", rep.Regressions)
	}
	// Within threshold: 1% loss under a 2% gate.
	if rep := CompareSweeps(base, sweepFile(2.673), 0.02); rep.Failed() {
		t.Fatalf("1%% loss failed a 2%% gate: %v", rep.Regressions)
	}
	// Past threshold: 10% loss.
	rep := CompareSweeps(base, sweepFile(2.43), 0.02)
	if !rep.Failed() {
		t.Fatal("10% regression passed the gate")
	}
	// Both points and the peak regressed.
	if len(rep.Regressions) != 3 {
		t.Errorf("got %d regressions, want 3: %v", len(rep.Regressions), rep.Regressions)
	}
	for _, f := range rep.Regressions {
		if f.DeltaPct > -2 {
			t.Errorf("regression delta %.2f%% should be past the gate: %s", f.DeltaPct, f)
		}
		if !strings.Contains(f.String(), "fig3/stock-mtu9000") {
			t.Errorf("finding does not name its sweep: %s", f)
		}
	}
}

func TestCompareSweepsSkipsUnrunAndMismatched(t *testing.T) {
	base := sweepFile(2.70)
	base.Sweeps = append(base.Sweeps, Sweep{
		Figure: "fig4", Label: "optimized-mtu9000",
		Points: []SweepPoint{{Payload: 1024, Gbps: 3.9}}, PeakGbps: 3.9,
	})
	// Current run only executed fig3, and on a disjoint payload grid.
	cur := &SweepFile{Sweeps: []Sweep{{
		Figure: "fig3", Label: "stock-mtu9000",
		Points:   []SweepPoint{{Payload: 4096, Gbps: 0.001}},
		PeakGbps: 0.001,
	}}}
	rep := CompareSweeps(base, cur, 0.02)
	if rep.Failed() || rep.Compared != 0 {
		t.Errorf("nothing overlaps, yet compared=%d failed=%v", rep.Compared, rep.Failed())
	}
	if len(rep.Skipped) != 2 {
		t.Errorf("skipped = %v, want the unrun sweep and the grid mismatch", rep.Skipped)
	}
}

func TestRelDelta(t *testing.T) {
	if d := relDelta(2, 1); d != -0.5 {
		t.Errorf("relDelta(2,1) = %v", d)
	}
	if d := relDelta(0, 0); d != 0 {
		t.Errorf("relDelta(0,0) = %v", d)
	}
	if d := relDelta(0, 5); d != 1 {
		t.Errorf("relDelta(0,5) = %v", d)
	}
}
