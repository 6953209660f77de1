package pdes

import (
	"testing"
)

// crossingAllocSlack bounds how many more objects a run may allocate when
// its flows carry twice the bytes. Per-run counts repeat within a few
// objects; a handoff that allocated would add thousands (two per crossing
// before crossings were carried by value).
const crossingAllocSlack = 64

// TestCrossingsDoNotAllocate holds the cross-shard handoff to zero
// allocations: a 2-shard torus-grid run whose every flow carries twice the
// bytes — so about twice the cut crossings and barrier windows — allocates
// no more objects than the plain run, within crossingAllocSlack. The
// counts are deterministic, so the bound holds on any host.
func TestCrossingsDoNotAllocate(t *testing.T) {
	allocs := func(scale int) float64 {
		spec := loadSpec(t, "torus-grid.json")
		for i := range spec.Flows {
			spec.Flows[i].Count *= scale
		}
		r, err := New(spec, Options{Shards: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun pins GOMAXPROCS to 1 and warms the runner's engines
		// with one unmeasured run.
		return testing.AllocsPerRun(3, func() {
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(1), allocs(2)
	t.Logf("allocations per run: %.0f plain, %.0f with twice the bytes", base, doubled)
	if doubled > base+crossingAllocSlack {
		t.Errorf("twice the bytes allocates %.0f objects per run against %.0f, want at most %d more",
			doubled, base, crossingAllocSlack)
	}
}
