package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/units"
)

func TestMultiFlowTwoAdaptersEqualsOne(t *testing.T) {
	// §3.5.2: splitting the GbE flows across two 10GbE adapters on
	// independent buses yields results statistically identical to one
	// adapter — ruling out the PCI-X bus and the adapter as bottlenecks.
	run := func(nics int) float64 {
		m, err := NewMultiFlowNICs(1, host.PE2650, host.Optimized(9000), 6, GbESenders, false, nics)
		if err != nil {
			t.Fatal(err)
		}
		return RunMultiFlow(m, 100*units.Millisecond).Aggregate.Gbps()
	}
	one := run(1)
	two := run(2)
	ratio := two / one
	if ratio < 0.85 || ratio > 1.20 {
		t.Errorf("two adapters (%.2f) vs one (%.2f): ratio %.2f, want ~1", two, one, ratio)
	}
}
