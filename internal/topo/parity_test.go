package topo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// TestCompiledBaselineByteIdentical pins the Figure 2(b) testbed: the
// shipped paper-baseline topology file and topo.ThroughSwitch — two PE2650
// hosts through the FastIron 1500, fully tuned — must both export the
// telemetry digest the retired hand-wired construction produced under the
// same seed and transfer. Any divergence in host construction order, link
// parameters, tuning resolution, or route installation shows up here as a
// digest mismatch.
func TestCompiledBaselineByteIdentical(t *testing.T) {
	const (
		seed    = 7
		count   = 1500
		payload = 8948
		want    = "97cdd0f9455ac4e717ca1208828a2a564df05fad2517653bcf0f4eba10c56319"
	)
	file, err := topo.Load("../../examples/topologies/paper-baseline.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, tc := range []struct {
		name string
		spec *topo.Spec
	}{
		{"paper-baseline.json", file},
		{"ThroughSwitch", topo.ThroughSwitch(host.PE2650, host.Optimized(9000))},
	} {
		eng := sim.NewEngine(seed)
		net, err := topo.Compile(eng, tc.spec, seed)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if len(net.Pairs) != 1 {
			t.Fatalf("%s: compiled %d flows, want 1", tc.name, len(net.Pairs))
		}
		b := net.AttachTelemetry("baseline", seed, telemetry.Options{Enabled: true})
		res, err := tools.NTTCP(net.Pairs[0], count, payload, 10*units.Minute)
		if err != nil {
			t.Fatalf("%s: transfer: %v", tc.name, err)
		}
		b.CaptureEngine(eng.Executed, eng.HighWater)
		d := sha256.Sum256(b.ExportJSONL())
		if got := hex.EncodeToString(d[:]); got != want {
			t.Errorf("%s: telemetry digest %s (%.3f Gb/s, %d events), want %s",
				tc.name, got, res.Throughput.Gbps(), eng.Executed, want)
		}
	}
}

// TestCompileDeterministic compiles and runs the fat-tree twice under the
// same seed: flow results and fabric counters must match exactly, proving
// that route precompute and construction order are stable.
func TestCompileDeterministic(t *testing.T) {
	run := func() ([]topo.FlowResult, []telemetry.FabricCounters) {
		spec, err := topo.Load("../../examples/topologies/fattree-pod.json")
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		net, err := topo.Compile(sim.NewEngine(11), spec, 11)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		res, err := net.RunFlows(10 * units.Minute)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res, net.FabricCounters()
	}
	res1, fc1 := run()
	res2, fc2 := run()
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Errorf("flow %d diverges: %+v vs %+v", i, res1[i], res2[i])
		}
	}
	if len(fc1) != len(fc2) {
		t.Fatalf("fabric counter sets differ in length")
	}
	for i := range fc1 {
		if fc1[i].Node != fc2[i].Node || fc1[i].Forwarded != fc2[i].Forwarded ||
			fc1[i].Dropped != fc2[i].Dropped {
			t.Errorf("switch %s counters diverge: %+v vs %+v", fc1[i].Node, fc1[i], fc2[i])
		}
	}
}
