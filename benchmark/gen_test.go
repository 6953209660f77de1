package main

import (
	"bytes"
	"reflect"
	"testing"

	"tengig/internal/topo"
	"tengig/internal/units"
)

// TestGeneratorsArePure: a seed names one input exactly, every input is a
// valid topology, and another seed gives another input.
func TestGeneratorsArePure(t *testing.T) {
	gens := map[string]func(int64, bool) ([]byte, error){
		incastFabric: incastSpec, pdesTorus: torusSpec, wanFaults: wanSpec,
	}
	for name, gen := range gens {
		for _, tiny := range []bool{false, true} {
			one, err := gen(1, tiny)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			again, _ := gen(1, tiny)
			two, _ := gen(2, tiny)
			if !bytes.Equal(one, again) {
				t.Errorf("%s tiny=%v: seed 1 gave two different specs", name, tiny)
			}
			if bytes.Equal(one, two) {
				t.Errorf("%s tiny=%v: seeds 1 and 2 gave the same spec", name, tiny)
			}
			for _, data := range [][]byte{one, two} {
				s, err := topo.Parse(data)
				if err != nil {
					t.Fatalf("%s tiny=%v: %v", name, tiny, err)
				}
				if err := s.Validate(); err != nil {
					t.Errorf("%s tiny=%v: %v", name, tiny, err)
				}
			}
		}
	}
	if !reflect.DeepEqual(sweepConfigs(1, false), sweepConfigs(1, false)) {
		t.Error("paper-sweep: seed 1 gave two different configs")
	}
}

// TestWorkloadShapes pins the shapes the workload names promise.
func TestWorkloadShapes(t *testing.T) {
	parse := func(gen func(int64, bool) ([]byte, error)) *topo.Spec {
		t.Helper()
		data, err := gen(3, false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := topo.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	points := 0
	for _, c := range sweepConfigs(3, false) {
		points += len(c.Payloads)
		if c.Count != 3000 || c.Workers != 1 {
			t.Errorf("paper-sweep %s: count %d workers %d", c.Tuning.Label(), c.Count, c.Workers)
		}
	}
	if points != 132 {
		t.Errorf("paper-sweep: %d points, want 132", points)
	}

	in := parse(incastSpec)
	if n := len(in.Hosts) + len(in.Switches); n != 140 || len(in.Flows) != 64 {
		t.Errorf("incast-fabric: %d nodes and %d flows, want 140 and 64", n, len(in.Flows))
	}
	for _, f := range in.Flows {
		if f.Payload < 1024 || f.Payload > 9*1024 {
			t.Errorf("incast-fabric: payload %d outside 1-9 KB", f.Payload)
		}
	}

	torus := parse(torusSpec)
	if len(torus.Switches) != 16 || len(torus.Hosts) != 16 || len(torus.Flows) != 32 {
		t.Errorf("pdes-torus: %d switches, %d hosts, %d flows", len(torus.Switches), len(torus.Hosts), len(torus.Flows))
	}
	seen := map[float64]bool{}
	for _, l := range torus.Links {
		if l.PropNS < 24000 || l.PropNS > 26500 || seen[l.PropNS] {
			t.Errorf("pdes-torus: link %s delay %v ns is out of range or repeated", l.EffectiveName(), l.PropNS)
		}
		seen[l.PropNS] = true
	}

	wan := parse(wanSpec)
	bottleneck := wan.Links[len(wan.Links)-1]
	if len(wan.Flows) != 8 || bottleneck.PropNS != float64(90*units.Millisecond/units.Nanosecond) || len(bottleneck.Faults.AtoB) == 0 {
		t.Errorf("wan-faults: %d flows, bottleneck %+v", len(wan.Flows), bottleneck)
	}
}
