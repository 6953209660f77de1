package topo_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// lineSpec builds a 4-switch line with one host per switch:
// h0-s0 - s1-h1 - s2-h2 - s3-h3, trunks between consecutive switches.
func lineSpec(t *testing.T) *topo.Spec {
	t.Helper()
	js := `{
		"name": "line",
		"hosts": [{"name":"h0"},{"name":"h1"},{"name":"h2"},{"name":"h3"}],
		"switches": [{"name":"s0"},{"name":"s1"},{"name":"s2"},{"name":"s3"}],
		"links": [
			{"a":"h0","b":"s0","prop_ns":200},
			{"a":"h1","b":"s1","prop_ns":200},
			{"a":"h2","b":"s2","prop_ns":200},
			{"a":"h3","b":"s3","prop_ns":200},
			{"a":"s0","b":"s1","prop_ns":500},
			{"a":"s1","b":"s2","prop_ns":500},
			{"a":"s2","b":"s3","prop_ns":500}
		],
		"flows": [{"src":"h0","dst":"h3","count":4,"payload":1024}]
	}`
	var s topo.Spec
	if err := json.Unmarshal([]byte(js), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestPartitionBalancedContiguous(t *testing.T) {
	s := lineSpec(t)
	plan, err := topo.Partition(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Hosts ride with their switch, and the two halves of the line each get
	// two switch+host pairs.
	for _, sw := range []string{"s0", "s1", "s2", "s3"} {
		host := "h" + sw[1:]
		if plan.Owner[host] != plan.Owner[sw] {
			t.Errorf("host %s on shard %d, its switch on %d", host, plan.Owner[host], plan.Owner[sw])
		}
	}
	counts := map[int]int{}
	for _, sh := range plan.Owner {
		counts[sh]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Errorf("unbalanced partition: %v (owner %v)", counts, plan.Owner)
	}
	// A contiguous 2-cut of the line severs exactly one trunk.
	if len(plan.CutLinks) != 1 {
		t.Errorf("cut %d links, want 1 (%v)", len(plan.CutLinks), plan.CutLinks)
	}
	// Lookahead is the minimum over ALL links (the host links), not just the
	// cut trunk — that keeps the window grid shard-count-invariant.
	if plan.Lookahead != 200*units.Nanosecond {
		t.Errorf("lookahead %v, want 200ns", plan.Lookahead)
	}
}

// TestPartitionCutDegrees checks CutLinks both ways: on the line fixture
// and on every shipped example topology, a link is listed, once and in
// declaration order, exactly when its two ends have different owners.
func TestPartitionCutDegrees(t *testing.T) {
	check := func(t *testing.T, s *topo.Spec, shards int) *topo.PartitionPlan {
		plan, err := topo.Partition(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for li, l := range s.Links {
			if plan.Owner[l.A] != plan.Owner[l.B] {
				want = append(want, li)
			}
		}
		if !slices.Equal(plan.CutLinks, want) {
			t.Errorf("CutLinks = %v, links with ends on different shards = %v", plan.CutLinks, want)
		}
		return plan
	}

	t.Run("line/shards=2", func(t *testing.T) {
		s := lineSpec(t)
		plan := check(t, s, 2)
		// The contiguous 2-cut severs one trunk.
		if len(plan.CutLinks) != 1 {
			t.Fatalf("cut %d links, want 1 (%v)", len(plan.CutLinks), plan.CutLinks)
		}
		if l := s.Links[plan.CutLinks[0]]; !strings.HasPrefix(l.A, "s") || !strings.HasPrefix(l.B, "s") {
			t.Errorf("cut link %s-%s is not a trunk", l.A, l.B)
		}
	})

	files, err := filepath.Glob(filepath.Join("../../examples/topologies", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example topologies found: %v", err)
	}
	for _, file := range files {
		file := file
		for _, shards := range []int{2, 4} {
			shards := shards
			t.Run(fmt.Sprintf("%s/shards=%d", filepath.Base(file), shards), func(t *testing.T) {
				s, err := topo.Load(file)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Hosts)+len(s.Switches) < shards {
					t.Skipf("only %d nodes", len(s.Hosts)+len(s.Switches))
				}
				check(t, s, shards)
			})
		}
	}
}

func TestPartitionPinsOverride(t *testing.T) {
	s := lineSpec(t)
	pin := 1
	s.Hosts[0].Shard = &pin // h0 would naturally land on shard 0
	plan, err := topo.Partition(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Owner["h0"] != 1 {
		t.Errorf("pinned h0 on shard %d, want 1", plan.Owner["h0"])
	}
	// The pin makes h0's host link a cut link alongside the trunk cut.
	if len(plan.CutLinks) != 2 {
		t.Errorf("cut %d links, want 2 with the pinned host", len(plan.CutLinks))
	}

	bad := 7
	s.Switches[0].Shard = &bad
	if _, err := topo.Partition(s, 2); err == nil {
		t.Error("out-of-range pin accepted")
	}
}

func TestPartitionBounds(t *testing.T) {
	s := lineSpec(t)
	if _, err := topo.Partition(s, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := topo.Partition(s, 9); err == nil {
		t.Error("more shards than nodes accepted")
	}
	plan, err := topo.Partition(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CutLinks) != 0 {
		t.Errorf("1-shard partition cut %d links", len(plan.CutLinks))
	}
	// One shard per node works too: every trunk and host link is cut.
	plan, err = topo.Partition(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CutLinks) != len(s.Links) {
		t.Errorf("8-shard partition cut %d of %d links", len(plan.CutLinks), len(s.Links))
	}
}

// TestPartitionRejectsMultiHomed: the partitioner places each host beside
// its one switch, so a host with a second link comes back as a typed error
// naming the host and that link, at any shard count.
func TestPartitionRejectsMultiHomed(t *testing.T) {
	s := topo.Aggregation(host.PE2650, host.Optimized(9000), 2, false, 2)
	for _, shards := range []int{1, 2} {
		_, err := topo.Partition(s, shards)
		var pe *topo.PlacementError
		if !errors.As(err, &pe) || pe.Crossover || pe.Host != "sink" || pe.Link != "sink-sw1" {
			t.Errorf("shards=%d: err = %v, want a PlacementError naming host sink and link sink-sw1", shards, err)
		}
	}
}

// TestRunFlowsTimeoutTypedError pins the typed error contract: a run that
// cannot finish names every unfinished flow with its byte progress.
func TestRunFlowsTimeoutTypedError(t *testing.T) {
	s := lineSpec(t)
	s.Flows[0].Count = 100000 // ~100 MB through a line: cannot finish in 1ms
	eng := sim.NewEngine(1)
	net, err := topo.Compile(eng, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.RunFlows(units.Millisecond)
	if err == nil {
		t.Fatal("overloaded run finished inside 1ms")
	}
	var inc *topo.IncompleteFlowsError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncompleteFlowsError, got %T: %v", err, err)
	}
	if len(inc.Incomplete) != 1 {
		t.Fatalf("incomplete flows: %+v, want 1", inc.Incomplete)
	}
	f := inc.Incomplete[0]
	if f.Flow != "h0->h3" || f.Src != "h0" || f.Dst != "h3" {
		t.Errorf("flow identity = %+v", f)
	}
	if f.Total != 100000*1024 {
		t.Errorf("total = %d, want %d", f.Total, 100000*1024)
	}
	if !strings.Contains(err.Error(), "h0->h3") {
		t.Errorf("error text does not name the flow: %v", err)
	}
	if inc.Stalled {
		t.Error("timeout misreported as stall")
	}
}
