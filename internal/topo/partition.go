package topo

import (
	"fmt"

	"tengig/internal/units"
)

// PartitionPlan assigns every node of a topology to one of Shards parallel-DES
// shards and derives the synchronization lookahead.
type PartitionPlan struct {
	Shards int
	// Owner maps node name -> shard index.
	Owner map[string]int
	// CutLinks indexes Spec.Links whose endpoints live on different shards;
	// their ports become shard boundaries.
	CutLinks []int
	// CutOut[i] counts directed boundary crossings leaving shard i: cut-link
	// endpoints owned by i whose peer lives elsewhere. CutIn[i] counts the
	// crossings arriving at shard i. Every cut link contributes one to each
	// side's tally per direction, so CutOut[i] == CutIn[i] == the number of
	// cut links incident to shard i; the sparse-replica boundary-stub builder
	// sizes its one-hop stub set and per-pair message slots from them.
	CutOut, CutIn []int
	// Lookahead is the barrier-window width: the minimum propagation delay
	// over ALL links, not just cut links. Any cut link's delay is >= this,
	// so it is a valid conservative lookahead — and because it does not
	// depend on where the cut falls, every shard count runs the identical
	// window grid, which is what lets the window-quantized run produce
	// byte-identical telemetry at shards 1, 2, and 4.
	Lookahead units.Time
}

// CrossoverError reports a host-to-host link in a spec handed to the
// partitioner, which lays nodes out along the switch graph and so cannot
// place a crossover pair.
type CrossoverError struct {
	Topo, Link string
}

func (e *CrossoverError) Error() string {
	return fmt.Sprintf("topo %s: link %s joins two hosts; parallel DES partitions along switches and cannot shard a crossover", e.Topo, e.Link)
}

// Partition splits the topology into shards balanced by event weight.
//
// The partitioner lays the nodes on a line — a BFS over the switch graph
// from the first-declared switch, each switch immediately followed by its
// attached hosts in declaration order, disconnected components appended from
// the next undiscovered switch — and cuts the line into contiguous runs.
// BFS keeps graph neighborhoods adjacent on the line, so contiguous cuts
// sever few links (min-cut-ish without the NP-hard search); weights (host 1,
// switch = incident links) approximate per-node event load so the runs carry
// similar work. A greedy scan closes a shard once it has reached its fair
// share of the remaining weight. Explicit per-node pins in the spec override
// the automatic placement after the scan.
func Partition(s *Spec, shards int) (*PartitionPlan, error) {
	nodes := len(s.Hosts) + len(s.Switches)
	if shards < 1 {
		return nil, fmt.Errorf("topo %s: partition into %d shards", s.Name, shards)
	}
	if shards > nodes {
		return nil, fmt.Errorf("topo %s: %d shards for %d nodes", s.Name, shards, nodes)
	}

	// Linear order: BFS over switches, hosts ride with their switch.
	hostsOn := make(map[string][]string) // switch -> hosts in declaration order
	isSwitch := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		isSwitch[sw.Name] = true
	}
	for _, l := range s.Links {
		if !isSwitch[l.A] && !isSwitch[l.B] {
			return nil, &CrossoverError{Topo: s.Name, Link: l.EffectiveName()}
		}
	}
	for _, l := range s.Links {
		switch {
		case !isSwitch[l.A]:
			hostsOn[l.B] = append(hostsOn[l.B], l.A)
		case !isSwitch[l.B]:
			hostsOn[l.A] = append(hostsOn[l.A], l.B)
		}
	}
	adj := s.adjacency()
	weight := make(map[string]int, nodes)
	for name, edges := range adj {
		if isSwitch[name] {
			weight[name] = len(edges)
		}
	}
	for _, h := range s.Hosts {
		weight[h.Name] = 1
	}

	var order []string
	visited := make(map[string]bool, len(s.Switches))
	enqueue := func(sw string) []string { visited[sw] = true; return []string{sw} }
	for _, start := range s.Switches {
		if visited[start.Name] {
			continue
		}
		queue := enqueue(start.Name)
		for len(queue) > 0 {
			sw := queue[0]
			queue = queue[1:]
			order = append(order, sw)
			order = append(order, hostsOn[sw]...)
			for _, e := range adj[sw] {
				if isSwitch[e.peer] && !visited[e.peer] {
					queue = append(queue, enqueue(e.peer)...)
				}
			}
		}
	}
	// With crossovers rejected above, every host hangs off exactly one
	// switch and rides with it, so the order covers every node; guard the
	// invariant anyway.
	if len(order) != nodes {
		return nil, fmt.Errorf("topo %s: partition order covers %d of %d nodes", s.Name, len(order), nodes)
	}

	// Greedy contiguous cut: close the current shard once it holds its fair
	// share of what is left, keeping at least one node per remaining shard.
	total := 0
	for _, name := range order {
		total += weight[name]
	}
	owner := make(map[string]int, nodes)
	shard, acc, remaining := 0, 0, total
	for i, name := range order {
		owner[name] = shard
		acc += weight[name]
		remaining -= weight[name]
		nodesLeft := nodes - i - 1
		shardsLeft := shards - shard - 1
		if shardsLeft > 0 && (acc*shardsLeft >= remaining || nodesLeft == shardsLeft) {
			shard++
			acc = 0
		}
	}

	// Explicit pins override.
	for _, h := range s.Hosts {
		if h.Shard != nil {
			if *h.Shard >= shards {
				return nil, fmt.Errorf("topo %s: host %s pinned to shard %d of %d", s.Name, h.Name, *h.Shard, shards)
			}
			owner[h.Name] = *h.Shard
		}
	}
	for _, sw := range s.Switches {
		if sw.Shard != nil {
			if *sw.Shard >= shards {
				return nil, fmt.Errorf("topo %s: switch %s pinned to shard %d of %d", s.Name, sw.Name, *sw.Shard, shards)
			}
			owner[sw.Name] = *sw.Shard
		}
	}

	plan := &PartitionPlan{
		Shards: shards, Owner: owner,
		CutOut: make([]int, shards), CutIn: make([]int, shards),
	}
	for li := range s.Links {
		l := &s.Links[li]
		if oa, ob := owner[l.A], owner[l.B]; oa != ob {
			plan.CutLinks = append(plan.CutLinks, li)
			plan.CutOut[oa]++
			plan.CutIn[ob]++
			plan.CutOut[ob]++
			plan.CutIn[oa]++
		}
		p := l.prop()
		if plan.Lookahead == 0 || p < plan.Lookahead {
			plan.Lookahead = p
		}
	}
	if plan.Lookahead <= 0 {
		return nil, fmt.Errorf("topo %s: zero-delay link leaves no lookahead", s.Name)
	}
	return plan, nil
}
