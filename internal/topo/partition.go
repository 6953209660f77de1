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
	// Lookahead is the barrier-window width: the minimum propagation delay
	// over ALL links, not just cut links. Any cut link's delay is >= this,
	// so it is a valid conservative lookahead — and because it does not
	// depend on where the cut falls, every shard count runs the identical
	// window grid, which is what lets the window-quantized run produce
	// byte-identical telemetry at shards 1, 2, and 4.
	Lookahead units.Time
}

// PlacementError reports a host the partitioner cannot place. It lays nodes
// out along the switch graph with each host beside its one switch, so it
// cannot place either end of a crossover cable, nor a multi-homed host.
type PlacementError struct {
	Topo string
	// Host is the host that cannot be placed; Link is the crossover, or the
	// multi-homed host's second link.
	Host, Link string
	Crossover  bool
}

func (e *PlacementError) Error() string {
	if e.Crossover {
		return fmt.Sprintf("topo %s: link %s joins two hosts; parallel DES partitions along switches and cannot shard a crossover", e.Topo, e.Link)
	}
	return fmt.Sprintf("topo %s: host %s is multi-homed (link %s is its second); parallel DES places each host beside one switch", e.Topo, e.Host, e.Link)
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
	placed := make(map[string]bool, len(s.Hosts))
	isSwitch := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		isSwitch[sw.Name] = true
	}
	for _, l := range s.Links {
		h, sw := l.A, l.B
		if isSwitch[h] {
			h, sw = sw, h
		}
		switch {
		case isSwitch[h]: // a trunk
		case !isSwitch[sw]:
			return nil, &PlacementError{Topo: s.Name, Host: h, Link: l.EffectiveName(), Crossover: true}
		case placed[h]:
			return nil, &PlacementError{Topo: s.Name, Host: h, Link: l.EffectiveName()}
		default:
			placed[h] = true
			hostsOn[sw] = append(hostsOn[sw], h)
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
	// With crossovers and multi-homed hosts rejected above, every host hangs
	// off exactly one switch and rides with it, so the order covers every
	// node; guard the invariant anyway.
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

	plan := &PartitionPlan{Shards: shards, Owner: owner}
	for li := range s.Links {
		l := &s.Links[li]
		if owner[l.A] != owner[l.B] {
			plan.CutLinks = append(plan.CutLinks, li)
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
