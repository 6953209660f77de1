package topo

import (
	"fmt"

	"tengig/internal/units"
)

// Compile subsets for parallel DES.
//
// Each parallel-DES shard compiles only what it can observe: the nodes it
// owns, the one-hop stubs across its cut links (the far endpoint of each
// boundary link must exist locally for the link itself to be wired), and —
// for compile-time exactness — every node traversed by any flow whose
// handshake packets touch the shard, widened for faults inside the compile
// horizon (BuildSubset). Everything else is skipped, and the skipped flows'
// handshakes are replaced by clock advances of their reference duration, so
// every timestamp the shard produces afterwards is identical to a full
// compile's.

// Subset names what one parallel-DES shard compiles. A nil *Subset is the
// whole spec.
type Subset struct {
	// Nodes marks the hosts and switches this shard instantiates.
	Nodes map[string]bool
	// Relevant marks, per spec flow, whether this shard compiles and
	// connects the flow's pair. Irrelevant flows get a nil Pairs entry.
	Relevant []bool
	// ConnectAt is the full-compile engine clock after each flow's
	// handshake, recorded by the reference pass; CompileSubset advances the
	// clock to ConnectAt[i] when skipping flow i and asserts equality after
	// connecting relevant ones.
	ConnectAt []units.Time
}

// FlowPath is what one flow's packets can traverse: nodes and spec link
// indices, each in first-visit order.
type FlowPath struct {
	Nodes []string
	Links []int
}

// FlowPaths computes, for every flow, the nodes and links the flow's packets
// can traverse under the compiled FIBs: the forward walk from the source's
// first interface to the destination's dst_nic one, plus the reverse walk
// (equal-cost tie-breaks may differ by direction), each following the
// shortest-path tables with explicit route pins applied on top — the same
// effective FIBs Compile installs.
func FlowPaths(s *Spec) ([]FlowPath, error) {
	// Effective per-switch next-link tables: shortest-path precompute, then
	// explicit pins override, mirroring Compile's installation order.
	ifaces := s.ifaces()
	eff := s.routeTables(ifaces)
	for i, r := range s.Routes {
		li := 0
		if r.Port != nil {
			l, ok := fullPortMap(s)[r.Switch][*r.Port]
			if !ok {
				return nil, fmt.Errorf("topo %s: route %d: switch %s has no port %d", s.Name, i, r.Switch, *r.Port)
			}
			li = l
		} else {
			l, err := s.linkBetween(r.Switch, r.Via)
			if err != nil {
				return nil, fmt.Errorf("topo %s: route %d: %w", s.Name, i, err)
			}
			li = l
		}
		eff[r.Switch][iface{r.Dst, 0}] = li
	}

	isSwitch := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		isSwitch[sw.Name] = true
	}
	walk := func(from, to iface, visit func(string), cross func(int)) error {
		visit(from.host)
		out := ifaces[from.host][from.nic]
		cross(out)
		cur := s.Links[out].peer(from.host)
		for hops := 0; ; hops++ {
			if hops > len(s.Links)+1 {
				return fmt.Errorf("topo %s: FIB walk %s->%s loops", s.Name, from.host, to.host)
			}
			visit(cur)
			li, ok := eff[cur][to]
			if !ok {
				return fmt.Errorf("topo %s: FIB walk %s->%s: %s has no route", s.Name, from.host, to.host, cur)
			}
			cross(li)
			next := s.Links[li].peer(cur)
			if next == to.host {
				visit(to.host)
				return nil
			}
			if !isSwitch[next] {
				return fmt.Errorf("topo %s: FIB walk %s->%s: route via foreign host %s", s.Name, from.host, to.host, next)
			}
			cur = next
		}
	}

	paths := make([]FlowPath, len(s.Flows))
	for i, f := range s.Flows {
		p := &paths[i]
		seen := make(map[string]bool)
		crossed := make(map[int]bool)
		visit := func(n string) {
			if !seen[n] {
				seen[n] = true
				p.Nodes = append(p.Nodes, n)
			}
		}
		cross := func(li int) {
			if !crossed[li] {
				crossed[li] = true
				p.Links = append(p.Links, li)
			}
		}
		src, dst := iface{f.Src, 0}, iface{f.Dst, f.DstNIC}
		if err := walk(src, dst, visit, cross); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
		if err := walk(dst, src, visit, cross); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return paths, nil
}

// BuildSubset assembles shard's subset from a partition plan and the
// per-flow FIB walks. It starts from the owned nodes, the one-hop boundary
// stubs across cut links, and every flow that touches an owned node. It then
// widens for faults inside the compile horizon: a link with a fault step at
// or before horizon draws from its rng streams while the handshakes that
// cross it run, so once the subset holds one flow crossing such a link it
// takes in every flow crossing it, repeating until nothing changes. The
// link's draws then replay exactly as in the full compile. Every relevant
// flow's path nodes join the subset. The caller fills ConnectAt from the
// reference compile.
func BuildSubset(s *Spec, plan *PartitionPlan, shard int, paths []FlowPath, horizon units.Time) *Subset {
	sub := &Subset{
		Nodes:    make(map[string]bool),
		Relevant: make([]bool, len(s.Flows)),
	}
	for name, o := range plan.Owner {
		if o == shard {
			sub.Nodes[name] = true
		}
	}
	for _, li := range plan.CutLinks {
		l := &s.Links[li]
		if plan.Owner[l.A] == shard {
			sub.Nodes[l.B] = true
		}
		if plan.Owner[l.B] == shard {
			sub.Nodes[l.A] = true
		}
	}
	// crossing lists, per link faulted inside the horizon, the flows that
	// cross it.
	crossing := make(map[int][]int)
	for li := range s.Links {
		if s.Links[li].faultsBy(horizon) {
			crossing[li] = nil
		}
	}
	var work []int
	for i, p := range paths {
		for _, li := range p.Links {
			if fs, hot := crossing[li]; hot {
				crossing[li] = append(fs, i)
			}
		}
		for _, n := range p.Nodes {
			if plan.Owner[n] == shard {
				sub.Relevant[i] = true
				work = append(work, i)
				break
			}
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, li := range paths[i].Links {
			for _, j := range crossing[li] {
				if !sub.Relevant[j] {
					sub.Relevant[j] = true
					work = append(work, j)
				}
			}
		}
	}
	for i, p := range paths {
		if sub.Relevant[i] {
			for _, n := range p.Nodes {
				sub.Nodes[n] = true
			}
		}
	}
	return sub
}

// fullPortMap replays the compiler's sequential port assignment over the
// full link declaration order: map[switch][port index] = spec link index.
// Subset compiles use it to re-resolve raw Port route pins, whose indices
// refer to full-compile numbering.
func fullPortMap(s *Spec) map[string]map[int]int {
	isSwitch := make(map[string]bool, len(s.Switches))
	m := make(map[string]map[int]int, len(s.Switches))
	for _, sw := range s.Switches {
		isSwitch[sw.Name] = true
		m[sw.Name] = make(map[int]int)
	}
	next := make(map[string]int, len(s.Switches))
	add := func(sw string, li int) {
		m[sw][next[sw]] = li
		next[sw]++
	}
	for li := range s.Links {
		l := &s.Links[li]
		switch {
		case !isSwitch[l.A]:
			add(l.B, li)
		case !isSwitch[l.B]:
			add(l.A, li)
		default:
			add(l.A, li)
			add(l.B, li)
		}
	}
	return m
}
