package topo

import "fmt"

// Route precompute: fill every switch's FIB with shortest-path next hops
// over the declared link graph. Breadth-first search runs from each
// destination interface; each switch then forwards toward the first neighbor
// (in link declaration order) that is one step closer to it. The tie-break
// by declaration order makes the computed fabric deterministic: the same
// file always compiles to the same FIBs, so telemetry digests are
// reproducible even on topologies with equal-cost paths.

// edge is one adjacency entry: the peer node and the spec link realizing it.
type edge struct {
	peer string
	link int // index into Spec.Links
}

// iface names a host interface: the host's NIC nic, behind its nic-th link.
type iface struct {
	host string
	nic  int
}

// adjacency builds the link graph in declaration order.
func (s *Spec) adjacency() map[string][]edge {
	adj := make(map[string][]edge)
	for i, l := range s.Links {
		adj[l.A] = append(adj[l.A], edge{peer: l.B, link: i})
		adj[l.B] = append(adj[l.B], edge{peer: l.A, link: i})
	}
	return adj
}

// bfs returns hop distances from the destination host dst, which is reached
// only over its link via (the interface's link). Hosts do not forward, so
// expansion proceeds only through dst itself and switches: another host
// reached by the search is a leaf.
func (s *Spec) bfs(adj map[string][]edge, isSwitch map[string]bool, dst string, via int) map[string]int {
	dist := map[string]int{dst: 0}
	queue := []string{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != dst && !isSwitch[u] {
			continue
		}
		for _, e := range adj[u] {
			if _, seen := dist[e.peer]; seen || u == dst && e.link != via {
				continue
			}
			dist[e.peer] = dist[u] + 1
			queue = append(queue, e.peer)
		}
	}
	return dist
}

// routeTables computes, for every switch, the outgoing link toward each
// reachable host interface (ifaces lists each host's links, as Spec.ifaces
// does): table[switch][iface] = link index. Unreachable pairs are simply
// absent — whether that is an error depends on whether a flow needs the
// path, which Compile checks per flow.
func (s *Spec) routeTables(ifaces map[string][]int) map[string]map[iface]int {
	adj := s.adjacency()
	isSwitch := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		isSwitch[sw.Name] = true
	}
	tables := make(map[string]map[iface]int, len(s.Switches))
	for _, sw := range s.Switches {
		tables[sw.Name] = make(map[iface]int)
	}
	for _, h := range s.Hosts {
		for k, via := range ifaces[h.Name] {
			dist := s.bfs(adj, isSwitch, h.Name, via)
			for _, sw := range s.Switches {
				d, ok := dist[sw.Name]
				if !ok {
					continue
				}
				for _, e := range adj[sw.Name] {
					// Only a switch or the interface's own link to dst can be
					// one step closer: a non-dst host never gets a finite
					// distance through another host, and dst's other links
					// lead to other interfaces.
					if dist[e.peer] == d-1 && (isSwitch[e.peer] || e.link == via) {
						tables[sw.Name][iface{h.Name, k}] = e.link
						break
					}
				}
			}
		}
	}
	return tables
}

// linkBetween returns the first declared link joining a and b.
func (s *Spec) linkBetween(a, b string) (int, error) {
	for i, l := range s.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("topo %s: no link between %q and %q", s.Name, a, b)
}
