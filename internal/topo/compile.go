package topo

import (
	"fmt"

	"tengig/internal/core"
	"tengig/internal/fabric"
	"tengig/internal/host"
	"tengig/internal/ipv4"
	"tengig/internal/netem"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// Network is a compiled, live topology: hosts built, fabric wired, FIBs
// filled, flows connected. All slices preserve spec declaration order, which
// is what makes compiled runs deterministic.
type Network struct {
	Eng  *sim.Engine
	Spec *Spec

	hosts    map[string]*host.Host
	switches map[string]*fabric.Node
	tunings  map[string]core.Tuning

	// Pairs holds the connected measurement flows, one per Spec.Flows entry.
	Pairs []*tools.Pair
	flows []FlowSpec // with defaults resolved

	// impairs are the netem stages created for links with fault scripts,
	// keyed for diagnostics by directional link name.
	impairs     []*netem.Impair
	impairNames []string

	// links records the physical port pair realizing each spec link, in
	// declaration order — the parallel-DES partitioner reads these to turn
	// cut links into shard-boundary ports.
	links []LinkEnds
}

// LinkEnds exposes the two directional phys.Ports realizing one spec link,
// oriented by the spec's A/B naming: AtoB carries traffic from node A toward
// node B.
type LinkEnds struct {
	Name string
	A, B string
	AtoB *phys.Port
	BtoA *phys.Port
	Prop units.Time
}

// Compile builds the spec on eng. seed feeds the per-link netem stages (only
// links with fault scripts get one); it is conventionally the engine's seed.
//
// The compiler makes exactly the construction calls the hand-wired testbeds
// in internal/core make, in the same order — hosts in declaration order,
// then switches, then links, then routes, then one connect per flow — so a
// file transcribing core.ThroughSwitchOn produces a byte-identical
// simulation.
func Compile(eng *sim.Engine, s *Spec, seed int64) (*Network, error) {
	return compileNetwork(eng, s, seed, nil, nil)
}

// CompileObserved is Compile calling afterConnect(i) right after flow i's
// three-way handshake completes. The parallel-DES reference pass uses it to
// record the engine clock after each handshake.
func CompileObserved(eng *sim.Engine, s *Spec, seed int64, afterConnect func(flow int)) (*Network, error) {
	return compileNetwork(eng, s, seed, nil, afterConnect)
}

// CompileSubset builds only the slice of the spec named by sub — the nodes in
// sub.Nodes, the links whose endpoints are both present, and the flows marked
// relevant — while keeping every compile-visible identity (host addresses,
// flow IDs, switch port numbering on fully-present switches, handshake
// timestamps) identical to a full compile. Skipped flows advance the clock by
// their reference handshake duration (sub.ConnectAt) instead of simulating
// it, and leave a nil entry in Pairs; Links carries zero-valued placeholders
// for absent links so global link indices keep working. Any timing deviation
// from the reference compile is detected and returned as an error rather than
// silently diverging. A nil sub compiles the whole spec, exactly as Compile.
func CompileSubset(eng *sim.Engine, s *Spec, seed int64, sub *Subset) (*Network, error) {
	return compileNetwork(eng, s, seed, sub, nil)
}

func compileNetwork(eng *sim.Engine, s *Spec, seed int64, sub *Subset, afterConnect func(int)) (*Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Eng:      eng,
		Spec:     s,
		hosts:    make(map[string]*host.Host, len(s.Hosts)),
		switches: make(map[string]*fabric.Node, len(s.Switches)),
		tunings:  make(map[string]core.Tuning, len(s.Hosts)),
	}

	// Hosts, in declaration order, through the same construction path the
	// hand-wired testbeds use. Subset compiles skip absent hosts but keep the
	// positional address assignment, so present hosts get the same addresses
	// a full compile gives them.
	for i, hs := range s.Hosts {
		if sub != nil && !sub.Nodes[hs.Name] {
			continue
		}
		tuning := s.Tuning
		if hs.Tuning != nil {
			tuning = hs.Tuning
		}
		t, err := tuning.Resolve()
		if err != nil {
			return nil, fmt.Errorf("topo %s: host %s: %w", s.Name, hs.Name, err)
		}
		profile := core.PE2650
		if hs.Profile != "" {
			if profile, err = core.ParseProfile(hs.Profile); err != nil {
				return nil, err
			}
		}
		addr := i + 1
		if hs.Addr != 0 {
			addr = hs.Addr
		}
		var h *host.Host
		if hs.NIC == NIC1G {
			h = core.BuildHostGbE(eng, profile, t, hs.Name, addr)
		} else {
			h = core.BuildHost(eng, profile, t, hs.Name, addr)
		}
		n.hosts[hs.Name] = h
		n.tunings[hs.Name] = t
	}

	// Switches.
	for _, ss := range s.Switches {
		if sub != nil && !sub.Nodes[ss.Name] {
			continue
		}
		var sw *fabric.Node
		if ss.Preset == PresetFastIron {
			sw = fabric.FastIron(eng, ss.Name)
		} else {
			sw = fabric.NewNode(eng, ss.Name,
				units.Time(ss.LatencyNS*float64(units.Nanosecond)),
				units.Bandwidth(ss.BackplaneGbps*float64(units.GbitPerSecond)))
		}
		if ss.HopLimit > 0 {
			sw.SetHopLimit(ss.HopLimit)
		}
		n.switches[ss.Name] = sw
	}

	// Links, in declaration order. portOn[switch][linkIdx] records which
	// output port each link occupies, for route installation below.
	portOn := make(map[string]map[int]int, len(s.Switches))
	for _, ss := range s.Switches {
		portOn[ss.Name] = make(map[int]int)
	}
	for li := range s.Links {
		if l := &s.Links[li]; sub != nil && (!sub.Nodes[l.A] || !sub.Nodes[l.B]) {
			// Placeholder keeps n.links indexable by global link index; the
			// nil ports mark the link as outside this subset.
			n.links = append(n.links, LinkEnds{Name: l.EffectiveName(), A: l.A, B: l.B, Prop: l.prop()})
			continue
		}
		if err := n.wireLink(li, portOn, seed); err != nil {
			return nil, err
		}
	}

	// Routes: shortest-path precompute first, then explicit pins on top. A
	// subset compile installs only entries whose switch, destination host,
	// and egress link are all present; traffic the subset replicates never
	// needs the missing ones.
	tables := s.routeTables()
	for _, ss := range s.Switches {
		sw := n.switches[ss.Name]
		if sw == nil {
			continue
		}
		for _, hs := range s.Hosts {
			li, ok := tables[ss.Name][hs.Name]
			if !ok {
				continue
			}
			h := n.hosts[hs.Name]
			if h == nil {
				continue
			}
			p, ok := portOn[ss.Name][li]
			if !ok {
				continue
			}
			if err := sw.Route(h.Addr(), p); err != nil {
				return nil, fmt.Errorf("topo %s: %w", s.Name, err)
			}
		}
	}
	for i, r := range s.Routes {
		sw := n.switches[r.Switch]
		if sub != nil && (sw == nil || n.hosts[r.Dst] == nil) {
			continue
		}
		port := 0
		if r.Port != nil {
			port = *r.Port
			if sub != nil {
				// Raw port pins refer to full-compile numbering; a switch
				// missing some links locally numbers its ports differently.
				// Re-resolve through the spec link occupying that port.
				li, ok := fullPortMap(s)[r.Switch][port]
				if !ok {
					return nil, fmt.Errorf("topo %s: route %d: switch %s has no port %d",
						s.Name, i, r.Switch, port)
				}
				p, ok := portOn[r.Switch][li]
				if !ok {
					continue // pinned egress link outside this subset
				}
				port = p
			}
		} else {
			li, err := s.linkBetween(r.Switch, r.Via)
			if err != nil {
				return nil, fmt.Errorf("topo %s: route %d: %w", s.Name, i, err)
			}
			p, ok := portOn[r.Switch][li]
			if !ok {
				if sub != nil {
					continue
				}
				return nil, fmt.Errorf("topo %s: route %d: link %s has no port on %s",
					s.Name, i, s.Links[li].EffectiveName(), r.Switch)
			}
			port = p
		}
		if err := sw.Route(n.hosts[r.Dst].Addr(), port); err != nil {
			return nil, fmt.Errorf("topo %s: route %d: %w", s.Name, i, err)
		}
	}

	// Flows: resolve defaults, verify reachability, open and connect each
	// pair in order (flow IDs 1, 2, ... by position, as the hand-wired
	// multi-flow testbed assigns them).
	adj := s.adjacency()
	isSwitch := make(map[string]bool, len(s.Switches))
	for _, ss := range s.Switches {
		isSwitch[ss.Name] = true
	}
	distTo := make(map[string]map[string]int)
	for i, f := range s.Flows {
		if f.Count == 0 {
			f.Count = DefaultFlowCount
		}
		if f.Payload == 0 {
			f.Payload = DefaultFlowPayload
		}
		if sub != nil && !sub.Relevant[i] {
			// A foreign flow whose packets never touch this subset: skip its
			// handshake but advance the clock by the reference duration so
			// every later timestamp matches the full compile. The engine must
			// be quiescent here — the reference pass proved each handshake
			// drains fully — so any pending event means the replica diverged.
			at := sub.ConnectAt[i]
			if eng.Pending() != 0 || at < eng.Now() {
				return nil, fmt.Errorf("topo %s: flow %d: subset compile diverged before skipped flow (now=%v ref=%v pending=%d)",
					s.Name, i, eng.Now(), at, eng.Pending())
			}
			eng.AdvanceTo(at)
			n.Pairs = append(n.Pairs, nil)
			n.flows = append(n.flows, f)
			continue
		}
		if distTo[f.Dst] == nil {
			distTo[f.Dst] = s.bfs(adj, isSwitch, f.Dst)
		}
		if _, ok := distTo[f.Dst][f.Src]; !ok {
			return nil, fmt.Errorf("topo %s: flow %d: no path from %s to %s",
				s.Name, i, f.Src, f.Dst)
		}
		src, dst := n.hosts[f.Src], n.hosts[f.Dst]
		flowID := uint32(i + 1)
		sa := src.OpenSocket(flowID, dst.Addr(), n.tunings[f.Src].TCPConfig(), 0)
		sb := dst.OpenSocket(flowID, src.Addr(), n.tunings[f.Dst].TCPConfig(), 0)
		pair := &tools.Pair{Eng: eng, SrcHost: src, DstHost: dst, Src: sa, Dst: sb}
		if err := pair.Connect(units.Second); err != nil {
			return nil, fmt.Errorf("topo %s: flow %d (%s -> %s): %w",
				s.Name, i, f.Src, f.Dst, err)
		}
		if sub != nil {
			// The handshake ran over replicated state; its duration (and the
			// quiescence the skip above relies on) must match the reference
			// compile exactly, or the replica's clock is off for good.
			if p := eng.Pending(); p != 0 {
				return nil, fmt.Errorf("topo %s: flow %d (%s -> %s): %d events pending after handshake; subset compiles need per-flow quiescence",
					s.Name, i, f.Src, f.Dst, p)
			}
			if got := eng.Now(); got != sub.ConnectAt[i] {
				return nil, fmt.Errorf("topo %s: flow %d (%s -> %s): subset compile handshake finished at %v, reference %v",
					s.Name, i, f.Src, f.Dst, got, sub.ConnectAt[i])
			}
		}
		if afterConnect != nil {
			afterConnect(i)
		}
		n.Pairs = append(n.Pairs, pair)
		n.flows = append(n.flows, f)
	}
	return n, nil
}

// wireLink realizes spec link li: a switch-port attachment for a host link,
// a trunk for an inter-switch link. Fault scripts, when present, splice a
// netem stage into the affected direction; clean links get none.
func (n *Network) wireLink(li int, portOn map[string]map[int]int, seed int64) error {
	s := n.Spec
	l := &s.Links[li]
	name := l.EffectiveName()
	hostA, isHostA := n.hosts[l.A]
	hostB, isHostB := n.hosts[l.B]
	switch {
	case isHostA || isHostB:
		// Host-switch attachment. Normalize to (host h, switch swName).
		h, swName := hostA, l.B
		if isHostB {
			h, swName = hostB, l.A
		}
		var hostNIC string
		for _, hs := range s.Hosts {
			if (isHostA && hs.Name == l.A) || (isHostB && hs.Name == l.B) {
				hostNIC = hs.NIC
			}
		}
		sw := n.switches[swName]
		att := fabric.AttachDevice(n.Eng, sw, h.NIC(0).Adapter, name,
			l.rate(hostNIC), l.prop(), l.queueCap())
		h.NIC(0).Adapter.AttachPort(att.ToSwitch)
		portOn[swName][li] = att.PortIdx
		ends := LinkEnds{Name: name, A: l.A, B: l.B, Prop: l.prop()}
		if isHostA { // A is the host: A→B rides the host's uplink
			ends.AtoB, ends.BtoA = att.ToSwitch, att.ToDevice
		} else {
			ends.AtoB, ends.BtoA = att.ToDevice, att.ToSwitch
		}
		n.links = append(n.links, ends)
		if l.Faults != nil {
			// Seed each direction's rng stream from (seed, link name, spec
			// direction) — never from link index or compile order — so a
			// subset compile that skips other links hands this Impair
			// the exact stream a full compile would (netem.StreamSeed).
			up, down := l.Faults.AtoB, l.Faults.BtoA
			dirUp, dirDown := l.A+">"+l.B, l.B+">"+l.A
			if isHostB { // spec A is the switch: a_to_b is switch-to-host
				up, down = l.Faults.BtoA, l.Faults.AtoB
				dirUp, dirDown = dirDown, dirUp
			}
			if len(up) > 0 {
				im := netem.New(n.Eng, sw.In(), netem.StreamSeed(seed, name, dirUp))
				if err := im.SetScript(up); err != nil {
					return fmt.Errorf("link %s: %w", name, err)
				}
				att.ToSwitch.SetDst(im)
				n.addImpair(name+"/up", im)
			}
			if len(down) > 0 {
				im := netem.New(n.Eng, h.NIC(0).Adapter, netem.StreamSeed(seed, name, dirDown))
				if err := im.SetScript(down); err != nil {
					return fmt.Errorf("link %s: %w", name, err)
				}
				att.ToDevice.SetDst(im)
				n.addImpair(name+"/down", im)
			}
		}
	default:
		// Switch-switch trunk.
		swA, swB := n.switches[l.A], n.switches[l.B]
		tr := fabric.AttachTrunk(n.Eng, swA, swB, name, l.rate(""), l.prop(), l.queueCap())
		portOn[l.A][li] = tr.PortA
		portOn[l.B][li] = tr.PortB
		n.links = append(n.links, LinkEnds{
			Name: name, A: l.A, B: l.B, AtoB: tr.AtoB, BtoA: tr.BtoA, Prop: l.prop(),
		})
		if l.Faults != nil {
			if len(l.Faults.AtoB) > 0 {
				im := netem.New(n.Eng, swB.In(), netem.StreamSeed(seed, name, l.A+">"+l.B))
				if err := im.SetScript(l.Faults.AtoB); err != nil {
					return fmt.Errorf("link %s: %w", name, err)
				}
				tr.AtoB.SetDst(im)
				n.addImpair(name+"/"+l.A+">"+l.B, im)
			}
			if len(l.Faults.BtoA) > 0 {
				im := netem.New(n.Eng, swA.In(), netem.StreamSeed(seed, name, l.B+">"+l.A))
				if err := im.SetScript(l.Faults.BtoA); err != nil {
					return fmt.Errorf("link %s: %w", name, err)
				}
				tr.BtoA.SetDst(im)
				n.addImpair(name+"/"+l.B+">"+l.A, im)
			}
		}
	}
	return nil
}

func (n *Network) addImpair(name string, im *netem.Impair) {
	n.impairs = append(n.impairs, im)
	n.impairNames = append(n.impairNames, name)
}

// Links returns the physical ends of every spec link, in declaration order.
// In a subset compile, links outside the subset hold zero-valued ports; the
// slice stays indexable by global link index either way.
func (n *Network) Links() []LinkEnds { return n.links }

// Host returns the named host (nil if absent).
func (n *Network) Host(name string) *host.Host { return n.hosts[name] }

// Switch returns the named switch (nil if absent).
func (n *Network) Switch(name string) *fabric.Node { return n.switches[name] }

// Tuning returns the named host's resolved tuning.
func (n *Network) Tuning(name string) core.Tuning { return n.tunings[name] }

// Impairs returns the netem stages created for fault-scripted links, with
// their directional names, in link declaration order.
func (n *Network) Impairs() ([]*netem.Impair, []string) {
	return n.impairs, n.impairNames
}

// FabricCounters snapshots every switch's forwarding counters in declaration
// order, ready for telemetry capture.
func (n *Network) FabricCounters() []telemetry.FabricCounters {
	out := make([]telemetry.FabricCounters, 0, len(n.Spec.Switches))
	for _, ss := range n.Spec.Switches {
		sw := n.switches[ss.Name]
		if sw == nil { // outside a subset compile: zero-valued placeholder
			out = append(out, telemetry.FabricCounters{Node: ss.Name})
			continue
		}
		fc := telemetry.FabricCounters{
			Node:      ss.Name,
			Forwarded: sw.Stats.Forwarded,
			Dropped:   sw.Stats.Dropped,
			NoRoute:   sw.Stats.NoRoute,
			TTLDrops:  sw.Stats.TTLDrops,
		}
		for _, ps := range sw.PortStats() {
			fc.Ports = append(fc.Ports, telemetry.FabricPortCounters{
				Link:      ps.Link,
				Forwarded: ps.Forwarded,
				Bytes:     ps.Bytes,
				Drops:     ps.Drops,
				MaxQueued: ps.MaxQueued,
			})
		}
		out = append(out, fc)
	}
	return out
}

// CaptureFabric appends every switch's counters to the bundle (call after
// the run).
func (n *Network) CaptureFabric(b *telemetry.Bundle) {
	for _, fc := range n.FabricCounters() {
		b.CaptureFabric(fc)
	}
}

// AttachTelemetry instruments every flow's endpoints and starts their
// samplers, like core.AttachTelemetry does for a single pair.
func (n *Network) AttachTelemetry(name string, seed int64, opt telemetry.Options) *telemetry.Bundle {
	b := telemetry.NewBundle(name, seed, opt)
	for _, p := range n.Pairs {
		if p == nil { // flow outside a subset compile
			continue
		}
		for _, sock := range []*host.Socket{p.Src, p.Dst} {
			rec := b.Conn(sock.Conn.Name())
			sock.Conn.SetTelemetry(rec)
			sock.Conn.StartTelemetrySampler(opt.Interval())
		}
	}
	return b
}

// Addr returns the named host's address.
func (n *Network) Addr(name string) ipv4.Addr { return n.hosts[name].Addr() }
