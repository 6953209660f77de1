package core

import (
	"fmt"

	"tengig/internal/fabric"
	"tengig/internal/host"
	"tengig/internal/ipv4"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// hostLinkProp is the host-to-switch fiber delay.
const hostLinkProp = 100 * units.Nanosecond

// MultiFlow is the Figure 2(c) topology: n sender hosts aggregated through
// the FastIron into one sink host, one flow per sender.
type MultiFlow struct {
	Eng     *sim.Engine
	Senders []*host.Host
	Sink    *host.Host
	Pairs   []*tools.Pair
	Switch  *fabric.Node
}

// SenderKind selects the sender host link speed in a MultiFlow build.
type SenderKind int

// Sender kinds.
const (
	// GbESenders attach each sender with a Gigabit Ethernet adapter (the
	// paper aggregates many GbE hosts into one 10GbE host).
	GbESenders SenderKind = iota
	// TenGbESenders attach senders with 10GbE adapters.
	TenGbESenders
)

// NewMultiFlow builds the aggregation testbed. reverse=false aggregates
// senders→sink (receive-path stress at the sink); reverse=true makes the
// sink transmit to all senders (transmit-path stress).
func NewMultiFlow(seed int64, sinkProfile host.Profile, t host.Tuning, n int, kind SenderKind, reverse bool) (*MultiFlow, error) {
	return NewMultiFlowNICsOn(sim.NewEngine(seed), sinkProfile, t, n, kind, reverse, 1)
}

// NewMultiFlowNICsOn is NewMultiFlow on a caller-supplied engine with
// sinkNICs adapters in the sink, each on its own PCI-X bus, with flows
// spread round-robin across them — the §3.5.2 two-adapter experiment that
// rules the bus out as the bottleneck.
func NewMultiFlowNICsOn(eng *sim.Engine, sinkProfile host.Profile, t host.Tuning, n int, kind SenderKind, reverse bool, sinkNICs int) (*MultiFlow, error) {
	if sinkNICs < 1 {
		return nil, fmt.Errorf("core: sinkNICs %d", sinkNICs)
	}
	m := &MultiFlow{Eng: eng}
	m.Switch = fabric.FastIron(eng, "fastiron1500")
	m.Sink = host.Build(eng, sinkProfile, t, host.TenGbE, "sink", 1)
	for extra := 1; extra < sinkNICs; extra++ {
		m.Sink.AddNIC(t.NIC(host.TenGbE))
	}
	// Each sink adapter gets its own interface address so the switch can
	// steer flows to a specific adapter (as multi-homed hosts do).
	sinkAddrs := make([]ipv4.Addr, sinkNICs)
	for idx := 0; idx < sinkNICs; idx++ {
		att := fabric.AttachDevice(eng, m.Switch, m.Sink.NIC(idx).Adapter,
			fmt.Sprintf("sink-sw%d", idx), 10*units.GbitPerSecond, hostLinkProp, 8*units.MB)
		m.Sink.NIC(idx).Adapter.AttachPort(att.ToSwitch)
		addr := m.Sink.Addr()
		if idx > 0 {
			addr = ipv4.HostN(1000 + idx)
		}
		sinkAddrs[idx] = addr
		if err := m.Switch.Route(addr, att.PortIdx); err != nil {
			return nil, err
		}
	}

	for i := 0; i < n; i++ {
		st := t
		if kind == GbESenders {
			// GbE senders run standard jumbo frames at most.
			if st.MTU > 9000 {
				st.MTU = 9000
			}
		}
		// Senders are PE2650-class clients in the paper's aggregation tests.
		sender := host.Build(eng, host.PE2650, st, kind.nic(), fmt.Sprintf("sender%d", i), 10+i)
		satt := fabric.AttachDevice(eng, m.Switch, sender.NIC(0).Adapter,
			fmt.Sprintf("s%d-sw", i), sender.NIC(0).Adapter.Config().LineRate, hostLinkProp, 4*units.MB)
		sender.NIC(0).Adapter.AttachPort(satt.ToSwitch)
		if err := m.Switch.Route(sender.Addr(), satt.PortIdx); err != nil {
			return nil, err
		}
		m.Senders = append(m.Senders, sender)

		cfg := st.TCPConfig()
		flow := uint32(i + 1)
		sinkNIC := i % sinkNICs
		var pair *tools.Pair
		if reverse {
			src := m.Sink.OpenSocket(flow, sender.Addr(), cfg, sinkNIC)
			dst := sender.OpenSocket(flow, m.Sink.Addr(), cfg, 0)
			pair = &tools.Pair{Eng: eng, SrcHost: m.Sink, DstHost: sender, Src: src, Dst: dst}
		} else {
			src := sender.OpenSocket(flow, sinkAddrs[sinkNIC], cfg, 0)
			dst := m.Sink.OpenSocket(flow, sender.Addr(), cfg, sinkNIC)
			pair = &tools.Pair{Eng: eng, SrcHost: sender, DstHost: m.Sink, Src: src, Dst: dst}
		}
		if err := pair.Connect(units.Second); err != nil {
			return nil, fmt.Errorf("flow %d: %w", flow, err)
		}
		m.Pairs = append(m.Pairs, pair)
	}
	return m, nil
}

// nic returns the adapter class a sender of this kind carries.
func (k SenderKind) nic() host.NICKind {
	if k == GbESenders {
		return host.GbE
	}
	return host.TenGbE
}
