package topo

import (
	"fmt"

	"tengig/internal/ethernet"
	"tengig/internal/host"
)

// BackToBack is the paper's Figure 2(a) testbed: hosts send and recv of
// profile p joined by a 50 ns crossover cable, with one flow from send to
// recv. Every host takes tuning t.
func BackToBack(p host.Profile, t host.Tuning) *Spec {
	return &Spec{
		Name:   "back-to-back",
		Tuning: TuningOf(t),
		Hosts:  pairHosts(p),
		Links:  []LinkSpec{{Name: "crossover", A: "send", B: "recv", PropNS: 50}},
		Flows:  []FlowSpec{{Src: "send", Dst: "recv"}},
	}
}

// ThroughSwitch is the paper's Figure 2(b) testbed: the same pair through
// the FastIron 1500, each host on a 100 ns link with a 4 MB switch queue.
func ThroughSwitch(p host.Profile, t host.Tuning) *Spec {
	return &Spec{
		Name:     "through-switch",
		Tuning:   TuningOf(t),
		Hosts:    pairHosts(p),
		Switches: []SwitchSpec{{Name: "fastiron1500", Preset: PresetFastIron}},
		Links: []LinkSpec{
			{Name: "a-sw", A: "send", B: "fastiron1500", PropNS: 100, QueueKB: 4096},
			{Name: "b-sw", A: "recv", B: "fastiron1500", PropNS: 100, QueueKB: 4096},
		},
		Flows: []FlowSpec{{Src: "send", Dst: "recv"}},
	}
}

// Aggregation is the paper's Figure 2(c) testbed: senders GbE PE2650 hosts
// sender0, sender1, ... (addresses 10, 11, ...), each on a 100 ns link
// s<i>-sw with a 4 MB switch queue, funneled through the FastIron 1500 into
// one 10GbE sink of profile p (address 1). The sink has sinkNICs adapters,
// each on its own PCI-X bus and its own 100 ns link sink-sw<k> with an 8 MB
// queue, and sender i's flow lands on adapter i mod sinkNICs: §3.5.2's
// two-adapter run, which rules out the bus. reverse makes the sink send
// every flow, from its first adapter. Every host takes tuning t, except
// that the senders run standard jumbo frames at most.
func Aggregation(p host.Profile, t host.Tuning, senders int, reverse bool, sinkNICs int) *Spec {
	s := &Spec{
		Name:     "aggregation",
		Tuning:   TuningOf(t),
		Hosts:    []HostSpec{{Name: "sink", Profile: string(p)}},
		Switches: []SwitchSpec{{Name: "fastiron1500", Preset: PresetFastIron}},
	}
	for k := 0; k < sinkNICs; k++ {
		s.Links = append(s.Links, LinkSpec{Name: fmt.Sprintf("sink-sw%d", k),
			A: "sink", B: "fastiron1500", PropNS: 100, QueueKB: 8192})
	}
	var st *TuningSpec
	if t.MTU > ethernet.MTUJumbo {
		t.MTU = ethernet.MTUJumbo
		st = TuningOf(t)
	}
	for i := 0; i < senders; i++ {
		name := fmt.Sprintf("sender%d", i)
		s.Hosts = append(s.Hosts, HostSpec{Name: name, Profile: string(host.PE2650),
			NIC: NIC1G, Addr: 10 + i, Tuning: st})
		s.Links = append(s.Links, LinkSpec{Name: fmt.Sprintf("s%d-sw", i),
			A: name, B: "fastiron1500", PropNS: 100, QueueKB: 4096})
		f := FlowSpec{Src: name, Dst: "sink", DstNIC: i % sinkNICs}
		if reverse {
			f = FlowSpec{Src: "sink", Dst: name}
		}
		s.Flows = append(s.Flows, f)
	}
	return s
}

func pairHosts(p host.Profile) []HostSpec {
	return []HostSpec{{Name: "send", Profile: string(p)}, {Name: "recv", Profile: string(p)}}
}
