package topo

import "tengig/internal/host"

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

func pairHosts(p host.Profile) []HostSpec {
	return []HostSpec{{Name: "send", Profile: string(p)}, {Name: "recv", Profile: string(p)}}
}
