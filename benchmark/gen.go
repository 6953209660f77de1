package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tengig/internal/core"
	"tengig/internal/netem"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// The generators below are pure functions of (seed, tiny): the same
// arguments always give byte-identical inputs, so a claim can be re-checked
// on a seed that was not used while it was made. tiny shrinks the per-flow
// work (never the topology) so the smoke test runs every workload in
// seconds.

// optimizedTuning is the paper's fully tuned LAN host at jumbo MTU: MMRBC
// 4096, UP kernel, 256 KB socket buffers.
func optimizedTuning() *topo.TuningSpec {
	return &topo.TuningSpec{MTU: 9000, MMRBC: 4096, Uniprocessor: true, SockBuf: 256 * 1024}
}

// sweepConfigs is paper-sweep's input: Figs. 3-5's six tunings over the 22
// default payloads at Count 3000, cmd/sweep's default, on one worker. The
// LAN simulation draws no random numbers, so the seed only labels the
// engines.
func sweepConfigs(seed int64, tiny bool) []core.SweepConfig {
	count, payloads := 3000, core.DefaultPayloads()
	if tiny {
		count, payloads = 64, []int{128, 8948, 16384}
	}
	tunings := []core.Tuning{
		core.Stock(1500), core.Stock(9000),
		core.Optimized(1500), core.Optimized(9000), core.Optimized(8160), core.Optimized(16000),
	}
	out := make([]core.SweepConfig, len(tunings))
	for i, t := range tunings {
		out[i] = core.SweepConfig{
			Seed: seed, Profile: core.PE2650, Tuning: t,
			Payloads: payloads, Count: count, Workers: sweepWorkers,
		}
	}
	return out
}

// sweepWorkers is paper-sweep's pool size. A run uses one CPU (see run), so
// one worker simulates at a time.
const sweepWorkers = 1

// incastSpec is a leaf-spine of 4 spines and 8 leaves x 16 hosts. Host 0 of
// every leaf is a sink behind a 2 Gb/s access link with a 128 KB queue;
// hosts 1-8 of each leaf send 6 MB each into the next leaf's sink, so every
// sink sees an 8-way incast that overflows its queue. The seed assigns the
// 1-9 KB write sizes to the flows.
func incastSpec(seed int64, tiny bool) ([]byte, error) {
	const spines, leaves, perLeaf, senders = 4, 8, 16, 8
	rng := rand.New(rand.NewSource(seed))
	s := topo.Spec{Name: "incast-fabric", Tuning: optimizedTuning()}
	host := func(l, i int) string { return fmt.Sprintf("h%d-%02d", l, i) }
	for sp := 0; sp < spines; sp++ {
		s.Switches = append(s.Switches, topo.SwitchSpec{
			Name: fmt.Sprintf("spine%d", sp), LatencyNS: 1200, BackplaneGbps: 640})
	}
	for l := 0; l < leaves; l++ {
		leaf := fmt.Sprintf("leaf%d", l)
		s.Switches = append(s.Switches, topo.SwitchSpec{Name: leaf, LatencyNS: 1200, BackplaneGbps: 640})
		for sp := 0; sp < spines; sp++ {
			s.Links = append(s.Links, topo.LinkSpec{A: leaf, B: fmt.Sprintf("spine%d", sp), PropNS: 500})
		}
		for i := 0; i < perLeaf; i++ {
			s.Hosts = append(s.Hosts, topo.HostSpec{Name: host(l, i), NIC: topo.NIC10G})
			link := topo.LinkSpec{A: host(l, i), B: leaf}
			if i == 0 {
				link.RateGbps, link.QueueKB = 2, 128
			}
			s.Links = append(s.Links, link)
		}
	}
	perFlow := 6 << 20
	if tiny {
		perFlow = 16 << 10
	}
	payloads := shuffled(rng, ladder(leaves*senders, 1024, 9*1024))
	for l := 0; l < leaves; l++ {
		for i := 1; i <= senders; i++ {
			payload := payloads[l*senders+i-1]
			s.Flows = append(s.Flows, topo.FlowSpec{
				Src: host(l, i), Dst: host((l+1)%leaves, 0),
				Count: writes(perFlow, payload), Payload: payload,
			})
		}
	}
	return encodeSpec(&s)
}

// torusSpec is a 4x4 torus of 16 switches with one host each and 32 flows
// of 32 MB. Every link's propagation delay is seeded and distinct in about
// 24-26.5 us, so the parallel-DES lookahead (the minimum delay over all
// links) depends on the seed while staying near 24 us. The seed also picks
// each flow's direction and write size.
func torusSpec(seed int64, tiny bool) ([]byte, error) {
	const side = 4
	rng := rand.New(rand.NewSource(seed))
	s := topo.Spec{Name: "pdes-torus", Tuning: optimizedTuning()}
	sw := func(r, c int) string { return fmt.Sprintf("t%d%d", (r+side)%side, (c+side)%side) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			s.Switches = append(s.Switches, topo.SwitchSpec{Name: sw(r, c), LatencyNS: 1200, BackplaneGbps: 160})
			s.Hosts = append(s.Hosts, topo.HostSpec{Name: "h-" + sw(r, c), NIC: topo.NIC10G})
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			s.Links = append(s.Links,
				topo.LinkSpec{A: "h-" + sw(r, c), B: sw(r, c)},
				topo.LinkSpec{A: sw(r, c), B: sw(r, c+1)},
				topo.LinkSpec{A: sw(r, c), B: sw(r+1, c)})
		}
	}
	// A permutation of 50 ns slots keeps the delays distinct; the jitter
	// inside a slot keeps them off a round grid.
	slots := rng.Perm(len(s.Links))
	for i := range s.Links {
		s.Links[i].PropNS = float64(24000 + 50*slots[i] + rng.Intn(50))
	}
	perFlow := 32 << 20
	if tiny {
		perFlow = 64 << 10
	}
	// Each host sends one flow two hops away and one three hops away, in
	// seeded directions, so every seed moves the same bytes over the same
	// number of hops.
	near := [][2]int{{1, 1}, {1, 3}, {3, 1}, {3, 3}, {2, 0}, {0, 2}}
	far := [][2]int{{1, 2}, {2, 1}, {3, 2}, {2, 3}}
	payloads := shuffled(rng, ladder(2*side*side, 4096, 16384))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			for k, d := range [][2]int{near[rng.Intn(len(near))], far[rng.Intn(len(far))]} {
				payload := payloads[2*(r*side+c)+k]
				s.Flows = append(s.Flows, topo.FlowSpec{
					Src: "h-" + sw(r, c), Dst: "h-" + sw(r+d[0], c+d[1]),
					Count: writes(perFlow, payload), Payload: payload,
				})
			}
		}
	}
	return encodeSpec(&s)
}

// wanFaultWindow is the length of one fault (and one healed) window on the
// wan-faults bottleneck.
const wanFaultWindow = 200 * units.Millisecond

// wanSpec is §4's long-haul regime: 8 GbE sender/receiver pairs, 96 MB
// each, across a 10 Gb/s link with 90 ms one-way delay between two
// routers, 32 MB socket buffers, and a netem script on the bottleneck that
// alternates 200 ms fault windows with 200 ms healed windows. The fault
// windows cycle through a 1-2 ms link outage, reordering, another outage
// and duplication. The seed decides which outage lasts how long, assigns
// the write sizes and, through the compile seed, drives netem's reordering
// and duplication draws.
//
// Loss comes as outages, not as random or Gilbert-Elliott drops: at a
// 180 ms RTT a drop that lands on a large window costs many round trips
// and one that lands on a small window few, so random drops made one
// seed's pass a fifth costlier to simulate than another's and now and then
// set off a storm of hundreds of timeouts. An outage drops everything in
// flight for its length, so every seed recovers from the same losses.
func wanSpec(seed int64, tiny bool) ([]byte, error) {
	const pairs = 8
	rng := rand.New(rand.NewSource(seed))
	s := topo.Spec{
		Name:   "wan-faults",
		Tuning: &topo.TuningSpec{MTU: 9000, MMRBC: 4096, SockBuf: 32 << 20},
		Switches: []topo.SwitchSpec{
			{Name: "sunnyvale", LatencyNS: 5000},
			{Name: "geneva", LatencyNS: 5000},
		},
	}
	for i := 0; i < pairs; i++ {
		a, b := fmt.Sprintf("snd%d", i), fmt.Sprintf("rcv%d", i)
		s.Hosts = append(s.Hosts,
			topo.HostSpec{Name: a, Profile: string(core.WANXeon), NIC: topo.NIC1G},
			topo.HostSpec{Name: b, Profile: string(core.WANXeon), NIC: topo.NIC1G})
		s.Links = append(s.Links,
			topo.LinkSpec{A: a, B: "sunnyvale"},
			topo.LinkSpec{A: b, B: "geneva"})
	}
	perFlow, windows := 96<<20, 32
	if tiny {
		perFlow, windows = 256<<10, 4
	}
	outages := shuffled(rng, ladder(windows/2, 1000, 2000)) // µs
	var script netem.Script
	for w := 0; w < windows; w++ {
		at := units.Time(2*w+1) * wanFaultWindow
		fault, end := netem.Fault{LinkDown: true}, at+units.Time(outages[w/2])*units.Microsecond
		switch w % 4 {
		case 1:
			fault, end = netem.Fault{ReorderProb: 0.02, ReorderDelay: 50 * units.Microsecond}, at+wanFaultWindow
		case 3:
			fault, end = netem.Fault{DupProb: 0.02}, at+wanFaultWindow
		}
		script = append(script, netem.Step{At: at, Fault: fault}, netem.Step{At: end})
	}
	s.Links = append(s.Links, topo.LinkSpec{
		A: "sunnyvale", B: "geneva", RateGbps: 10, PropNS: 90e6, QueueKB: 8192,
		Faults: &topo.LinkFaults{AtoB: script},
	})
	payloads := shuffled(rng, ladder(pairs, 8192, 16384))
	for i := 0; i < pairs; i++ {
		s.Flows = append(s.Flows, topo.FlowSpec{
			Src: fmt.Sprintf("snd%d", i), Dst: fmt.Sprintf("rcv%d", i),
			Count: writes(perFlow, payloads[i]), Payload: payloads[i],
		})
	}
	return encodeSpec(&s)
}

// ladder returns n sizes evenly spaced over [lo, hi].
func ladder(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/(n-1)
	}
	return out
}

// shuffled returns a seeded permutation of xs: the seed decides which flow
// or window gets which value, never the multiset of values, so every seed
// costs about the same to simulate.
func shuffled(rng *rand.Rand, xs []int) []int {
	out := make([]int, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// writes is the number of payload-sized writes that moves about bytes.
func writes(bytes, payload int) int { return (bytes + payload - 1) / payload }

func encodeSpec(s *topo.Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("generated spec: %w", err)
	}
	return json.Marshal(s)
}
