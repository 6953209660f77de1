// Package topo compiles declarative topology descriptions — JSON files
// naming hosts, switches, links, and flows — into live simulations: hosts
// built from the calibrated platform profiles, fabric.Node switches joined
// by trunks, per-destination FIBs filled by shortest-path precompute, and
// connected measurement flows. The compiler is a front end over exactly the
// same construction calls the hand-wired testbeds in internal/core make, so
// a topology file describing the paper's two-host-through-FastIron testbed
// produces a byte-identical simulation (telemetry digests and all).
package topo

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"tengig/internal/core"
	"tengig/internal/netem"
	"tengig/internal/units"
)

// NIC kind names accepted by HostSpec.NIC.
const (
	NIC10G = "10g" // Intel PRO/10GbE, the paper's adapter
	NIC1G  = "1g"  // e1000-class GbE (Beowulf node / aggregation sender)
)

// Switch presets accepted by SwitchSpec.Preset.
const (
	// PresetFastIron is the paper's Foundry FastIron 1500 chassis.
	PresetFastIron = "fastiron1500"
)

// Spec is a parsed topology description.
type Spec struct {
	// Name labels the topology (export stems, diagnostics).
	Name string `json:"name"`
	// Tuning is the default host tuning; per-host overrides nest in
	// HostSpec. Nil means core.Stock at each host's MTU (default 9000).
	Tuning *TuningSpec `json:"tuning,omitempty"`

	Hosts    []HostSpec   `json:"hosts"`
	Switches []SwitchSpec `json:"switches"`
	Links    []LinkSpec   `json:"links"`

	// Routes are explicit FIB entries. Destinations not covered here are
	// filled by shortest-path precompute over the link graph.
	Routes []RouteSpec `json:"routes,omitempty"`

	// Flows are the measurement transfers to connect (in order; flow IDs
	// are assigned 1, 2, ... by position).
	Flows []FlowSpec `json:"flows,omitempty"`

	// Shards suggests a parallel-DES shard count for this topology (see
	// internal/pdes). 0 leaves the choice to the runner; a -shards flag
	// overrides the spec either way.
	Shards int `json:"shards,omitempty"`
}

// TuningSpec is the JSON form of core.Tuning: zero-valued fields inherit the
// core.Stock defaults at the spec's MTU, so a file states only the knobs it
// turns — exactly how the paper reports its optimization ladder. Fields
// whose stock value is truthy (timestamps, window scaling) or zero-meaningful
// (coalescing) are pointers so "absent" and "off" stay distinguishable.
type TuningSpec struct {
	MTU          int      `json:"mtu,omitempty"`
	MMRBC        int      `json:"mmrbc,omitempty"`
	Uniprocessor bool     `json:"uniprocessor,omitempty"`
	SockBuf      int      `json:"sockbuf,omitempty"`
	Timestamps   *bool    `json:"timestamps,omitempty"`
	WindowScale  *bool    `json:"window_scale,omitempty"`
	CoalesceUS   *float64 `json:"coalesce_us,omitempty"`
	NAPI         bool     `json:"napi,omitempty"`
	TSO          bool     `json:"tso,omitempty"`
	TxQueueLen   int      `json:"txqueuelen,omitempty"`
}

// DefaultMTU is assumed when neither the spec nor a host names one: the
// paper's standard jumbo-frame configuration.
const DefaultMTU = 9000

// Resolve merges the spec over core.Stock at its MTU.
func (ts *TuningSpec) Resolve() (core.Tuning, error) {
	mtu := DefaultMTU
	if ts != nil && ts.MTU != 0 {
		mtu = ts.MTU
	}
	if err := core.ValidateMTU(mtu); err != nil {
		return core.Tuning{}, err
	}
	t := core.Stock(mtu)
	if ts == nil {
		return t, nil
	}
	if ts.MMRBC < 0 || ts.SockBuf < 0 || ts.TxQueueLen < 0 {
		return core.Tuning{}, fmt.Errorf("negative mmrbc, sockbuf, or txqueuelen")
	}
	if ts.MMRBC != 0 {
		t.MMRBC = ts.MMRBC
	}
	if ts.Uniprocessor {
		t.Uniprocessor = true
	}
	if ts.SockBuf != 0 {
		t.SockBuf = ts.SockBuf
	}
	if ts.Timestamps != nil {
		t.Timestamps = *ts.Timestamps
	}
	if ts.WindowScale != nil {
		t.WindowScale = *ts.WindowScale
	}
	if ts.CoalesceUS != nil {
		us := *ts.CoalesceUS
		if us < 0 {
			return core.Tuning{}, fmt.Errorf("negative coalesce_us %g", us)
		}
		if err := checkDelay("coalesce_us", us, units.Microsecond); err != nil {
			return core.Tuning{}, err
		}
		t.CoalesceDelay = units.Time(us * float64(units.Microsecond))
	}
	if ts.NAPI {
		t.NAPI = true
	}
	if ts.TSO {
		t.TSO = true
	}
	if ts.TxQueueLen != 0 {
		t.TxQueueLen = ts.TxQueueLen
	}
	return t, nil
}

// HostSpec declares one host.
type HostSpec struct {
	Name string `json:"name"`
	// Profile is a calibration-table platform name (default "pe2650").
	Profile string `json:"profile,omitempty"`
	// NIC is the adapter kind: "10g" (default) or "1g".
	NIC string `json:"nic,omitempty"`
	// Addr is the host number for ipv4.HostN (default: position+1).
	Addr int `json:"addr,omitempty"`
	// Tuning overrides the spec-level tuning for this host.
	Tuning *TuningSpec `json:"tuning,omitempty"`
	// Shard pins this host to a parallel-DES shard, overriding the
	// partitioner (nil = automatic placement).
	Shard *int `json:"shard,omitempty"`
}

// SwitchSpec declares one forwarding node.
type SwitchSpec struct {
	Name string `json:"name"`
	// Preset names a known chassis ("fastiron1500"); when empty, LatencyNS
	// and BackplaneGbps parameterize the node directly.
	Preset        string  `json:"preset,omitempty"`
	LatencyNS     float64 `json:"latency_ns,omitempty"`
	BackplaneGbps float64 `json:"backplane_gbps,omitempty"`
	// HopLimit overrides fabric.DefaultHopLimit (0 keeps the default).
	HopLimit int `json:"hop_limit,omitempty"`
	// Shard pins this switch to a parallel-DES shard, overriding the
	// partitioner (nil = automatic placement).
	Shard *int `json:"shard,omitempty"`
}

// LinkFaults attaches time-scheduled netem fault scripts to a link, one per
// direction. Links without faults get no impairment stage at all, so clean
// topologies stay byte-identical to hand-wired construction.
type LinkFaults struct {
	// AtoB impairs traffic from endpoint A toward endpoint B; BtoA the
	// reverse.
	AtoB netem.Script `json:"a_to_b,omitempty"`
	BtoA netem.Script `json:"b_to_a,omitempty"`
}

// LinkSpec declares a full-duplex link between two named nodes. Host-switch
// links become switch-port attachments; switch-switch links become trunks.
type LinkSpec struct {
	// Name is the link name (default "<a>-<b>"); directions are suffixed by
	// the fabric layer.
	Name string `json:"name,omitempty"`
	A    string `json:"a"`
	B    string `json:"b"`
	// RateGbps is the line rate (default 10; a host link defaults to its
	// NIC speed).
	RateGbps float64 `json:"rate_gbps,omitempty"`
	// PropNS is the one-way propagation delay (default 100, the testbed
	// fiber).
	PropNS float64 `json:"prop_ns,omitempty"`
	// QueueKB bounds each switch output queue on this link (default 4096,
	// the hand-wired testbed's 4 MB; -1 = unlimited).
	QueueKB int `json:"queue_kb,omitempty"`
	// Faults optionally scripts impairments onto the link.
	Faults *LinkFaults `json:"faults,omitempty"`
}

// RouteSpec pins one FIB entry: on Switch, traffic for host Dst leaves via
// the link to neighbor Via — or, when Port is non-nil, via that raw port
// index (validated by fabric.Node.Route).
type RouteSpec struct {
	Switch string `json:"switch"`
	Dst    string `json:"dst"`
	Via    string `json:"via,omitempty"`
	Port   *int   `json:"port,omitempty"`
}

// FlowSpec declares one measurement transfer.
type FlowSpec struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// Count writes of Payload bytes each (NTTCP semantics; defaults 1500
	// writes of 8948 bytes).
	Count   int `json:"count,omitempty"`
	Payload int `json:"payload,omitempty"`
	// Class tags the flow for per-class fleet metrics (e.g. "bulk", "rpc");
	// empty means telemetry.DefaultClass.
	Class string `json:"class,omitempty"`
}

// Default flow shape: NTTCP writes sized to one jumbo-frame MSS.
const (
	DefaultFlowCount   = 1500
	DefaultFlowPayload = 8948
)

// Load reads and validates a topology file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes and validates a topology description.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's internal consistency: unique names, resolvable
// endpoints, legal parameters. Route reachability is checked at compile
// time, after the FIBs are computed.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("topo: topology has no name")
	}
	if len(s.Hosts) == 0 {
		return fmt.Errorf("topo %s: no hosts", s.Name)
	}
	names := make(map[string]string) // name -> "host" | "switch"
	for i, h := range s.Hosts {
		if h.Name == "" {
			return fmt.Errorf("topo %s: host %d has no name", s.Name, i)
		}
		if _, dup := names[h.Name]; dup {
			return fmt.Errorf("topo %s: duplicate node name %q", s.Name, h.Name)
		}
		names[h.Name] = "host"
		if h.Profile != "" {
			if _, err := core.ParseProfile(h.Profile); err != nil {
				return fmt.Errorf("topo %s: host %s: %w", s.Name, h.Name, err)
			}
		}
		switch h.NIC {
		case "", NIC10G, NIC1G:
		default:
			return fmt.Errorf("topo %s: host %s: unknown NIC kind %q (valid: %s, %s)",
				s.Name, h.Name, h.NIC, NIC10G, NIC1G)
		}
		if addr := h.Addr; addr < 0 || addr > maxHostAddr || (addr == 0 && i+1 > maxHostAddr) {
			return fmt.Errorf("topo %s: host %s: addr %d outside 1..%d", s.Name, h.Name, h.Addr, maxHostAddr)
		}
		if _, err := h.Tuning.Resolve(); err != nil {
			return fmt.Errorf("topo %s: host %s: %w", s.Name, h.Name, err)
		}
		if h.Shard != nil && *h.Shard < 0 {
			return fmt.Errorf("topo %s: host %s: negative shard pin %d", s.Name, h.Name, *h.Shard)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("topo %s: negative shards %d", s.Name, s.Shards)
	}
	if _, err := s.Tuning.Resolve(); err != nil {
		return fmt.Errorf("topo %s: %w", s.Name, err)
	}
	for i, sw := range s.Switches {
		if sw.Name == "" {
			return fmt.Errorf("topo %s: switch %d has no name", s.Name, i)
		}
		if _, dup := names[sw.Name]; dup {
			return fmt.Errorf("topo %s: duplicate node name %q", s.Name, sw.Name)
		}
		names[sw.Name] = "switch"
		switch sw.Preset {
		case PresetFastIron:
		case "":
			if sw.LatencyNS < 0 || sw.BackplaneGbps < 0 {
				return fmt.Errorf("topo %s: switch %s: negative latency or backplane", s.Name, sw.Name)
			}
			if err := checkDelay("latency_ns", sw.LatencyNS, units.Nanosecond); err != nil {
				return fmt.Errorf("topo %s: switch %s: %w", s.Name, sw.Name, err)
			}
			if err := checkRate("backplane_gbps", sw.BackplaneGbps); err != nil {
				return fmt.Errorf("topo %s: switch %s: %w", s.Name, sw.Name, err)
			}
		default:
			return fmt.Errorf("topo %s: switch %s: unknown preset %q (valid: %s)",
				s.Name, sw.Name, sw.Preset, PresetFastIron)
		}
		if sw.HopLimit < 0 {
			return fmt.Errorf("topo %s: switch %s: negative hop limit", s.Name, sw.Name)
		}
		if sw.Shard != nil && *sw.Shard < 0 {
			return fmt.Errorf("topo %s: switch %s: negative shard pin %d", s.Name, sw.Name, *sw.Shard)
		}
	}
	hostLinks := make(map[string]int)
	linkNames := make(map[string]bool)
	for i, l := range s.Links {
		name := l.EffectiveName()
		if linkNames[name] {
			return fmt.Errorf("topo %s: duplicate link name %q", s.Name, name)
		}
		linkNames[name] = true
		for _, end := range []string{l.A, l.B} {
			if names[end] == "" {
				return fmt.Errorf("topo %s: link %s: unknown endpoint %q", s.Name, name, end)
			}
		}
		if l.A == l.B {
			return fmt.Errorf("topo %s: link %s: both ends are %q", s.Name, name, l.A)
		}
		if names[l.A] == "host" && names[l.B] == "host" {
			return fmt.Errorf("topo %s: link %s: host-to-host links are not supported; put a switch between %q and %q",
				s.Name, name, l.A, l.B)
		}
		if l.RateGbps < 0 || l.PropNS < 0 {
			return fmt.Errorf("topo %s: link %s: negative rate or propagation", s.Name, name)
		}
		if err := checkRate("rate_gbps", l.RateGbps); err != nil {
			return fmt.Errorf("topo %s: link %s: %w", s.Name, name, err)
		}
		if err := checkDelay("prop_ns", l.PropNS, units.Nanosecond); err != nil {
			return fmt.Errorf("topo %s: link %s: %w", s.Name, name, err)
		}
		if l.QueueKB < -1 {
			return fmt.Errorf("topo %s: link %s: queue_kb %d (use -1 for unlimited)", s.Name, name, l.QueueKB)
		}
		if int64(l.QueueKB) > math.MaxInt64/int64(units.KB) {
			return fmt.Errorf("topo %s: link %s: queue_kb %d overflows int64 bytes", s.Name, name, l.QueueKB)
		}
		for _, end := range []string{l.A, l.B} {
			if names[end] == "host" {
				hostLinks[end]++
			}
		}
		if l.Faults != nil {
			if err := l.Faults.AtoB.Validate(); err != nil {
				return fmt.Errorf("topo %s: link %s a_to_b: %w", s.Name, name, err)
			}
			if err := l.Faults.BtoA.Validate(); err != nil {
				return fmt.Errorf("topo %s: link %s b_to_a: %w", s.Name, name, err)
			}
		}
		_ = i
	}
	for _, h := range s.Hosts {
		switch hostLinks[h.Name] {
		case 1:
		case 0:
			return fmt.Errorf("topo %s: host %s has no link", s.Name, h.Name)
		default:
			return fmt.Errorf("topo %s: host %s has %d links (exactly one supported)",
				s.Name, h.Name, hostLinks[h.Name])
		}
	}
	for i, r := range s.Routes {
		if names[r.Switch] != "switch" {
			return fmt.Errorf("topo %s: route %d: %q is not a switch", s.Name, i, r.Switch)
		}
		if names[r.Dst] != "host" {
			return fmt.Errorf("topo %s: route %d: destination %q is not a host", s.Name, i, r.Dst)
		}
		if (r.Via == "") == (r.Port == nil) {
			return fmt.Errorf("topo %s: route %d: exactly one of via or port required", s.Name, i)
		}
		if r.Via != "" && names[r.Via] == "" {
			return fmt.Errorf("topo %s: route %d: unknown via %q", s.Name, i, r.Via)
		}
	}
	for i, f := range s.Flows {
		if names[f.Src] != "host" || names[f.Dst] != "host" {
			return fmt.Errorf("topo %s: flow %d: endpoints must be hosts (%q -> %q)",
				s.Name, i, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("topo %s: flow %d: src and dst are both %q", s.Name, i, f.Src)
		}
		count, payload := f.Count, f.Payload
		if count == 0 {
			count = DefaultFlowCount
		}
		if payload == 0 {
			payload = DefaultFlowPayload
		}
		if err := core.ValidateTransfer(count, payload); err != nil {
			return fmt.Errorf("topo %s: flow %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// maxHostAddr is the largest host number ipv4.HostN can address.
const maxHostAddr = 0xFFFF

// maxDelay bounds every delay a spec declares to a quarter of the int64
// picosecond clock (about 26 days), so a clock reading plus a few stacked
// delays can never overflow it.
const maxDelay = units.Time(math.MaxInt64 / 4)

// checkDelay reports an error naming field when the non-negative delay v,
// in unit, exceeds maxDelay (which also catches int64 overflow).
func checkDelay(field string, v float64, unit units.Time) error {
	if v*float64(unit) > float64(maxDelay) {
		return fmt.Errorf("%s %g exceeds the %v delay limit of the int64 picosecond clock", field, v, maxDelay)
	}
	return nil
}

// checkRate reports an error naming field when the non-negative rate v, in
// Gb/s, overflows int64 b/s or rounds a positive value to 0 b/s, which no
// link can serialize at and a backplane reads as unset.
func checkRate(field string, v float64) error {
	switch bps := v * float64(units.GbitPerSecond); {
	case bps >= math.MaxInt64:
		return fmt.Errorf("%s %g overflows int64 b/s", field, v)
	case v > 0 && int64(bps) == 0:
		return fmt.Errorf("%s %g rounds to 0 b/s", field, v)
	}
	return nil
}

// EffectiveName returns the link's name, defaulting to "<a>-<b>".
func (l *LinkSpec) EffectiveName() string {
	if l.Name != "" {
		return l.Name
	}
	return l.A + "-" + l.B
}

// rate returns the link's line rate, defaulting by the attached host's NIC
// kind (10 Gb/s for trunks and 10g hosts, 1 Gb/s for 1g hosts).
func (l *LinkSpec) rate(hostNIC string) units.Bandwidth {
	if l.RateGbps != 0 {
		return units.Bandwidth(l.RateGbps * float64(units.GbitPerSecond))
	}
	if hostNIC == NIC1G {
		return units.GbitPerSecond
	}
	return 10 * units.GbitPerSecond
}

// prop returns the link's one-way propagation delay (default 100 ns, the
// testbed fiber).
func (l *LinkSpec) prop() units.Time {
	if l.PropNS == 0 {
		return 100 * units.Nanosecond
	}
	return units.Time(l.PropNS * float64(units.Nanosecond))
}

// faultsBy reports whether either direction's fault script has a step due
// at or before t.
func (l *LinkSpec) faultsBy(t units.Time) bool {
	if l.Faults == nil {
		return false
	}
	for _, script := range []netem.Script{l.Faults.AtoB, l.Faults.BtoA} {
		for _, st := range script {
			if st.At <= t {
				return true
			}
		}
	}
	return false
}

// queueCap returns the link's switch-side output queue bound (default 4 MB).
func (l *LinkSpec) queueCap() units.ByteSize {
	switch {
	case l.QueueKB == -1:
		return 0 // unlimited
	case l.QueueKB == 0:
		return 4 * units.MB
	default:
		return units.ByteSize(l.QueueKB) * units.KB
	}
}
