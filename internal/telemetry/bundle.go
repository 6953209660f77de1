package telemetry

import (
	"fmt"
	"time"

	"tengig/internal/units"
)

// EngineCounters surface the run's discrete-event engine health: how much
// work the simulation did and how deep its event queue got.
type EngineCounters struct {
	// Events is the number of events the engine executed.
	Events uint64 `json:"events"`
	// HighWater is the deepest the event queue got.
	HighWater int `json:"high_water"`
}

// FabricPortCounters is one switch output port's forwarding totals, keyed by
// the direction-qualified link name.
type FabricPortCounters struct {
	Link      string `json:"link"`
	Forwarded int64  `json:"forwarded"`
	Bytes     int64  `json:"bytes"`
	Drops     int64  `json:"drops"`
	MaxQueued int64  `json:"max_queued"`
}

// FabricCounters is one forwarding node's end-of-run totals: the node-level
// loss taxonomy plus per-port queue counters. Recorded only for runs that
// traverse switches, so point-to-point bundles are unchanged byte-for-byte.
type FabricCounters struct {
	Node      string               `json:"node"`
	Forwarded int64                `json:"forwarded"`
	Dropped   int64                `json:"dropped"`
	NoRoute   int64                `json:"no_route"`
	TTLDrops  int64                `json:"ttl_drops"`
	Ports     []FabricPortCounters `json:"ports"`
}

// Bundle is one run's telemetry: every instrumented connection plus the
// engine counters, under a stable name (the export file stem). Connections
// appear in registration order, which is construction order and therefore
// deterministic for a given experiment.
type Bundle struct {
	Name  string
	Seed  int64
	Conns []*ConnRecorder

	// Engine is filled after the run (CaptureEngine or by the harness).
	Engine EngineCounters

	// Fabric holds per-switch forwarding counters, in capture order (the
	// topology's switch declaration order). Empty for switchless runs.
	Fabric []FabricCounters

	// Metrics is the run's fleet-level result set (FCT percentiles,
	// fairness, per-class goodput, fabric summary), exported as a "metrics"
	// line after the engine footer. Nil — and absent from every export —
	// for runs without a metrics sink, so pre-metrics bundles are unchanged
	// byte-for-byte.
	Metrics *FleetMetrics

	// Wall is the host wall-clock time the run took. It is deliberately
	// excluded from the JSONL/CSV exports, which must be byte-deterministic
	// across runs; it appears only in the human summary.
	Wall time.Duration

	// UnknownLines counts JSONL records ParseJSONL skipped because their
	// type postdates this reader — forward compatibility, not an error.
	UnknownLines int

	opt Options
}

// NewBundle creates an empty bundle for one run.
func NewBundle(name string, seed int64, opt Options) *Bundle {
	return &Bundle{Name: name, Seed: seed, opt: opt}
}

// Conn registers (or returns) the recorder for the named connection.
func (b *Bundle) Conn(name string) *ConnRecorder {
	for _, r := range b.Conns {
		if r.name == name {
			return r
		}
	}
	r := newConnRecorder(name, b.opt)
	b.Conns = append(b.Conns, r)
	return r
}

// Lookup returns the recorder for name, or nil.
func (b *Bundle) Lookup(name string) *ConnRecorder {
	for _, r := range b.Conns {
		if r.name == name {
			return r
		}
	}
	return nil
}

// CaptureEngine records the engine counters (call once, after the run).
func (b *Bundle) CaptureEngine(events uint64, highWater int) {
	b.Engine = EngineCounters{Events: events, HighWater: highWater}
}

// CaptureFabric appends one forwarding node's counters. Call once per switch,
// after the run, in a deterministic (declaration) order.
func (b *Bundle) CaptureFabric(fc FabricCounters) {
	b.Fabric = append(b.Fabric, fc)
}

// CaptureMetrics attaches the fleet-level result set rendered from a metrics
// accumulator (call once, after the run). A nil or empty accumulator leaves
// the bundle without a metrics line.
func (b *Bundle) CaptureMetrics(m *MetricsAccumulator) {
	b.Metrics = m.Fleet()
}

// SyntheticBundle builds the fixed bundle the export benchmark and its
// allocation gate encode: 16 connections, each with 256×scale samples and
// a 1024×scale-event ring, the first connection's ring wrapped. Its values
// are deterministic and of a long-haul run's magnitudes (picosecond times,
// byte sequence numbers).
func SyntheticBundle(scale int) *Bundle {
	const conns, samples, events = 16, 256, 1024
	n, m := samples*scale, events*scale
	b := NewBundle("synthetic", 1, Options{Enabled: true, MaxSamples: n, MaxEvents: m})
	for c := 0; c < conns; c++ {
		r := b.Conn(fmt.Sprintf("host%02d/flow%d", c, c%4))
		for i := 0; i < n; i++ {
			at := units.Time(i) * 10 * units.Millisecond
			r.RecordSample(Sample{At: at, State: "established", Cwnd: 2 + i%4096, Ssthresh: 1 << 20,
				SRTT: 180 * units.Millisecond, RTTVar: units.Time(i%97) * units.Microsecond, RTO: units.Second,
				SndUna: int64(i) * 8948 * 64, SndNxt: int64(i+1) * 8948 * 64, InFlight: 8948 * 64,
				PeerWnd: 1 << 26, AdvWnd: 1 << 26, Retransmits: int64(i / 512), DupAcksIn: int64(i / 128)})
		}
		nev := m
		if c == 0 {
			nev += m / 4 // wraps the ring
		}
		for i := 0; i < nev; i++ {
			r.RecordEvent(units.Time(i)*units.Millisecond, EventKind(1+i%int(numEventKinds-1)),
				int64(i)*8948, 2+i%4096, 1<<20, int64(i%8948))
		}
	}
	b.CaptureEngine(uint64(conns*(n+m)*40), 4096)
	return b
}
