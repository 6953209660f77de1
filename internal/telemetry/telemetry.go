// Package telemetry is the simulator's analog of Web100/tcp_probe: the
// per-connection kernel instruments the paper's era of TCP tuning work
// depended on. Where internal/trace profiles the path individual packets
// take through the stack (MAGNET) and internal/capture records segments on
// the wire (tcpdump), telemetry watches the *state variables themselves*
// evolve over time — cwnd, ssthresh, srtt, rto, inflight, advertised
// window — exactly what §3.5.1 reads off the kernel to explain the
// MSS-aligned window plateau.
//
// The package has three layers:
//
//   - ConnRecorder: per-connection instruments. A periodic sampler (armed
//     by tcp.Conn.StartTelemetrySampler) snapshots the connection's state
//     variables on a sim-time cadence into a stats-backed time series, and
//     discrete stack events (RTO fire, fast retransmit, persist probe,
//     cwnd reduction, delayed-ack fire, SWS clamp) land in a bounded ring
//     with picosecond timestamps.
//   - Bundle: one run's recorders plus engine counters (events executed,
//     queue-depth high-water mark) and host wall time.
//   - Exporters (export.go): deterministic JSONL and CSV plus a human
//     summary. Byte-identical output for identical seeds, serial or
//     parallel.
//
// A nil *ConnRecorder is valid and records nothing (the same discipline as
// trace.Tracer), so the TCP hot path pays only a nil check — and zero
// allocations — when telemetry is disabled.
package telemetry

import (
	"tengig/internal/stats"
	"tengig/internal/units"
)

// EventKind classifies a discrete stack event.
type EventKind uint8

// The instrumented event kinds. Aux carries a kind-specific value,
// documented per kind.
const (
	EventNone EventKind = iota
	// EventRTO: the retransmission timer fired. Aux = the backed-off RTO
	// now in effect, in picoseconds.
	EventRTO
	// EventFastRetransmit: the third duplicate ack triggered a fast
	// retransmit. Aux = duplicate ack count.
	EventFastRetransmit
	// EventPersistProbe: a zero-window probe was sent. Aux = the next probe
	// interval, in picoseconds.
	EventPersistProbe
	// EventCwndReduction: the congestion window shrank (recovery entry,
	// partial-ack deflation, full-recovery deflation, or timeout).
	// Aux = the previous cwnd, in segments.
	EventCwndReduction
	// EventRecoveryExit: NewReno fast recovery completed. Aux = 0.
	EventRecoveryExit
	// EventDelayedAck: the delayed-ack timer fired an acknowledgment.
	// Aux = segments covered by the ack.
	EventDelayedAck
	// EventSWSClamp: sender-MSS alignment of the advertised window withheld
	// buffer space (the §3.5.1 behavior). Aux = bytes withheld.
	EventSWSClamp

	numEventKinds
)

var kindNames = [numEventKinds]string{
	EventNone:           "none",
	EventRTO:            "rto_fire",
	EventFastRetransmit: "fast_retransmit",
	EventPersistProbe:   "persist_probe",
	EventCwndReduction:  "cwnd_reduction",
	EventRecoveryExit:   "recovery_exit",
	EventDelayedAck:     "delayed_ack",
	EventSWSClamp:       "sws_clamp",
}

// String names the event kind as it appears in exports.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String (exports → EventKind); EventNone if unknown.
func KindFromString(s string) EventKind {
	for k, n := range kindNames {
		if n == s {
			return EventKind(k)
		}
	}
	return EventNone
}

// Sample is one snapshot of a connection's instrument set — the Web100
// readout row.
type Sample struct {
	At           units.Time `json:"at_ps"`
	State        string     `json:"state"`
	Cwnd         int        `json:"cwnd"`     // segments
	Ssthresh     int        `json:"ssthresh"` // segments
	SRTT         units.Time `json:"srtt_ps"`
	RTTVar       units.Time `json:"rttvar_ps"`
	RTO          units.Time `json:"rto_ps"`
	SndUna       int64      `json:"snd_una"`
	SndNxt       int64      `json:"snd_nxt"`
	InFlight     int64      `json:"inflight"`
	PeerWnd      int64      `json:"peer_wnd"` // usable peer window beyond sndNxt
	AdvWnd       int64      `json:"adv_wnd"`  // last advertised usable window
	PersistShift int        `json:"persist_shift"`
	Retransmits  int64      `json:"retrans"`
	FastRetrans  int64      `json:"fast_retrans"`
	Timeouts     int64      `json:"timeouts"`
	DupAcksIn    int64      `json:"dup_acks"`
}

// Event is one discrete stack event, stamped with the picosecond sim time
// and the congestion state after the event.
type Event struct {
	At       units.Time `json:"at_ps"`
	Kind     EventKind  `json:"-"`
	Seq      int64      `json:"seq"`
	Cwnd     int        `json:"cwnd"`
	Ssthresh int        `json:"ssthresh"`
	Aux      int64      `json:"aux"`
}

// Options configure what a recorder keeps. The zero value is usable:
// Enabled=false means "do not attach".
type Options struct {
	// Enabled turns telemetry on (harness helpers check this before
	// attaching recorders; a detached connection pays nothing).
	Enabled bool
	// SampleInterval is the instrument-sampler cadence in simulated time
	// (default 50 us — a few samples per LAN round trip).
	SampleInterval units.Time
	// MaxSamples bounds the per-connection time series; once full, further
	// samples are counted but not stored (default 65536).
	MaxSamples int
	// MaxEvents bounds the per-connection event ring; once full, the oldest
	// events are overwritten (default 16384).
	MaxEvents int
}

// Default bounds.
const (
	DefaultSampleInterval = 50 * units.Microsecond
	DefaultMaxSamples     = 1 << 16
	DefaultMaxEvents      = 1 << 14
)

// Interval returns the sampler cadence with the default applied.
func (o Options) Interval() units.Time {
	if o.SampleInterval <= 0 {
		return DefaultSampleInterval
	}
	return o.SampleInterval
}

func (o Options) maxSamples() int {
	if o.MaxSamples <= 0 {
		return DefaultMaxSamples
	}
	return o.MaxSamples
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return DefaultMaxEvents
	}
	return o.MaxEvents
}

// ConnRecorder collects one connection's instrument samples and events.
// A nil *ConnRecorder is valid and records nothing. Like the simulation it
// observes, a recorder is single-goroutine: it must only be touched from
// the goroutine driving the owning run's engine.
type ConnRecorder struct {
	name string

	samples        series[Sample]
	maxSamples     int
	droppedSamples int64

	// events is a ring once it holds maxEvents: the oldest is at evStart.
	events        series[Event]
	evStart       int
	maxEvents     int
	droppedEvents int64

	kindCounts [numEventKinds]int64

	// Online aggregates over the sampled series (stats-backed).
	cwndAgg     stats.Summary
	inflightAgg stats.Summary
	srttAgg     stats.Summary
}

// newConnRecorder builds a recorder; use Bundle.Conn.
func newConnRecorder(name string, opt Options) *ConnRecorder {
	return &ConnRecorder{
		name:       name,
		maxSamples: opt.maxSamples(),
		maxEvents:  opt.maxEvents(),
	}
}

// Name returns the connection's diagnostic name.
func (r *ConnRecorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// RecordSample appends one instrument snapshot. Once the series is full,
// further samples are counted as dropped (the series keeps its head: the
// slow-start ramp matters more than a truncated steady-state tail).
func (r *ConnRecorder) RecordSample(s Sample) {
	if r == nil {
		return
	}
	r.cwndAgg.Add(float64(s.Cwnd))
	r.inflightAgg.Add(float64(s.InFlight))
	if s.SRTT > 0 {
		r.srttAgg.Add(s.SRTT.Micros())
	}
	if r.samples.n >= r.maxSamples {
		r.droppedSamples++
		return
	}
	*r.samples.push() = s
}

// RecordEvent appends one discrete event to the bounded ring (oldest
// evicted first); per-kind totals are never dropped.
func (r *ConnRecorder) RecordEvent(at units.Time, kind EventKind, seq int64, cwnd, ssthresh int, aux int64) {
	if r == nil {
		return
	}
	if int(kind) < len(r.kindCounts) {
		r.kindCounts[kind]++
	}
	var ev *Event
	if r.events.n < r.maxEvents {
		ev = r.events.push()
	} else {
		ev = r.events.at(r.evStart)
		if r.evStart++; r.evStart == r.maxEvents {
			r.evStart = 0
		}
		r.droppedEvents++
	}
	*ev = Event{At: at, Kind: kind, Seq: seq, Cwnd: cwnd, Ssthresh: ssthresh, Aux: aux}
}

// event returns the i-th retained event in time order, unwinding the ring.
func (r *ConnRecorder) event(i int) *Event {
	if i += r.evStart; i >= r.events.n {
		i -= r.events.n
	}
	return r.events.at(i)
}

// Samples returns a copy of the recorded time series in time order.
func (r *ConnRecorder) Samples() []Sample {
	if r == nil || r.samples.n == 0 {
		return nil
	}
	out := make([]Sample, r.samples.n)
	for i := range out {
		out[i] = *r.samples.at(i)
	}
	return out
}

// Events returns a copy of the retained events in time order.
func (r *ConnRecorder) Events() []Event {
	if r == nil || r.events.n == 0 {
		return nil
	}
	out := make([]Event, r.events.n)
	for i := range out {
		out[i] = *r.event(i)
	}
	return out
}

// KindCount returns how many events of kind were recorded (including any
// evicted from the ring).
func (r *ConnRecorder) KindCount(k EventKind) int64 {
	if r == nil || int(k) >= len(r.kindCounts) {
		return 0
	}
	return r.kindCounts[k]
}

// Dropped returns how many samples and events exceeded the bounds.
func (r *ConnRecorder) Dropped() (samples, events int64) {
	if r == nil {
		return 0, 0
	}
	return r.droppedSamples, r.droppedEvents
}

// CwndStats returns the online summary of the sampled congestion window.
func (r *ConnRecorder) CwndStats() stats.Summary {
	if r == nil {
		return stats.Summary{}
	}
	return r.cwndAgg
}
