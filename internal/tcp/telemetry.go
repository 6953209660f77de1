package tcp

import (
	"tengig/internal/telemetry"
	"tengig/internal/units"
)

// This file wires the connection's internal state variables to the
// Web100/tcp_probe-style recorder in internal/telemetry: a periodic
// instrument sampler plus discrete-event hooks called from the send and
// receive paths. All hooks are nil-safe — a connection without telemetry
// attached pays a pointer test and nothing else (no allocations; see the
// AllocsPerRun guard in internal/telemetry).

// SetTelemetry installs a Web100-style instrument recorder (nil disables).
// The recorder must belong to this connection's run: recorders, like the
// simulation itself, are single-goroutine.
func (c *Conn) SetTelemetry(r *telemetry.ConnRecorder) { c.telem = r }

// Telemetry returns the installed recorder (possibly nil).
func (c *Conn) Telemetry() *telemetry.ConnRecorder { return c.telem }

// StartTelemetrySampler records one instrument snapshot now and then every
// interval of simulated time until the connection reaches StateDone. It is
// a no-op without an attached recorder or with a non-positive interval.
func (c *Conn) StartTelemetrySampler(interval units.Time) {
	if c.telem == nil || interval <= 0 {
		return
	}
	if c.telemTmr.Pending() {
		return
	}
	c.telemEvery = interval
	c.telem.RecordSample(c.instrumentSnapshot())
	c.telemTmr = c.env.AfterCall(c.telemEvery, c.telemCb, nil)
}

func (c *Conn) onTelemetrySample() {
	if c.telem == nil || c.state == StateDone {
		return
	}
	c.telem.RecordSample(c.instrumentSnapshot())
	c.telemTmr = c.env.AfterCall(c.telemEvery, c.telemCb, nil)
}

// cancelTelemetrySampler stops the periodic sampler, recording one final
// snapshot so the series always closes on the terminal state.
func (c *Conn) cancelTelemetrySampler() {
	c.telemTmr.Stop()
	if c.telem != nil {
		c.telem.RecordSample(c.instrumentSnapshot())
	}
}

// instrumentSnapshot reads the connection's instrument set. It is strictly
// read-only: sampling must never perturb the simulation (in particular it
// reads the last advertised window edge rather than recomputing one).
func (c *Conn) instrumentSnapshot() telemetry.Sample {
	return telemetry.Sample{
		At:           c.env.Now(),
		State:        c.state.String(),
		Cwnd:         c.cwnd,
		Ssthresh:     c.ssthresh,
		SRTT:         c.srtt,
		RTTVar:       c.rttvar,
		RTO:          c.rto,
		SndUna:       c.sndUna,
		SndNxt:       c.sndNxt,
		InFlight:     c.InFlight(),
		PeerWnd:      c.PeerWindow(),
		AdvWnd:       c.advEdge - c.rcvNxt,
		PersistShift: c.persistShift,
		Retransmits:  c.Stats.Retransmits,
		FastRetrans:  c.Stats.FastRetransmits,
		Timeouts:     c.Stats.Timeouts,
		DupAcksIn:    c.Stats.DupAcksIn,
	}
}

// telemEvent records one discrete stack event with the current congestion
// state attached. With telemetry off it returns before reading the clock
// through Env or calling into the recorder.
func (c *Conn) telemEvent(kind telemetry.EventKind, seq int64, aux int64) {
	if c.telem == nil {
		return
	}
	c.telem.RecordEvent(c.env.Now(), kind, seq, c.cwnd, c.ssthresh, aux)
}

// telemCwndReduction records a congestion-window decrease (prev = the
// window before the reduction, in segments).
func (c *Conn) telemCwndReduction(prev int) {
	if c.cwnd < prev {
		c.telemEvent(telemetry.EventCwndReduction, c.sndUna, int64(prev))
	}
}
