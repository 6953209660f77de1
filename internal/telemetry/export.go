package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"tengig/internal/units"
)

// JSONL schema version. Bump when a record shape changes.
const SchemaVersion = "tengig-telemetry/v1"

// The JSONL export is line-oriented: one self-describing JSON object per
// line, in a deterministic order — meta, then per connection (registration
// order) a conn header followed by its samples and events in time order,
// then the engine counters. Host wall time never appears: the export must
// be byte-identical for identical seeds, serial or parallel.
//
// The line structs below are the schema. ParseJSONL decodes with them and
// encoding/json writes the fabric and metrics lines from them; the meta,
// conn, sample, event and engine lines hold only strings and integers and
// are appended by hand (see appendSampleLine), which FuzzJSONLLines holds
// byte-equal to json.Marshal of these structs.

type metaLine struct {
	Type   string `json:"type"` // "meta"
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
}

type connLine struct {
	Type           string `json:"type"` // "conn"
	Conn           string `json:"conn"`
	Samples        int    `json:"samples"`
	Events         int    `json:"events"`
	DroppedSamples int64  `json:"dropped_samples"`
	DroppedEvents  int64  `json:"dropped_events"`
}

type sampleLine struct {
	Type string `json:"type"` // "sample"
	Conn string `json:"conn"`
	Sample
}

type eventLine struct {
	Type string `json:"type"` // "event"
	Conn string `json:"conn"`
	Kind string `json:"kind"`
	Event
}

type engineLine struct {
	Type string `json:"type"` // "engine"
	EngineCounters
}

type fabricLine struct {
	Type string `json:"type"` // "fabric"
	FabricCounters
}

type metricsLine struct {
	Type string `json:"type"` // "metrics"
	FleetMetrics
}

// Keys of the hand-encoded lines, in encoding/json's field order, each
// with its leading comma.
var (
	connKeys   = [...]string{`,"samples":`, `,"events":`, `,"dropped_samples":`, `,"dropped_events":`}
	sampleKeys = [...]string{`,"at_ps":`, `,"cwnd":`, `,"ssthresh":`,
		`,"srtt_ps":`, `,"rttvar_ps":`, `,"rto_ps":`,
		`,"snd_una":`, `,"snd_nxt":`, `,"inflight":`, `,"peer_wnd":`, `,"adv_wnd":`,
		`,"persist_shift":`, `,"retrans":`, `,"fast_retrans":`, `,"timeouts":`, `,"dup_acks":`}
	eventKeys = [...]string{`,"at_ps":`, `,"seq":`, `,"cwnd":`, `,"ssthresh":`, `,"aux":`}
)

const (
	connHead   = `{"type":"conn","conn":`
	sampleHead = `{"type":"sample","conn":`
	eventHead  = `{"type":"event","conn":`
	stateKey   = `,"state":`
	kindKey    = `,"kind":`
	lineEnd    = "}\n"
)

// sampleInts lists a sample's integer fields in export order; the state
// goes between the first (at_ps) and the rest.
func sampleInts(s *Sample) [len(sampleKeys)]int64 {
	return [...]int64{int64(s.At), int64(s.Cwnd), int64(s.Ssthresh),
		int64(s.SRTT), int64(s.RTTVar), int64(s.RTO),
		s.SndUna, s.SndNxt, s.InFlight, s.PeerWnd, s.AdvWnd,
		int64(s.PersistShift), s.Retransmits, s.FastRetrans, s.Timeouts, s.DupAcksIn}
}

// appendJSONString appends s quoted as encoding/json quotes it. Printable
// ASCII other than '"', '\\', '<', '>' and '&' needs no escape and is
// copied; any other string goes through json.Marshal itself, so its
// escaping is encoding/json's on every Go version.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendField(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendMetaLine(dst []byte, name string, seed int64) []byte {
	dst = append(dst, `{"type":"meta","schema":"`+SchemaVersion+`","name":`...)
	dst = appendJSONString(dst, name)
	return append(appendField(dst, `,"seed":`, seed), lineEnd...)
}

func appendEngineLine(dst []byte, e EngineCounters) []byte {
	dst = strconv.AppendUint(append(dst, `{"type":"engine","events":`...), e.Events, 10)
	return append(appendField(dst, `,"high_water":`, int64(e.HighWater)), lineEnd...)
}

// appendConnLine, appendSampleLine and appendEventLine take the conn name
// already quoted (appendJSONString), once per connection.
func appendConnLine(dst, qconn []byte, samples, events int, droppedSamples, droppedEvents int64) []byte {
	dst = append(append(dst, connHead...), qconn...)
	for i, v := range [...]int64{int64(samples), int64(events), droppedSamples, droppedEvents} {
		dst = appendField(dst, connKeys[i], v)
	}
	return append(dst, lineEnd...)
}

func appendSampleLine(dst, qconn []byte, s *Sample) []byte {
	v := sampleInts(s)
	dst = append(append(dst, sampleHead...), qconn...)
	dst = appendField(dst, sampleKeys[0], v[0])
	dst = appendJSONString(append(dst, stateKey...), s.State)
	for i := 1; i < len(v); i++ {
		dst = appendField(dst, sampleKeys[i], v[i])
	}
	return append(dst, lineEnd...)
}

// eventInts lists an event's integer fields in export order.
func eventInts(ev *Event) [len(eventKeys)]int64 {
	return [...]int64{int64(ev.At), ev.Seq, int64(ev.Cwnd), int64(ev.Ssthresh), ev.Aux}
}

func appendEventLine(dst, qconn []byte, ev *Event) []byte {
	dst = append(append(dst, eventHead...), qconn...)
	dst = appendJSONString(append(dst, kindKey...), ev.Kind.String())
	for i, v := range eventInts(ev) {
		dst = appendField(dst, eventKeys[i], v)
	}
	return append(dst, lineEnd...)
}

// Sizing. ExportJSONL and ExportCSV size their buffers to the byte: a
// line's fixed text, plus its quoted strings as the encoder quotes them,
// plus each integer's decimal width. The line lengths below exclude the
// quoted conn name, which is added per connection.
var (
	connFixed   = keysLen(connHead, connKeys[:])
	sampleFixed = keysLen(sampleHead+stateKey, sampleKeys[:])
	eventFixed  = keysLen(eventHead+kindKey, eventKeys[:])
)

// keysLen is a line's fixed text: head, keys and the closing "}\n".
func keysLen(head string, keys []string) int {
	n := len(head) + len(lineEnd)
	for _, k := range keys {
		n += len(k)
	}
	return n
}

// pow10[d] is 10^d, for every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for d := 1; d < len(p); d++ {
		p[d] = p[d-1] * 10
	}
	return p
}()

// intLen is the length of v in decimal, sign included, in constant time
// and without a branch: a magnitude of b bits has b·log10(2) digits
// rounded down, or one more (1233/4096 is log10(2) to four places), and
// one comparison with a power of ten picks which. The magnitude is or-ed
// with 1, which keeps its digit count (no power of ten past 1 is odd) and
// gives zero its one digit.
func intLen(v int64) int {
	neg := uint64(v) >> 63
	w := ((uint64(v) ^ -neg) + neg) | 1 // |v| | 1
	d := bits.Len64(w) * 1233 >> 12
	// w < 10^d exactly when w-10^d wraps: the two are within 2^63 of each
	// other for every d a bit length picks.
	return int(neg) + d + 1 - int((w-pow10[d])>>63)
}

// intsLen is the total decimal length of vs.
func intsLen(vs []int64) int {
	n := 0
	for _, v := range vs {
		n += intLen(v)
	}
	return n
}

// quotedLen is the length of s as appendJSONString writes it.
func quotedLen(s string) int {
	var room [64]byte
	return len(appendJSONString(room[:0], s))
}

// kindLen is each event kind's name as appendEventLine quotes it; the last
// entry is the "unknown" every kind past the named ones prints as.
var kindLen = func() (n [numEventKinds + 1]int) {
	for k := range n {
		n[k] = quotedLen(EventKind(k).String())
	}
	return n
}()

// connSize is the exact length of r's conn, sample and event lines given
// the quoted conn name's length q. A connection's state changes a handful
// of times, so each run of equal states is quoted once.
func connSize(r *ConnRecorder, q int) int {
	size := connFixed + q + intsLen([]int64{int64(r.samples.n), int64(r.events.n), r.droppedSamples, r.droppedEvents})
	size += r.samples.n * (sampleFixed + q)
	state, qstate := "", quotedLen("")
	for i := 0; i < r.samples.n; i++ {
		s := r.samples.at(i)
		if s.State != state {
			state, qstate = s.State, quotedLen(s.State)
		}
		v := sampleInts(s)
		size += qstate + intsLen(v[:])
	}
	size += r.events.n * (eventFixed + q)
	for i := 0; i < r.events.n; i++ {
		ev := r.events.at(i)
		v := eventInts(ev)
		size += kindLen[min(ev.Kind, numEventKinds)] + intsLen(v[:])
	}
	return size
}

// ExportJSONL renders the bundle as JSON lines. Conn headers, samples and
// events are appended in place into one buffer sized to the byte up front,
// so the export allocates each byte it writes once, and its allocations do
// not grow with its record count.
func (b *Bundle) ExportJSONL() []byte {
	head := appendMetaLine(nil, b.Name, b.Seed)
	tail := appendEngineLine(nil, b.Engine)
	// Fabric counters follow the engine footer so switchless bundles — the
	// pinned golden exports among them — are byte-identical to before the
	// record type existed. The fleet-metrics line comes last for the same
	// reason: bundles without a metrics sink — every pinned golden digest
	// among them — export byte-identically to before it existed. Both hold
	// floats, omitempty fields and nested slices: encoding/json writes
	// them.
	for _, fc := range b.Fabric {
		tail = marshalLine(tail, fabricLine{Type: "fabric", FabricCounters: fc})
	}
	if b.Metrics != nil {
		tail = marshalLine(tail, metricsLine{Type: "metrics", FleetMetrics: *b.Metrics})
	}

	var qconn []byte // one quoted conn name at a time
	size := len(head) + len(tail)
	for _, r := range b.Conns {
		qconn = appendJSONString(qconn[:0], r.name)
		size += connSize(r, len(qconn))
	}
	buf := append(make([]byte, 0, size), head...)
	for _, r := range b.Conns {
		qconn = appendJSONString(qconn[:0], r.name)
		buf = appendConnLine(buf, qconn, r.samples.n, r.events.n, r.droppedSamples, r.droppedEvents)
		for i := 0; i < r.samples.n; i++ {
			buf = appendSampleLine(buf, qconn, r.samples.at(i))
		}
		for i := 0; i < r.events.n; i++ {
			buf = appendEventLine(buf, qconn, r.event(i))
		}
	}
	return append(buf, tail...)
}

// marshalLine appends v as encoding/json writes it, and a newline.
func marshalLine(dst []byte, v any) []byte {
	j, err := json.Marshal(v)
	if err != nil {
		panic("telemetry: in-memory export failed: " + err.Error())
	}
	return append(append(dst, j...), '\n')
}

const csvHeader = "conn,at_ps,state,cwnd,ssthresh,srtt_ps,rttvar_ps,rto_ps," +
	"snd_una,snd_nxt,inflight,peer_wnd,adv_wnd,persist_shift," +
	"retrans,fast_retrans,timeouts,dup_acks\n"

// csvSeps is one CSV row's separators: a comma after every field but the
// last, and the newline.
const csvSeps = len(sampleKeys) + 2

// ExportCSV renders the sampled instrument series as one CSV table (all
// connections, in registration order), deterministic like the JSONL and
// sized to the byte like it. The conn and state fields are quoted exactly
// as encoding/csv quotes them, so a name with a comma, quote or newline
// stays one field, and one that encoding/csv leaves bare keeps its bytes.
func (b *Bundle) ExportCSV() []byte {
	var field bytes.Buffer
	w := csv.NewWriter(&field)
	// quote returns s as encoding/csv writes it, valid until its next call.
	quote := func(s string) []byte {
		field.Reset()
		w.Write([]string{s}) // in memory: cannot fail
		w.Flush()
		return field.Bytes()[:field.Len()-1] // less the newline
	}

	// States change a handful of times per connection: each run of equal
	// states is quoted once. The empty state quotes as itself.
	conns := make([]string, len(b.Conns))
	size := len(csvHeader)
	for i, r := range b.Conns {
		conns[i] = string(quote(r.name))
		size += r.samples.n * (len(conns[i]) + csvSeps)
		state, qstate := "", 0
		for j := 0; j < r.samples.n; j++ {
			s := r.samples.at(j)
			if s.State != state {
				state, qstate = s.State, len(quote(s.State))
			}
			v := sampleInts(s)
			size += qstate + intsLen(v[:])
		}
	}
	buf := append(make([]byte, 0, size), csvHeader...)
	for i, r := range b.Conns {
		state, qstate := "", []byte(nil)
		for j := 0; j < r.samples.n; j++ {
			s := r.samples.at(j)
			if s.State != state {
				state, qstate = s.State, quote(s.State)
			}
			buf = appendCSVRow(buf, conns[i], qstate, s)
		}
	}
	return buf
}

func appendCSVRow(dst []byte, conn string, state []byte, s *Sample) []byte {
	v := sampleInts(s)
	dst = strconv.AppendInt(append(append(dst, conn...), ','), v[0], 10)
	dst = append(append(dst, ','), state...)
	for _, x := range v[1:] {
		dst = strconv.AppendInt(append(dst, ','), x, 10)
	}
	return append(dst, '\n')
}

// ParseError reports the line of a JSONL export ParseJSONL rejected.
type ParseError struct {
	Line int    // 1-based line number
	Type string // the record's "type"; empty if the line is not a JSON object with one
	Err  error
}

func (e *ParseError) Error() string {
	where := fmt.Sprintf("telemetry: line %d", e.Line)
	if e.Type != "" {
		where += " (" + e.Type + ")"
	}
	// encoding/json names the Go struct a bad field lives in; a reader of
	// the export knows only the field's key.
	var te *json.UnmarshalTypeError
	if errors.As(e.Err, &te) {
		if te.Field == "" {
			return fmt.Sprintf("%s: a JSON %s, not a record object", where, te.Value)
		}
		key := te.Field[strings.LastIndexByte(te.Field, '.')+1:]
		return fmt.Sprintf("%s: field %q: cannot unmarshal JSON %s into %s", where, key, te.Value, te.Type.Kind())
	}
	return where + ": " + e.Err.Error()
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseJSONL reconstructs a bundle from its JSONL export — the read half of
// the machine-readable contract, used by tests and downstream tooling.
// Record types this reader does not know are skipped (and counted in
// Bundle.UnknownLines) rather than rejected, so older tooling keeps parsing
// exports that grew new line types. Every failure is a *ParseError naming
// the line.
func ParseJSONL(data []byte) (*Bundle, error) {
	b := &Bundle{opt: Options{MaxSamples: 1 << 30, MaxEvents: 1 << 30}}
	for ln, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var typ struct {
			Type string `json:"type"`
		}
		err := json.Unmarshal(line, &typ)
		if err == nil {
			err = b.parseRecord(typ.Type, line)
		}
		if err != nil {
			return nil, &ParseError{Line: ln + 1, Type: typ.Type, Err: err}
		}
	}
	return b, nil
}

// parseRecord decodes one line of type typ into b.
func (b *Bundle) parseRecord(typ string, line []byte) error {
	switch typ {
	case "meta":
		var m metaLine
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		if m.Schema != SchemaVersion {
			return fmt.Errorf("schema %q, want %q", m.Schema, SchemaVersion)
		}
		b.Name, b.Seed = m.Name, m.Seed
	case "conn":
		var c connLine
		if err := json.Unmarshal(line, &c); err != nil {
			return err
		}
		r := b.Conn(c.Conn)
		r.droppedSamples, r.droppedEvents = c.DroppedSamples, c.DroppedEvents
	case "sample":
		var s sampleLine
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		b.Conn(s.Conn).RecordSample(s.Sample)
	case "event":
		var e eventLine
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		e.Event.Kind = KindFromString(e.Kind)
		r := b.Conn(e.Conn)
		r.kindCounts[e.Event.Kind]++
		if r.events.n < r.maxEvents {
			*r.events.push() = e.Event
		}
	case "engine":
		var g engineLine
		if err := json.Unmarshal(line, &g); err != nil {
			return err
		}
		b.Engine = g.EngineCounters
	case "fabric":
		var f fabricLine
		if err := json.Unmarshal(line, &f); err != nil {
			return err
		}
		b.Fabric = append(b.Fabric, f.FabricCounters)
	case "metrics":
		var m metricsLine
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		fm := m.FleetMetrics
		b.Metrics = &fm
	default:
		// Unknown record types are tolerated (counted, not fatal): a
		// reader built before a line type existed must still parse the
		// rest of the export, the same forward-compatibility contract
		// the fabric and metrics lines rely on.
		b.UnknownLines++
	}
	return nil
}

// Summary renders the human-readable readout, like `web100 readvars` or a
// tcp_probe post-processing script.
func (b *Bundle) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "telemetry: bundle %s (seed %d)\n", b.Name, b.Seed)
	for _, r := range b.Conns {
		ds, de := r.Dropped()
		fmt.Fprintf(&sb, "  conn %-16s %d samples, %d events retained (dropped %d/%d)\n",
			r.Name(), r.samples.n, r.events.n, ds, de)
		if r.samples.n > 0 {
			last := r.samples.at(r.samples.n - 1)
			cw := r.cwndAgg
			fmt.Fprintf(&sb, "    cwnd      min %.0f max %.0f mean %.1f (last %d), ssthresh last %d\n",
				cw.Min(), cw.Max(), cw.Mean(), last.Cwnd, last.Ssthresh)
			fmt.Fprintf(&sb, "    srtt      last %v   rto last %v\n", last.SRTT, last.RTO)
			fmt.Fprintf(&sb, "    inflight  max %.0f B   adv-wnd last %d B\n",
				r.inflightAgg.Max(), last.AdvWnd)
			fmt.Fprintf(&sb, "    counters  retrans %d  fast-retrans %d  timeouts %d  dup-acks %d\n",
				last.Retransmits, last.FastRetrans, last.Timeouts, last.DupAcksIn)
		}
		var evs []string
		for k := EventKind(1); k < numEventKinds; k++ {
			if n := r.KindCount(k); n > 0 {
				evs = append(evs, fmt.Sprintf("%s×%d", k, n))
			}
		}
		if len(evs) > 0 {
			fmt.Fprintf(&sb, "    events    %s\n", strings.Join(evs, "  "))
		}
	}
	for _, fc := range b.Fabric {
		fmt.Fprintf(&sb, "  fabric %-16s forwarded %d  dropped %d  no-route %d  ttl-drops %d\n",
			fc.Node, fc.Forwarded, fc.Dropped, fc.NoRoute, fc.TTLDrops)
		for _, ps := range fc.Ports {
			fmt.Fprintf(&sb, "    port %-24s fwd %d (%d B)  drops %d  max-queued %d B\n",
				ps.Link, ps.Forwarded, ps.Bytes, ps.Drops, ps.MaxQueued)
		}
	}
	if m := b.Metrics; m != nil {
		fmt.Fprintf(&sb, "  fleet: %d flows, %d B, retrans %d, fairness %.4f\n",
			m.Flows, m.Bytes, m.Retransmits, m.Fairness)
		fmt.Fprintf(&sb, "    fct   p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
			units.Time(m.FCTP50), units.Time(m.FCTP90), units.Time(m.FCTP99),
			units.Time(m.FCTP999), units.Time(m.FCTMax))
		for _, c := range m.Classes {
			fmt.Fprintf(&sb, "    class %-12s %d flows  %d B  %.3f Gb/s\n",
				c.Class, c.Flows, c.Bytes, c.GoodputGbps)
		}
		if m.Fabric.Nodes > 0 {
			fmt.Fprintf(&sb, "    fabric %d nodes: fwd %d  drops %d (port %d)  max-queued %d B on %s\n",
				m.Fabric.Nodes, m.Fabric.Forwarded, m.Fabric.Dropped,
				m.Fabric.PortDrops, m.Fabric.MaxQueued, m.Fabric.MaxQueuedLink)
		}
	}
	fmt.Fprintf(&sb, "  engine: %d events executed, queue high-water %d\n",
		b.Engine.Events, b.Engine.HighWater)
	if b.Wall > 0 {
		fmt.Fprintf(&sb, "  wall: %v\n", b.Wall)
	}
	return sb.String()
}

// FirstEvent returns a copy of the earliest retained event of kind, or nil.
func (r *ConnRecorder) FirstEvent(k EventKind) *Event {
	if r == nil {
		return nil
	}
	for i := 0; i < r.events.n; i++ {
		if ev := *r.event(i); ev.Kind == k {
			return &ev
		}
	}
	return nil
}

// SamplesBetween returns the samples with from <= At < to.
func (r *ConnRecorder) SamplesBetween(from, to units.Time) []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for i := 0; i < r.samples.n; i++ {
		if s := r.samples.at(i); s.At >= from && s.At < to {
			out = append(out, *s)
		}
	}
	return out
}
