package telemetry

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"tengig/internal/units"
)

func sampleBundle() *Bundle {
	b := NewBundle("unit", 42, Options{})
	r := b.Conn("send/flow1")
	r.RecordSample(Sample{At: 100, State: "established", Cwnd: 2, Ssthresh: 1 << 20,
		SRTT: 25_000_000, RTO: 200_000_000_000, InFlight: 8948, AdvWnd: 17896})
	r.RecordSample(Sample{At: 200, State: "established", Cwnd: 4, Ssthresh: 1 << 20,
		SRTT: 26_000_000, RTO: 200_000_000_000, InFlight: 17896, AdvWnd: 17896})
	r.RecordEvent(150, EventFastRetransmit, 8948, 4, 7, 3)
	r2 := b.Conn("recv/flow1")
	r2.RecordSample(Sample{At: 100, State: "established", Cwnd: 2})
	r2.RecordEvent(180, EventDelayedAck, 17896, 2, 1<<20, 2)
	b.CaptureEngine(1234, 17)
	return b
}

func TestJSONLRoundTrip(t *testing.T) {
	b := sampleBundle()
	data := b.ExportJSONL()

	got, err := ParseJSONL(data)
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if got.Name != "unit" || got.Seed != 42 {
		t.Fatalf("meta mismatch: %q seed %d", got.Name, got.Seed)
	}
	if len(got.Conns) != 2 || got.Conns[0].Name() != "send/flow1" {
		t.Fatalf("conns mismatch: %d", len(got.Conns))
	}
	if got.Engine != (EngineCounters{Events: 1234, HighWater: 17}) {
		t.Fatalf("engine mismatch: %+v", got.Engine)
	}
	r := got.Lookup("send/flow1")
	if len(r.Samples()) != 2 || r.Samples()[1].Cwnd != 4 {
		t.Fatalf("samples mismatch: %+v", r.Samples())
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != EventFastRetransmit || evs[0].Aux != 3 {
		t.Fatalf("events mismatch: %+v", evs)
	}
	if r.KindCount(EventFastRetransmit) != 1 {
		t.Fatal("kind count not reconstructed")
	}

	// The round trip is lossless for export purposes: re-exporting the
	// parsed bundle reproduces the original bytes.
	if again := got.ExportJSONL(); !bytes.Equal(data, again) {
		t.Fatal("re-export after parse is not byte-identical")
	}
}

func TestExportDeterminism(t *testing.T) {
	a, b := sampleBundle(), sampleBundle()
	if !bytes.Equal(a.ExportJSONL(), b.ExportJSONL()) {
		t.Fatal("identical bundles exported different JSONL")
	}
	if !bytes.Equal(a.ExportCSV(), b.ExportCSV()) {
		t.Fatal("identical bundles exported different CSV")
	}
}

func TestWallExcludedFromExports(t *testing.T) {
	a, b := sampleBundle(), sampleBundle()
	b.Wall = 123_456_789 // wall-clock noise must never reach the exports
	if !bytes.Equal(a.ExportJSONL(), b.ExportJSONL()) {
		t.Fatal("Wall leaked into the JSONL export")
	}
	if !bytes.Equal(a.ExportCSV(), b.ExportCSV()) {
		t.Fatal("Wall leaked into the CSV export")
	}
}

func TestCSVShape(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(string(sampleBundle().ExportCSV())), "\n")
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, ln := range lines {
		if got := strings.Count(ln, ",") + 1; got != cols {
			t.Fatalf("line %d has %d columns, header has %d", i, got, cols)
		}
	}
	if !strings.HasPrefix(lines[1], "send/flow1,100,established,2,") {
		t.Fatalf("unexpected first data row: %s", lines[1])
	}
}

func TestParseJSONLRejectsBadInput(t *testing.T) {
	if _, err := ParseJSONL([]byte(`{"type":"meta","schema":"bogus/v9"}`)); err == nil {
		t.Fatal("wrong schema version should fail")
	}
	// Unknown record types are skipped (forward compatibility), not errors.
	if b, err := ParseJSONL([]byte(`{"type":"mystery"}`)); err != nil {
		t.Fatalf("unknown record type should be tolerated: %v", err)
	} else if b.UnknownLines != 1 {
		t.Fatalf("UnknownLines = %d, want 1", b.UnknownLines)
	}
	if _, err := ParseJSONL([]byte("not json")); err == nil {
		t.Fatal("malformed line should fail")
	}

	// Every failure names its line and record type, whatever the type.
	meta := `{"type":"meta","schema":"` + SchemaVersion + `","name":"n","seed":1}`
	for _, c := range []struct{ typ, line, want string }{
		{"", "not json", "invalid character"},
		{"", "[1]", "a JSON array, not a record object"},
		{"meta", `{"type":"meta","schema":"bogus/v9"}`, `schema "bogus/v9"`},
		{"meta", `{"type":"meta","schema":"` + SchemaVersion + `","seed":"x"}`, `field "seed"`},
		{"conn", `{"type":"conn","conn":"c","samples":"x"}`, `field "samples"`},
		{"sample", `{"type":"sample","conn":"c","cwnd":"x"}`, `field "cwnd": cannot unmarshal JSON string into int`},
		{"event", `{"type":"event","conn":"c","kind":"rto_fire","seq":1.5}`, `field "seq"`},
		{"engine", `{"type":"engine","events":-1}`, `field "events"`},
		{"fabric", `{"type":"fabric","node":"sw","ports":"x"}`, `field "ports"`},
		{"metrics", `{"type":"metrics","flows":"x"}`, `field "flows"`},
	} {
		_, err := ParseJSONL([]byte(meta + "\n" + c.line + "\n"))
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want a *ParseError", c.line, err)
			continue
		}
		if pe.Line != 2 || pe.Type != c.typ || pe.Unwrap() == nil {
			t.Errorf("%s: ParseError{Line: %d, Type: %q}, want line 2, type %q", c.line, pe.Line, pe.Type, c.typ)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "telemetry: line 2") || !strings.Contains(msg, c.want) ||
			strings.Contains(msg, "Line.") || strings.Contains(msg, "Go struct") {
			t.Errorf("%s: message %q, want it to start with the line, say %q and name no Go type", c.line, msg, c.want)
		}
	}
}

// Names with a comma, quote or newline are quoted as encoding/csv quotes
// them, so every row reads back as the header's 18 fields.
func TestCSVQuotesAwkwardNames(t *testing.T) {
	names := []string{"snd,x/flow1", `a"b/flow2`, "c\nd/flow3"}
	b := NewBundle("awkward", 1, Options{})
	for _, name := range names {
		r := b.Conn(name)
		r.RecordSample(Sample{At: 100, State: "established", Cwnd: 2})
		r.RecordSample(Sample{At: 200, State: "fin,sent", Cwnd: 3})
	}
	rows, err := csv.NewReader(bytes.NewReader(b.ExportCSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+2*len(names) {
		t.Fatalf("read %d rows, want %d", len(rows), 1+2*len(names))
	}
	for i, row := range rows {
		if len(row) != 18 {
			t.Fatalf("row %d has %d fields, want 18: %q", i, len(row), row)
		}
	}
	for i, name := range names {
		if got := rows[1+2*i][0]; got != name {
			t.Errorf("row %d conn = %q, want %q", 1+2*i, got, name)
		}
		if got := rows[2+2*i][2]; got != "fin,sent" {
			t.Errorf("row %d state = %q, want %q", 2+2*i, got, "fin,sent")
		}
	}
}

// The export's allocations are per bundle and per connection, never per
// record: ten times the samples and events cost no more of them.
func TestExportJSONLAllocsIndependentOfRecords(t *testing.T) {
	small, big := SyntheticBundle(1), SyntheticBundle(10)
	a := testing.AllocsPerRun(2, func() { small.ExportJSONL() })
	b := testing.AllocsPerRun(2, func() { big.ExportJSONL() })
	if a != b {
		t.Errorf("ExportJSONL allocs/op: %v at scale 1, %v at scale 10; want equal", a, b)
	}
}

// awkwardBundle has conn, state and kind names that need escaping in JSON
// and quoting in CSV, one name longer than quotedLen's stack room, and a
// wrapped event ring.
func awkwardBundle() *Bundle {
	b := NewBundle("awk<ward>", -7, Options{MaxEvents: 5})
	long := strings.Repeat("é\"<&>", 20)
	for c, name := range []string{"snd,x/flow1", `a"b/flow2`, "c\nd<&>/flow3", "\u2028\xff/flow4", long} {
		r := b.Conn(name)
		for i, state := range []string{"", "established", "fin,sent", ` lead"<q>`, long, "established"} {
			r.RecordSample(Sample{At: units.Time(100 * i), State: state, Cwnd: -i, Ssthresh: math.MaxInt64,
				SndUna: math.MinInt64, SndNxt: int64(c) * 1e18, RTO: units.Time(9_999_999_999)})
		}
		for i := 0; i < 7; i++ {
			r.RecordEvent(units.Time(i), EventKind(i*3%int(numEventKinds+3)), -int64(i)*1e17, i, -1, 99)
		}
	}
	return b
}

// Both exports size their buffer to the byte: the capacity they allocate
// is the length they write.
func TestExportJSONLCapacityBound(t *testing.T) {
	for _, c := range []struct {
		name string
		b    *Bundle
	}{
		{"synthetic-1", SyntheticBundle(1)},
		{"synthetic-10", SyntheticBundle(10)},
		{"awkward", awkwardBundle()},
		{"empty", NewBundle("", 0, Options{})},
	} {
		for _, e := range []struct {
			format string
			out    []byte
		}{{"JSONL", c.b.ExportJSONL()}, {"CSV", c.b.ExportCSV()}} {
			if cap(e.out) != len(e.out) {
				t.Errorf("%s: Export%s allocated %d bytes for %d written, want equal",
					c.name, e.format, cap(e.out), len(e.out))
			}
		}
	}
}

// intLen agrees with strconv on every power of two and of ten, one either
// side, and both signs.
func TestIntLen(t *testing.T) {
	vs := []int64{math.MinInt64, math.MaxInt64}
	for p := int64(1); p > 0 && p <= math.MaxInt64/10*10; p *= 10 {
		vs = append(vs, p-1, p, p+1)
	}
	for b := 0; b < 63; b++ {
		p := int64(1) << b
		vs = append(vs, p-1, p, p+1)
	}
	for _, v := range vs {
		for _, v := range []int64{v, -v} {
			if got, want := intLen(v), len(strconv.FormatInt(v, 10)); got != want {
				t.Errorf("intLen(%d) = %d, want %d", v, got, want)
			}
		}
	}
}

func TestSummaryMentionsEssentials(t *testing.T) {
	s := sampleBundle().Summary()
	for _, want := range []string{
		"bundle unit", "send/flow1", "recv/flow1",
		"fast_retransmit×1", "delayed_ack×1",
		"1234 events executed", "high-water 17",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "wall") {
		t.Fatal("summary should omit wall line when Wall is zero")
	}
}
