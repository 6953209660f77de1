package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"tengig/internal/units"
)

// FuzzParseJSONL feeds arbitrary bytes to ParseJSONL: it must return a
// bundle or an error, never panic, and any bundle it returns must export
// as JSONL and CSV.
func FuzzParseJSONL(f *testing.F) {
	f.Add(sampleBundle().ExportJSONL())
	f.Add(buildMetricsBundle().ExportJSONL())
	f.Add([]byte(`{"type":"meta","schema":"bogus"}`))
	f.Add([]byte(`{"type":"event","conn":"c","kind":"no-such-kind","seq":-1}` + "\n{"))
	f.Add([]byte(`{"type":"sample","conn":""}` + "\n" + `{"type":"future-line"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseJSONL(data)
		if err != nil {
			return
		}
		b.ExportJSONL()
		b.ExportCSV()
	})
}

// FuzzJSONLLines is a differential check of the hand-written encoder: for
// any conn name, state, kind and integers, each line it appends equals
// json.Marshal of the line struct ParseJSONL decodes, plus a newline, and
// the integers' decimal widths, which size the export, equal strconv's.
func FuzzJSONLLines(f *testing.F) {
	for _, s := range []string{"send/flow1", "<", ">", "&", "\u2028", "\u2029", "\xff",
		"\b", "\f", "\x00", `"`, `\`, "", "a,b\nc", "é"} {
		f.Add(s, "established", uint8(EventRTO), int64(1), int64(-1))
		f.Add("send/flow1", s, uint8(EventSWSClamp), int64(math.MinInt64), int64(math.MaxInt64))
	}
	f.Add("c", "s", uint8(numEventKinds), int64(0), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, conn, state string, kind uint8, x, y int64) {
		for _, v := range [...]int64{x, y} {
			if got, want := intLen(v), len(strconv.FormatInt(v, 10)); got != want {
				t.Errorf("intLen(%d) = %d, want %d", v, got, want)
			}
		}
		q := appendJSONString(nil, conn)
		check := func(what string, got []byte, v any) {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Errorf("%s line:\n got %s\nwant %s", what, got, want)
			}
		}
		check("meta", appendMetaLine(nil, conn, x),
			metaLine{Type: "meta", Schema: SchemaVersion, Name: conn, Seed: x})
		check("engine", appendEngineLine(nil, EngineCounters{Events: uint64(y), HighWater: int(x)}),
			engineLine{Type: "engine", EngineCounters: EngineCounters{Events: uint64(y), HighWater: int(x)}})
		check("conn", appendConnLine(nil, q, int(x), int(y), y, x),
			connLine{Type: "conn", Conn: conn, Samples: int(x), Events: int(y), DroppedSamples: y, DroppedEvents: x})
		s := Sample{At: units.Time(x), State: state, Cwnd: int(y), Ssthresh: int(x ^ y),
			SRTT: units.Time(y), RTTVar: units.Time(-x), RTO: units.Time(x + y),
			SndUna: x, SndNxt: y, InFlight: x - y, PeerWnd: ^x, AdvWnd: ^y, PersistShift: int(x >> 7),
			Retransmits: y >> 3, FastRetrans: x >> 11, Timeouts: y >> 17, DupAcksIn: x >> 31}
		check("sample", appendSampleLine(nil, q, &s), sampleLine{Type: "sample", Conn: conn, Sample: s})
		ev := Event{At: units.Time(y), Kind: EventKind(kind), Seq: x, Cwnd: int(-y), Ssthresh: int(^x), Aux: x ^ y}
		check("event", appendEventLine(nil, q, &ev),
			eventLine{Type: "event", Conn: conn, Kind: ev.Kind.String(), Event: ev})
	})
}
