package telemetry

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"tengig/internal/units"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if got := KindFromString(k.String()); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if KindFromString("no-such-kind") != EventNone {
		t.Error("unknown kind should map to EventNone")
	}
}

func TestRecorderSampleBounds(t *testing.T) {
	b := NewBundle("t", 1, Options{MaxSamples: 3})
	r := b.Conn("c")
	for i := 0; i < 5; i++ {
		r.RecordSample(Sample{At: units.Time(i), Cwnd: i + 1})
	}
	if got := len(r.Samples()); got != 3 {
		t.Fatalf("retained %d samples, want 3", got)
	}
	// Keep-first: the slow-start head survives, the tail is dropped.
	if r.Samples()[0].Cwnd != 1 || r.Samples()[2].Cwnd != 3 {
		t.Fatalf("wrong samples retained: %+v", r.Samples())
	}
	ds, _ := r.Dropped()
	if ds != 2 {
		t.Fatalf("droppedSamples = %d, want 2", ds)
	}
	// Aggregates cover everything, including dropped samples.
	agg := r.CwndStats()
	if n := agg.N(); n != 5 {
		t.Fatalf("cwnd aggregate N = %d, want 5", n)
	}
	if max := agg.Max(); max != 5 {
		t.Fatalf("cwnd aggregate max = %v, want 5", max)
	}
}

func TestRecorderEventRing(t *testing.T) {
	for _, c := range []struct{ maxEvents, total int }{
		{4, 7},
		// Not a multiple of blockLen, and wrapped until the oldest
		// retained event sits in the second block.
		{3*blockLen + 37, 4*blockLen + 87},
	} {
		b := NewBundle("t", 1, Options{MaxEvents: c.maxEvents})
		r := b.Conn("c")
		for i := 0; i < c.total; i++ {
			r.RecordEvent(units.Time(i), EventRTO, int64(i), 0, 0, 0)
		}
		parsed, err := ParseJSONL(b.ExportJSONL())
		if err != nil {
			t.Fatal(err)
		}
		for what, evs := range map[string][]Event{"Events": r.Events(), "export": parsed.Lookup("c").Events()} {
			if len(evs) != c.maxEvents {
				t.Fatalf("%s: retained %d events, want %d", what, len(evs), c.maxEvents)
			}
			// Ring keeps the newest, in time order.
			for i, ev := range evs {
				if want := units.Time(c.total - c.maxEvents + i); ev.At != want {
					t.Fatalf("%s: event %d at %v, want %v", what, i, ev.At, want)
				}
			}
		}
		if _, de := r.Dropped(); de != int64(c.total-c.maxEvents) {
			t.Fatalf("droppedEvents = %d, want %d", de, c.total-c.maxEvents)
		}
		// Per-kind totals include evicted events.
		if n := r.KindCount(EventRTO); n != int64(c.total) {
			t.Fatalf("KindCount = %d, want %d", n, c.total)
		}
	}
}

// Recording holds only its records. n samples and n events allocate the
// records rounded up to whole blocks (every block after the first is
// allocated whole), one more block per series for the first block's
// doubling (1+2+…+blockLen/2 records), and recordSlack for the two block
// lists (6 KB each here) and the recorder. A block costs what the
// allocator charges for it: an event block is exactly a size class, and a
// sample block, which holds the state strings, carries an 8-byte header
// into the next class up. Kept in one doubling slice per series, the same
// records allocated about four times their size.
func TestRecordingAllocatesItsRecords(t *testing.T) {
	const n = 10_000
	const recordSlack = 24 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	blocks := uint64((n+blockLen-1)/blockLen + 1)
	limit := blocks*(allocated(func() { sampleBlock = make([]Sample, blockLen) })+
		allocated(func() { eventBlock = make([]Event, blockLen) })) + recordSlack

	got := allocated(func() {
		r := NewBundle("mem", 1, Options{}).Conn("c")
		for i := 0; i < n; i++ {
			r.RecordSample(Sample{At: units.Time(i), State: "established", Cwnd: i})
			r.RecordEvent(units.Time(i), EventSWSClamp, int64(i), i, i, int64(i))
		}
	})
	if got > limit {
		records := n * (unsafe.Sizeof(Sample{}) + unsafe.Sizeof(Event{}))
		t.Errorf("recording %d samples and %d events allocated %d bytes, want at most %d (the records are %d)",
			n, n, got, limit, records)
	}
}

// One block of each record type, kept on the heap while it is measured.
var (
	sampleBlock []Sample
	eventBlock  []Event
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFirstEventAndSamplesBetween(t *testing.T) {
	b := NewBundle("t", 1, Options{})
	r := b.Conn("c")
	r.RecordEvent(10, EventSWSClamp, 0, 0, 0, 0)
	r.RecordEvent(20, EventRTO, 5, 2, 1, 0)
	r.RecordEvent(30, EventRTO, 6, 2, 1, 0)
	ev := r.FirstEvent(EventRTO)
	if ev == nil || ev.At != 20 || ev.Seq != 5 {
		t.Fatalf("FirstEvent(EventRTO) = %+v", ev)
	}
	if r.FirstEvent(EventPersistProbe) != nil {
		t.Fatal("FirstEvent for absent kind should be nil")
	}
	for i := 0; i < 10; i++ {
		r.RecordSample(Sample{At: units.Time(i * 10)})
	}
	got := r.SamplesBetween(20, 50)
	if len(got) != 3 || got[0].At != 20 || got[2].At != 40 {
		t.Fatalf("SamplesBetween(20,50) = %+v", got)
	}
}

func TestBundleConnRegistration(t *testing.T) {
	b := NewBundle("t", 1, Options{})
	r1 := b.Conn("a")
	r2 := b.Conn("b")
	if b.Conn("a") != r1 {
		t.Fatal("Conn should return the existing recorder")
	}
	if b.Lookup("b") != r2 || b.Lookup("zzz") != nil {
		t.Fatal("Lookup mismatch")
	}
	if len(b.Conns) != 2 || b.Conns[0] != r1 {
		t.Fatal("registration order not preserved")
	}
}

// TestNilRecorderZeroAlloc is the acceptance guard for "telemetry disabled
// costs nothing": every hot-path hook is a nil-receiver no-op that must not
// allocate.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *ConnRecorder
	s := Sample{At: 1, Cwnd: 2, InFlight: 3, SRTT: 4}
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordSample(s)
		r.RecordEvent(1, EventFastRetransmit, 2, 3, 4, 5)
		_ = r.Samples()
		_ = r.Events()
		_ = r.KindCount(EventRTO)
		_, _ = r.Dropped()
		_ = r.Name()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per run, want 0", allocs)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *ConnRecorder
	if r.FirstEvent(EventRTO) != nil || r.SamplesBetween(0, 100) != nil {
		t.Fatal("nil recorder queries should return nil")
	}
	if st := r.CwndStats(); st.N() != 0 {
		t.Fatal("nil recorder stats should be empty")
	}
}
