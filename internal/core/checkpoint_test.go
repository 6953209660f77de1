package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tengig/internal/host"
	"tengig/internal/units"
)

// TestCheckpointJournalRoundTrip: entries recorded into a journal come back
// from a resume open, in order, with exact results; a fingerprint mismatch
// or a clobbering fresh open is refused.
func TestCheckpointJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, "fp-1", false)
	if err != nil {
		t.Fatal(err)
	}
	e1 := CheckpointEntry{Sweep: "stock-1500", Payload: 256, WallMS: 1.25}
	e1.Result.Bytes = 12800
	e1.Result.Elapsed = 3 * units.Millisecond
	e1.Result.Throughput = units.Throughput(e1.Result.Bytes, e1.Result.Elapsed)
	e1.Result.SenderLoad = 0.31725
	e2 := CheckpointEntry{Sweep: "stock-1500", Payload: 512}
	for _, e := range []CheckpointEntry{e1, e2} {
		if err := cp.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenCheckpoint(path, "fp-1", true)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("resumed journal has %d entries, want 2", re.Len())
	}
	got, ok := re.Lookup("stock-1500", 256)
	if !ok || !reflect.DeepEqual(got, e1) {
		t.Fatalf("entry mangled by round trip:\n in: %+v\nout: %+v", e1, got)
	}
	if _, ok := re.Lookup("stock-1500", 1024); ok {
		t.Fatal("lookup invented an entry")
	}
	if _, err := OpenCheckpoint(path, "fp-2", true); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("fingerprint mismatch accepted: %v", err)
	}
	if _, err := OpenCheckpoint(path, "fp-1", false); err == nil {
		t.Fatal("fresh open clobbered an existing journal")
	}
	// Resuming a journal that does not exist starts empty (a campaign killed
	// before its first completed point).
	fresh, err := OpenCheckpoint(filepath.Join(t.TempDir(), "none.jsonl"), "fp-1", true)
	if err != nil || fresh.Len() != 0 {
		t.Fatalf("resume of missing journal: len=%d err=%v", fresh.Len(), err)
	}
}

// TestCheckpointFingerprint: distinct identities yield distinct
// fingerprints; equal identities the same one.
func TestCheckpointFingerprint(t *testing.T) {
	type id struct {
		Seed  int64
		Count int
	}
	a1, err := CheckpointFingerprint(id{42, 3000})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := CheckpointFingerprint(id{42, 3000})
	b, _ := CheckpointFingerprint(id{43, 3000})
	if a1 != a2 || a1 == b || len(a1) != 64 {
		t.Fatalf("fingerprints: %q %q %q", a1, a2, b)
	}
}

// TestSweepCheckpointResume is the core-level resume scenario: a sweep is
// interrupted mid-campaign by an event budget that lets small payloads
// finish and starves large ones, then resumed without the budget — and the
// merged result must be deep-equal (modulo wall clocks) to an uninterrupted
// run, with the journaled points restored rather than re-run.
func TestSweepCheckpointResume(t *testing.T) {
	base := SweepConfig{
		Seed:     11,
		Profile:  host.PE2650,
		Tuning:   host.Optimized(1500),
		Payloads: []int{256, 512, 1024, 2048, 4096},
		Count:    200,
		Timeout:  30 * units.Second,
		Workers:  1,
		Metrics:  true,
	}
	uninterrupted, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := base
	interrupted.Checkpoint = cp
	// Budget chosen so the small payloads complete and a later one starves:
	// the sweep aborts with NTTCP's incomplete-transfer error, exactly like
	// an operator kill mid-campaign — except the journal survives.
	interrupted.EventBudget = 5000
	if _, err := interrupted.Run(); err == nil {
		t.Fatal("budget-starved sweep reported success")
	} else if !strings.Contains(err.Error(), "transfer incomplete") {
		t.Fatalf("unexpected interruption error: %v", err)
	}
	if cp.Len() == 0 || cp.Len() >= len(base.Payloads) {
		t.Fatalf("journal has %d of %d points; want a genuine partial", cp.Len(), len(base.Payloads))
	}
	journaled := cp.Len()

	rcp, err := OpenCheckpoint(path, "fp", true)
	if err != nil {
		t.Fatal(err)
	}
	if rcp.Len() != journaled {
		t.Fatalf("resume lost points: %d of %d", rcp.Len(), journaled)
	}
	resumed := base
	resumed.Checkpoint = rcp
	// A run counter proves restored points never re-simulate: only the
	// missing points build testbeds.
	ran := 0
	resumed.PointHook = func(int) { ran++ }
	merged, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(base.Payloads) - journaled; ran != want {
		t.Fatalf("resume re-ran %d points, want %d (journal had %d)", ran, want, journaled)
	}

	// Everything deterministic must match the uninterrupted run exactly.
	for i := range merged.Points {
		merged.Points[i].Wall = uninterrupted.Points[i].Wall
	}
	if !reflect.DeepEqual(merged.Points, uninterrupted.Points) {
		t.Errorf("points diverged:\nuninterrupted: %+v\nresumed:       %+v",
			uninterrupted.Points, merged.Points)
	}
	if !reflect.DeepEqual(merged.Series, uninterrupted.Series) {
		t.Error("series diverged after resume")
	}
	if got, want := merged.Metrics.Fleet(), uninterrupted.Metrics.Fleet(); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet metrics diverged:\nuninterrupted: %+v\nresumed:       %+v", want, got)
	}

	// The journal now holds every point; a second resume restores all of
	// them and still folds identical outputs.
	cp2, err := OpenCheckpoint(path, "fp", true)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != len(base.Payloads) {
		t.Fatalf("journal holds %d of %d points after the resumed run", cp2.Len(), len(base.Payloads))
	}
	again := base
	again.Checkpoint = cp2
	again.PointHook = func(int) { t.Error("fully journaled sweep re-ran a point") }
	full, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Series, uninterrupted.Series) {
		t.Error("fully restored series diverged")
	}
}

// TestSweepCheckpointKeysProfile: two sweeps with the same tuning on
// different host profiles share one journal without restoring each
// other's points.
func TestSweepCheckpointKeysProfile(t *testing.T) {
	cfg := SweepConfig{Seed: 1, Tuning: host.Stock(9000), Payloads: []int{8948}, Count: 200}
	run := func(p host.Profile, cp *Checkpoint) float64 {
		c := cfg
		c.Profile, c.Checkpoint = p, cp
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0].Throughput.Gbps()
	}
	cp, err := OpenCheckpoint(filepath.Join(t.TempDir(), "cp.jsonl"), "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	pe2650 := run(host.PE2650, cp)
	if got, want := run(host.IntelE7505, cp), run(host.IntelE7505, nil); got != want || got == pe2650 {
		t.Errorf("E7505 after a PE2650 sweep in one journal: %.3f Gb/s, want its own %.3f (PE2650 %.3f)",
			got, want, pe2650)
	}
	if cp.Len() != 2 {
		t.Errorf("journal holds %d points, want one per profile", cp.Len())
	}
}

// TestCheckpointRecordSurvivesKill: the on-disk journal after every Record
// is a complete, parseable file — simulated here by reading it back between
// records — so a kill at any instant loses at most the in-flight point.
func TestCheckpointRecordSurvivesKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := cp.Record(CheckpointEntry{Sweep: "s", Payload: i * 128}); err != nil {
			t.Fatal(err)
		}
		re, err := OpenCheckpoint(path, "fp", true)
		if err != nil {
			t.Fatalf("journal unreadable after record %d: %v", i, err)
		}
		if re.Len() != i {
			t.Fatalf("journal holds %d entries after record %d", re.Len(), i)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 4 {
		t.Fatalf("journal has %d lines, want header + 3 entries", n)
	}
}
