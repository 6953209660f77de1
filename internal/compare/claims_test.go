package compare_test

import (
	"testing"

	"tengig/internal/compare"
	"tengig/internal/paper"
	"tengig/internal/units"
)

// The paper's §3.5.3 comparisons are rows of internal/paper's claims
// table; each reads the 10GbE throughput (compare.bw) or latency
// (compare.lat) against one of Published's rows. These tests evaluate them
// at chosen 10GbE numbers.

// comparisons evaluates every §3.5.3 row that compares the 10GbE result
// with a Published row, with the 10GbE result at bw and lat.
func comparisons(t *testing.T, bw units.Bandwidth, lat units.Time) []paper.Verdict {
	t.Helper()
	m := paper.Measured{"compare.bw": bw.Gbps(), "compare.lat": lat.Micros()}
	for _, r := range compare.Published() {
		m["compare."+r.Key()+".bw"] = r.Throughput.Gbps()
		m["compare."+r.Key()+".lat"] = r.Latency.Micros()
	}
	var out []paper.Verdict
	for _, v := range paper.Evaluate(m) {
		if v.Exp() != "compare" || v.Of.B == "" {
			continue
		}
		if !v.Measured {
			t.Fatalf("%s reads %v, which Published does not give", v.ID, v.Of.Inputs())
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatal("no §3.5.3 comparison rows")
	}
	return out
}

// quoted returns the paper's value for claim id.
func quoted(t *testing.T, id string) float64 {
	t.Helper()
	for _, c := range paper.Claims {
		if c.ID == id {
			return c.Paper.Lo
		}
	}
	t.Fatalf("no claim %s", id)
	return 0
}

func TestPaperClaimsHoldAtPaperNumbers(t *testing.T) {
	// The paper's own 10GbE peak (Figure 5, MTU 8160) and latency
	// (Figure 6, 1 B back-to-back): 4.11 Gb/s and 19 µs.
	bw := units.FromGbps(quoted(t, "fig5.peak-8160"))
	lat := units.Time(quoted(t, "fig6.b2b-1B") * float64(units.Microsecond))
	for _, v := range comparisons(t, bw, lat) {
		if !v.OK() {
			t.Errorf("claim failed at paper numbers (%v, %v): %s %s = %.3f, band %s",
				bw, lat, v.ID, v.What, v.Value, v.Band.Format(v.Unit))
		}
	}
}

func TestClaimsFailAtGbENumbers(t *testing.T) {
	// Sanity: a GbE-class result should not satisfy the throughput claims.
	var gbe compare.Interconnect
	for _, r := range compare.Published() {
		if r.Name == "GbE" {
			gbe = r
		}
	}
	throughput := 0
	for _, v := range comparisons(t, gbe.Throughput, gbe.Latency) {
		if v.Of.A != "compare.bw" {
			continue
		}
		throughput++
		if v.OK() {
			t.Errorf("%s holds for a %v result: %.3f, band %s", v.ID, gbe.Throughput, v.Value, v.Band.Format(v.Unit))
		}
	}
	if throughput == 0 {
		t.Error("no §3.5.3 throughput claims")
	}
}
