package core

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/units"
)

// fuzzHeal is the all-clear point every fuzzed schedule converges to, so
// even a hostile fault sequence leaves the transfer a clean tail to finish
// in.
const fuzzHeal = 20 * units.Millisecond

// byteReader doles out fuzz bytes, repeating 0 when exhausted.
type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

// frac maps one byte onto [0,1].
func (r *byteReader) frac() float64 { return float64(r.next()) / 255 }

// scheduleFromBytes decodes arbitrary fuzz input into a fault schedule that
// is structurally valid by construction (Validate re-checks that claim in
// the fuzz target) but otherwise unconstrained: any fault class, any
// ordering, overlapping windows, fault probabilities up to certainty.
func scheduleFromBytes(data []byte) netem.Script {
	rd := &byteReader{data: data}
	var s netem.Script
	windows := int(rd.next()) % 5
	for w := 0; w < windows; w++ {
		at := units.Millisecond +
			units.Time(rd.frac()*float64(fuzzHeal-3*units.Millisecond))
		var f netem.Fault
		switch rd.next() % 7 {
		case 0:
			f.LossProb = rd.frac()
		case 1:
			f.GE = netem.GEConfig{Enabled: true,
				PGoodBad: rd.frac(), PBadGood: rd.frac(),
				LossGood: rd.frac(), LossBad: rd.frac()}
		case 2:
			f.CorruptProb = rd.frac()
		case 3:
			f.DupProb = rd.frac()
		case 4:
			f.ReorderProb = rd.frac()
			f.ReorderDelay = units.Time(rd.frac() * float64(500*units.Microsecond))
		case 5:
			f.ExtraDelay = units.Time(rd.frac() * float64(200*units.Microsecond))
		case 6:
			f.LinkDown = true
			up := at + units.Time(rd.frac()*float64(3*units.Millisecond))
			if up >= fuzzHeal {
				up = fuzzHeal - units.Millisecond
			}
			s = append(s, netem.Step{At: up})
		}
		s = append(s, netem.Step{At: at, Fault: f})
	}
	s = append(s, netem.Step{At: fuzzHeal})
	return s
}

// FuzzFaultSchedule throws arbitrary fault schedules at a short audited
// transfer: whatever the schedule, the simulation must reach a structured
// outcome (completion, timeout, or budget stop — never a hang or panic)
// with zero invariant violations.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 128})                            // one loss window
	f.Add([]byte{2, 10, 1, 200, 50, 100, 255, 60, 6})   // GE burst + flap
	f.Add([]byte{4, 3, 255, 9, 4, 200, 80, 2, 128, 90}) // dup + reorder + corrupt
	f.Add([]byte{3, 0, 255, 40, 6, 255, 80, 6, 0})      // certain loss + double flap
	f.Fuzz(func(t *testing.T, data []byte) {
		script := scheduleFromBytes(data)
		if err := script.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid schedule: %v", err)
		}
		h := fnv.New64a()
		h.Write(data)
		spec := CampaignSpec{
			Seed:        int64(h.Sum64() % (1 << 62)),
			Profile:     host.PE2650,
			Tuning:      host.Optimized(1500),
			Count:       30,
			Payload:     512,
			Timeout:     30 * units.Second,
			EventBudget: 2_000_000,
			Data:        script,
		}
		cr := RunCampaign(spec)
		for _, v := range cr.Violations {
			t.Errorf("invariant violation under fuzzed schedule: %s", v)
		}
		if cr.Err != nil && !cr.BudgetHit && !cr.Completed {
			// A timeout is a legal structured outcome; anything else the
			// harness produced as an error is suspicious enough to log for
			// the crash corpus.
			t.Logf("structured failure: %v", cr.Err)
		}
	})
}

// FuzzOpenCheckpoint resumes arbitrary journal bytes: OpenCheckpoint must
// return a journal or an error, never panic, and a journal it returns must
// take the next Record.
func FuzzOpenCheckpoint(f *testing.F) {
	const fingerprint = "fuzz"
	header := `{"version":1,"fingerprint":"fuzz"}` + "\n"
	f.Add([]byte(header + `{"sweep":"9000MTU,UP,4096PCI,256kbuf","payload":512,"result":{"Bytes":1536000,"Elapsed":3000000000,"Throughput":4096000000},"wall_ms":1.5}` + "\n"))
	f.Add([]byte(header + `{"sweep":"a","payload":1}` + "\n" + `{"sweep":"a","payload":1}` + "\n"))
	f.Add([]byte(header + "{"))
	f.Add([]byte(`{"version":2,"fingerprint":"fuzz"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := OpenCheckpoint(path, fingerprint, true)
		if err != nil {
			return
		}
		if err := cp.Record(CheckpointEntry{Sweep: "fuzz", Payload: 1}); err != nil {
			t.Fatalf("Record after a successful resume: %v", err)
		}
	})
}

// FuzzCrashBundle reads arbitrary bundle bytes and replays what it reads:
// ReadCrashBundle must return a bundle or an error, and Replay must report
// an outcome, never panic. Bundles that record a large simulation are
// skipped so every input replays in milliseconds.
func FuzzCrashBundle(f *testing.F) {
	tun := host.Optimized(1500)
	for _, b := range []*CrashBundle{
		{Kind: "sweep-point", Seed: 7, Profile: host.PE2650, Tuning: &tun, Payload: 512, Count: 20, Panic: "boom"},
		{Kind: "chaos-campaign", Seed: 3, Campaign: &CampaignSpec{Seed: 3, Profile: host.PE2650, Tuning: tun,
			Count: 20, Payload: 512, Timeout: units.Second, EventBudget: 100_000,
			Data: netem.Script{{At: units.Millisecond, Fault: netem.Fault{LossProb: 0.5}}, {At: 2 * units.Millisecond}}}},
		{Kind: "sweep-point", Seed: 1},
		{Kind: "no-such-kind"},
	} {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"sweep-point","tuning":{"MTU":-1},"count":1,"payload":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "bundle.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := ReadCrashBundle(path)
		if err != nil {
			return
		}
		if !smallReplay(b) {
			t.Skip("bundle records a large simulation")
		}
		b.Replay(nil)
	})
}

// smallReplay reports whether replaying b simulates at most a short
// transfer: 64 KB of payload in frames of at most 16 KB, and for a chaos
// campaign a bounded event budget.
func smallReplay(b *CrashBundle) bool {
	small := func(t host.Tuning, count, payload int) bool {
		return count >= 0 && payload >= 0 && int64(count)*int64(payload) <= 64<<10 && t.MTU <= 16384
	}
	switch b.Kind {
	case "sweep-point":
		return b.Tuning == nil || small(*b.Tuning, b.Count, b.Payload)
	case "chaos-campaign":
		c := b.Campaign
		return c == nil || small(c.Tuning, c.Count, c.Payload) && c.EventBudget > 0 && c.EventBudget <= 2_000_000
	}
	return true
}
