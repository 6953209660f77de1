package core

import (
	"strings"
	"testing"

	"tengig/internal/audit"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// TestChaosSoak is the robustness bar from the issue: at least 200
// randomized fault campaigns — bursty loss, corruption, duplication,
// reordering, delay, carrier flaps, in scripted combinations — every one
// completing with zero invariant violations and byte-exact stream
// integrity on the surviving connection.
func TestChaosSoak(t *testing.T) {
	const campaigns = 200
	rep, err := RunChaos(ChaosConfig{Seed: 1, Campaigns: campaigns, Workers: -1})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if rep.Campaigns != campaigns {
		t.Fatalf("ran %d campaigns, want %d", rep.Campaigns, campaigns)
	}
	for _, f := range rep.Failures {
		t.Errorf("failure: %s", f)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !rep.Ok() {
		t.Fatal("chaos soak did not meet the robustness bar")
	}
	if rep.Completed != campaigns {
		t.Errorf("completed %d/%d campaigns (budget stops: %d)",
			rep.Completed, campaigns, rep.BudgetHits)
	}
}

// TestChaosSpecsDeterministicAndVaried pins that campaign generation is a
// pure function of the seed and that the generator actually exercises every
// fault class across a soak (a generator collapse would quietly gut the
// soak's coverage).
func TestChaosSpecsDeterministicAndVaried(t *testing.T) {
	cfg := ChaosConfig{Seed: 99, Campaigns: 200}
	a, b := cfg.Specs(), cfg.Specs()
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("spec counts %d, %d", len(a), len(b))
	}
	var loss, ge, corrupt, dup, reorder, delay, flap, acked int
	for i := range a {
		if a[i].Seed != b[i].Seed || len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("campaign %d not deterministic across generations", i)
		}
		if err := a[i].Data.Validate(); err != nil {
			t.Fatalf("campaign %d data script invalid: %v", i, err)
		}
		if err := a[i].Ack.Validate(); err != nil {
			t.Fatalf("campaign %d ack script invalid: %v", i, err)
		}
		if len(a[i].Ack) > 0 {
			acked++
		}
		last := a[i].Data[len(a[i].Data)-1]
		if last.Fault != (netem.Fault{}) {
			t.Fatalf("campaign %d does not end with an all-clear heal step", i)
		}
		for _, st := range a[i].Data {
			f := st.Fault
			switch {
			case f.LinkDown:
				flap++
			case f.GE.Enabled:
				ge++
			case f.CorruptProb > 0:
				corrupt++
			case f.DupProb > 0:
				dup++
			case f.ReorderProb > 0:
				reorder++
			case f.LossProb > 0:
				loss++
			case f.ExtraDelay > 0:
				delay++
			}
		}
	}
	for name, n := range map[string]int{"loss": loss, "gilbert-elliott": ge,
		"corruption": corrupt, "duplication": dup, "reorder": reorder,
		"delay": delay, "flap": flap, "ack-loss": acked} {
		if n == 0 {
			t.Errorf("generator never produced a %s fault in 200 campaigns", name)
		}
	}
}

// TestCampaignReplayDeterminism: re-running the same spec reproduces the
// identical outcome bit for bit — the property crash-bundle replay rests on.
func TestCampaignReplayDeterminism(t *testing.T) {
	specs := ChaosConfig{Seed: 5, Campaigns: 8}.Specs()
	for _, spec := range specs[:4] {
		r1 := RunCampaign(spec)
		r2 := RunCampaign(spec)
		if r1.Err != nil || r2.Err != nil {
			t.Fatalf("campaign %d errored: %v / %v", spec.ID, r1.Err, r2.Err)
		}
		if r1.Result != r2.Result {
			t.Errorf("campaign %d results differ: %+v vs %+v", spec.ID, r1.Result, r2.Result)
		}
		if r1.NetemStats != r2.NetemStats {
			t.Errorf("campaign %d netem stats differ: %+v vs %+v",
				spec.ID, r1.NetemStats, r2.NetemStats)
		}
		if r1.Completed != r2.Completed {
			t.Errorf("campaign %d completion differs", spec.ID)
		}
	}
}

// TestAuditorDetectsFailures proves the auditor is not a rubber stamp: a
// deliberately leaked packet and a falsely-reported completion each produce
// the expected violation.
func TestAuditorDetectsFailures(t *testing.T) {
	eng := sim.NewEngine(3)
	spec := topo.BackToBack(host.PE2650, host.Optimized(1500))
	heal := netem.Script{{}} // a pass-through stage on each direction
	spec.Links[0].Faults = &topo.LinkFaults{AtoB: heal, BtoA: heal}
	net, err := topo.Compile(eng, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair := net.Pairs[0]
	impairs, _ := net.Impairs()
	aud := audit.New(eng)
	aud.WatchHost("send", pair.SrcHost)
	aud.WatchHost("recv", pair.DstHost)
	aud.WatchConn(pair.Src.Conn)
	aud.WatchConn(pair.Dst.Conn)
	aud.WatchStream("data", pair.Src.Conn, pair.Dst.Conn)
	for _, im := range impairs {
		aud.WatchNetem(im)
	}
	if _, err := tools.NTTCP(pair, 50, 1024, 30*units.Second); err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
	}
	pair.SrcHost.PacketPool().Get() // the deliberate leak
	vs := aud.Finish(true)
	if len(vs) != 1 || vs[0].Rule != "pool-leak" ||
		!strings.Contains(vs[0].Detail, "1 packets drawn but never released") {
		t.Fatalf("leak not detected; violations = %v", vs)
	}

	// A drained queue with the workload reported unfinished is a stall.
	eng2 := sim.NewEngine(3)
	aud2 := audit.New(eng2)
	vs2 := aud2.Finish(false)
	if len(vs2) != 1 || vs2[0].Rule != "liveness" {
		t.Fatalf("stall not detected; violations = %v", vs2)
	}

	// ...unless the event budget stopped the run — that is the runner's
	// structured failure, not an invariant violation.
	eng3 := sim.NewEngine(3)
	eng3.LimitEvents(1)
	eng3.After(units.Microsecond, func() {})
	eng3.After(2*units.Microsecond, func() {})
	for eng3.Step() {
	}
	if !eng3.EventBudgetExceeded() {
		t.Fatal("budget not hit")
	}
	if vs3 := audit.New(eng3).Finish(false); len(vs3) != 0 {
		t.Fatalf("budget stop misreported as violation: %v", vs3)
	}
}

// TestCampaignEventBudget: a campaign whose budget is far too small stops
// structurally (BudgetHit, not Completed) instead of spinning or hanging.
func TestCampaignEventBudget(t *testing.T) {
	spec := ChaosConfig{Seed: 2, Campaigns: 1}.Specs()[0]
	spec.EventBudget = 500
	cr := RunCampaign(spec)
	if !cr.BudgetHit {
		t.Fatal("tiny event budget did not trip")
	}
	if cr.Completed {
		t.Fatal("budget-stopped campaign reported completed")
	}
	for _, v := range cr.Violations {
		t.Errorf("budget stop produced violation: %s", v)
	}
}
