package core

import (
	"fmt"
	"math/rand"

	"tengig/internal/audit"
	"tengig/internal/netem"
	"tengig/internal/runner"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// CampaignSpec is one randomized fault campaign: a short impaired transfer
// whose fault scripts are generated from (and fully replayable by) its
// fields. The whole struct is JSON-serializable so a failing campaign rides
// inside a crash bundle verbatim.
type CampaignSpec struct {
	ID      int        `json:"id"`
	Seed    int64      `json:"seed"`
	Profile Profile    `json:"profile"`
	Tuning  Tuning     `json:"tuning"`
	Count   int        `json:"count"`
	Payload int        `json:"payload"`
	Timeout units.Time `json:"timeout"`
	// EventBudget caps events per campaign: a fault config that sends the
	// simulation into a non-converging loop becomes a structured budget
	// stop, never a hang. 0 = unlimited.
	EventBudget uint64 `json:"event_budget"`
	// Data scripts the sender→receiver link; Ack the reverse path.
	Data netem.Script `json:"data"`
	Ack  netem.Script `json:"ack"`
}

// CampaignResult is one campaign's outcome.
type CampaignResult struct {
	Spec       CampaignSpec
	Result     tools.ThroughputResult
	Completed  bool // the transfer finished and the queue drained
	BudgetHit  bool // stopped by the event budget
	Err        error
	Violations []audit.Violation
	NetemStats struct {
		Dropped, Corrupted, Duplicated, FlapDropped int64
	}
}

// ChaosConfig drives a soak of randomized fault campaigns.
type ChaosConfig struct {
	Seed      int64
	Campaigns int
	Workers   int
	// Retries per failing campaign (deterministic sims normally fail
	// deterministically; retries exist to exercise the containment path).
	Retries int
}

// ChaosReport aggregates a soak run.
type ChaosReport struct {
	Campaigns  int
	Completed  int
	BudgetHits int
	Failures   []string          // structured run errors (panics, build failures)
	Violations []audit.Violation // every invariant violation, campaign-tagged in Where
}

// Ok reports whether the soak met the robustness bar: every campaign ran to
// a structured outcome with zero invariant violations.
func (r *ChaosReport) Ok() bool {
	return len(r.Violations) == 0 && len(r.Failures) == 0
}

// Specs deterministically generates the soak's campaigns from the seed.
func (c ChaosConfig) Specs() []CampaignSpec {
	n := c.Campaigns
	if n <= 0 {
		n = 200
	}
	rng := rand.New(rand.NewSource(c.Seed))
	specs := make([]CampaignSpec, n)
	for i := range specs {
		specs[i] = randomCampaign(rng, i, c.Seed)
	}
	return specs
}

// randomCampaign rolls one campaign: a small transfer under one to three
// timed fault windows (bursty loss, corruption, duplication, reordering,
// delay, or a carrier flap) that always end with an all-clear heal step, so
// a surviving connection can finish and be audited to byte exactness.
func randomCampaign(rng *rand.Rand, id int, soakSeed int64) CampaignSpec {
	tunings := []Tuning{Stock(1500), Optimized(1500), Optimized(9000)}
	heal := 20*units.Millisecond + units.Time(rng.Int63n(int64(40*units.Millisecond)))

	var data netem.Script
	windows := 1 + rng.Intn(3)
	for w := 0; w < windows; w++ {
		at := units.Millisecond + units.Time(rng.Int63n(int64(heal-3*units.Millisecond)))
		var f netem.Fault
		switch rng.Intn(7) {
		case 0: // independent loss
			f.LossProb = 0.005 + 0.025*rng.Float64()
		case 1: // Gilbert-Elliott burst
			f.GE = netem.GEConfig{
				Enabled:  true,
				PGoodBad: 0.01 + 0.04*rng.Float64(),
				PBadGood: 0.2 + 0.3*rng.Float64(),
				LossGood: 0.002 * rng.Float64(),
				LossBad:  0.3 + 0.5*rng.Float64(),
			}
		case 2: // corruption (checksum drops at the receiver)
			f.CorruptProb = 0.005 + 0.015*rng.Float64()
		case 3: // duplication
			f.DupProb = 0.01 + 0.04*rng.Float64()
		case 4: // reordering
			f.ReorderProb = 0.05 + 0.15*rng.Float64()
			f.ReorderDelay = 20*units.Microsecond + units.Time(rng.Int63n(int64(180*units.Microsecond)))
		case 5: // extra delay
			f.ExtraDelay = 10*units.Microsecond + units.Time(rng.Int63n(int64(90*units.Microsecond)))
		case 6: // carrier flap: down now, back up 1–3 ms later
			f.LinkDown = true
			up := at + units.Millisecond + units.Time(rng.Int63n(int64(2*units.Millisecond)))
			if up >= heal {
				up = heal - units.Millisecond
			}
			data = append(data, netem.Step{At: up})
		}
		data = append(data, netem.Step{At: at, Fault: f})
	}
	data = append(data, netem.Step{At: heal}) // heal: all faults off

	var ack netem.Script
	if rng.Float64() < 0.5 {
		at := units.Millisecond + units.Time(rng.Int63n(int64(heal-3*units.Millisecond)))
		ack = append(ack,
			netem.Step{At: at, Fault: netem.Fault{LossProb: 0.002 + 0.008*rng.Float64()}},
			netem.Step{At: heal})
	}

	return CampaignSpec{
		ID:          id,
		Seed:        soakSeed*1_000_003 + int64(id),
		Profile:     PE2650,
		Tuning:      tunings[rng.Intn(len(tunings))],
		Count:       150 + rng.Intn(150),
		Payload:     1024 + rng.Intn(3072),
		Timeout:     30 * units.Second,
		EventBudget: 2_000_000,
		Data:        data,
		Ack:         ack,
	}
}

// RunCampaign executes one campaign on a fresh engine.
func RunCampaign(spec CampaignSpec) CampaignResult {
	return RunCampaignOn(sim.NewEngine(spec.Seed), spec)
}

// RunCampaignOn executes one campaign on a caller-provided engine (reset to
// the campaign seed), with the full invariant auditor attached: pool leak
// accounting, TCP sanity sampling, end-to-end stream integrity, and the
// liveness watchdog.
func RunCampaignOn(eng *sim.Engine, spec CampaignSpec) CampaignResult {
	res := CampaignResult{Spec: spec}
	eng.Reset(spec.Seed)
	if spec.EventBudget > 0 {
		eng.LimitEvents(spec.EventBudget)
	}
	pair, toB, toA, err := BackToBackImpairedOn(eng, spec.Seed, spec.Profile, spec.Tuning, Impairments{})
	if err != nil {
		res.Err = fmt.Errorf("campaign %d: build: %w", spec.ID, err)
		return res
	}
	// Scripts arm after the pair is connected; steps are generated at >= 1 ms
	// so the (microsecond-scale) handshake always precedes the first fault.
	spec.Data.Apply(eng, toB)
	spec.Ack.Apply(eng, toA)

	aud := audit.New(eng)
	aud.WatchHost("send", pair.SrcHost)
	aud.WatchHost("recv", pair.DstHost)
	aud.WatchConn(pair.Src.Conn)
	aud.WatchConn(pair.Dst.Conn)
	aud.WatchStream("data", pair.Src.Conn, pair.Dst.Conn)
	aud.WatchNetem(toB)
	aud.WatchNetem(toA)
	aud.Start(units.Millisecond)

	r, terr := tools.NTTCP(pair, spec.Count, spec.Payload, spec.Timeout)
	res.Result = r
	res.Err = terr
	if terr != nil {
		res.Err = fmt.Errorf("campaign %d: %w", spec.ID, terr)
	}

	// Drain the run's tail (close handshake, last acks, script/heal steps)
	// so pool balances are provable, with the auditor's sampler stopped so
	// its own timer cannot hold the queue open. The event budget still
	// bounds the drain.
	aud.Stop()
	if terr == nil {
		for eng.Step() {
		}
	}
	res.BudgetHit = eng.EventBudgetExceeded()
	res.Completed = terr == nil && !res.BudgetHit
	res.Violations = aud.Finish(res.Completed)
	res.NetemStats.Dropped = toB.Dropped() + toA.Dropped()
	res.NetemStats.Corrupted = toB.Corrupted() + toA.Corrupted()
	res.NetemStats.Duplicated = toB.Duplicated() + toA.Duplicated()
	res.NetemStats.FlapDropped = toB.FlapDropped() + toA.FlapDropped()
	return res
}

// RunChaos fans the soak's campaigns across the worker pool (engines reused
// per worker) and aggregates every structured failure and invariant
// violation. The error is non-nil only for harness-level problems; campaign
// failures are contained in the report.
func RunChaos(c ChaosConfig) (*ChaosReport, error) {
	specs := c.Specs()
	results, _, errs := runner.Map(specs, runner.Options[*sim.Engine]{
		Workers:  NormalizeWorkers(c.Workers),
		NewState: newWorkerEngine,
		Retry:    runner.Retry{Max: c.Retries},
	}, func(eng *sim.Engine, _ int, spec CampaignSpec) (CampaignResult, error) {
		return RunCampaignOn(eng, spec), nil
	})
	rep := &ChaosReport{Campaigns: len(specs)}
	for i, cr := range results {
		if errs[i] != nil {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("campaign %d: %v", specs[i].ID, errs[i]))
			continue
		}
		if cr.Completed {
			rep.Completed++
		}
		if cr.BudgetHit {
			rep.BudgetHits++
		}
		if cr.Err != nil {
			rep.Failures = append(rep.Failures, cr.Err.Error())
		}
		for _, v := range cr.Violations {
			v.Where = fmt.Sprintf("campaign %d/%s", cr.Spec.ID, v.Where)
			rep.Violations = append(rep.Violations, v)
		}
	}
	return rep, nil
}
