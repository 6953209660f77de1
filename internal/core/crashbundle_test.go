package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tengig/internal/units"
)

// crashHook panics on one chosen payload — the deliberate fault the issue's
// acceptance test injects into a sweep point.
func crashHook(bad int) func(int) {
	return func(payload int) {
		if payload == bad {
			panic(fmt.Sprintf("injected fault at payload %d", payload))
		}
	}
}

// TestSweepCrashContainment is the acceptance scenario: a deliberately
// injected panic in one sweep point yields a replayable crash bundle while
// the remaining points still produce results.
func TestSweepCrashContainment(t *testing.T) {
	dir := t.TempDir()
	cfg := SweepConfig{
		Seed:         11,
		Profile:      PE2650,
		Tuning:       Optimized(1500),
		Payloads:     []int{256, 512, 1024},
		Count:        50,
		Timeout:      30 * units.Second,
		Workers:      1,
		SkipFailures: true,
		CrashDir:     dir,
		PointHook:    crashHook(512),
	}
	res, err := cfg.Run()
	if err != nil {
		t.Fatalf("contained sweep aborted: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Points))
	}
	var bundlePath string
	for _, pt := range res.Points {
		if pt.Payload == 512 {
			if pt.Err == nil {
				t.Fatal("crashed point carries no error")
			}
			if !strings.Contains(pt.Err.Error(), "injected fault at payload 512") {
				t.Fatalf("crashed point error lost the panic value: %v", pt.Err)
			}
			if pt.CrashBundle == "" {
				t.Fatal("crashed point has no crash bundle")
			}
			bundlePath = pt.CrashBundle
			continue
		}
		if pt.Err != nil {
			t.Fatalf("healthy point %d failed: %v", pt.Payload, pt.Err)
		}
		if pt.Throughput <= 0 {
			t.Fatalf("healthy point %d produced no result", pt.Payload)
		}
	}
	// The series excludes the failed point but keeps its neighbors.
	if n := len(res.Series.X); n != 2 {
		t.Fatalf("series has %d points, want 2", n)
	}

	// The bundle replays the crash deterministically.
	b, err := ReadCrashBundle(bundlePath)
	if err != nil {
		t.Fatalf("ReadCrashBundle: %v", err)
	}
	if b.Kind != "sweep-point" || b.Payload != 512 || b.Seed != 11 {
		t.Fatalf("bundle misrecorded: %+v", b)
	}
	if !strings.Contains(b.Panic, "injected fault at payload 512") {
		t.Fatalf("bundle panic = %q", b.Panic)
	}
	if b.Stack == "" {
		t.Fatal("bundle carries no stack")
	}
	r1 := b.Replay(crashHook(512))
	if !r1.Reproduced || r1.Panic != b.Panic {
		t.Fatalf("replay did not reproduce: %+v", r1)
	}
	r2 := b.Replay(crashHook(512))
	if r2.Panic != r1.Panic {
		t.Fatalf("replay not deterministic: %q vs %q", r2.Panic, r1.Panic)
	}
	// Without the fault re-armed the recorded run executes cleanly — the
	// crash came from the injected hook, not the simulation.
	if rc := b.Replay(nil); rc.Reproduced || rc.Panic != "" || rc.Err != nil {
		t.Fatalf("clean replay not clean: %+v", rc)
	}
}

// TestSweepCrashContainmentParallel: with several workers, one poisoned
// worker state never contaminates its successors (the runner rebuilds the
// worker's engine after a panic).
func TestSweepCrashContainmentParallel(t *testing.T) {
	cfg := SweepConfig{
		Seed:         11,
		Profile:      PE2650,
		Tuning:       Optimized(1500),
		Payloads:     []int{128, 256, 512, 1024, 2048, 4096},
		Count:        50,
		Timeout:      30 * units.Second,
		Workers:      2,
		SkipFailures: true,
		PointHook:    crashHook(512),
	}
	res, err := cfg.Run()
	if err != nil {
		t.Fatalf("contained sweep aborted: %v", err)
	}
	clean := SweepConfig{Seed: 11, Profile: PE2650, Tuning: Optimized(1500),
		Payloads: cfg.Payloads, Count: 50, Timeout: 30 * units.Second, Workers: 1}
	ref, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		if pt.Payload == 512 {
			if pt.Err == nil {
				t.Fatal("crashed point carries no error")
			}
			continue
		}
		if pt.Err != nil {
			t.Fatalf("point %d failed: %v", pt.Payload, pt.Err)
		}
		if pt.Throughput != ref.Points[i].Throughput {
			t.Fatalf("point %d diverged after a sibling crash: %v vs %v",
				pt.Payload, pt.Throughput, ref.Points[i].Throughput)
		}
	}
}

// TestCampaignCrashBundleReplay: chaos-campaign bundles replay through
// RunCampaign and surface structured errors.
func TestCampaignCrashBundleReplay(t *testing.T) {
	spec := ChaosConfig{Seed: 4, Campaigns: 1}.Specs()[0]
	b := &CrashBundle{Kind: "chaos-campaign", Seed: spec.Seed, Campaign: &spec}
	if r := b.Replay(nil); r.Err != nil || r.Panic != "" {
		t.Fatalf("healthy campaign replay failed: %+v", r)
	}
	if r := (&CrashBundle{Kind: "chaos-campaign"}).Replay(nil); r.Err == nil {
		t.Fatal("campaign bundle without spec replayed without error")
	}
	if r := (&CrashBundle{Kind: "nonsense"}).Replay(nil); r.Err == nil {
		t.Fatal("unknown bundle kind replayed without error")
	}
}

// TestSweepPointReplayPerScheduler: bundles written while the event
// scheduler was selectable carry a "scheduler" key, "wheel" or "heap".
// Either must still read as the same bundle and replay identically to it on
// the wheel — reproducing the injected panic with the hook re-armed and
// running clean without it — since the scheduler never changed a simulated
// outcome.
func TestSweepPointReplayPerScheduler(t *testing.T) {
	tun := Optimized(9000)
	in := &CrashBundle{
		Kind: "sweep-point", Seed: 7, Profile: PE2650, Tuning: &tun,
		Payload: 512, Count: 50, Timeout: 30 * units.Second,
		Panic: "injected fault at payload 512",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "scheduler") {
		t.Fatalf("bundle still writes a scheduler: %s", data)
	}
	wantHooked, wantClean := in.Replay(crashHook(512)), in.Replay(nil)
	if !wantHooked.Reproduced || wantClean.Panic != "" || wantClean.Err != nil {
		t.Fatalf("bundle replay: hooked %+v, clean %+v", wantHooked, wantClean)
	}
	for _, sched := range []string{"wheel", "heap"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			legacy := append([]byte(`{"scheduler":"`+sched+`",`), data[1:]...)
			path := filepath.Join(t.TempDir(), "sched_"+sched+".json")
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := ReadCrashBundle(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, in) {
				t.Fatalf("legacy bundle read as %+v, want %+v", b, in)
			}
			if r := b.Replay(crashHook(512)); !reflect.DeepEqual(r, wantHooked) {
				t.Fatalf("hooked replay %+v, want %+v", r, wantHooked)
			}
			if r := b.Replay(nil); !reflect.DeepEqual(r, wantClean) {
				t.Fatalf("clean replay %+v, want %+v", r, wantClean)
			}
		})
	}
}

// TestCampaignBundleFaultScriptedReplay: a campaign bundle whose spec
// carries fault scripts must survive the disk round trip and replay the
// fault-scripted run to the same outcome as driving the spec directly —
// throughput, netem counters, budget flags, everything.
func TestCampaignBundleFaultScriptedReplay(t *testing.T) {
	spec := ChaosConfig{Seed: 21, Campaigns: 1}.Specs()[0]
	if len(spec.Data) == 0 && len(spec.Ack) == 0 {
		t.Fatal("generated campaign carries no fault scripts")
	}
	direct := RunCampaign(spec)
	if direct.Err != nil {
		t.Fatalf("direct campaign run failed: %v", direct.Err)
	}
	in := &CrashBundle{Kind: "chaos-campaign", Seed: spec.Seed, Campaign: &spec}
	path, err := WriteCrashBundle(t.TempDir(), "faulted_campaign", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCrashBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Replay(nil); r.Err != nil || r.Panic != "" {
		t.Fatalf("fault-scripted replay failed: %+v", r)
	}
	replayed := RunCampaign(*b.Campaign)
	if !reflect.DeepEqual(replayed, direct) {
		t.Fatalf("round-tripped campaign diverged:\ndirect:   %+v\nreplayed: %+v", direct, replayed)
	}
}

// TestCrashBundleRoundTrip pins the on-disk schema survives a write/read
// cycle, including the embedded campaign spec.
func TestCrashBundleRoundTrip(t *testing.T) {
	spec := ChaosConfig{Seed: 8, Campaigns: 1}.Specs()[0]
	tun := Optimized(9000)
	in := &CrashBundle{
		Kind: "chaos-campaign", Seed: spec.Seed, Profile: PE2650,
		Tuning: &tun, Campaign: &spec,
		Panic: "boom", Stack: "stack",
	}
	path, err := WriteCrashBundle(t.TempDir(), "crash test/odd name", in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadCrashBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Seed != in.Seed || out.Panic != in.Panic ||
		out.Tuning == nil || *out.Tuning != tun ||
		out.Campaign == nil || out.Campaign.Seed != spec.Seed ||
		len(out.Campaign.Data) != len(spec.Data) {
		t.Fatalf("round trip mangled the bundle:\n in: %+v\nout: %+v", in, out)
	}
}
