package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"tengig/internal/host"
	"tengig/internal/telemetry"
	"tengig/internal/units"
)

func metricsSweep(t *testing.T, workers int) *SweepResult {
	t.Helper()
	res, err := SweepConfig{
		Seed:     11,
		Profile:  host.PE2650,
		Tuning:   host.Optimized(9000),
		Payloads: []int{1024, 4096, 8948, 16384},
		Count:    400,
		Timeout:  5 * units.Second,
		Workers:  workers,
		Metrics:  true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The fleet accumulator must not see worker scheduling: a parallel sweep's
// exported metrics are byte-identical to a serial run's.
func TestSweepMetricsParallelMatchesSerial(t *testing.T) {
	serial := metricsSweep(t, 1)
	parallel := metricsSweep(t, 8)
	js, err := json.Marshal(serial.Metrics.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	jp, err := json.Marshal(parallel.Metrics.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Errorf("metrics depend on worker count:\nserial:   %s\nparallel: %s", js, jp)
	}
	f := serial.Metrics.Fleet()
	if f == nil || f.Flows != 4 {
		t.Fatalf("fleet = %+v, want 4 flows", f)
	}
	if len(f.Classes) != 1 || f.Classes[0].Class != serial.Label {
		t.Errorf("classes = %+v, want single class %q", f.Classes, serial.Label)
	}
	if f.FCTMin <= 0 || f.FCTMax < f.FCTMin || f.Fairness <= 0 || f.Fairness > 1 {
		t.Errorf("implausible fleet aggregates: %+v", f)
	}
}

// Without Metrics the sweep carries no accumulator, and the nil accumulator
// records for free — the disabled path costs nothing.
func TestSweepMetricsDisabled(t *testing.T) {
	res, err := SweepConfig{
		Seed: 11, Profile: host.PE2650, Tuning: host.Optimized(9000),
		Payloads: []int{1024}, Count: 100, Timeout: units.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("Metrics accumulator allocated without opt-in")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		res.Metrics.RecordFlow(telemetry.FlowRecord{Bytes: 1, FCT: 1, Goodput: 1})
	})
	if allocs != 0 {
		t.Errorf("disabled metrics path allocated %.1f/op, want 0", allocs)
	}
}

// A skipped failing point must stay out of the fleet metrics.
func TestSweepMetricsSkipsFailedPoints(t *testing.T) {
	res, err := SweepConfig{
		Seed: 11, Profile: host.PE2650, Tuning: host.Optimized(9000),
		Payloads: []int{1024, 4096, 8192}, Count: 100, Timeout: units.Second,
		Metrics: true, SkipFailures: true,
		PointHook: func(payload int) {
			if payload == 4096 {
				panic("injected")
			}
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Flows(); got != 2 {
		t.Errorf("flows = %d, want 2 (failed point excluded)", got)
	}
}

func TestSweepProgressHook(t *testing.T) {
	var seen []int
	_, err := SweepConfig{
		Seed: 11, Profile: host.PE2650, Tuning: host.Optimized(9000),
		Payloads: []int{1024, 2048, 4096}, Count: 100, Timeout: units.Second,
		Workers: 2,
		Progress: func(done, total int) {
			seen = append(seen, done)
			if total != 3 {
				t.Errorf("total = %d", total)
			}
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[len(seen)-1] != 3 {
		t.Errorf("progress ticks = %v, want 1..3", seen)
	}
}
