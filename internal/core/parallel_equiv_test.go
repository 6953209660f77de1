package core

import (
	"bytes"
	"testing"

	"tengig/internal/host"
	"tengig/internal/telemetry"
	"tengig/internal/units"
)

// TestSerialParallelEquivalence pins the runner's core guarantee now that
// engines recycle events, packets, and segments through free lists: a
// parallel sweep must produce results — and telemetry exports, byte for
// byte — identical to a serial run of the same configuration. Pools are
// engine-scoped and single-goroutine, so worker scheduling must not leak
// into any simulated outcome. Run under -race this also proves the pools
// introduce no cross-simulation sharing. The stock tunings cover Figure
// 3's SMP kernel and default windows, the optimized one Figure 4's.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, tun := range []host.Tuning{host.Stock(1500), host.Stock(9000), host.Optimized(9000)} {
		t.Run(tun.Label(), func(t *testing.T) {
			base := SweepConfig{
				Seed:     11,
				Profile:  host.PE2650,
				Tuning:   tun,
				Payloads: []int{512, 1448, 8192, 8948, 16384},
				Count:    400,
				Timeout:  10 * units.Minute,
				Telemetry: telemetry.Options{
					Enabled:        true,
					SampleInterval: 50 * units.Microsecond,
				},
			}

			serial := base
			serial.Workers = 1
			parallel := base
			parallel.Workers = 4

			sres, err := serial.Run()
			if err != nil {
				t.Fatal(err)
			}
			pres, err := parallel.Run()
			if err != nil {
				t.Fatal(err)
			}

			if len(sres.Points) != len(pres.Points) {
				t.Fatalf("point count: serial %d, parallel %d", len(sres.Points), len(pres.Points))
			}
			for i := range sres.Points {
				sp, pp := sres.Points[i], pres.Points[i]
				if sp.Payload != pp.Payload {
					t.Fatalf("point %d: payload %d vs %d", i, sp.Payload, pp.Payload)
				}
				if sp.ThroughputResult != pp.ThroughputResult {
					t.Errorf("payload %d: results diverge:\nserial   %+v\nparallel %+v",
						sp.Payload, sp.ThroughputResult, pp.ThroughputResult)
				}
				if sp.Telemetry == nil || pp.Telemetry == nil {
					t.Fatalf("payload %d: missing telemetry bundle", sp.Payload)
				}
				se, pe := sp.Telemetry.ExportJSONL(), pp.Telemetry.ExportJSONL()
				if !bytes.Equal(se, pe) {
					t.Errorf("payload %d: telemetry bundles differ (%d vs %d bytes)",
						sp.Payload, len(se), len(pe))
				}
			}
		})
	}
}
