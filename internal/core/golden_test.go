package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/telemetry"
)

// Golden determinism: fixed-seed probe runs must export byte-identical
// telemetry bundles across code changes. The digests below were recorded
// before the pooled-kernel work (commit 1caac3b) and pin every simulated
// outcome — event ordering, timer behavior, window dynamics, loss recovery —
// because the bundle includes the engine's executed-event count and
// high-water mark alongside every sample and stack event.
//
// If a change legitimately alters simulated behavior (a model fix, a new
// cost term), regenerate the digests and say so in the commit message. A
// performance-only change must never trip this test.

func goldenProbes() []struct {
	name string
	cfg  ProbeConfig
	want string
} {
	return []struct {
		name string
		cfg  ProbeConfig
		want string
	}{
		{
			name: "stock1500",
			cfg: ProbeConfig{
				Seed: 42, Profile: host.PE2650, Tuning: host.Stock(1500),
				Count: 1500, Payload: 8948,
				Telemetry: telemetry.Options{Enabled: true},
			},
			want: "beb92402b12849cc809126c6260a3d052dda5e7390a0dc8648e62bcf6a66f9a3",
		},
		{
			// TSO exercises the super-segment split and the batch transmit
			// path.
			name: "optimized9000_tso",
			cfg: ProbeConfig{
				Seed: 7, Profile: host.PE2650, Tuning: host.Optimized(9000).WithTSO(),
				Count: 1500, Payload: 65536,
				Telemetry: telemetry.Options{Enabled: true},
			},
			want: "aa4fc8c89b623f44fe77dea4bd5d86f285f883e5359608804b4de7ce1fe70679",
		},
		{
			// Injected loss exercises SACK recovery, RTO rearming, and the
			// netem drop/release points.
			name: "lossy9000",
			cfg: ProbeConfig{
				Seed: 99, Profile: host.PE2650, Tuning: host.Stock(9000),
				Count: 1500, Payload: 8948,
				Data:      netem.Script{{Fault: netem.Fault{DropNth: 400, LossProb: 0.0002}}},
				Telemetry: telemetry.Options{Enabled: true},
			},
			want: "4461bd99c8b74f1f6dca245f006d842256452b78eae7e9543ce243b3a9a3cb2b",
		},
	}
}

// TestTelemetryGoldenDeterminism checks every probe on the timing wheel,
// the one scheduler that ships: the digests predate the wheel and must hold
// unchanged under it. The wheel's pop order is pinned against the heap
// oracle in internal/sim's lockstep tests.
func TestTelemetryGoldenDeterminism(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		for _, g := range goldenProbes() {
			g := g
			t.Run(g.name, func(t *testing.T) {
				res, err := ProbeRun(g.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256(res.Bundle.ExportJSONL()))
				if got != g.want {
					t.Errorf("telemetry bundle digest changed:\n got %s\nwant %s\n"+
						"(simulated behavior diverged from the recorded baseline; "+
						"if intentional, regenerate the golden digests)", got, g.want)
				}
			})
		}
	})
}
