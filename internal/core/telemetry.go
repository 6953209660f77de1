package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// SanitizeName maps a tuning label (or any free-form run name) onto a
// filesystem-safe export stem: [A-Za-z0-9._-] survive, everything else
// becomes '-'.
func SanitizeName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// WriteBundle writes a bundle's machine-readable exports into dir:
// <name>.jsonl (full record) and <name>.csv (instrument series). The
// directory is created if needed.
func WriteBundle(dir string, b *telemetry.Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, SanitizeName(b.Name))
	if err := os.WriteFile(stem+".jsonl", b.ExportJSONL(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(stem+".csv", b.ExportCSV(), 0o644)
}

// ProbeConfig describes one tcpprobe run: a single instrumented transfer
// on the Figure 2(a) testbed, optionally through netem fault scripts.
type ProbeConfig struct {
	Name    string // export stem; derived from the tuning when empty
	Seed    int64
	Profile host.Profile
	Tuning  host.Tuning
	// Count writes of Payload bytes each (NTTCP semantics).
	Count, Payload int
	// Data scripts faults on the sender→receiver direction of the crossover
	// cable, Ack on the reverse; empty scripts leave the cable clean.
	Data, Ack netem.Script
	// Telemetry bounds and cadence; Enabled is implied.
	Telemetry telemetry.Options
	// Timeout bounds the simulated transfer (default 10 simulated minutes).
	Timeout units.Time
}

// ProbeResult is a completed probe run.
type ProbeResult struct {
	Bundle   *telemetry.Bundle
	Transfer tools.ThroughputResult
	// SenderConn names the sender's recorder inside the bundle.
	SenderConn string
}

// ProbeRun executes one instrumented transfer — the engine behind
// cmd/tcpprobe and the telemetry integration tests.
func ProbeRun(cfg ProbeConfig) (*ProbeResult, error) {
	if cfg.Count <= 0 {
		cfg.Count = 3000
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 8948
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * units.Minute
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("probe_%s_p%d", SanitizeName(cfg.Tuning.Label()), cfg.Payload)
	}
	spec := topo.BackToBack(cfg.Profile, cfg.Tuning)
	if len(cfg.Data) > 0 || len(cfg.Ack) > 0 {
		spec.Links[0].Faults = &topo.LinkFaults{AtoB: cfg.Data, BtoA: cfg.Ack}
	}
	eng := sim.NewEngine(cfg.Seed)
	net, err := topo.Compile(eng, spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pair := net.Pairs[0]
	bundle := net.AttachTelemetry(cfg.Name, cfg.Seed, cfg.Telemetry)
	res, err := tools.NTTCP(pair, cfg.Count, cfg.Payload, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	bundle.CaptureEngine(eng.Executed, eng.HighWater)
	return &ProbeResult{
		Bundle:     bundle,
		Transfer:   res,
		SenderConn: pair.Src.Conn.Name(),
	}, nil
}
