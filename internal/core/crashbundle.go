package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// CrashBundle is the replayable record of one contained crash: everything
// needed to rebuild the failing simulation deterministically — seed and full
// config — plus the panic it produced. The runner writes one JSON file per
// crashed point; `sweep -replay file.json` re-executes it. Bundles written
// before the timing wheel became the only scheduler carry a "scheduler" key;
// reading ignores it, since the scheduler cannot change a simulated outcome.
type CrashBundle struct {
	Kind      string     `json:"kind"` // "sweep-point" or "chaos-campaign"
	Seed      int64      `json:"seed"`
	Profile   Profile    `json:"profile,omitempty"`
	Tuning    *Tuning    `json:"tuning,omitempty"`
	Payload   int        `json:"payload,omitempty"`
	Count     int        `json:"count,omitempty"`
	ViaSwitch bool       `json:"via_switch,omitempty"`
	Timeout   units.Time `json:"timeout,omitempty"`
	// Campaign carries the full spec for chaos-campaign bundles.
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	// Panic is the fmt.Sprint of the panic value; Stack the goroutine stack
	// at the recover point. Replay compares panic values only — stacks embed
	// unstable addresses.
	Panic string `json:"panic"`
	Stack string `json:"stack,omitempty"`
}

// WriteCrashBundle writes b as indented JSON under dir (created if needed)
// and returns the file path.
func WriteCrashBundle(dir, name string, b *CrashBundle) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, SanitizeName(name)+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadCrashBundle loads a bundle written by WriteCrashBundle.
func ReadCrashBundle(path string) (*CrashBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b CrashBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("crash bundle %s: %w", path, err)
	}
	return &b, nil
}

// ReplayResult reports what a bundle replay reproduced.
type ReplayResult struct {
	Panic      string // fmt.Sprint of the reproduced panic ("" if none)
	Reproduced bool   // the replay panicked with the recorded value
	Err        error  // a structured (non-panic) failure from the replay
}

// Replay re-executes the failing run the bundle records, on a fresh engine
// with the recorded seed, and reports whether the recorded
// panic reproduces. hook, when non-nil, is invoked with the payload before
// the run exactly as SweepConfig.PointHook would be — the port through which
// deliberate test crashes are re-armed on replay.
func (b *CrashBundle) Replay(hook func(payload int)) ReplayResult {
	var res ReplayResult
	run := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				res.Panic = fmt.Sprint(p)
				res.Reproduced = res.Panic == b.Panic
			}
		}()
		switch b.Kind {
		case "chaos-campaign":
			if b.Campaign == nil {
				return fmt.Errorf("chaos-campaign bundle without campaign spec")
			}
			cr := RunCampaign(*b.Campaign)
			return cr.Err
		case "sweep-point":
			eng := sim.NewEngine(b.Seed)
			if hook != nil {
				hook(b.Payload)
			}
			var t Tuning
			if b.Tuning != nil {
				t = *b.Tuning
			}
			c := SweepConfig{Seed: b.Seed, Profile: b.Profile, Tuning: t,
				ViaSwitch: b.ViaSwitch}
			pair, perr := c.newPairOn(eng)
			if perr != nil {
				return perr
			}
			timeout := b.Timeout
			if timeout == 0 {
				timeout = 30 * units.Second
			}
			_, terr := tools.NTTCP(pair, b.Count, b.Payload, timeout)
			return terr
		default:
			return fmt.Errorf("unknown crash-bundle kind %q", b.Kind)
		}
	}
	res.Err = run()
	return res
}
