package host

import (
	"fmt"

	"tengig/internal/ethernet"
)

// This file is the boundary between user input and the panicking
// constructors: command-line tools validate here and report errors with a
// non-zero exit, while programmer errors deeper in (ProfileConfig on an
// unknown profile, Stock/Optimized on an impossible MTU) stay panics.

// ParseProfile resolves a user-supplied profile name against the
// calibration table.
func ParseProfile(s string) (Profile, error) {
	for _, p := range Profiles() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown profile %q (valid: %v)", s, Profiles())
}

// ValidateMTU rejects device MTUs the simulated adapter cannot carry.
func ValidateMTU(mtu int) error {
	if !ethernet.ValidMTU(mtu) {
		return fmt.Errorf("invalid MTU %d (valid: 68–%d)", mtu, ethernet.MTUMax10GbE)
	}
	return nil
}

// ValidateTransfer rejects impossible transfer shapes before they reach the
// simulation.
func ValidateTransfer(count, payload int) error {
	if count <= 0 {
		return fmt.Errorf("invalid write count %d (must be positive)", count)
	}
	if payload <= 0 {
		return fmt.Errorf("invalid payload %d bytes (must be positive)", payload)
	}
	return nil
}
