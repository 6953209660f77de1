package paper

import (
	"strings"
	"testing"
)

// TestTable checks the claims table itself, without simulating anything.
func TestTable(t *testing.T) {
	order := map[string]int{}
	for i, e := range Experiments {
		if _, dup := order[e.ID]; dup {
			t.Errorf("experiment %s listed twice", e.ID)
		}
		order[e.ID] = i
	}
	devs := map[string]bool{}
	for _, d := range Deviations {
		devs[d.ID] = false
	}
	ids := map[string]bool{}
	for _, c := range Claims {
		if ids[c.ID] {
			t.Errorf("claim %s listed twice", c.ID)
		}
		ids[c.ID] = true
		row, ok := order[c.Exp()]
		if !ok {
			t.Errorf("%s: no experiment %s", c.ID, c.Exp())
		}
		// A claim prints after its own experiment, so every quantity it
		// reads must come from that experiment or an earlier one.
		for _, in := range c.Of.Inputs() {
			exp, _, _ := strings.Cut(in, ".")
			if at, ok := order[exp]; !ok || at > row {
				t.Errorf("%s reads %s, which %s does not measure by then", c.ID, in, c.Exp())
			}
		}
		if c.Dev != "" {
			if _, ok := devs[c.Dev]; !ok {
				t.Errorf("%s names unknown deviation %s", c.ID, c.Dev)
			}
			devs[c.Dev] = true
		}
		if c.Paper.Numeric() && c.Band.Set() && c.Dev == "" &&
			!(c.Band.Holds(c.Paper.Lo) && c.Band.Holds(c.Paper.Hi)) {
			t.Errorf("%s: band %s excludes the paper's %s and names no deviation",
				c.ID, c.Band.Format(c.Unit), c.Paper.Format(c.Unit))
		}
	}
	for id, named := range devs {
		if !named {
			t.Errorf("deviation %s is named by no claim", id)
		}
	}
}
