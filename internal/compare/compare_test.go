package compare

import "testing"

func TestPublishedRows(t *testing.T) {
	rows := Published()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Name + "/" + r.API
		if seen[key] {
			t.Errorf("duplicate row %s", key)
		}
		seen[key] = true
		if r.Throughput <= 0 || r.Latency <= 0 || r.TheoreticalMax <= 0 {
			t.Errorf("row %s has non-positive values", key)
		}
		if r.Throughput > r.TheoreticalMax {
			t.Errorf("row %s exceeds its theoretical max", key)
		}
	}
	for _, want := range []string{"GbE/TCP/IP", "Myrinet/GM", "Myrinet/TCP/IP", "QsNet/Elan3", "QsNet/TCP/IP"} {
		if !seen[want] {
			t.Errorf("missing row %s", want)
		}
	}
}

func TestNativeAPIsBeatTheirIPEmulations(t *testing.T) {
	rows := Published()
	get := func(name, api string) Interconnect {
		for _, r := range rows {
			if r.Name == name && r.API == api {
				return r
			}
		}
		t.Fatalf("missing %s/%s", name, api)
		return Interconnect{}
	}
	for _, name := range []string{"Myrinet", "QsNet"} {
		native := get(name, map[string]string{"Myrinet": "GM", "QsNet": "Elan3"}[name])
		ip := get(name, "TCP/IP")
		if native.Throughput <= ip.Throughput {
			t.Errorf("%s native should beat IP emulation on throughput", name)
		}
		if native.Latency >= ip.Latency {
			t.Errorf("%s native should beat IP emulation on latency", name)
		}
	}
}

func TestTenGbETheoretical(t *testing.T) {
	// Figure 5's 10GbE reference line is the PCI-X cap, ~8.5 Gb/s.
	got := TenGbETheoretical.Gbps()
	if got < 8.4 || got > 8.6 {
		t.Errorf("10GbE theoretical = %.2f", got)
	}
}
