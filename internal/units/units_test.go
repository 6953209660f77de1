package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConstants(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if Microsecond != 1e6*Picosecond {
		t.Fatalf("Microsecond = %d ps, want 1e6", int64(Microsecond))
	}
	if Hour != 3600*Second {
		t.Fatalf("Hour = %d, want 3600s", int64(Hour))
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (19 * Microsecond).Micros(); got != 19 {
		t.Errorf("Micros() = %v, want 19", got)
	}
	if got := (180 * Millisecond).Millis(); got != 180 {
		t.Errorf("Millis() = %v, want 180", got)
	}
	if got := FromSeconds(0.18); got != 180*Millisecond {
		t.Errorf("FromSeconds(0.18) = %v, want 180ms", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{800 * Picosecond, "800ps"},
		{3 * Nanosecond, "3ns"},
		{19 * Microsecond, "19us"},
		{180 * Millisecond, "180ms"},
		{2 * Second, "2s"},
		{10 * Minute, "10m00s"},
		{Hour + 42*Minute, "1h42m"},
		{-19 * Microsecond, "-19us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	if got := FromGbps(10).String(); got != "10Gb/s" {
		t.Errorf("got %q", got)
	}
	if got := (923 * MbitPerSecond).String(); got != "923Mb/s" {
		t.Errorf("got %q", got)
	}
	if got := Bandwidth(500).String(); got != "500b/s" {
		t.Errorf("got %q", got)
	}
}

func TestTimeToSendExact(t *testing.T) {
	// One byte at 10 Gb/s is exactly 800 ps; TimeToSend rounds up by 1 ps.
	got := TimeToSend(1, 10*GbitPerSecond)
	if got != 801*Picosecond {
		t.Errorf("TimeToSend(1, 10G) = %v, want 801ps", int64(got))
	}
	// 1500 bytes at 1 Gb/s = 12 us.
	got = TimeToSend(1500, GbitPerSecond)
	if got != 12*Microsecond+1 {
		t.Errorf("TimeToSend(1500, 1G) = %d, want 12us+1ps", int64(got))
	}
	if TimeToSend(0, GbitPerSecond) != 0 {
		t.Error("TimeToSend(0) != 0")
	}
}

func TestTimeToSendPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero bandwidth")
		}
	}()
	TimeToSend(1, 0)
}

func TestThroughputRoundTrip(t *testing.T) {
	// Moving 1 GB in 1 second is 8 Gb/s.
	got := Throughput(1e9, Second)
	if got != 8*GbitPerSecond {
		t.Errorf("Throughput = %v, want 8Gb/s", got)
	}
	if Throughput(100, 0) != 0 {
		t.Error("Throughput with zero duration should be 0")
	}
}

func TestBytesIn(t *testing.T) {
	if got := BytesIn(Second, 8*GbitPerSecond); got != 1e9 {
		t.Errorf("BytesIn(1s, 8Gb/s) = %d, want 1e9", got)
	}
	if BytesIn(0, GbitPerSecond) != 0 {
		t.Error("BytesIn(0) != 0")
	}
}

func TestByteSizeString(t *testing.T) {
	if got := (256 * KB).String(); got != "256KB" {
		t.Errorf("got %q", got)
	}
	if got := ByteSize(512).String(); got != "512B" {
		t.Errorf("got %q", got)
	}
	if got := (2 * GB).String(); got != "2GB" {
		t.Errorf("got %q", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4096, 4096}, {4097, 8192},
		{9000 + 256, 16384}, // a 9000-byte MTU skb lands in a 16 KB block
		{8160 + 32, 8192},   // an 8160-byte MTU skb fits an 8 KB block
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// Property: NextPow2 result is a power of two, >= input, and minimal.
func TestNextPow2Property(t *testing.T) {
	f := func(raw uint32) bool {
		n := int64(raw)
		p := NextPow2(n)
		isPow2 := p > 0 && p&(p-1) == 0
		minimal := p == 1 || p/2 < n
		return isPow2 && p >= n && minimal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeToSend is monotonic in n and never under-reports the time
// (sending n bytes at b must take at least n*8/b seconds).
func TestTimeToSendProperty(t *testing.T) {
	f := func(rawN uint16, rawB uint32) bool {
		n := int(rawN)
		b := Bandwidth(rawB)%(10*GbitPerSecond) + MbitPerSecond
		d := TimeToSend(n, b)
		ideal := float64(n) * 8 / float64(b) // seconds
		if d.Seconds() < ideal {
			return false
		}
		// Rounding error bounded by 1 ps.
		return d.Seconds()-ideal <= 2e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Throughput(BytesIn(d,b), d) ~ b for sane inputs.
func TestThroughputInverseProperty(t *testing.T) {
	f := func(rawB uint32) bool {
		b := Bandwidth(rawB) + 10*MbitPerSecond
		n := BytesIn(Second, b)
		got := Throughput(n, Second)
		return math.Abs(float64(got-b)) <= 8 // one byte of rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringNoExponent(t *testing.T) {
	// Formatting should stay human readable for every magnitude we print.
	for _, s := range []string{
		(4110 * MbitPerSecond).String(),
		(123456 * Microsecond).String(),
		(64 * KB).String(),
	} {
		if strings.ContainsAny(s, "eE") && !strings.Contains(s, "e+") == false {
			t.Errorf("unexpected exponent in %q", s)
		}
	}
}

// The fast paths in TimeToSend and NextPow2 must return exactly what the
// formulas they replace returned, bit for bit: simulated timestamps, and so
// every golden digest, are built from them. The references below are those
// formulas, verbatim.

func timeToSendRef(n int, b Bandwidth) Time {
	if n <= 0 {
		return 0
	}
	nbits := int64(n) * 8
	q := nbits / int64(b)
	r := nbits % int64(b)
	return Time(q)*Second + Time(float64(r)*float64(Second)/float64(b)) + 1
}

func nextPow2Ref(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

func TestFastPathsMatchReferenceFormulas(t *testing.T) {
	const maxN = 1 << 20
	// Line rates the simulator uses, odd rates, and rates at or below 8n for
	// part of the range (8000 b/s at n = 1000, 8*2^20 b/s at n = 2^20), so
	// both the division-free path and the general one are compared.
	rates := []Bandwidth{
		1, 7, 8000, 12345, 8 * maxN,
		FromGbps(2.38), GbitPerSecond, 10 * GbitPerSecond, 40 * GbitPerSecond,
	}
	for _, b := range rates {
		for n := 0; n <= maxN; n++ {
			if got, want := TimeToSend(n, b), timeToSendRef(n, b); got != want {
				t.Fatalf("TimeToSend(%d, %d) = %d, reference %d", n, int64(b), int64(got), int64(want))
			}
		}
	}
	for n := int64(0); n <= maxN; n++ {
		if got, want := NextPow2(n), nextPow2Ref(n); got != want {
			t.Fatalf("NextPow2(%d) = %d, reference %d", n, got, want)
		}
	}
	for sh := 20; sh <= 62; sh++ {
		for _, n := range []int64{1<<sh - 1, 1 << sh, 1<<sh + 1} {
			if n > 1<<62 {
				continue
			}
			if got, want := NextPow2(n), nextPow2Ref(n); got != want {
				t.Fatalf("NextPow2(%d) = %d, reference %d", n, got, want)
			}
		}
	}
}
