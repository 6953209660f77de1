package telemetry

// blockLen is how many records one storage block holds. 128 events
// (6,144 bytes) fill one of the Go allocator's size classes exactly, and
// 128 samples (18,432 bytes, plus the header of an object that holds
// pointers) take the 19,072-byte class; 256 samples would be a large
// object rounded up to 40 KB of pages.
const blockLen = 128

// series stores one connection's samples or events in fixed blocks of
// blockLen records. Every block after the first is allocated whole and
// never copied or freed, so a recorded byte is held once and a long
// series grows without the copies a doubling slice makes. The first block
// alone grows by doubling up to blockLen, so a series that holds a few
// records costs a few: attaching telemetry records one sample per
// connection.
type series[T any] struct {
	blocks [][]T
	n      int
}

// push appends one record and returns it for the caller to fill.
func (s *series[T]) push() *T {
	k, i := s.n/blockLen, s.n%blockLen
	if k == len(s.blocks) {
		c := blockLen
		if k == 0 {
			c = 1
		}
		s.blocks = append(s.blocks, make([]T, 0, c))
	}
	b := s.blocks[k]
	if i == cap(b) { // the first block, still growing
		grown := make([]T, i, min(2*i, blockLen))
		copy(grown, b)
		b = grown
	}
	s.blocks[k] = b[:i+1]
	s.n++
	return &s.blocks[k][i]
}

// at returns record i, 0 <= i < s.n, in place.
func (s *series[T]) at(i int) *T {
	return &s.blocks[i/blockLen][i%blockLen]
}
