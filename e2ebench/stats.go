package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 over fewer than 1000 samples would be set by one or two outliers.
const minBeyond = 10

// samples is a latency buffer sized before the timed window, so recording
// never allocates and the buffer does not grow with the ops completed.
// Durations are stored as nanoseconds in a uint32 (capped at ~4.29 s).
type samples struct {
	ns      []uint32
	dropped int
}

func newSamples(capacity int) *samples {
	return &samples{ns: make([]uint32, 0, capacity)}
}

func (s *samples) add(d time.Duration) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
}

// sorted returns the recorded samples in ascending order (a copy), or an
// error if the buffer overflowed: a percentile over a truncated window would
// silently describe only its beginning.
func (s *samples) sorted() ([]uint32, error) {
	if s.dropped > 0 {
		return nil, fmt.Errorf("latency buffer overflowed by %d samples (capacity %d)", s.dropped, cap(s.ns))
	}
	out := slices.Clone(s.ns)
	slices.Sort(out)
	return out, nil
}

// percentile is the nearest-rank p-th percentile of sorted, in
// microseconds, together with the number of samples strictly beyond its
// rank.
func percentile(sorted []uint32, p float64) (us float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1]) / 1e3, n - rank
}

// checkedPercentile is percentile that refuses a tail with fewer than
// minBeyond samples past it.
func checkedPercentile(sorted []uint32, p float64) (float64, error) {
	v, beyond := percentile(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", p, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// median of float64 values (mean of the middle two for even counts); 0 for
// none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
