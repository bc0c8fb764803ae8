package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := newSamples(100)
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Microsecond)
	}
	sorted, err := s.sorted()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99}, {0.5, 1, 99}} {
		v, beyond := percentile(sorted, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%g = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.want, c.beyond)
		}
	}
}

func TestCheckedPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i + 1)
		}
		return out
	}
	if _, err := checkedPercentile(mk(999), 99); err == nil {
		t.Error("p99 over 999 samples has 9 beyond it; want an error")
	}
	v, err := checkedPercentile(mk(1000), 99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if v != 0.99 { // 990 ns
		t.Errorf("p99 over 1..1000 ns = %v us, want 0.99", v)
	}
}

func TestSamplesOverflowIsAnError(t *testing.T) {
	s := newSamples(2)
	for i := 0; i < 3; i++ {
		s.add(time.Microsecond)
	}
	if _, err := s.sorted(); err == nil {
		t.Error("an overflowed buffer must not yield percentiles")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
