package main

import (
	"encoding/binary"
	"strings"
	"testing"
)

func countsDump(counts map[uint64]uint64) map[uint64][]byte {
	out := make(map[uint64][]byte, len(counts))
	for k, n := range counts {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, n)
		out[k] = v
	}
	return out
}

func TestCheckCounts(t *testing.T) {
	m := newCounterModel(4)
	for _, k := range []uint64{0, 1, 1, 3, 3, 3} {
		m.inc(k)
	}
	exact := map[uint64]uint64{0: 1, 1: 2, 3: 3}
	if err := checkCounts(m.want, countsDump(exact)); err != nil {
		t.Fatalf("exact counts rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		counts map[uint64]uint64
		want   string
	}{
		{"one lost increment", map[uint64]uint64{0: 1, 1: 1, 3: 3}, "1 lost"},
		{"one duplicated increment", map[uint64]uint64{0: 1, 1: 2, 3: 4}, "1 duplicated"},
		{"key lost entirely", map[uint64]uint64{1: 2, 3: 3}, "missing"},
		{"key never sent", map[uint64]uint64{0: 1, 1: 2, 2: 1, 3: 3}, "never incremented"},
	} {
		err := checkCounts(m.want, countsDump(c.counts))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestCounterChurn(t *testing.T) {
	m := newCounterModel(10)
	for _, k := range []uint64{1, 1, 2, 2, 2} {
		m.inc(k)
	}
	if c := m.cut(); c != 20 {
		t.Errorf("churn = %v%%, want 20%%", c)
	}
	m.inc(2)
	if c := m.cut(); c != 10 {
		t.Errorf("churn after cut = %v%%, want 10%%", c)
	}
}

func TestKVModel(t *testing.T) {
	m := newKVModel(7, 1, 2, 10)
	if k := m.key(3); k != 7 {
		t.Fatalf("client 1 of 2 local 3 -> key %d, want 7", k)
	}
	before := m.current(3)
	m.put(3)
	if err := m.checkGet(3, before); err == nil {
		t.Error("a get returning the overwritten value passed")
	}
	if err := m.checkGet(3, m.value(7, 1)); err != nil {
		t.Errorf("a get returning the last put failed: %v", err)
	}
	dump := map[uint64][]byte{}
	for local := uint64(0); local < 5; local++ {
		dump[m.key(local)] = m.current(local)
	}
	if err := m.checkDump(dump); err != nil {
		t.Errorf("exact dump rejected: %v", err)
	}
	dump[7] = before
	if err := m.checkDump(dump); err == nil {
		t.Error("a dump holding a stale value passed")
	}
}
