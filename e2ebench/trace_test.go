package main

import (
	"testing"

	"repro/internal/wire"
)

func TestSelfTime(t *testing.T) {
	p := span{start: 0, end: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one nested", []span{{start: 10, end: 30}}, 80},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 70}}, 70},
		{"overlapping counted once", []span{{start: 10, end: 40}, {start: 30, end: 60}}, 50},
		{"nested inside another child", []span{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
		{"clipped to the parent", []span{{start: -20, end: 10}, {start: 90, end: 130}}, 80},
		{"outside the parent", []span{{start: 100, end: 120}}, 100},
		{"unsorted", []span{{start: 50, end: 70}, {start: 10, end: 20}, {start: 15, end: 55}}, 40},
	} {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// Two callers contend for the coordinator's injection mutex: B waits while
// A's frame is on the wire. A's transport span lies inside both caller
// spans and must go to A, which ends first after it.
func TestAssignParentsPicksFirstEndingEncloser(t *testing.T) {
	spans := []span{
		{start: 0, end: 50, layer: layerCaller, kind: opCall, worker: -1},                       // A
		{start: 5, end: 100, layer: layerCaller, kind: opCall, worker: -1},                      // B, waits for A
		{start: 10, end: 45, layer: layerTransport, kind: wire.MsgCall},                         // A's frame
		{start: 60, end: 95, layer: layerTransport, kind: wire.MsgCall},                         // B's frame
		{start: 20, end: 30, layer: layerTransport, kind: wire.MsgHeartbeat, link: linkControl}, // no parent
		{start: 200, end: 300, layer: layerCaller, kind: opCheckpoint, worker: -1},
		{start: 210, end: 220, layer: layerTransport, kind: wire.MsgCall}, // wrong type for a checkpoint
		{start: 230, end: 240, layer: layerTransport, kind: wire.MsgSnapNext, link: linkControl},
	}
	got := assignParents(spans)
	want := []int{-1, -1, 0, 1, -1, -1, -1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: parent %d, want %d", i, got[i], want[i])
		}
	}
	m := layerMetrics(spans, got)
	if v := m["coord.lock_wait_us.p99"].Value; v != 0.055 { // B: 5 -> 60 ns
		t.Errorf("lock wait p99 = %v us, want 0.055", v)
	}
	if v := m["cluster.frames.snapnext_per_ckpt"].Value; v != 1 {
		t.Errorf("snapnext per checkpoint = %v, want 1", v)
	}
}
