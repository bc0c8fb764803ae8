package main

import (
	"errors"
	"testing"
	"time"
)

// A target that stalls 50 ms once must show up as about rate x 50 ms late
// items — every item due during the stall waits for it — not as one slow
// batch.
func TestOpenLoopChargesStallToEveryItem(t *testing.T) {
	const (
		rate    = 20_000.0
		items   = 6_000 // 300 ms of schedule
		stallAt = 2_000
	)
	stall := 50 * time.Millisecond
	var events []int
	sent := 0
	stalled := false
	loop := &openLoop{
		rate:     rate,
		items:    items,
		tick:     time.Millisecond,
		key:      func() uint64 { return 0 },
		maxBatch: 512,
		points:   []int{1_000, stallAt},
		event: func(p int) error {
			if p != sent {
				t.Errorf("event %d ran with %d items sent", p, sent)
			}
			events = append(events, p)
			return nil
		},
		send: func(keys []uint64) error {
			if sent >= stallAt && !stalled {
				stalled = true
				time.Sleep(stall)
			}
			sent += len(keys)
			return nil
		},
	}
	lat, late := newSamples(items), newSamples(items)
	res, err := loop.run(lat, late)
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != items || res.failed != 0 || len(lat.ns) != items || len(late.ns) != items {
		t.Fatalf("sent %d failed %d, %d latencies, %d lateness samples; want %d each and none failed",
			res.sent, res.failed, len(lat.ns), len(late.ns), items)
	}
	if len(events) != 2 {
		t.Errorf("events %v, want both schedule points", events)
	}
	// Items due in the first 40 ms of the stall wait at least 10 ms.
	const threshold = uint32(10 * time.Millisecond)
	lateItems := 0
	for _, ns := range lat.ns {
		if ns >= threshold {
			lateItems++
		}
	}
	if want := int(rate * 0.040 / 2); lateItems < want {
		t.Errorf("%d items at least 10 ms late, want at least %d (about rate x stall)", lateItems, want)
	}
}

func TestOpenLoopCountsFailedSends(t *testing.T) {
	calls := 0
	loop := &openLoop{
		rate: 10_000, items: 200, tick: time.Millisecond, maxBatch: 50,
		key: func() uint64 { return 0 },
		send: func(keys []uint64) error {
			calls++
			if calls == 1 {
				return errRefused
			}
			return nil
		},
	}
	res, err := loop.run(newSamples(200), newSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.sent+res.failed != 200 {
		t.Errorf("sent %d failed %d, want the first batch failed and 200 attempted", res.sent, res.failed)
	}
}

var errRefused = errors.New("refused")
