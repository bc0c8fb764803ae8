package main

import (
	"sync"
	"time"
)

// openLoop offers items on a fixed schedule that does not slow when the
// system does: item i is due at i/rate after the start. One goroutine
// generates, on ticks of at least a millisecond, every item whose due time
// has passed; a second sends whatever has accumulated as one batch. Each
// item's latency runs from its own due time to the ack of the batch that
// carried it, so a stall is charged to every item that waited behind it,
// not to one delayed batch.
type openLoop struct {
	rate  float64 // items per second
	items int     // items in the window
	tick  time.Duration
	// key draws the next item's key; called on the generator goroutine.
	key func() uint64
	// send delivers one batch and returns once it is acked. Called on the
	// sender goroutine, as are event and after.
	send func(keys []uint64) error
	// points are item indexes, ascending; event(p) runs just before item p
	// is sent (checkpoints, kills).
	points []int
	event  func(p int) error
	// after, when set, runs after every acked batch (failure handling).
	after func() error
	// maxBatch bounds the items per send.
	maxBatch int
}

type loopResult struct {
	sent, failed int
	elapsed      time.Duration // start to last ack
}

type dueItem struct {
	key uint64
	due time.Duration
}

// run drives the window. lat receives one sample per acked item (ack - due);
// late receives one per item (generated - due), the generator's own
// lateness against the schedule. send errors count as failed items; event
// and after errors abort the run.
func (l *openLoop) run(lat, late *samples) (loopResult, error) {
	tick := l.tick
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	var (
		mu    sync.Mutex
		queue []dueItem
	)
	ready := make(chan struct{}, 1)
	stop := make(chan struct{})
	genDone := make(chan struct{})
	start := time.Now()
	dueOf := func(i int) time.Duration { return time.Duration(float64(i) / l.rate * 1e9) }

	go func() {
		defer close(genDone)
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		next := 0
		for next < l.items {
			now := time.Since(start)
			due := int(now.Seconds()*l.rate) + 1
			if due > l.items {
				due = l.items
			}
			if due > next {
				mu.Lock()
				for ; next < due; next++ {
					d := dueOf(next)
					queue = append(queue, dueItem{key: l.key(), due: d})
					late.add(now - d)
				}
				mu.Unlock()
				select {
				case ready <- struct{}{}:
				default:
				}
			}
			select {
			case <-ticker.C:
			case <-stop:
				return
			}
		}
	}()

	var (
		res     loopResult
		runErr  error
		batch   []dueItem
		keys    = make([]uint64, 0, l.maxBatch)
		nextPt  = 0
		genOver = false
	)
	for runErr == nil {
		if !genOver {
			select {
			case <-ready:
			case <-genDone:
				genOver = true
			}
		}
		// Copy out under the lock so generator and sender never share a
		// backing array.
		mu.Lock()
		batch = append(batch[:0], queue...)
		queue = queue[:0]
		mu.Unlock()
		if len(batch) == 0 {
			if genOver {
				break
			}
			continue
		}
		for off := 0; off < len(batch) && runErr == nil; {
			n := len(batch) - off
			if n > l.maxBatch {
				n = l.maxBatch
			}
			idx := res.sent + res.failed
			for nextPt < len(l.points) && l.points[nextPt] < idx {
				nextPt++
			}
			if nextPt < len(l.points) {
				if p := l.points[nextPt]; p == idx {
					if runErr = l.event(p); runErr != nil {
						break
					}
					nextPt++
					if nextPt < len(l.points) && l.points[nextPt]-idx < n {
						n = l.points[nextPt] - idx
					}
				} else if p-idx < n {
					n = p - idx
				}
			}
			keys = keys[:0]
			chunk := batch[off : off+n]
			for _, it := range chunk {
				keys = append(keys, it.key)
			}
			if err := l.send(keys); err != nil {
				res.failed += n
			} else {
				ack := time.Since(start)
				for _, it := range chunk {
					lat.add(ack - it.due)
				}
				res.sent += n
				res.elapsed = ack
			}
			off += n
			if l.after != nil && runErr == nil {
				runErr = l.after()
			}
		}
	}
	close(stop)
	<-genDone
	return res, runErr
}
