package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/apps/kv"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// Shape of every workload.
const (
	workers      = 2
	maxBatch     = 4096
	drainTimeout = time.Minute
	// segment is the length of one slice of the measured window. A window
	// of n seconds runs as n segments with a gap between consecutive ones,
	// where kv-call and ingest-ckpt time the checkpoints and recoveries
	// their ops must not overlap. Spreading those events over the whole run
	// keeps their median from resting on one moment's machine speed.
	segment = time.Second
	// triggerKeys is the size of the batch whose send detects a killed
	// worker; with two workers it always touches both.
	triggerKeys = 64
	// closedCap is the per-client latency buffer, in ops per second of
	// window: several times what a client completes here.
	closedCap = 100_000
	// tick paces the open loops. Go timers wake here up to a millisecond
	// late, so a tick several times that keeps the wake-up jitter a small
	// share of the half-tick every item waits on average.
	tick = 5 * time.Millisecond
)

// scenario is one traffic mix against one graph.
type scenario interface {
	graph() string
	// prefill loads the initial state into a fresh deployment and resets
	// the reference model to match.
	prefill(d *deployment) error
	// newWindow allocates the latency buffers for a window of segs
	// segments, before it starts.
	newWindow(segs int) *window
	// segment runs one segment of timed ops.
	segment(r *runner, w *window) error
	// gap runs between segments: the checkpoints and recoveries that
	// kv-call and ingest-ckpt time outside their ops, so every workload
	// reports ckpt_ms and recover_ms.
	gap(r *runner) error
	// trigger sends one batch that reaches every worker (the send that
	// detects a killed one) and keeps the reference exact.
	trigger(d *deployment) error
	// verify checks the deployment's final state against the reference.
	verify(d *deployment) error
	// tasks lists the entry tasks and whether each mutates state.
	tasks() map[string]bool
	// local runs n of the workload's ops one at a time as Calls against an
	// in-process runtime of the same graph and returns their latencies.
	local(n int) (*samples, error)
}

// window accumulates what the segments of one measured window timed.
type window struct {
	attempted, failed int
	elapsed           time.Duration // summed over segments
	lat               []*samples    // one per recording goroutine
	late              *samples      // open loops only
}

func (w *window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// sorted merges the latency buffers.
func (w *window) sorted() (lat, late []uint32, err error) {
	for _, s := range w.lat {
		part, err := s.sorted()
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, part...)
	}
	slices.Sort(lat)
	if w.late != nil {
		if late, err = w.late.sorted(); err != nil {
			return nil, nil, err
		}
	}
	return lat, late, nil
}

// runWindow runs segs segments with a gap after each but the last.
func runWindow(r *runner, segs int) (*window, error) {
	w := r.wl.newWindow(segs)
	for i := 0; i < segs; i++ {
		if err := r.wl.segment(r, w); err != nil {
			return nil, err
		}
		if i < segs-1 {
			if err := r.wl.gap(r); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func newScenario(name string, seed int64) (scenario, error) {
	switch name {
	case "kv-call":
		return &kvCall{seed: seed}, nil
	case "ingest-ckpt":
		return &counterLoad{seed: seed, keys: 200_000, rate: 20_000, skew: 1.1, ckptEvery: 10_000}, nil
	case "recover":
		return &counterLoad{seed: seed, keys: 200_000, rate: 10_000, cycle: 5_000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-call, ingest-ckpt or recover)", name)
}

// ---- kv-call ----

// kv-call's shape: 100k keys, 2 clients, 90 % gets, zipf s = 1.1.
const (
	kvKeys     = 100_000
	kvClients  = 2
	kvReadFrac = 0.9
	kvSkew     = 1.1
)

// kvCall is closed-loop request/reply serving on the kv graph: each client
// calls get or put and waits for the reply before its next op.
type kvCall struct {
	seed   int64
	models []*kvModel
	gens   []*workload.KVGen // op streams, continued across segments
}

func (k *kvCall) graph() string { return "kv" }

func (k *kvCall) tasks() map[string]bool {
	return map[string]bool{"put": true, "get": false, "delete": true}
}

func (k *kvCall) gen(c int) *workload.KVGen {
	return workload.NewKVGen(k.seed*int64(kvClients)+int64(c), uint64(kvKeys/kvClients), kvReadFrac, kvValueSize).Skewed(kvSkew)
}

func (k *kvCall) prefillItems(each func([]runtime.InjectItem) error) error {
	k.models = make([]*kvModel, kvClients)
	k.gens = nil
	items := make([]runtime.InjectItem, 0, maxBatch)
	for c := range k.models {
		m := newKVModel(k.seed, c, kvClients, kvKeys)
		k.models[c] = m
		for local := range m.ver {
			items = append(items, runtime.InjectItem{Key: m.key(uint64(local)), Value: m.current(uint64(local))})
			if len(items) == maxBatch {
				if err := each(items); err != nil {
					return err
				}
				items = items[:0]
			}
		}
	}
	if len(items) > 0 {
		return each(items)
	}
	return nil
}

func (k *kvCall) prefill(d *deployment) error {
	return k.prefillItems(func(items []runtime.InjectItem) error { return d.coord.InjectBatch("put", items) })
}

func (k *kvCall) newWindow(segs int) *window {
	w := &window{}
	for c := 0; c < kvClients; c++ {
		w.lat = append(w.lat, newSamples(closedCap*int(segment.Seconds())*segs))
	}
	return w
}

// segment runs the closed loop: each client calls get or put and waits for
// the reply before its next op, until the segment ends.
func (k *kvCall) segment(r *runner, w *window) error {
	if k.gens == nil {
		for c := 0; c < kvClients; c++ {
			k.gens = append(k.gens, k.gen(c))
		}
	}
	ops := make([]int, kvClients)
	fails := make([]int, kvClients)
	errs := make([]error, kvClients)
	start := time.Now()
	deadline := start.Add(segment)
	var wg sync.WaitGroup
	for c := 0; c < kvClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m, gen, lat := k.models[c], k.gens[c], w.lat[c]
			for time.Now().Before(deadline) {
				op := gen.Next()
				local := op.Key
				key := m.key(local)
				ops[c]++
				if op.Read {
					v, s, e, err := r.d.call("get", key, nil)
					if err != nil {
						fails[c]++
						continue
					}
					lat.add(e.Sub(s))
					if err := m.checkGet(local, v); err != nil {
						errs[c] = err
						return
					}
					continue
				}
				_, s, e, err := r.d.call("put", key, m.value(key, m.ver[local]+1))
				if err != nil {
					// A failed put may or may not have applied; the
					// reference can no longer be exact.
					fails[c]++
					errs[c] = fmt.Errorf("put(%d): %w", key, err)
					return
				}
				lat.add(e.Sub(s))
				m.put(local)
			}
		}(c)
	}
	wg.Wait()
	w.elapsed += time.Since(start)
	for c := 0; c < kvClients; c++ {
		if errs[c] != nil {
			return errs[c]
		}
		w.attempted += ops[c]
		w.failed += fails[c]
	}
	return nil
}

// gap takes one checkpoint and then kills and recovers worker 1, with no
// client running.
func (k *kvCall) gap(r *runner) error {
	distinct := 0
	for _, m := range k.models {
		distinct += m.distinct
		m.cur++
		m.distinct = 0
	}
	r.churn = append(r.churn, 100*float64(distinct)/float64(kvKeys))
	if err := r.checkpoint(); err != nil {
		return err
	}
	return r.killRecover(1, k.trigger)
}

func (k *kvCall) trigger(d *deployment) error {
	// Rewrite the current values of the first keys: idempotent, so the
	// reference stays exact whether or not the items are replayed.
	items := make([]runtime.InjectItem, 0, triggerKeys)
	for i := 0; i < triggerKeys; i++ {
		m := k.models[i%kvClients]
		local := uint64(i / kvClients)
		items = append(items, runtime.InjectItem{Key: m.key(local), Value: m.current(local)})
	}
	return d.inject("put", items)
}

func (k *kvCall) verify(d *deployment) error {
	dump, err := d.coord.DumpKV("store")
	if err != nil {
		return err
	}
	if len(dump) != kvKeys {
		return fmt.Errorf("store holds %d keys, want %d", len(dump), kvKeys)
	}
	for _, m := range k.models {
		if err := m.checkDump(dump); err != nil {
			return err
		}
	}
	return nil
}

func (k *kvCall) local(n int) (*samples, error) {
	rt, err := runtime.Deploy(kv.Graph(), runtime.Options{Partitions: map[string]int{"store": workers}})
	if err != nil {
		return nil, err
	}
	defer rt.Stop()
	savedModels, savedGens := k.models, k.gens
	defer func() { k.models, k.gens = savedModels, savedGens }()
	if err := k.prefillItems(func(items []runtime.InjectItem) error { return rt.InjectBatch("put", items) }); err != nil {
		return nil, err
	}
	if !rt.Drain(drainTimeout) {
		return nil, fmt.Errorf("in-process runtime did not drain")
	}
	lat := newSamples(n)
	m, gen := k.models[0], k.gen(0)
	for i := 0; i < n; i++ {
		op := gen.Next()
		key := m.key(op.Key)
		var value any
		task := "get"
		if !op.Read {
			task, value = "put", m.value(key, m.ver[op.Key]+1)
		}
		start := time.Now()
		v, err := rt.Call(task, key, value, callTimeout)
		lat.add(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("in-process %s(%d): %w", task, key, err)
		}
		if op.Read {
			if err := m.checkGet(op.Key, v); err != nil {
				return nil, fmt.Errorf("in-process: %w", err)
			}
		} else {
			m.put(op.Key)
		}
	}
	return lat, nil
}

// ---- ingest-ckpt and recover ----

// counterLoad is open-loop fire-and-forget ingestion of increments into the
// counter graph. With ckptEvery it checkpoints every ckptEvery items
// (ingest-ckpt); with cycle it runs, every cycle items, one checkpoint and
// then one kill and recovery of worker 1 (recover).
type counterLoad struct {
	seed      int64
	keys      int
	rate      float64
	skew      float64 // zipf exponent; 0 draws keys uniformly
	ckptEvery int
	cycle     int
	model     *counterModel
	next      func() uint64 // key stream, continued across segments
}

func (l *counterLoad) graph() string { return "counter" }

func (l *counterLoad) tasks() map[string]bool { return map[string]bool{"inc": true} }

// keyStream draws keys deterministically from the seed.
func (l *counterLoad) keyStream() func() uint64 {
	rng := rand.New(rand.NewSource(l.seed))
	if l.skew > 0 {
		z := rand.NewZipf(rng, l.skew, 1, uint64(l.keys-1))
		return z.Uint64
	}
	n := int64(l.keys)
	return func() uint64 { return uint64(rng.Int63n(n)) }
}

func (l *counterLoad) prefillItems(each func([]runtime.InjectItem) error) error {
	l.model = newCounterModel(l.keys)
	l.next = nil
	items := make([]runtime.InjectItem, 0, maxBatch)
	for k := 0; k < l.keys; k++ {
		items = append(items, runtime.InjectItem{Key: uint64(k)})
		l.model.inc(uint64(k))
		if len(items) == maxBatch || k == l.keys-1 {
			if err := each(items); err != nil {
				return err
			}
			items = items[:0]
		}
	}
	l.model.cut()
	return nil
}

func (l *counterLoad) prefill(d *deployment) error {
	return l.prefillItems(func(items []runtime.InjectItem) error { return d.coord.InjectBatch("inc", items) })
}

func (l *counterLoad) perSegment() int { return int(l.rate * segment.Seconds()) }

func (l *counterLoad) newWindow(segs int) *window {
	n := l.perSegment() * segs
	return &window{lat: []*samples{newSamples(n)}, late: newSamples(n)}
}

// segment runs one segment of the open loop, with its checkpoints (and, for
// recover, kills) at fixed item indexes.
func (l *counterLoad) segment(r *runner, w *window) error {
	if l.next == nil {
		l.next = l.keyStream()
	}
	n := l.perSegment()
	const (
		doCheckpoint = iota
		doKill
	)
	var points []int
	what := map[int]int{}
	if l.ckptEvery > 0 {
		for p := l.ckptEvery / 2; p < n; p += l.ckptEvery {
			points = append(points, p)
			what[p] = doCheckpoint
		}
	}
	if l.cycle > 0 {
		// Leave a tenth of a second of sends after each kill, so the next
		// send detects it inside the segment.
		tail := int(l.rate / 10)
		for c := 0; c*l.cycle+l.cycle*3/4+tail < n; c++ {
			ck, kill := c*l.cycle+l.cycle/4, c*l.cycle+l.cycle*3/4
			points = append(points, ck, kill)
			what[ck], what[kill] = doCheckpoint, doKill
		}
	}
	items := make([]runtime.InjectItem, 0, maxBatch)
	var spare *node
	loop := &openLoop{
		rate:     l.rate,
		items:    n,
		tick:     tick,
		key:      l.next,
		maxBatch: maxBatch,
		points:   points,
		send: func(keys []uint64) error {
			items = items[:0]
			for _, k := range keys {
				items = append(items, runtime.InjectItem{Key: k})
			}
			if err := r.d.inject("inc", items); err != nil {
				return err
			}
			for _, k := range keys {
				l.model.inc(k)
			}
			return nil
		},
		event: func(p int) error {
			if what[p] == doKill {
				var err error
				spare, err = r.d.kill(1)
				return err
			}
			r.churn = append(r.churn, l.model.cut())
			return r.checkpoint()
		},
		after: func() error {
			if spare == nil || r.d.coord.WorkerAlive(1) {
				return nil
			}
			s := spare
			spare = nil
			return r.recoverDead(1, s)
		},
	}
	res, err := loop.run(w.lat[0], w.late)
	if err != nil {
		return err
	}
	if spare != nil {
		return fmt.Errorf("worker 1 killed but never detected inside the segment")
	}
	w.attempted += n
	w.failed += res.failed
	w.elapsed += res.elapsed
	return nil
}

// gap, for ingest-ckpt, drains and then kills and recovers worker 1 with no
// load running; recover recovers inside its segments and has no gap.
func (l *counterLoad) gap(r *runner) error {
	if l.cycle > 0 {
		return nil
	}
	if !r.d.coord.Drain(drainTimeout) {
		return fmt.Errorf("deployment did not drain")
	}
	return r.killRecover(1, l.trigger)
}

func (l *counterLoad) trigger(d *deployment) error {
	items := make([]runtime.InjectItem, triggerKeys)
	for i := range items {
		items[i].Key = uint64(i)
	}
	if err := d.inject("inc", items); err != nil {
		return err
	}
	for i := range items {
		l.model.inc(uint64(i))
	}
	return nil
}

func (l *counterLoad) verify(d *deployment) error {
	dump, err := d.coord.DumpKV("counts")
	if err != nil {
		return err
	}
	return checkCounts(l.model.want, dump)
}

func (l *counterLoad) local(n int) (*samples, error) {
	rt, err := runtime.Deploy(counter.Graph(), runtime.Options{Partitions: map[string]int{"counts": workers}})
	if err != nil {
		return nil, err
	}
	defer rt.Stop()
	savedModel, savedNext := l.model, l.next
	defer func() { l.model, l.next = savedModel, savedNext }()
	if err := l.prefillItems(func(items []runtime.InjectItem) error { return rt.InjectBatch("inc", items) }); err != nil {
		return nil, err
	}
	if !rt.Drain(drainTimeout) {
		return nil, fmt.Errorf("in-process runtime did not drain")
	}
	lat := newSamples(n)
	next := l.keyStream()
	for i := 0; i < n; i++ {
		k := next()
		start := time.Now()
		v, err := rt.Call("inc", k, nil, callTimeout)
		lat.add(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("in-process inc(%d): %w", k, err)
		}
		l.model.inc(k)
		if got, _ := v.(uint64); got != uint64(l.model.want[k]) {
			return nil, fmt.Errorf("in-process inc(%d) = %v, want %d", k, v, l.model.want[k])
		}
	}
	return lat, nil
}
