// Command e2ebench is the repository's end-to-end benchmark: a
// runtime.Coordinator driving two runtime.Workers served in-process over
// loopback TCP, under one of three workloads (kv-call, ingest-ckpt,
// recover). Every run checks its outputs against a reference model. See
// README.md for the workloads, metrics and how to run it.
//
//	go run . --workload kv-call --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"time"

	"repro/internal/runtime"
)

// setupRepeats is how many times a run deploys, prefills and warm-
// checkpoints; setup_s is the median, and the last deployment is measured.
const setupRepeats = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "kv-call", "workload: kv-call, ingest-ckpt or recover")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if res == nil {
			res = &result{}
		}
		res.Correct = false
		res.Metrics = map[string]metric{}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// runner holds one run's deployment and the events it timed.
type runner struct {
	wl scenario
	d  *deployment
	tr *tracer

	ckpts, recovs []float64 // ms
	replays       []float64 // replay-log items pending at each recovery
	churn         []float64 // % of keys written per checkpoint interval
	snaps         []runtime.SnapStats
}

func (r *runner) reset() {
	r.ckpts, r.recovs, r.replays, r.churn, r.snaps = nil, nil, nil, nil, nil
}

// checkpoint runs one timed Coordinator.Checkpoint.
func (r *runner) checkpoint() error {
	d, err := r.d.checkpoint()
	if err != nil {
		return err
	}
	r.ckpts = append(r.ckpts, ms(d))
	if r.tr != nil {
		r.snaps = append(r.snaps, r.d.coord.SnapshotStats())
	}
	return nil
}

// killRecover crashes worker w, sends the trigger batch whose failed send
// marks it dead, and recovers it onto a fresh worker.
func (r *runner) killRecover(w int, trigger func(*deployment) error) error {
	spare, err := r.d.kill(w)
	if err != nil {
		return err
	}
	if err := trigger(r.d); err != nil {
		return err
	}
	if err := r.d.awaitDead(w); err != nil {
		return err
	}
	return r.recoverDead(w, spare)
}

// recoverDead times the recovery of dead worker w onto spare.
func (r *runner) recoverDead(w int, spare *node) error {
	pending := 0
	for task := range r.wl.tasks() {
		pending += r.d.coord.PendingReplay(task, w)
	}
	r.replays = append(r.replays, float64(pending))
	d, err := r.d.recoverWorker(w, spare)
	if err != nil {
		return err
	}
	r.recovs = append(r.recovs, ms(d))
	return nil
}

// setup deploys the workload's graph, prefills it and takes the warm
// checkpoint.
func setup(wl scenario, tr *tracer) (*deployment, error) {
	d, err := deploy(wl.graph(), workers, tr)
	if err != nil {
		return nil, err
	}
	if err := wl.prefill(d); err != nil {
		d.close()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if !d.coord.Drain(drainTimeout) {
		d.close()
		return nil, fmt.Errorf("prefill did not drain")
	}
	if err := d.coord.Checkpoint(); err != nil {
		d.close()
		return nil, fmt.Errorf("warm checkpoint: %w", err)
	}
	return d, nil
}

func run(name string, seed int64, window time.Duration, traced bool, spansDir string) (*result, error) {
	if window < time.Second {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	wl, err := newScenario(name, seed)
	if err != nil {
		return nil, err
	}
	r := &runner{wl: wl}
	if traced {
		// Sized for the traced half-window at twice the span rate measured
		// here; overflowing spans are counted, not kept.
		r.tr = newTracer(int(window.Seconds()/2*100_000) + 200_000)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r.d != nil {
			r.d.close()
			r.d = nil
		}
		start := time.Now()
		d, err := setup(wl, r.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.d = d
	}
	defer func() { r.d.close() }()

	if traced {
		return runTraced(r, seed, window, spansDir, name)
	}

	w, err := runWindow(r, segments(window))
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: w.attempted, Failed: w.failed}
	if err := finish(r); err != nil {
		return res, err
	}
	lat, _, err := w.sorted()
	if err != nil {
		return res, err
	}
	p99, err := checkedPercentile(lat, 99)
	if err != nil {
		return res, err
	}
	p50, _ := percentile(lat, 50)
	opsPerSec := w.opsPerSec()
	w, lat = nil, nil // release the latency samples before the heap is measured
	heap, err := liveHeapMB(r.d)
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"ops_per_s":  {opsPerSec, "ops/s"},
		"op_p50_us":  {p50, "us"},
		"op_p99_us":  {p99, "us"},
		"ckpt_ms":    {median(r.ckpts), "ms"},
		"recover_ms": {median(r.recovs), "ms"},
		"heap_mb":    {heap, "MB"},
		"setup_s":    {median(setups), "s"},
	}
	return res, nil
}

// segments is how many segments a window of length d holds.
func segments(d time.Duration) int { return max(1, int(d/segment)) }

// finish drains the deployment and checks its state against the reference.
func finish(r *runner) error {
	if !r.d.coord.Drain(drainTimeout) {
		return fmt.Errorf("deployment did not drain")
	}
	if err := r.wl.verify(r.d); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

// liveHeapMB is the live heap after one untimed checkpoint (which empties
// the replay logs) and a full collection.
func liveHeapMB(d *deployment) (float64, error) {
	if err := d.coord.Checkpoint(); err != nil {
		return 0, err
	}
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6, nil
}
