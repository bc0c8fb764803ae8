package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"slices"
	"time"

	"repro/internal/wire"
)

// localOps is how many ops the in-process baseline times.
const localOps = 20_000

// runTraced is the per-layer run: the workload's window runs twice on the
// same deployment, first with recording off and then on (each half the
// segments), so the difference of their op_p50_us is the tracing overhead.
func runTraced(r *runner, seed int64, window time.Duration, spansDir, name string) (*result, error) {
	half := max(1, segments(window)/2)
	base, err := runWindow(r, half)
	if err != nil {
		return nil, err
	}
	if err := r.wl.gap(r); err != nil {
		return nil, err
	}
	r.reset()
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	r.tr.on.Store(true)
	w, err := runWindow(r, half)
	if err != nil {
		return nil, err
	}
	gort.ReadMemStats(&m1)
	res := &result{Attempted: base.attempted + w.attempted, Failed: base.failed + w.failed}

	useful, all := 0, 0
	for task, mutates := range r.wl.tasks() {
		for i := range r.d.nodes {
			n := r.d.coord.PendingReplay(task, i)
			all += n
			if mutates {
				useful += n
			}
		}
	}
	r.tr.on.Store(false)
	if err := finish(r); err != nil {
		return res, err
	}
	local, err := r.wl.local(localOps)
	if err != nil {
		return res, err
	}
	localSorted, err := local.sorted()
	if err != nil {
		return res, err
	}

	spans := r.tr.recorded()
	parent := assignParents(spans)
	m := layerMetrics(spans, parent)
	baseLat, _, err := base.sorted()
	if err != nil {
		return res, err
	}
	lat, late, err := w.sorted()
	if err != nil {
		return res, err
	}
	basep50, _ := percentile(baseLat, 50)
	p50, _ := percentile(lat, 50)
	latep99, _ := percentile(late, 99)
	localp50, _ := percentile(localSorted, 50)
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("trace.overhead_us", p50-basep50, "us")
	add("trace.spans_dropped", float64(r.tr.dropped), "count")
	add("runtime.local_call_us.p50", localp50, "us")
	add("loadgen.late_p99_us", latep99, "us")
	add("gc.cycles", float64(m1.NumGC-m0.NumGC), "count")
	add("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	add("gc.cpu_frac", m1.GCCPUFraction, "ratio")
	add("state.churn_pct", median(r.churn), "%")
	add("dataflow.replay_items", median(r.replays), "count")
	ratio := 0.0
	if all > 0 {
		ratio = float64(useful) / float64(all)
	}
	add("dataflow.replay_useful_ratio", ratio, "ratio")
	var raw, stored, chunks []float64
	peak := 0.0
	for _, s := range r.snaps {
		raw = append(raw, float64(s.RawBytes)/1024)
		stored = append(stored, float64(s.StoredBytes)/1024)
		chunks = append(chunks, float64(s.Chunks))
		peak = max(peak, float64(s.PeakFrameBytes)/1024)
	}
	add("checkpoint.raw_kb", median(raw), "KiB")
	add("checkpoint.stored_kb", median(stored), "KiB")
	add("checkpoint.chunks", median(chunks), "count")
	add("checkpoint.peak_frame_kb", peak, "KiB")

	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv.gz", name, seed))
	if err := writeSpans(path, spans, parent); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(spans), path)
	res.Correct = res.Failed == 0
	res.Metrics = m
	return res, nil
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(spans []span, parent []int) map[string]metric {
	const us, msec = 1e3, 1e6
	type key struct {
		worker int8
		kind   uint8
	}
	var (
		callSelf, lockWait, ckptSelf []float64
		recov                        = map[string][]float64{}
		rtt                          = map[uint8][]float64{}
		handle                       = map[uint8][]float64{}
		handlers                     = map[key][]span{}
		reqBytes                     = map[uint8][]float64{}
		respBytes                    = map[uint8][]float64{}
		children                     = map[int][]span{}
		ckpts, snapNexts             int
		injItems, injBytes           float64
	)
	for i, s := range spans {
		switch s.layer {
		case layerTransport:
			rtt[s.kind] = append(rtt[s.kind], float64(s.dur())/us)
			reqBytes[s.kind] = append(reqBytes[s.kind], float64(s.reqBytes))
			respBytes[s.resp] = append(respBytes[s.resp], float64(s.respBytes))
			if p := parent[i]; p >= 0 {
				children[p] = append(children[p], s)
				if spans[p].kind == opInject {
					injBytes += float64(s.reqBytes)
				}
				if spans[p].kind == opCheckpoint && s.kind == wire.MsgSnapNext {
					snapNexts++
				}
			}
		case layerHandler:
			handle[s.kind] = append(handle[s.kind], float64(s.dur())/us)
			k := key{s.worker, s.kind}
			handlers[k] = append(handlers[k], s)
		}
	}
	recoverGroup := map[uint8]string{
		wire.MsgDeploy: "deploy", wire.MsgRestoreBegin: "restore", wire.MsgRestoreChunk: "restore",
		wire.MsgRestoreEnd: "restore", wire.MsgRestore: "restore", wire.MsgInject: "replay", wire.MsgPeers: "peers",
	}
	for i, s := range spans {
		if s.layer != layerCaller {
			continue
		}
		kids := children[i]
		switch s.kind {
		case opCall, opInject:
			if s.kind == opInject {
				injItems += float64(s.reqBytes)
			}
			if len(kids) == 0 {
				continue
			}
			first := kids[0].start
			for _, c := range kids {
				first = min(first, c.start)
			}
			lockWait = append(lockWait, float64(first-s.start)/us)
			if s.kind == opCall {
				callSelf = append(callSelf, float64(selfTime(s, kids))/us)
			}
		case opCheckpoint:
			ckpts++
			ckptSelf = append(ckptSelf, float64(selfTime(s, kids))/msec)
		case opRecover:
			sums := map[string]float64{"deploy": 0, "restore": 0, "replay": 0, "peers": 0}
			for _, c := range kids {
				sums[recoverGroup[c.kind]] += float64(c.dur()) / msec
			}
			for g, v := range sums {
				recov[g] = append(recov[g], v)
			}
		}
	}
	// Network time: a data-link transport span minus the worker's handling
	// of the same frame, found as the handler span of that worker and type
	// nested inside it.
	net := map[uint8][]float64{}
	for _, hs := range handlers {
		slices.SortFunc(hs, func(a, b span) int { return int(a.start - b.start) })
	}
	for _, s := range spans {
		if s.layer != layerTransport || (s.kind != wire.MsgCall && s.kind != wire.MsgInject) {
			continue
		}
		hs := handlers[key{s.worker, s.kind}]
		j, _ := slices.BinarySearchFunc(hs, s.start, func(h span, t int64) int { return int(h.start - t) })
		if j < len(hs) && hs[j].end <= s.end {
			net[s.kind] = append(net[s.kind], float64(s.dur()-hs[j].dur())/us)
		}
	}

	out := map[string]metric{}
	add := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	add("coord.call_self_us.p50", median(callSelf), "us")
	add("coord.lock_wait_us.p50", median(lockWait), "us")
	add("coord.lock_wait_us.p99", pctFloat(lockWait, 99), "us")
	add("coord.ckpt_self_ms", median(ckptSelf), "ms")
	for _, g := range []string{"deploy", "restore", "replay", "peers"} {
		add("coord.recover."+g+"_ms", median(recov[g]), "ms")
	}
	named := []struct {
		name string
		t    uint8
	}{
		{"call", wire.MsgCall}, {"inject", wire.MsgInject}, {"snapbegin", wire.MsgSnapBegin},
		{"snapnext", wire.MsgSnapNext}, {"restorechunk", wire.MsgRestoreChunk},
		{"restoreend", wire.MsgRestoreEnd}, {"deploy", wire.MsgDeploy},
	}
	for _, n := range named {
		switch n.t {
		case wire.MsgCall, wire.MsgInject, wire.MsgSnapNext, wire.MsgRestoreChunk:
			add("cluster.rtt_us."+n.name+".p50", median(rtt[n.t]), "us")
		}
		add("worker.handle_us."+n.name+".p50", median(handle[n.t]), "us")
	}
	add("cluster.net_us.call.p50", median(net[wire.MsgCall]), "us")
	add("cluster.net_us.inject.p50", median(net[wire.MsgInject]), "us")
	add("wire.bytes.call", mean(reqBytes[wire.MsgCall]), "bytes")
	add("wire.bytes.callreply", mean(respBytes[wire.MsgCallReply]), "bytes")
	add("wire.bytes.inject", mean(reqBytes[wire.MsgInject]), "bytes")
	add("wire.bytes.snapchunk", mean(respBytes[wire.MsgSnapChunk]), "bytes")
	add("wire.bytes.restorechunk", mean(reqBytes[wire.MsgRestoreChunk]), "bytes")
	perCkpt := 0.0
	if ckpts > 0 {
		perCkpt = float64(snapNexts) / float64(ckpts)
	}
	add("cluster.frames.snapnext_per_ckpt", perCkpt, "count")
	perItem := 0.0
	if injItems > 0 {
		perItem = injBytes / injItems
	}
	add("wire.bytes_per_item.inject", perItem, "bytes")
	return out
}

// pctFloat is the nearest-rank percentile of xs; 0 for none.
func pctFloat(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
