package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// Span layers.
const (
	layerCaller    uint8 = iota // a benchmark call into runtime.Coordinator
	layerTransport              // cluster.Transport.Call on a coordinator-side link
	layerHandler                // the worker's cluster.Handler
)

// Caller span kinds (the Coordinator entry points the benchmark calls).
const (
	opCall uint8 = iota
	opInject
	opCheckpoint
	opRecover
)

var opNames = [...]string{"Call", "InjectBatch", "Checkpoint", "RecoverWorker"}

// Coordinator-side links.
const (
	linkData uint8 = iota
	linkControl
)

// span is one timed interval. Times are nanoseconds since the tracer's base.
type span struct {
	start, end int64
	layer      uint8
	kind       uint8 // opCall.. for caller spans, the request type byte otherwise
	resp       uint8 // reply type byte (transport spans)
	worker     int8  // -1 for caller spans
	link       uint8
	reqBytes   uint32 // request frame bytes; item count for caller spans
	respBytes  uint32
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory, in a buffer sized before the run, until the
// run ends. Recording is off outside the measured window.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// at converts a wall-clock reading to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// caller records a benchmark call into the coordinator; a nil or disabled
// tracer ignores it.
func (t *tracer) caller(kind uint8, start, end time.Time, items int) {
	if t == nil || !t.on.Load() {
		return
	}
	t.record(span{start: t.at(start), end: t.at(end), layer: layerCaller, kind: kind, worker: -1, reqBytes: uint32(items)})
}

// recorded returns the spans; call once recording has stopped.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// tracedTransport times every Call on one coordinator-side link.
type tracedTransport struct {
	inner  cluster.Transport
	tr     *tracer
	worker int8
	link   uint8
}

func (t *tracedTransport) Call(req []byte) ([]byte, error) {
	if !t.tr.on.Load() {
		return t.inner.Call(req)
	}
	start := time.Now()
	resp, err := t.inner.Call(req)
	end := time.Now()
	s := span{start: t.tr.at(start), end: t.tr.at(end), layer: layerTransport,
		worker: t.worker, link: t.link, reqBytes: uint32(len(req)), respBytes: uint32(len(resp))}
	if len(req) > 0 {
		s.kind = req[0]
	}
	if len(resp) > 0 {
		s.resp = resp[0]
	}
	t.tr.record(s)
	return resp, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// tracedHandler times a worker's handling of every request frame.
func tracedHandler(h cluster.Handler, tr *tracer, worker int) cluster.Handler {
	return func(req []byte) ([]byte, error) {
		if !tr.on.Load() || len(req) == 0 {
			return h(req)
		}
		kind := req[0] // read before h: the worker may reuse the frame
		n := len(req)
		start := time.Now()
		resp, err := h(req)
		end := time.Now()
		tr.record(span{start: tr.at(start), end: tr.at(end), layer: layerHandler, kind: kind,
			worker: int8(worker), reqBytes: uint32(n), respBytes: uint32(len(resp))})
		return resp, err
	}
}

// childTypes lists, per caller span kind, the request types the coordinator
// sends on that entry point's behalf. Other frames (heartbeats, queries)
// never belong to a caller span.
var childTypes = map[uint8]map[uint8]bool{
	opCall:       {wire.MsgCall: true},
	opInject:     {wire.MsgInject: true},
	opCheckpoint: {wire.MsgSnapBegin: true, wire.MsgSnapNext: true, wire.MsgSnapshotReq: true, wire.MsgEdgeTrim: true},
	opRecover: {wire.MsgDeploy: true, wire.MsgRestoreBegin: true, wire.MsgRestoreChunk: true,
		wire.MsgRestoreEnd: true, wire.MsgRestore: true, wire.MsgInject: true, wire.MsgPeers: true},
}

// assignParents returns, for every span, the index of its parent caller
// span or -1. The coordinator's injection mutex serialises its sends, so a
// transport span belongs to the caller span that encloses it and ends
// first after it; handler spans are matched to transports separately.
func assignParents(spans []span) []int {
	parent := make([]int, len(spans))
	var callers []int
	for i, s := range spans {
		parent[i] = -1
		if s.layer == layerCaller {
			callers = append(callers, i)
		}
	}
	sort.Slice(callers, func(a, b int) bool { return spans[callers[a]].end < spans[callers[b]].end })
	sent := map[uint8]bool{}
	for _, types := range childTypes {
		for t := range types {
			sent[t] = true
		}
	}
	for i, s := range spans {
		if s.layer != layerTransport || !sent[s.kind] {
			continue
		}
		j := sort.Search(len(callers), func(k int) bool { return spans[callers[k]].end >= s.end })
		// Only caller spans open when s started can enclose it; a few
		// concurrent callers means the match is among the first candidates.
		for lim := j + maxScan; j < len(callers) && j < lim; j++ {
			d := spans[callers[j]]
			if d.start <= s.start && childTypes[d.kind][s.kind] {
				parent[i] = callers[j]
				break
			}
		}
	}
	return parent
}

// maxScan bounds the candidate caller spans examined per transport span.
const maxScan = 64

// selfTime is a span's duration minus the part of it its children cover;
// overlapping children are counted once.
func selfTime(p span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, p.start), min(c.end, p.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return p.dur() - covered
}

// writeSpans writes every span as a gzipped tab-separated table.
func writeSpans(path string, spans []span, parent []int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tlayer\tname\tworker\tlink\tstart_ns\tend_ns\tparent\treq_bytes_or_items\tresp\tresp_bytes")
	layers := [...]string{"caller", "transport", "handler"}
	for i, s := range spans {
		var name, resp string
		if s.layer == layerCaller {
			name = opNames[s.kind]
		} else {
			name = wire.MsgName(s.kind)
		}
		if s.layer == layerTransport && s.resp != 0 {
			resp = wire.MsgName(s.resp)
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%d\n", i, layers[s.layer], name, s.worker, s.link,
			s.start, s.end, parent[i], s.reqBytes, resp, s.respBytes)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
