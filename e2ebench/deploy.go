package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// callTimeout bounds every client call; a healthy run never approaches it.
const callTimeout = 10 * time.Second

// node is one worker served in-process over real loopback TCP, and the two
// coordinator-side links to it.
type node struct {
	w   *runtime.Worker
	srv *cluster.Server
	ep  runtime.WorkerEndpoint
}

// startNode serves a fresh worker. With a tracer, the worker's handler and
// both coordinator-side links are wrapped in timing decorators.
func startNode(idx int, tr *tracer) (*node, error) {
	w := runtime.NewWorker()
	h := w.Handler()
	if tr != nil {
		h = tracedHandler(h, tr, idx)
	}
	srv, err := cluster.Serve("127.0.0.1:0", h)
	if err != nil {
		w.Close()
		return nil, err
	}
	n := &node{w: w, srv: srv}
	links := [2]cluster.Transport{}
	for i := range links {
		c, err := cluster.Dial(srv.Addr())
		if err != nil {
			for _, l := range links[:i] {
				l.Close()
			}
			srv.Close()
			w.Close()
			return nil, fmt.Errorf("dial worker %d: %w", idx, err)
		}
		c.SetCallTimeout(callTimeout)
		links[i] = c
		if tr != nil {
			links[i] = &tracedTransport{inner: c, tr: tr, worker: int8(idx), link: uint8(i)}
		}
	}
	n.ep = runtime.WorkerEndpoint{Addr: srv.Addr(), Data: links[linkData], Control: links[linkControl]}
	return n, nil
}

// kill stops the worker the way a crash would: its server and runtime go
// away and the coordinator's links to it break.
func (n *node) kill() {
	n.srv.Close()
	n.w.Close()
	n.ep.Data.Close()
	n.ep.Control.Close()
}

// deployment is a coordinator driving len(nodes) TCP workers.
type deployment struct {
	coord *runtime.Coordinator
	nodes []*node
	tr    *tracer
}

func deploy(graph string, workers int, tr *tracer) (*deployment, error) {
	d := &deployment{tr: tr}
	eps := make([]runtime.WorkerEndpoint, 0, workers)
	for i := 0; i < workers; i++ {
		n, err := startNode(i, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		eps = append(eps, n.ep)
	}
	coord, err := runtime.NewCoordinator(graph, eps, runtime.CoordOptions{CallTimeout: callTimeout})
	if err != nil {
		d.close()
		return nil, err
	}
	d.coord = coord
	return d, nil
}

func (d *deployment) close() {
	if d.coord != nil {
		d.coord.Close()
	}
	for _, n := range d.nodes {
		n.kill()
	}
}

// call, inject, checkpoint and recoverWorker wrap the coordinator entry
// points the benchmark drives, recording a caller span when tracing.
func (d *deployment) call(task string, key uint64, value any) (any, time.Time, time.Time, error) {
	start := time.Now()
	v, err := d.coord.Call(task, key, value, callTimeout)
	end := time.Now()
	d.tr.caller(opCall, start, end, 1)
	return v, start, end, err
}

func (d *deployment) inject(task string, items []runtime.InjectItem) error {
	start := time.Now()
	err := d.coord.InjectBatch(task, items)
	d.tr.caller(opInject, start, time.Now(), len(items))
	return err
}

func (d *deployment) checkpoint() (time.Duration, error) {
	start := time.Now()
	err := d.coord.Checkpoint()
	end := time.Now()
	d.tr.caller(opCheckpoint, start, end, 0)
	return end.Sub(start), err
}

// kill crashes worker w and starts its replacement, which recoverWorker
// later hands to the coordinator.
func (d *deployment) kill(w int) (*node, error) {
	d.nodes[w].kill()
	return startNode(w, d.tr)
}

// awaitDead waits until the coordinator has marked worker w dead.
func (d *deployment) awaitDead(w int) error {
	deadline := time.Now().Add(callTimeout)
	for d.coord.WorkerAlive(w) {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %d never marked dead", w)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// recoverWorker restores worker w onto the replacement node. Only the
// RecoverWorker call is timed: failure detection is a heartbeat setting.
func (d *deployment) recoverWorker(w int, spare *node) (time.Duration, error) {
	start := time.Now()
	err := d.coord.RecoverWorker(w, spare.ep)
	end := time.Now()
	d.tr.caller(opRecover, start, end, 0)
	if err != nil {
		spare.srv.Close()
		spare.w.Close()
		return 0, fmt.Errorf("recover worker %d: %w", w, err)
	}
	d.nodes[w] = spare
	return end.Sub(start), nil
}
