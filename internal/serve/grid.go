package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
)

// gridRun is one grid request's fan-out on the sweep worker pool, shared
// by /v1/sweep, /v1/perturb and /v1/resilience. results[i] is valid once
// ready[i] is closed; finished closes when every worker has retired.
// Workers decide only wall-clock, never values: each point is an
// independent deterministic evaluation, so the results equal a sequential
// pass whatever the completion order or grouping.
type gridRun[T any] struct {
	results  []T
	ready    []chan struct{}
	finished chan struct{}
}

// runGrid starts evaluating points 0..n-1 and returns without waiting.
// units are the work units a worker claims whole, each a list of point
// indices; nil means one unit per point, in index order. eval computes one
// point. failed fills a point that eval did not complete: one whose
// request context ended before it started (a disconnected or expired
// client aborts the remaining points instead of burning evaluation slots
// on a response nobody reads; already-claimed units drain as cheap fills),
// or one whose eval panicked — the panic becomes that point's error and a
// worker_panics count, never a dead process.
func runGrid[T any](s *Server, ctx context.Context, n int, units [][]int, eval func(i int) T, failed func(i int, err error) T) *gridRun[T] {
	g := &gridRun[T]{
		results:  make([]T, n),
		ready:    make([]chan struct{}, n),
		finished: make(chan struct{}),
	}
	for i := range g.ready {
		g.ready[i] = make(chan struct{})
	}
	if units == nil {
		idx := make([]int, n)
		units = make([][]int, n)
		for i := range idx {
			idx[i] = i
			units[i] = idx[i : i+1]
		}
	}
	point := func(i int) (res T) {
		defer func() {
			if p := recover(); p != nil {
				s.st.workerPanics.Add(1)
				s.cfg.Logf("paceserve: worker panic on grid point %d: %v\n%s", i, p, debug.Stack())
				res = failed(i, fmt.Errorf("internal error: %v", p))
			}
		}()
		if err := ctx.Err(); err != nil {
			return failed(i, fmt.Errorf("cancelled: %w", err))
		}
		return eval(i)
	}
	workers := min(s.cfg.SweepWorkers, len(units))
	next := make(chan []int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for unit := range next {
				for _, i := range unit {
					g.results[i] = point(i)
					close(g.ready[i])
				}
			}
		}()
	}
	go func() {
		for _, unit := range units {
			next <- unit
		}
		close(next)
		wg.Wait()
		close(g.finished)
	}()
	return g
}

// wait blocks until every worker has retired and returns the results in
// index order.
func (g *gridRun[T]) wait() []T {
	<-g.finished
	return g.results
}

// stream writes the results as NDJSON, one line per point in index order,
// flushing each line as soon as its point lands. It returns false when the
// client went away mid-stream; the remaining points then drain through
// the cancelled request context. Either way it returns only after every
// worker has retired, so no worker writes once the handler is done.
func (g *gridRun[T]) stream(w http.ResponseWriter, r *http.Request) bool {
	defer g.wait()
	announceRetryTrailer(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range g.results {
		<-g.ready[i]
		if err := enc.Encode(&g.results[i]); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	finishRetryTrailer(w, r)
	return true
}

// NDJSON mid-stream failure contract (see cmd/paceserve/README.md): once
// streaming has begun the status line is long gone, so a deadline or
// cancellation mid-grid cannot turn into a 503/504. Instead the remaining
// lines carry "cancelled: ..." errors and the response announces a
// Retry-After trailer up front, set to "1" after the stream if any work
// was abandoned — the streaming analogue of the 503/504 Retry-After
// header.

// announceRetryTrailer declares the Retry-After trailer before the body
// starts (trailers must be announced ahead of the status line to be
// emitted at all).
func announceRetryTrailer(w http.ResponseWriter) {
	w.Header().Set("Trailer", "Retry-After")
}

// finishRetryTrailer sets the announced trailer when the request's
// context ended mid-stream (deadline or cancellation): remaining lines
// were marked cancelled rather than evaluated, so the client should
// re-issue the request.
func finishRetryTrailer(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		w.Header().Set("Retry-After", "1")
	}
}
