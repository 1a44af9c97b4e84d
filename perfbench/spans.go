package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// a request id; Parent is 0 for a root span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	StartUs float64 `json:"start_us"` // since the tracer started
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"` // filled in by selfTimes
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartUs: t.now()})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].EndUs = t.now()
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUs, s.EndUs})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUs = (s.EndUs - s.StartUs) - covered(s.StartUs, s.EndUs, children[s.ID])
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// self returns the self times in microseconds of every span with the
// given name, in recording order. Call selfTimes first.
func (t *tracer) self(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.SelfUs)
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
