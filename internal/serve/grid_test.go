package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// streamGrids is one streamed NDJSON grid per grid endpoint, four points
// each, for the stream-contract tests below.
var streamGrids = []struct {
	name, path, body string
	lines            int
}{
	{"sweep", "/v1/sweep", `{
		"platform": "alpha",
		"arrays": [{"px": 1, "py": 1}, {"px": 2, "py": 1}, {"px": 2, "py": 2}, {"px": 4, "py": 2}],
		"stream": true
	}`, 4},
	{"perturb", "/v1/perturb", `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"scenarios": [
			{"seed": 1, "delays": [{"rank": 0, "iteration": 0, "seconds": 3.0}]},
			{"seed": 1, "delays": [{"rank": 3, "iteration": 5, "seconds": 1.5}]},
			{"seed": 2, "delays": [{"rank": 1, "iteration": 9, "seconds": 4.0}]},
			{"seed": 3, "delays": [{"rank": 2, "iteration": 2, "seconds": 2.0}]}
		]
	}`, 4},
	{"resilience", "/v1/resilience", `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"studies": [
			{"seed": 1, "checkpoint": {"interval_iterations": 2, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 2, "checkpoint": {"interval_iterations": 3, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 3, "checkpoint": {"interval_iterations": 4, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 4, "checkpoint": {"interval_iterations": 6, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}}
		]
	}`, 4},
}

// waitGoroutines fails the test unless the goroutine count falls back to
// at most before+2 within five seconds (allowing brief scheduler lag).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// disconnectingWriter simulates a client that goes away mid-stream: the
// first body write succeeds, every later write cancels the request
// context and fails, like a real severed connection.
type disconnectingWriter struct {
	header http.Header
	writes int
	cancel context.CancelFunc
}

func (d *disconnectingWriter) Header() http.Header { return d.header }
func (d *disconnectingWriter) WriteHeader(int)     {}
func (d *disconnectingWriter) Write(p []byte) (int, error) {
	d.writes++
	if d.writes > 1 {
		d.cancel()
		return 0, errors.New("client disconnected")
	}
	return len(p), nil
}

// TestStreamDisconnectNoGoroutineLeaks abandons each endpoint's NDJSON
// grid mid-write and checks the worker fan-out still retires: the encode
// error return must drain the pool via context cancellation, never strand
// workers blocked on the results.
func TestStreamDisconnectNoGoroutineLeaks(t *testing.T) {
	for _, tc := range streamGrids {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, nil)
			before := runtime.NumGoroutine()
			for round := 0; round < 3; round++ {
				ctx, cancel := context.WithCancel(context.Background())
				req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
				w := &disconnectingWriter{header: make(http.Header), cancel: cancel}
				s.ServeHTTP(w, req)
				cancel()
				if w.writes < 2 {
					t.Fatalf("round %d: stream never hit the disconnect (%d writes)", round, w.writes)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// TestStreamCancelledTrailer drives each endpoint's grid with an
// already-cancelled request context: every line must carry a cancellation
// error and the announced Retry-After trailer must be set after the
// stream — the NDJSON analogue of the 503/504 Retry-After header.
func TestStreamCancelledTrailer(t *testing.T) {
	for _, tc := range streamGrids {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			sc := bufio.NewScanner(rec.Body)
			var lines int
			for sc.Scan() {
				var pt struct {
					Index int    `json:"index"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
					t.Fatal(err)
				}
				if pt.Index != lines || !strings.Contains(pt.Error, "cancelled") {
					t.Fatalf("line %d not marked cancelled in order: %s", lines, sc.Bytes())
				}
				lines++
			}
			if lines != tc.lines {
				t.Fatalf("streamed %d lines, want %d", lines, tc.lines)
			}
			if got := rec.Result().Trailer.Get("Retry-After"); got != "1" {
				t.Fatalf("Retry-After trailer = %q, want \"1\"", got)
			}
		})
	}
}

// TestGridContainsWorkerPanics drives the grid engine with an eval that
// panics on one point: that point becomes an "internal error" result, the
// others evaluate normally, the panic is counted in /v1/stats and
// /metrics, and every worker retires.
func TestGridContainsWorkerPanics(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.SweepWorkers = 3 })
	before := runtime.NumGoroutine()
	const n, bad = 8, 5
	g := runGrid(s, context.Background(), n, nil,
		func(i int) string {
			if i == bad {
				panic("boom")
			}
			return fmt.Sprintf("point %d", i)
		},
		func(i int, err error) string { return fmt.Sprintf("point %d: %v", i, err) })
	for i, got := range g.wait() {
		want := fmt.Sprintf("point %d", i)
		if i == bad {
			want = "point 5: internal error: boom"
		}
		if got != want {
			t.Errorf("result %d = %q, want %q", i, got, want)
		}
	}
	waitGoroutines(t, before)

	var st StatsResponse
	if err := json.Unmarshal(getPath(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WorkerPanics != 1 {
		t.Errorf("stats worker_panics = %d, want 1", st.WorkerPanics)
	}
	if out := getPath(t, s, "/metrics").Body.String(); !strings.Contains(out, "\npaceserve_worker_panics_total 1\n") {
		t.Errorf("metrics missing paceserve_worker_panics_total 1")
	}
}
