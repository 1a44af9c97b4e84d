package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacesweep/internal/pace"
)

const perturbBody = `{
	"platform": "alpha",
	"grid": {"nx": 100, "ny": 100, "nz": 50},
	"array": {"px": 2, "py": 2},
	"scenario": {
		"seed": 42,
		"delays": [{"rank": 1, "iteration": 2, "seconds": 3.0}],
		"noise": {"kind": "uniform", "frac": 0.02}
	},
	"per_rank": true
}`

func TestPerturbEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postJSON(t, s, "/v1/perturb", perturbBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PerturbResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Platform != "alpha" || resp.Iterations != 12 || resp.MK != 10 {
		t.Errorf("header not canonical: %+v", resp)
	}
	rep := resp.Report
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Ranks != 4 || rep.Seed != 42 || rep.InjectedSeconds != 3.0 {
		t.Errorf("report header %+v", rep)
	}
	if rep.BaselineSeconds <= 0 || rep.PerturbedSeconds < rep.BaselineSeconds {
		t.Errorf("makespans: baseline %v perturbed %v", rep.BaselineSeconds, rep.PerturbedSeconds)
	}
	if rep.DamageSeconds <= 0 {
		t.Errorf("a 3s delay caused no damage")
	}
	if len(rep.Generations) != 13 {
		t.Errorf("generations = %d", len(rep.Generations))
	}
	if len(rep.PerRank) != 4 {
		t.Errorf("per_rank rows = %d", len(rep.PerRank))
	}
}

// TestPerturbDeterministicUnderRace hammers /v1/perturb with identical
// concurrent requests: every response must be byte-identical (reports are
// deterministic functions of seed + scenario and are never cached, so each
// response is a live pair of replays). Run under -race in CI.
func TestPerturbDeterministicUnderRace(t *testing.T) {
	s := newTestServer(t, nil)
	ref := postJSON(t, s, "/v1/perturb", perturbBody)
	if ref.Code != http.StatusOK {
		t.Fatalf("status %d: %s", ref.Code, ref.Body.String())
	}
	const grinders = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, grinders*rounds)
	for g := 0; g < grinders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := postJSON(t, s, "/v1/perturb", perturbBody)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
					errs <- "response bytes diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPerturbScenarioGridNDJSON(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"scenarios": [
			{"seed": 1, "delays": [{"rank": 0, "iteration": 0, "seconds": 3.0}]},
			{"seed": 1, "delays": [{"rank": 3, "iteration": 5, "seconds": 1.5}]},
			{"seed": 2, "delays": [{"rank": 1, "iteration": 9, "seconds": 4.0}]}
		]
	}`
	rec := postJSON(t, s, "/v1/perturb", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var idx int
	for sc.Scan() {
		var pt PerturbPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("line %d: %v", idx, err)
		}
		if pt.Index != idx {
			t.Fatalf("line %d has index %d (must stream in order)", idx, pt.Index)
		}
		if pt.Error != "" || pt.Report == nil {
			t.Fatalf("line %d: %+v", idx, pt)
		}
		if pt.Report.DamageSeconds < 0 {
			t.Fatalf("line %d: negative damage", idx)
		}
		idx++
	}
	if idx != 3 {
		t.Fatalf("streamed %d lines, want 3", idx)
	}
}

func TestPerturbRejectsMalformed(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, body string
	}{
		{"no scenario", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`},
		{"both forms", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":0,"seconds":1}]},
			"scenarios":[{"delays":[{"rank":0,"iteration":0,"seconds":1}]}]}`},
		{"rank out of range", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":4,"iteration":0,"seconds":1}]}}`},
		{"iteration out of range", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":12,"seconds":1}]}}`},
		{"zero seconds", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":0,"seconds":0}]}}`},
		{"unknown noise", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":0,"seconds":1}],"noise":{"kind":"pink","frac":0.1}}}`},
		{"bad grid scenario", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenarios":[{"delays":[{"rank":0,"iteration":0,"seconds":1}]},{"delays":[]}]}`},
		{"unknown platform", `{"platform":"gamma","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":0,"seconds":1}]}}`},
		{"unknown field", `{"platform":"alpha","wat":1,"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"scenario":{"delays":[{"rank":0,"iteration":0,"seconds":1}]}}`},
		{"not json", `{{{`},
	}
	for _, tc := range cases {
		rec := postJSON(t, s, "/v1/perturb", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a structured error envelope: %s", tc.name, rec.Body.String())
		}
	}
	if rec := postJSON(t, s, "/v1/perturb", perturbBody); rec.Code != http.StatusOK {
		t.Fatalf("valid request after rejects: %d", rec.Code)
	}
}

func getPath(tb testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestReadyzAndShedding(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueueDepth = 1
		c.ResponseCacheEntries = -1 // force every predict onto the semaphore
	})

	if rec := getPath(t, s, "/readyz"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "ready") {
		t.Fatalf("idle readyz: %d %s", rec.Code, rec.Body.String())
	}
	if rec := getPath(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}

	// Occupy the single evaluation slot, then park one request in the
	// queue to reach the shedding threshold.
	s.sem <- struct{}{}
	queuedBody := `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- postJSON(t, s, "/v1/predict", queuedBody)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.st.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.shedding() {
		t.Fatal("queue at limit but not shedding")
	}

	// New evaluation work is refused with 503 + Retry-After...
	rec := postJSON(t, s, "/v1/perturb", perturbBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// ...and readiness reports degraded while liveness stays green.
	rec = getPath(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("degraded readyz: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded readyz missing Retry-After")
	}
	if rec := getPath(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz degraded with load: %d", rec.Code)
	}

	// Drain: the queued request completes and readiness recovers.
	<-s.sem
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("queued request finished %d: %s", rec.Code, rec.Body.String())
	}
	if rec := getPath(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain: %d", rec.Code)
	}

	var st StatsResponse
	if rec := getPath(t, s, "/v1/stats"); json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatal("stats unmarshal")
	} else if st.Endpoints["perturb"].Shed != 1 {
		t.Fatalf("perturb shed counter = %d, want 1", st.Endpoints["perturb"].Shed)
	}
}

func TestRequestDeadline504(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.RequestTimeout = 30 * time.Millisecond
		c.ResponseCacheEntries = -1
	})
	// Hold the only slot so the request expires while queued.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	for _, tc := range []struct{ path, body string }{
		{"/v1/predict", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`},
		{"/v1/perturb", perturbBody},
	} {
		rec := postJSON(t, s, tc.path, tc.body)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504: %s", tc.path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 504 missing Retry-After", tc.path)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: unstructured 504 body: %s", tc.path, rec.Body.String())
		}
	}
}

// TestSweepCancellationAbortsPoints posts an aggregated sweep with an
// already-dead request context: every point must come back as a
// cancellation error without touching the evaluator.
func TestSweepCancellationAbortsPoints(t *testing.T) {
	var builds atomic.Int64
	s := newTestServer(t, func(c *Config) {
		build := c.BuildEvaluator
		c.BuildEvaluator = func(name string) (*pace.Evaluator, error) {
			builds.Add(1)
			return build(name)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := `{"platform":"alpha","arrays":[{"px":1,"py":1},{"px":2,"py":1},{"px":2,"py":2},{"px":4,"py":2}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || resp.Errors != 4 {
		t.Fatalf("count %d errors %d, want 4 and 4", resp.Count, resp.Errors)
	}
	for i, pt := range resp.Points {
		if !strings.Contains(pt.Error, "cancelled") {
			t.Fatalf("point %d not cancelled: %+v", i, pt)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("cancelled sweep built %d evaluators", n)
	}
}

// TestPerturbNoGoroutineLeaks checks the perturb fan-out retires all its
// workers, including when the scenario grid is interleaved with shedding
// and cancellations.
func TestPerturbNoGoroutineLeaks(t *testing.T) {
	s := newTestServer(t, nil)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		if rec := postJSON(t, s, "/v1/perturb", perturbBody); rec.Code != http.StatusOK {
			t.Fatalf("round %d: %d", i, rec.Code)
		}
	}
	// The worker pools are fully synchronous per request; allow brief
	// scheduler lag before declaring a leak.
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

// TestSweepScenarioAxis proves robustness works as a sweep axis: every
// point carries a perturbation digest whose identities hold, rank bounds
// are enforced per point against that point's array, and scenario
// problems uniform across the grid are request-level 400s.
func TestSweepScenarioAxis(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postJSON(t, s, "/v1/sweep", `{
		"platform": "alpha",
		"arrays": [{"px":2,"py":2},{"px":2,"py":3}],
		"mk": [10],
		"scenario": {
			"seed": 7,
			"delays": [{"rank": 1, "iteration": 2, "seconds": 3.0}]
		}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Errors != 0 {
		t.Fatalf("want 2 clean points, got %+v", resp)
	}
	for _, pt := range resp.Points {
		p := pt.Perturbation
		if p == nil {
			t.Fatalf("point %d: no perturbation digest", pt.Index)
		}
		if pt.Method != MethodTemplate {
			t.Errorf("point %d: method %q, want template", pt.Index, pt.Method)
		}
		if pt.PredictedSeconds <= 0 || p.PerturbedSeconds <= pt.PredictedSeconds {
			t.Errorf("point %d: baseline %v perturbed %v", pt.Index, pt.PredictedSeconds, p.PerturbedSeconds)
		}
		if p.DamageSeconds != p.PerturbedSeconds-pt.PredictedSeconds {
			t.Errorf("point %d: damage %v != perturbed-baseline %v",
				pt.Index, p.DamageSeconds, p.PerturbedSeconds-pt.PredictedSeconds)
		}
		if p.AbsorbedSeconds+p.DamageSeconds <= 0 {
			t.Errorf("point %d: injected seconds unaccounted: %+v", pt.Index, p)
		}
	}

	// The baseline must bit-equal the clean prediction for the same point.
	var clean PredictResponse
	cleanRec := postJSON(t, s, "/v1/predict", `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"method": "template"
	}`)
	if cleanRec.Code != http.StatusOK {
		t.Fatalf("clean predict: %d", cleanRec.Code)
	}
	if err := json.Unmarshal(cleanRec.Body.Bytes(), &clean); err != nil {
		t.Fatal(err)
	}
	if resp.Points[0].PredictedSeconds != clean.PredictedSeconds {
		t.Errorf("perturbed-sweep baseline %v != clean prediction %v",
			resp.Points[0].PredictedSeconds, clean.PredictedSeconds)
	}

	// Rank 5 exists on 2x3 but not 2x2: the 2x2 point errors individually,
	// the 2x3 point succeeds.
	rec = postJSON(t, s, "/v1/sweep", `{
		"platform": "alpha",
		"arrays": [{"px":2,"py":2},{"px":2,"py":3}],
		"scenario": {"seed": 1, "delays": [{"rank": 5, "iteration": 0, "seconds": 2.5}]}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed-array sweep: %d: %s", rec.Code, rec.Body.String())
	}
	resp = SweepResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 1 || resp.Points[0].Error == "" || resp.Points[1].Error != "" {
		t.Fatalf("want only the 2x2 point to error, got %+v", resp)
	}

	// Uniform scenario problems are request-level 400s.
	for name, body := range map[string]string{
		"closed-form": `{"platform":"alpha","arrays":[{"px":2,"py":2}],"method":"closed-form",
			"scenario":{"seed":1,"delays":[{"rank":0,"iteration":0,"seconds":1}]}}`,
		"rank beyond every array": `{"platform":"alpha","arrays":[{"px":2,"py":2}],
			"scenario":{"seed":1,"delays":[{"rank":99,"iteration":0,"seconds":1}]}}`,
		"bad iteration": `{"platform":"alpha","arrays":[{"px":2,"py":2}],
			"scenario":{"seed":1,"delays":[{"rank":0,"iteration":99,"seconds":1}]}}`,
		"no delays": `{"platform":"alpha","arrays":[{"px":2,"py":2}],
			"scenario":{"seed":1,"delays":[]}}`,
		"bad noise": `{"platform":"alpha","arrays":[{"px":2,"py":2}],
			"scenario":{"seed":1,"delays":[{"rank":0,"iteration":0,"seconds":1}],
			"noise":{"kind":"pink","frac":0.1}}}`,
	} {
		if rec := postJSON(t, s, "/v1/sweep", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body.String())
		}
	}
}

// TestSweepScenarioDeterministic proves perturbed sweeps are as
// deterministic as clean ones even though they bypass the response cache.
func TestSweepScenarioDeterministic(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"platform": "alpha",
		"arrays": [{"px":2,"py":2}],
		"scenario": {"seed": 42, "delays": [{"rank": 1, "iteration": 2, "seconds": 3.0}],
			"noise": {"kind": "gaussian", "frac": 0.05}}
	}`
	first := postJSON(t, s, "/v1/sweep", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	for i := 0; i < 3; i++ {
		again := postJSON(t, s, "/v1/sweep", body)
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("round %d: perturbed sweep not deterministic", i)
		}
	}
}
