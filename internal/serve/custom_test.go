package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// newRecorder serves one prepared request and returns the recorder.
func newRecorder(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// flatSpec is a valid non-predefined flat platform description.
func flatSpec() platform.Spec {
	return platform.Spec{
		Name:         "Custom-Flat",
		Description:  "what-if commodity cluster",
		CoresPerNode: 2,
		Processor: platform.ProcSpec{
			Rates: []platform.RatePoint{{CellsPerProc: 2500, MFLOPS: 500}, {CellsPerProc: 125000, MFLOPS: 480}},
		},
		Interconnect: platform.NetSpec{
			Levels: []platform.Level{{
				Name:     "fabric",
				Send:     platform.Piecewise{A: 512, B: 4, C: 0.006, D: 6, E: 0.003},
				Recv:     platform.Piecewise{A: 512, B: 5, C: 0.006, D: 7, E: 0.003},
				PingPong: platform.Piecewise{A: 512, B: 18, C: 0.015, D: 24, E: 0.007},
			}},
		},
	}
}

// hierServeSpec is a two-level custom platform: cheap intra-node fabric
// under a slower inter-node network.
func hierServeSpec() platform.Spec {
	s := flatSpec()
	s.Name = "Custom-Hier"
	s.CoresPerNode = 4
	inter := s.Interconnect.Levels[0]
	intra := platform.Level{
		Name:     "numa",
		Send:     platform.Piecewise{A: 2048, B: 1.0, C: 0.0008, D: 1.7, E: 0.0005},
		Recv:     platform.Piecewise{A: 2048, B: 1.2, C: 0.0008, D: 1.9, E: 0.0005},
		PingPong: platform.Piecewise{A: 2048, B: 3.0, C: 0.002, D: 4.7, E: 0.0012},
	}
	s.Interconnect = platform.NetSpec{Name: "hier", Levels: []platform.Level{intra, inter}}
	return s
}

// specTestBuilder derives the fitted model directly from the spec's
// ground-truth curves (no benchmark pipeline), counting invocations so
// singleflight tests can assert fit-once behaviour.
func specTestBuilder(tb testing.TB, fits *atomic.Int64) func(spec platform.Spec) (*pace.Evaluator, error) {
	tb.Helper()
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		tb.Fatal(err)
	}
	return func(spec platform.Spec) (*pace.Evaluator, error) {
		if fits != nil {
			fits.Add(1)
		}
		pl, err := spec.Platform()
		if err != nil {
			return nil, err
		}
		m := &hwmodel.Model{Name: spec.Name + "-fit", MFLOPS: pl.Proc.MFLOPSAt(125000)}
		if pl.Net.Hierarchical() {
			m.Topology = pl.Topology()
			for _, lv := range pl.Net.Levels {
				m.Levels = append(m.Levels, hwmodel.NetLevel{Send: lv.Send, Recv: lv.Recv, PingPong: lv.PingPong})
			}
			m.Send, m.Recv, m.PingPong = m.Levels[0].Send, m.Levels[0].Recv, m.Levels[0].PingPong
		} else {
			m.Send, m.Recv, m.PingPong = pl.Net.Send, pl.Net.Recv, pl.Net.PingPong
		}
		return pace.NewEvaluator(m, analysis)
	}
}

func predictBody(spec platform.Spec, extra string) string {
	data, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`{"platform_spec":%s,"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}%s}`, data, extra)
}

// TestPredictInlineSpec covers the inline custom-platform path end to end:
// 200 with the spec's name and fingerprint echoed, response-cache reuse on
// repeat, and a prediction bit-identical across the trace, event and
// goroutine scheduler backends (the acceptance criterion).
func TestPredictInlineSpec(t *testing.T) {
	for _, spec := range []platform.Spec{flatSpec(), hierServeSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			var ref *PredictResponse
			for _, sched := range []string{"", "event", "goroutine"} {
				s := newTestServer(t, func(c *Config) {
					c.Scheduler = sched
					c.BuildEvaluatorSpec = specTestBuilder(t, nil)
				})
				rec := postJSON(t, s, "/v1/predict", predictBody(spec, ""))
				if rec.Code != http.StatusOK {
					t.Fatalf("scheduler %q: status %d: %s", sched, rec.Code, rec.Body.String())
				}
				var resp PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Platform != spec.Name || resp.PlatformFingerprint != spec.FingerprintHex() {
					t.Errorf("scheduler %q: echoed platform %q fp %q", sched, resp.Platform, resp.PlatformFingerprint)
				}
				if resp.PredictedSeconds <= 0 || resp.Method != "template" {
					t.Fatalf("scheduler %q: response %+v", sched, resp)
				}
				if ref == nil {
					ref = &resp
				} else if resp.PredictedSeconds != ref.PredictedSeconds {
					t.Errorf("scheduler %q: predicted %v, want %v (bit-identical across backends)",
						sched, resp.PredictedSeconds, ref.PredictedSeconds)
				}
				// Repeat: served from the response cache, byte-identical.
				rec2 := postJSON(t, s, "/v1/predict", predictBody(spec, ""))
				if got := rec2.Header().Get("X-Paceserve-Cache"); got != "hit" {
					t.Errorf("scheduler %q: repeat disposition %q, want hit", sched, got)
				}
				if rec2.Body.String() != rec.Body.String() {
					t.Errorf("scheduler %q: cached bytes differ", sched)
				}
			}
		})
	}
}

// TestPredictHierarchicalSpecDiffersFromFlattened submits a hierarchical
// spec and its single-level flattenings: the hierarchical prediction must
// differ from both and lie between them.
func TestPredictHierarchicalSpecDiffersFromFlattened(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluatorSpec = specTestBuilder(t, nil)
	})
	// 4x2 ranks over 4-core nodes: east/west neighbours stay intra-node,
	// the node boundary and north/south pairs cross it. (A 2x2 array would
	// fit in one node and legitimately collapse to the intra-level price.)
	predict := func(spec platform.Spec) float64 {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"platform_spec":%s,"grid":{"nx":200,"ny":100,"nz":50},"array":{"px":4,"py":2}}`, data)
		rec := postJSON(t, s, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.PredictedSeconds
	}
	hier := hierServeSpec()
	flatten := func(level int, name string) platform.Spec {
		f := hier
		f.Name = name
		f.Interconnect = platform.NetSpec{Levels: []platform.Level{hier.Interconnect.Levels[level]}}
		return f
	}
	h := predict(hier)
	intra := predict(flatten(0, "Custom-AllIntra"))
	inter := predict(flatten(1, "Custom-AllInter"))
	if h == intra || h == inter {
		t.Fatalf("hierarchical %v equals a flattened equivalent (intra %v inter %v)", h, intra, inter)
	}
	if !(intra < h && h < inter) {
		t.Errorf("hierarchical %v must lie between intra %v and inter %v", h, intra, inter)
	}
}

// TestPredictSpecValidation is the table-driven API-boundary suite: every
// malformed spec must produce a structured 400 whose error mentions the
// offending field, and never reach the fitting pipeline.
func TestPredictSpecValidation(t *testing.T) {
	var fits atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluatorSpec = specTestBuilder(t, &fits)
	})
	cases := []struct {
		name    string
		mutate  func(*platform.Spec)
		wantSub string
	}{
		{"no-name", func(sp *platform.Spec) { sp.Name = "" }, "name is required"},
		{"no-rates", func(sp *platform.Spec) { sp.Processor.Rates = nil }, "rates"},
		{"bad-rate", func(sp *platform.Spec) { sp.Processor.Rates[0].MFLOPS = -5 }, "mflops"},
		{"unsorted-rates", func(sp *platform.Spec) {
			sp.Processor.Rates[1].CellsPerProc = sp.Processor.Rates[0].CellsPerProc
		}, "ascending"},
		{"no-levels", func(sp *platform.Spec) { sp.Interconnect.Levels = nil }, "levels"},
		{"negative-slope", func(sp *platform.Spec) { sp.Interconnect.Levels[0].Send.C = -1 }, "slopes"},
		{"breakpoint-drop", func(sp *platform.Spec) {
			sp.Interconnect.Levels[0].Recv = platform.Piecewise{A: 1000, B: 50, C: 0.01, D: 1, E: 0.001}
		}, "decreases across breakpoint"},
		{"bad-jitter", func(sp *platform.Spec) { sp.Interconnect.Levels[0].Jitter = 2 }, "jitter"},
		{"hier-no-nodes", func(sp *platform.Spec) {
			*sp = hierServeSpec()
			sp.CoresPerNode = 0
		}, "cores_per_node"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := flatSpec()
			c.mutate(&spec)
			rec := postJSON(t, s, "/v1/predict", predictBody(spec, ""))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error envelope not JSON: %s", rec.Body.String())
			}
			if !strings.Contains(e.Error, c.wantSub) {
				t.Errorf("error %q does not mention %q", e.Error, c.wantSub)
			}
		})
	}
	// Name+spec together is a 400 too.
	body := predictBody(flatSpec(), "")
	body = strings.Replace(body, `{"platform_spec":`, `{"platform":"alpha","platform_spec":`, 1)
	if rec := postJSON(t, s, "/v1/predict", body); rec.Code != http.StatusBadRequest {
		t.Errorf("platform+platform_spec: status %d, want 400", rec.Code)
	}
	if n := fits.Load(); n != 0 {
		t.Errorf("invalid specs reached the fitting pipeline %d times", n)
	}
}

// TestCustomSpecSingleflight is the spec-fingerprint singleflight
// acceptance: N concurrent first-time requests for one custom platform
// trigger exactly one fit, and distinct specs never share cache entries.
// Run under -race in CI.
func TestCustomSpecSingleflight(t *testing.T) {
	var fits atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluatorSpec = specTestBuilder(t, &fits)
	})

	const workers = 16
	spec := flatSpec()
	var wg sync.WaitGroup
	codes := make([]int, workers)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, s, "/v1/predict", predictBody(spec, fmt.Sprintf(`,"mk":%d`, 1+i%4)))
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("%d fits for one spec fingerprint, want exactly 1", n)
	}

	// Distinct specs (one field apart) build separately and never share
	// entries — hammered concurrently.
	variants := make([]platform.Spec, 4)
	for i := range variants {
		v := flatSpec()
		v.Processor.Rates[0].MFLOPS += float64(i + 1)
		variants[i] = v
	}
	results := make([][]byte, len(variants)*workers/4)
	wg.Add(len(results))
	for i := range results {
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, s, "/v1/predict", predictBody(variants[i%len(variants)], ""))
			if rec.Code == http.StatusOK {
				results[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	distinct := make(map[string]map[string]bool) // fingerprint -> predicted values
	for i, body := range results {
		if body == nil {
			t.Fatalf("variant request %d failed", i)
		}
		var resp PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if distinct[resp.PlatformFingerprint] == nil {
			distinct[resp.PlatformFingerprint] = make(map[string]bool)
		}
		distinct[resp.PlatformFingerprint][fmt.Sprint(resp.PredictedSeconds)] = true
	}
	if len(distinct) != len(variants) {
		t.Fatalf("%d distinct fingerprints, want %d", len(distinct), len(variants))
	}
	for fp, vals := range distinct {
		if len(vals) != 1 {
			t.Errorf("fingerprint %s produced %d distinct predictions", fp, len(vals))
		}
	}
	if n := fits.Load(); n != 1+int64(len(variants)) {
		t.Errorf("total fits = %d, want %d (one per distinct spec)", n, 1+len(variants))
	}
}

// TestPredictSpecETag: the ETag incorporates the spec fingerprint — equal
// specs revalidate to 304, a one-field change produces a fresh validator.
func TestPredictSpecETag(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluatorSpec = specTestBuilder(t, nil)
	})
	rec := postJSON(t, s, "/v1/predict", predictBody(flatSpec(), ""))
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on spec response")
	}
	req, _ := http.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(flatSpec(), "")))
	req.Header.Set("If-None-Match", etag)
	rec2 := newRecorder(s, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", rec2.Code)
	}
	other := flatSpec()
	other.Processor.Rates[0].MFLOPS++
	rec3 := postJSON(t, s, "/v1/predict", predictBody(other, ""))
	if rec3.Header().Get("ETag") == etag {
		t.Error("different spec must carry a different ETag")
	}
}

// TestSweepInlineSpec sweeps an inline custom platform and cross-checks
// one point against /v1/predict's cached bytes.
func TestSweepInlineSpec(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluatorSpec = specTestBuilder(t, nil)
	})
	data, _ := json.Marshal(hierServeSpec())
	body := fmt.Sprintf(`{"platform_spec":%s,"arrays":[{"px":2,"py":2},{"px":4,"py":2}],"mk":[5,10]}`, data)
	rec := postJSON(t, s, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || resp.Errors != 0 || resp.Best == nil {
		t.Fatalf("sweep response %+v", resp)
	}
	for _, pt := range resp.Points {
		if pt.Platform != "Custom-Hier" || pt.PredictedSeconds <= 0 {
			t.Errorf("point %+v", pt)
		}
	}
	// Spec plus platform names together is a 400.
	bad := fmt.Sprintf(`{"platform_spec":%s,"platforms":["alpha"],"arrays":[{"px":2,"py":2}]}`, data)
	if rec := postJSON(t, s, "/v1/sweep", bad); rec.Code != http.StatusBadRequest {
		t.Errorf("spec+names status %d, want 400", rec.Code)
	}
}

// TestPlatformsEndpoint lists the registry with topology shape, serving
// status and fingerprints.
func TestPlatformsEndpoint(t *testing.T) {
	reg := platform.BuiltinRegistry()
	custom := hierServeSpec()
	if err := reg.Register(custom); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.Platforms = []string{"alpha", "beta"}
	})
	req, _ := http.NewRequest(http.MethodGet, "/v1/platforms", nil)
	rec := newRecorder(s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PlatformsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.InlineSpecs {
		t.Error("inline specs must be enabled by default")
	}
	byName := make(map[string]PlatformInfo)
	for _, p := range resp.Platforms {
		byName[p.Name] = p
	}
	if len(byName) != len(platform.Names())+1 {
		t.Fatalf("listed %d platforms, want %d", len(byName), len(platform.Names())+1)
	}
	hier := byName["Custom-Hier"]
	if !hier.Hierarchical || hier.Levels != 2 || hier.CoresPerNode != 4 || hier.Served {
		t.Errorf("custom entry %+v", hier)
	}
	if hier.Fingerprint != custom.FingerprintHex() {
		t.Errorf("fingerprint %q, want %q", hier.Fingerprint, custom.FingerprintHex())
	}
	for _, name := range platform.Names() {
		if byName[name].Fingerprint == "" {
			t.Errorf("built-in %s missing fingerprint", name)
		}
	}
	// POST is the registration endpoint now; an empty spec is invalid.
	if post := postJSON(t, s, "/v1/platforms", "{}"); post.Code != http.StatusBadRequest {
		t.Errorf("POST status %d, want 400", post.Code)
	}
}

// TestInlineSpecsDisabled: CustomEvaluators < 0 turns the inline path off
// with a clean 400 on both endpoints.
func TestInlineSpecsDisabled(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.CustomEvaluators = -1
	})
	if rec := postJSON(t, s, "/v1/predict", predictBody(flatSpec(), "")); rec.Code != http.StatusBadRequest {
		t.Errorf("predict status %d, want 400", rec.Code)
	}
	data, _ := json.Marshal(flatSpec())
	body := fmt.Sprintf(`{"platform_spec":%s,"arrays":[{"px":2,"py":2}]}`, data)
	if rec := postJSON(t, s, "/v1/sweep", body); rec.Code != http.StatusBadRequest {
		t.Errorf("sweep status %d, want 400", rec.Code)
	}
}

// TestRegisteredPlatformServedByName: a spec registered at runtime with
// POST /v1/platforms is served by name on every evaluating endpoint.
func TestRegisteredPlatformServedByName(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Registry = platform.NewRegistry()
		c.BuildEvaluatorSpec = specTestBuilder(t, nil)
	})
	spec := hierServeSpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, s, "/v1/platforms", string(data)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/platforms: status %d: %s", rec.Code, rec.Body.String())
	}
	config := fmt.Sprintf(`"platform":%q,"grid":{"nx":100,"ny":100,"nz":50}`, spec.Name)
	for _, tc := range []struct{ path, body string }{
		{"/v1/predict", `{` + config + `,"array":{"px":2,"py":2}}`},
		{"/v1/sweep", fmt.Sprintf(`{"platform":%q,"arrays":[{"px":2,"py":2}]}`, spec.Name)},
		{"/v1/perturb", `{` + config + `,"array":{"px":2,"py":2},` +
			`"scenario":{"seed":1,"delays":[{"rank":1,"iteration":2,"seconds":3.0}]}}`},
		{"/v1/resilience", `{` + config + `,"array":{"px":2,"py":2},` +
			`"study":{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":0.01},` +
			`"failure":{"mtbf_seconds":2.0,"scenarios":2}}}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			if rec := postJSON(t, s, tc.path, tc.body); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		})
	}
}
