package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"pacesweep/internal/grid"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/resilience"
	"pacesweep/internal/serve"
)

// workload is one named workload of BENCHMARK.json.
type workload struct {
	name    string
	loop    string // closed (each client waits for its reply) or batch
	clients int
	plan    func(seed int64) *plan // serving workloads only; clients set from the workload
	run     func(o *options) (*result, error)
	traced  func(o *options) (*result, error)
}

var workloads = map[string]*workload{}

// Every serving workload has one client: with the server it then wants no
// more threads than the two CPUs the benchmark host has, so a run measures
// the server rather than the scheduler (see LAYERS.md, Host noise).
func init() {
	for _, wl := range []*workload{
		{name: "sweep", loop: "closed", clients: 1, plan: sweepPlan},
		{name: "predict-hot", loop: "closed", clients: 1, plan: predictHotPlan},
		{name: "perturb", loop: "closed", clients: 1, plan: perturbPlan},
	} {
		wl := wl
		wl.run = func(o *options) (*result, error) { return runServing(o, wl) }
		wl.traced = func(o *options) (*result, error) { return tracedServing(o, wl) }
		workloads[wl.name] = wl
	}
	workloads["paper"] = &workload{name: "paper", loop: "batch", clients: 1, run: runPaper, traced: tracedPaper}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func wantStatus(resp *response, status int) error {
	if resp.status != status {
		return fmt.Errorf("status %d (want %d): %.200s", resp.status, status, resp.body)
	}
	return nil
}

// --- sweep ---

func sweepPlan(seed int64) *plan {
	cells := sweepCells(seed)
	return &plan{
		platforms:   sweepPlatforms,
		tailPct:     75,
		warmup:      sweepWarmup(),
		round:       func(_, r int) []request { return sweepRound(seed, cells, r) },
		check:       sweepCheck(seed),
		validate:    validateSweep,
		oracle:      oracleSweep,
		rep:         modelConfig(serve.GridSpec{NX: 30 * 32, NY: 30 * 32, NZ: sweepNZ}, serve.ArraySpec{PX: 32, PY: 32}, 5, 3, 12),
		repPlatform: sweepPlatforms[0],
	}
}

func validateSweep(req *request, resp *response) error {
	if err := wantStatus(resp, http.StatusOK); err != nil {
		return err
	}
	var q serve.SweepRequest
	var out serve.SweepResponse
	if err := json.Unmarshal(req.body, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("decoding sweep response: %w", err)
	}
	if out.Count != req.points || len(out.Points) != req.points || out.Errors != 0 {
		return fmt.Errorf("sweep answered %d points (%d errors), want %d clean", len(out.Points), out.Errors, req.points)
	}
	a, c := q.Arrays[0], q.CellsPerProc
	for i, pt := range out.Points {
		switch {
		case pt.Error != "":
			return fmt.Errorf("point %d: %s", i, pt.Error)
		case pt.Index != i || pt.Array != a || pt.Grid != (serve.GridSpec{NX: c.NX * a.PX, NY: c.NY * a.PY, NZ: c.NZ}):
			return fmt.Errorf("point %d: unexpected configuration %+v", i, pt)
		case pt.Method != serve.MethodTemplate || !(pt.PredictedSeconds > 0) || !finite(pt.PredictedSeconds):
			return fmt.Errorf("point %d: prediction %v by %q", i, pt.PredictedSeconds, pt.Method)
		}
	}
	return nil
}

// oracleSweep re-evaluates every point of a check response on the event
// backend with the same fitted model and compares the bits.
func oracleSweep(or *oracle, req *request, resp *response) error {
	var q serve.SweepRequest
	var out serve.SweepResponse
	if err := json.Unmarshal(req.body, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return err
	}
	for _, pt := range out.Points {
		ev, err := or.eventEvaluator(pt.Platform)
		if err != nil {
			return err
		}
		pred, err := ev.Predict(modelConfig(pt.Grid, pt.Array, pt.MK, pt.MMI, q.Iterations))
		if err != nil {
			return err
		}
		if err := sameFloat(fmt.Sprintf("point %d predicted_seconds", pt.Index), pt.PredictedSeconds, pred.Total); err != nil {
			return err
		}
	}
	return nil
}

// modelConfig is the model configuration of a request's grid, array and
// blocking, with the benchmark's 6 angles per octant.
func modelConfig(g serve.GridSpec, a serve.ArraySpec, mk, mmi, iterations int) pace.Config {
	return pace.Config{
		Grid:   grid.Global{NX: g.NX, NY: g.NY, NZ: g.NZ},
		Decomp: grid.Decomp{PX: a.PX, PY: a.PY},
		MK:     mk, MMI: mmi, Angles: 6, Iterations: iterations,
	}
}

// predictConfig is a predict request's configuration with the server's
// defaults (mk 10, mmi 3, 12 iterations) filled in.
func predictConfig(q serve.PredictRequest) pace.Config {
	mk, mmi, it := q.MK, q.MMI, q.Iterations
	if mk == 0 {
		mk = 10
	}
	if mmi == 0 {
		mmi = 3
	}
	if it == 0 {
		it = 12
	}
	return modelConfig(q.Grid, q.Array, mk, mmi, it)
}

// perturbConfig is the configuration of a perturbation or resilience
// request, which leave mk and mmi at the server's defaults.
func perturbConfig(g serve.GridSpec, a serve.ArraySpec, iterations int) pace.Config {
	return modelConfig(g, a, 10, 3, iterations)
}

// --- predict-hot ---

// hotState remembers, per catalogue entry, the body and ETag first
// served; every later answer must repeat them exactly, across requests
// and across server processes.
type hotState struct {
	mu     sync.Mutex
	bodies map[int][]byte
	etags  map[int]string
}

func predictHotPlan(seed int64) *plan {
	cat := hotCatalogueFor(seed)
	st := &hotState{bodies: map[int][]byte{}, etags: map[int]string{}}
	var warm []request
	for k, q := range cat {
		warm = append(warm, predictRequest(q, k))
	}
	return &plan{
		platforms:   hotPlatforms,
		tailPct:     90, // the p99 of sub-millisecond hits tracks host preemption
		warmup:      warm,
		round:       func(c, r int) []request { return hotRoundFor(seed, cat, c, r) },
		check:       warm,
		validate:    st.validate,
		oracle:      st.oracle,
		resolve:     st.resolve,
		rep:         modelConfig(serve.GridSpec{NX: 400, NY: 400, NZ: 50}, serve.ArraySpec{PX: 8, PY: 8}, 5, 3, 12),
		repPlatform: hotPlatforms[0],
	}
}

func (st *hotState) resolve(req *request) {
	if req.etag == "" {
		return
	}
	st.mu.Lock()
	req.etag = st.etags[req.key]
	st.mu.Unlock()
}

func (st *hotState) validate(req *request, resp *response) error {
	st.mu.Lock()
	body, known := st.bodies[req.key]
	etag := st.etags[req.key]
	st.mu.Unlock()
	if req.etag != "" {
		if err := wantStatus(resp, http.StatusNotModified); err != nil {
			return err
		}
		if got := resp.header.Get("ETag"); got != req.etag || len(resp.body) != 0 {
			return fmt.Errorf("304 with ETag %q and %d body bytes, want %q and none", got, len(resp.body), req.etag)
		}
		return nil
	}
	if err := wantStatus(resp, http.StatusOK); err != nil {
		return err
	}
	if known {
		if !bytes.Equal(resp.body, body) || resp.header.Get("ETag") != etag {
			return fmt.Errorf("entry %d: body or ETag differs from the first answer", req.key)
		}
		return nil
	}
	var out serve.PredictResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("decoding predict response: %w", err)
	}
	if !(out.PredictedSeconds > 0) || !finite(out.PredictedSeconds) || resp.header.Get("ETag") == "" {
		return fmt.Errorf("entry %d: prediction %v, ETag %q", req.key, out.PredictedSeconds, resp.header.Get("ETag"))
	}
	st.mu.Lock()
	st.bodies[req.key] = resp.body
	st.etags[req.key] = resp.header.Get("ETag")
	st.mu.Unlock()
	return nil
}

// hotOracleRanks bounds the template entries re-evaluated on the event
// backend in the check pass; larger arrays are covered by sweep's check.
const hotOracleRanks = 16

// oracle re-derives small template entries on the event backend and
// closed-form entries through the closed form, comparing every reported
// number bit for bit.
func (st *hotState) oracle(or *oracle, req *request, resp *response) error {
	var q serve.PredictRequest
	var out serve.PredictResponse
	if err := json.Unmarshal(req.body, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return err
	}
	ranks := q.Array.PX * q.Array.PY
	if ranks > hotOracleRanks && ranks <= pace.TemplateMaxRanks {
		return nil
	}
	ev, err := or.eventEvaluator(q.Platform)
	if err != nil {
		return err
	}
	cfg := predictConfig(q)
	var pred *pace.Prediction
	if ranks > pace.TemplateMaxRanks {
		pred, err = ev.PredictClosedForm(cfg)
	} else {
		pred, err = ev.Predict(cfg)
	}
	if err != nil {
		return err
	}
	if out.Method != pred.Method {
		return fmt.Errorf("entry %d: method %q, in-process %q", req.key, out.Method, pred.Method)
	}
	b := out.Breakdown
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"predicted_seconds", out.PredictedSeconds, pred.Total},
		{"sweep_per_iter", b.SweepPerIter, pred.SweepPerIter},
		{"source_per_iter", b.SourcePerIter, pred.SourcePerIter},
		{"flux_err_per_iter", b.FluxErrPerIter, pred.FluxErrPerIter},
		{"reduce_per_iter", b.ReducePerIter, pred.ReducePerIter},
		{"block_seconds", b.BlockSeconds, pred.BlockSeconds},
	} {
		if err := sameFloat(fmt.Sprintf("entry %d %s", req.key, c.what), c.got, c.want); err != nil {
			return err
		}
	}
	return nil
}

// --- perturb ---

func perturbPlan(seed int64) *plan {
	return &plan{
		platforms:   []string{perturbPlatform},
		tailPct:     90,
		clients:     1,
		warmup:      perturbRound(seed, "perturb-warmup", 0),
		round:       func(_, r int) []request { return perturbRound(seed, "perturb-round", r) },
		check:       perturbRound(seed, "perturb-check", 0)[:2],
		validate:    validatePerturb,
		oracle:      oraclePerturb,
		rep:         perturbConfig(serve.GridSpec{NX: 800, NY: 800, NZ: 50}, serve.ArraySpec{PX: 16, PY: 16}, 12),
		repPlatform: perturbPlatform,
	}
}

// perturbLines decodes an NDJSON perturbation grid.
func perturbLines(body []byte) ([]serve.PerturbPoint, []json.RawMessage, error) {
	var pts []serve.PerturbPoint
	var raws []json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var pt serve.PerturbPoint
		var raw struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(line, &pt); err != nil {
			return nil, nil, fmt.Errorf("NDJSON line %d: %w", len(pts), err)
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			return nil, nil, err
		}
		pts = append(pts, pt)
		raws = append(raws, raw.Report)
	}
	return pts, raws, sc.Err()
}

func validatePerturb(req *request, resp *response) error {
	if err := wantStatus(resp, http.StatusOK); err != nil {
		return err
	}
	switch req.kind {
	case "perturb":
		pts, _, err := perturbLines(resp.body)
		if err != nil {
			return err
		}
		if len(pts) != req.points {
			return fmt.Errorf("%d NDJSON lines, want %d", len(pts), req.points)
		}
		for i, pt := range pts {
			switch {
			case pt.Error != "":
				return fmt.Errorf("scenario %d: %s", i, pt.Error)
			case pt.Index != i || pt.Report == nil:
				return fmt.Errorf("scenario %d: line %d without a report", i, pt.Index)
			}
			r := pt.Report
			if r.DamageSeconds != r.PerturbedSeconds-r.BaselineSeconds || !(r.BaselineSeconds > 0) || !(r.InjectedSeconds > 0) {
				return fmt.Errorf("scenario %d: inconsistent report (baseline %v, perturbed %v, damage %v)",
					i, r.BaselineSeconds, r.PerturbedSeconds, r.DamageSeconds)
			}
		}
	case "resilience":
		var out serve.ResilienceResponse
		if err := json.Unmarshal(resp.body, &out); err != nil {
			return fmt.Errorf("decoding resilience response: %w", err)
		}
		r := out.Report
		if r == nil || len(r.Scenarios) == 0 || !(r.CleanSeconds > 0) || !finite(r.ExpectedSeconds) || r.CheckpointedSeconds < r.CleanSeconds {
			return fmt.Errorf("implausible resilience report %+v", r)
		}
	default:
		return fmt.Errorf("unexpected request kind %q", req.kind)
	}
	return nil
}

// oraclePerturb re-runs the check requests' scenarios and study through
// the perturb and resilience packages on the same fitted model and
// compares the reports byte for byte.
func oraclePerturb(or *oracle, req *request, resp *response) error {
	ev, err := or.evaluator(perturbPlatform)
	if err != nil {
		return err
	}
	switch req.kind {
	case "perturb":
		var q serve.PerturbRequest
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		_, raws, err := perturbLines(resp.body)
		if err != nil {
			return err
		}
		cfg := perturbConfig(q.Grid, q.Array, 12)
		for i, sc := range q.Scenarios {
			rep, err := perturb.Run(ev, cfg, sc, false)
			if err != nil {
				return err
			}
			if err := sameJSON(fmt.Sprintf("scenario %d", i), raws[i], rep); err != nil {
				return err
			}
		}
	case "resilience":
		var q serve.ResilienceRequest
		var out struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		if err := json.Unmarshal(resp.body, &out); err != nil {
			return err
		}
		rep, err := resilience.Run(ev, perturbConfig(q.Grid, q.Array, q.Iterations), *q.Study)
		if err != nil {
			return err
		}
		return sameJSON("resilience study", out.Report, rep)
	}
	return nil
}
