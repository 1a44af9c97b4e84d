package main

// The traced run. The workload's requests go through an in-process
// serve.Server, first through a response recorder (no socket) and then
// over a loopback socket, while the benchmark times its own calls into
// each module's public functions and reads the modules' public counters.
// Every call is a span; the per-layer metrics are derived from the spans'
// self times and from the counters. Tracing overhead is the difference
// between an untraced and a traced pass over the same kind of requests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"pacesweep/internal/bench"
	"pacesweep/internal/capp"
	"pacesweep/internal/clc"
	"pacesweep/internal/experiments"
	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/platform"
	"pacesweep/internal/resilience"
	"pacesweep/internal/serve"
	"pacesweep/internal/sweep"
)

// passOffset separates the round numbers of the traced run's passes, so
// each pass sends requests no earlier pass has sent.
const passOffset = 1000

// maxLayerOps bounds how many requests of the traced pass also get
// their configurations re-run through the module calls directly, and
// maxTracedOps how many requests the traced pass sends at most, which
// bounds the span file on workloads of cheap cached requests.
const (
	maxLayerOps  = 48
	maxTracedOps = 2048
)

// layerRuns is how many times a standalone layer probe is repeated.
const layerRuns = 3

type tracedRun struct {
	res      *result
	tr       *tracer
	or       *oracle
	analysis *capp.Analysis
	reqID    int
}

func tracedServing(o *options, wl *workload) (*result, error) {
	p := wl.plan(o.seed)
	p.clients = wl.clients
	return traceServer(o, p)
}

func tracedPaper(o *options) (*result, error) {
	return traceServer(o, paperPlan())
}

// paperPlan serves the paper's validation configurations: every row of
// Tables 1-3 as a /v1/predict request on its table's platform.
func paperPlan() *plan {
	tables := []struct {
		platform string
		rows     []experiments.PaperRow
	}{
		{"PentiumIII-Myrinet", experiments.PaperTable1},
		{"Opteron-GigE", experiments.PaperTable2},
		{"Altix-NUMAlink4", experiments.PaperTable3},
	}
	var reqs []request
	var rep pace.Config
	repPlatform := ""
	for _, tb := range tables {
		for _, r := range tb.rows {
			q := serve.PredictRequest{
				Platform: tb.platform,
				Grid:     serve.GridSpec{NX: r.NX, NY: r.NY, NZ: r.NZ},
				Array:    serve.ArraySpec{PX: r.PX, PY: r.PY},
				MK:       10, MMI: 3,
			}
			reqs = append(reqs, predictRequest(q, len(reqs)))
			if r.PX*r.PY > rep.Decomp.Size() {
				rep = predictConfig(q)
				repPlatform = tb.platform
			}
		}
	}
	st := &hotState{bodies: map[int][]byte{}, etags: map[int]string{}}
	return &plan{
		platforms:   []string{"PentiumIII-Myrinet", "Opteron-GigE", "Altix-NUMAlink4"},
		clients:     1,
		tailPct:     99,
		warmup:      reqs,
		round:       func(_, _ int) []request { return reqs },
		validate:    st.validate,
		rep:         rep,
		repPlatform: repPlatform,
	}
}

// traceServer is the traced run of a plan.
func traceServer(o *options, p *plan) (*result, error) {
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		return nil, err
	}
	t := &tracedRun{res: newResult(), tr: newTracer(), or: newOracle(), analysis: analysis}
	res, tr := t.res, t.tr
	res.spans = tr

	setup := tr.begin("setup", 0, 0)
	srv, err := serve.New(serve.Config{Platforms: p.platforms})
	res.count("setup", err)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	for _, req := range p.warmup {
		req := req
		err := tr.do("serve.warmup", setup, 0, func() error {
			return checkResponse(p, &req, serveRecorded(srv, &req))
		})
		res.count("warmup", err)
	}
	tr.end(setup)

	slice := o.seconds / 3
	replays0, ext0 := pace.TraceReplays(), pace.TraceExtrapolation()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced := t.handlerPass(srv, p, slice, 0, false)
	runtime.ReadMemStats(&ms1)
	traced := t.handlerPass(srv, p, slice, passOffset, true)
	socket, maxQueued := t.socketPass(srv, p, slice)

	replays1, ext1 := pace.TraceReplays(), pace.TraceExtrapolation()
	traceStats := pace.TraceCacheStats()
	stats, err := statsOf(srv)
	if err != nil {
		return nil, err
	}
	if err := t.battery(p); err != nil {
		return nil, err
	}
	tr.selfTimes()

	m := res.metrics
	m["serve.handler_us"] = median(tr.self("serve.handler"))
	m["serve.decode_us"] = median(tr.self("serve.decode"))
	m["serve.transport_us"] = (median(socket.latencies) - median(untraced.handler)) * 1e6
	rc := stats.ResponseCache
	if rc != nil {
		m["serve.response_cache_hit_ratio"] = ratio(rc.Hits, rc.Hits+rc.Misses)
		m["lru.response_evictions"] = float64(rc.Evictions)
	} else {
		m["serve.response_cache_hit_ratio"], m["lru.response_evictions"] = 0, 0
	}
	var shed, memoHits, memoAll uint64
	for _, ep := range stats.Endpoints {
		shed += ep.Shed
	}
	for _, ev := range stats.Evaluators {
		memoHits += ev.Memo.Hits
		memoAll += ev.Memo.Hits + ev.Memo.Misses
	}
	m["serve.not_modified"] = float64(stats.Endpoints["predict"].NotModified)
	m["serve.queued"] = float64(maxQueued)
	m["serve.shed"] = float64(shed)
	m["pace.memo_hit_ratio"] = ratio(memoHits, memoAll)
	m["capp.kernel_eval_us"] = median(tr.self("capp.kernel_eval"))
	m["pace.predict_ms"] = median(tr.self("pace.predict")) / 1e3
	m["pace.trace_compile_ms"] = median(tr.self("pace.trace_compile")) / 1e3
	m["pace.trace_compiles"] = float64(traceStats.Misses)
	m["pace.trace_cache_hit_ratio"] = ratio(traceStats.Hits, traceStats.Hits+traceStats.Misses)
	m["pace.trace_replays"] = float64(replays1 - replays0)
	m["pace.cycle_replays"] = float64(ext1.CycleReplays - ext0.CycleReplays)
	m["pace.extrapolated_iterations"] = float64(ext1.ExtrapolatedIterations - ext0.ExtrapolatedIterations)
	m["pace.run_perturbed_ms"] = median(tr.self("pace.run_perturbed")) / 1e3
	m["mp.trace_decode_ms"] = median(tr.self("mp.trace_decode")) / 1e3
	m["bench.build_model_ms"] = median(tr.self("bench.build_model")) / 1e3
	m["bench.measure_ms"] = median(tr.self("bench.measure")) / 1e3
	for _, s := range experimentSections {
		m["experiments."+s.name+"_s"] = median(tr.self("experiments."+s.name)) / 1e6
	}
	m["perturb.run_ms"] = median(tr.self("perturb.run")) / 1e3
	m["resilience.run_ms"] = median(tr.self("resilience.run")) / 1e3
	ops := float64(untraced.ops)
	m["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / ops
	m["trace.overhead_us"] = tracingOverhead(&p.warmup[0])
	m["trace.spans"] = float64(tr.count())
	res.setSuccessRate()

	res.info["passes"] = map[string]any{
		"untraced": map[string]any{"ops": untraced.ops, "handler_p50_us": median(untraced.handler) * 1e6},
		"traced":   map[string]any{"ops": traced.ops, "handler_p50_us": median(traced.handler) * 1e6},
		"socket":   map[string]any{"ops": socket.ops, "latency": summarize(socket.latencies, p.tailPct)},
	}
	res.info["representative_config"] = map[string]any{"platform": p.repPlatform, "config": p.rep}
	return res, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// passStats is what one handler pass observed.
type passStats struct {
	handler []float64 // seconds per request in ServeHTTP
	ops     int
}

// overheadReps is how many identical requests tracingOverhead times.
const overheadReps = 2000

// tracingOverhead is the traced-minus-untraced time per request, in
// microseconds, on identical work: the request's decode, timed bare and
// then inside the three spans a traced request records (request, decode,
// handler), each median over overheadReps repetitions.
func tracingOverhead(req *request) float64 {
	bare := make([]float64, overheadReps)
	traced := make([]float64, overheadReps)
	tr := newTracer()
	for i := range bare {
		t0 := time.Now()
		_ = decodeRequest(req)
		bare[i] = time.Since(t0).Seconds()

		t0 = time.Now()
		root := tr.begin("request", 0, i)
		dec := tr.begin("serve.decode", root, i)
		_ = decodeRequest(req)
		tr.end(dec)
		tr.end(tr.begin("serve.handler", root, i))
		tr.end(root)
		traced[i] = time.Since(t0).Seconds()
	}
	return (median(traced) - median(bare)) * 1e6
}

// handlerPass sends whole rounds of the plan's requests straight into
// ServeHTTP through a recorder until seconds have passed. The traced
// pass records spans and re-runs the first maxLayerOps requests'
// configurations through the modules directly.
func (t *tracedRun) handlerPass(srv *serve.Server, p *plan, seconds float64, offset int, traced bool) passStats {
	var st passStats
	start := time.Now()
	layerOps := 0
	for r := offset; ; r++ {
		for _, req := range p.round(0, r) {
			req := req
			if p.resolve != nil {
				p.resolve(&req)
			}
			t.reqID++
			id := t.reqID
			var root, dec, h int
			if traced {
				root = t.tr.begin("request", 0, id)
				dec = t.tr.begin("serve.decode", root, id)
			}
			err := decodeRequest(&req)
			if traced {
				t.tr.end(dec)
				h = t.tr.begin("serve.handler", root, id)
			}
			h0 := time.Now()
			resp := serveRecorded(srv, &req)
			st.handler = append(st.handler, time.Since(h0).Seconds())
			if traced {
				t.tr.end(h)
				t.tr.end(root)
			}
			st.ops++
			if err == nil {
				err = checkResponse(p, &req, resp)
			}
			t.res.count("measured", err)
			if traced && layerOps < maxLayerOps {
				layerOps++
				t.res.count("measured", t.layerCalls(&req, id))
			}
		}
		if time.Since(start).Seconds() >= seconds || (traced && st.ops >= maxTracedOps) {
			return st
		}
	}
}

// socketPass runs the plan's closed loop against the in-process server
// over a loopback socket, sampling the queue gauge as it goes.
func (t *tracedRun) socketPass(srv *serve.Server, p *plan, seconds float64) (loopStats, int64) {
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := httpClient(p.clients)
	defer client.CloseIdleConnections()
	pc := *p
	pc.round = func(c, r int) []request { return p.round(c, r+2*passOffset) }

	var maxQueued int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if st, err := statsOf(srv); err == nil {
					maxQueued = max(maxQueued, st.Queued)
				}
			}
		}
	}()
	st := closedLoop(client, hs.URL, &pc, seconds, t.res)
	close(stop)
	wg.Wait()
	return st, maxQueued
}

// serveRecorded runs one request through ServeHTTP with a recorder.
func serveRecorded(srv *serve.Server, req *request) *response {
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	hr.Header.Set("Content-Type", "application/json")
	if req.etag != "" {
		hr.Header.Set("If-None-Match", req.etag)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, hr)
	out := rec.Result()
	return &response{status: out.StatusCode, header: out.Header, trailer: out.Trailer, body: rec.Body.Bytes()}
}

func statsOf(srv *serve.Server) (*serve.StatsResponse, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// decodeRequest decodes a request body into the endpoint's exported
// request type, as strictly as the server does.
func decodeRequest(req *request) error {
	var dst any
	switch req.kind {
	case "sweep":
		dst = new(serve.SweepRequest)
	case "predict":
		dst = new(serve.PredictRequest)
	case "perturb":
		dst = new(serve.PerturbRequest)
	case "resilience":
		dst = new(serve.ResilienceRequest)
	default:
		return fmt.Errorf("unknown request kind %q", req.kind)
	}
	return decodeStrict(req.body, dst)
}

// layerCalls re-runs a request's configurations through the modules'
// public functions, one span per call: the kernel cost evaluation
// (capp/clc), a memo-free prediction (pace), and for fault-injection
// requests the perturbed replay, the perturbation report and the
// resilience study.
func (t *tracedRun) layerCalls(req *request, id int) error {
	root := t.tr.begin("layers", 0, id)
	defer t.tr.end(root)
	switch req.kind {
	case "sweep":
		var q serve.SweepRequest
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		a, c := q.Arrays[0], q.CellsPerProc
		for _, name := range q.Platforms {
			for _, mk := range q.MK {
				for _, mmi := range q.MMI {
					g := serve.GridSpec{NX: c.NX * a.PX, NY: c.NY * a.PY, NZ: c.NZ}
					cfg := modelConfig(g, a, mk, mmi, q.Iterations)
					if err := t.modelCalls(name, cfg, root, id); err != nil {
						return err
					}
				}
			}
		}
	case "predict":
		var q serve.PredictRequest
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		return t.modelCalls(q.Platform, predictConfig(q), root, id)
	case "perturb":
		var q serve.PerturbRequest
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		cfg := perturbConfig(q.Grid, q.Array, 12)
		if err := t.modelCalls(q.Platform, cfg, root, id); err != nil {
			return err
		}
		ev, err := t.or.evaluator(q.Platform)
		if err != nil {
			return err
		}
		for _, sc := range q.Scenarios {
			sc := sc
			if err := t.tr.do("perturb.run", root, id, func() error {
				_, err := perturb.Run(ev, cfg, sc, false)
				return err
			}); err != nil {
				return err
			}
			if err := t.runPerturbed(ev, cfg, sc, root, id); err != nil {
				return err
			}
		}
	case "resilience":
		var q serve.ResilienceRequest
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		cfg := perturbConfig(q.Grid, q.Array, q.Iterations)
		if err := t.modelCalls(q.Platform, cfg, root, id); err != nil {
			return err
		}
		ev, err := t.or.evaluator(q.Platform)
		if err != nil {
			return err
		}
		return t.tr.do("resilience.run", root, id, func() error {
			_, err := resilience.Run(ev, cfg, *q.Study)
			return err
		})
	}
	return nil
}

// modelCalls times the kernel evaluation of one full (mmi, mk) block and,
// on the template path, a prediction with no memo attached.
func (t *tracedRun) modelCalls(platformName string, cfg pace.Config, parent, id int) error {
	ceil := func(a, b int) float64 { return float64((a + b - 1) / b) }
	params := clc.Params{
		"na": float64(cfg.MMI), "nk": float64(min(cfg.MK, cfg.Grid.NZ)),
		"ny": ceil(cfg.Grid.NY, cfg.Decomp.PY), "nx": ceil(cfg.Grid.NX, cfg.Decomp.PX),
	}
	if err := t.tr.do("capp.kernel_eval", parent, id, func() error {
		_, err := t.analysis.Eval("sweep_block", params)
		return err
	}); err != nil {
		return err
	}
	if !pace.UsesTemplate(cfg) {
		return nil
	}
	ev, err := t.or.evaluator(platformName)
	if err != nil {
		return err
	}
	return t.tr.do("pace.predict", parent, id, func() error {
		_, err := ev.Predict(cfg)
		return err
	})
}

// runPerturbed times Evaluator.RunPerturbed for a scenario, mapping its
// iteration-addressed delays onto the compiled script's op indices the
// way the perturb package does.
func (t *tracedRun) runPerturbed(ev *pace.Evaluator, cfg pace.Config, sc perturb.Scenario, parent, id int) error {
	tr, err := ev.TraceFor(cfg)
	if err != nil {
		return err
	}
	delays := make([]mp.Delay, 0, len(sc.Delays))
	for _, d := range sc.Delays {
		op := 0
		if d.Iteration > 0 {
			op = tr.OpIndexOfReduce(d.Rank, d.Iteration-1) + 1
		}
		delays = append(delays, mp.Delay{Rank: d.Rank, Op: op, Seconds: d.Seconds})
	}
	var noise mp.ComputeNoise
	if sc.Noise != nil {
		if noise, err = sc.Noise.Model(); err != nil {
			return err
		}
	}
	return t.tr.do("pace.run_perturbed", parent, id, func() error {
		_, err := ev.RunPerturbed(cfg, delays, noise, sc.Seed, nil)
		return err
	})
}

// experimentSections are the experiment sections cmd/genexperiments runs,
// in its order.
var experimentSections = []struct {
	name string
	run  func() (any, error)
}{
	{"table1", func() (any, error) { return experiments.Table1() }},
	{"table2", func() (any, error) { return experiments.Table2() }},
	{"table3", func() (any, error) { return experiments.Table3() }},
	{"figure8", func() (any, error) { return experiments.Figure8() }},
	{"figure9", func() (any, error) { return experiments.Figure9() }},
	{"ablation", func() (any, error) { return experiments.AblationOpcode() }},
	{"overlap", func() (any, error) { return experiments.OverlapStudy() }},
	{"healthcheck", func() (any, error) { return experiments.RunHealthCheck(6, 10, 6006) }},
}

// battery times the layers no request reaches directly, on the plan's
// representative configuration: a cold trace compile and the compiled
// script's composition and codec, the perturbed replay, perturbation
// and resilience reports when the workload sent none, model fitting and
// simulated measurement, and every experiment section.
func (t *tracedRun) battery(p *plan) error {
	tr, res := t.tr, t.res
	root := tr.begin("battery", 0, 0)
	defer tr.end(root)
	ev, err := t.or.evaluator(p.repPlatform)
	if err != nil {
		return err
	}
	probe := func(name string, n int, fn func() error) error {
		for i := 0; i < n; i++ {
			err := tr.do(name, root, 0, fn)
			res.count("measured", err)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}

	// A cold compile: the trace cache is emptied first. Its counters were
	// read before, and no request is in flight.
	pace.FlushTraceCache()
	var script *mp.Trace
	if err := probe("pace.trace_compile", 1, func() (err error) {
		script, err = ev.TraceFor(p.rep)
		return err
	}); err != nil {
		return err
	}
	enc := script.EncodeBinary()
	res.metrics["mp.trace_ops"] = float64(script.Ops())
	res.metrics["mp.trace_unique_ops"] = float64(script.UniqueOps())
	res.metrics["mp.fused_ops"] = float64(script.FusedOps())
	res.metrics["mp.macro_ops"] = float64(script.MacroOps())
	res.metrics["mp.trace_encoded_mb"] = float64(len(enc)) / 1e6
	if err := probe("mp.trace_decode", layerRuns, func() error {
		_, err := mp.DecodeTrace(enc)
		return err
	}); err != nil {
		return err
	}

	sc := perturb.Scenario{
		Seed:   1,
		Delays: []perturb.DelaySpec{{Rank: 0, Iteration: 1, Seconds: 3}},
		Noise:  &perturb.NoiseSpec{Kind: "uniform", Frac: 0.02},
	}
	small := perturbConfig(serve.GridSpec{NX: 400, NY: 400, NZ: 50}, serve.ArraySpec{PX: 8, PY: 8}, 12)
	if len(tr.self("pace.run_perturbed")) == 0 {
		for i := 0; i < layerRuns; i++ {
			if err := t.runPerturbed(ev, p.rep, sc, root, 0); err != nil {
				return err
			}
		}
	}
	if len(tr.self("perturb.run")) == 0 {
		if err := probe("perturb.run", layerRuns, func() error {
			_, err := perturb.Run(ev, small, sc, false)
			return err
		}); err != nil {
			return err
		}
	}
	if len(tr.self("resilience.run")) == 0 {
		study := resilience.Study{
			Seed:       1,
			Checkpoint: resilience.CheckpointSpec{IntervalIterations: 4, CheckpointSeconds: 1, RestartSeconds: 2},
			Failure:    resilience.FailureSpec{MTBFSeconds: 120, Scenarios: 4},
			Intervals:  resilienceIntervals,
		}
		small.Iterations = resilienceIters
		if err := probe("resilience.run", layerRuns, func() error {
			_, err := resilience.Run(ev, small, study)
			return err
		}); err != nil {
			return err
		}
	}

	pl, err := platform.ByName(p.repPlatform)
	if err != nil {
		return err
	}
	if err := probe("bench.build_model", layerRuns, func() error {
		_, err := bench.BuildModel(pl, profileGrid, benchProblem(profileGrid), fitSeed)
		return err
	}); err != nil {
		return err
	}
	measured := grid.Global{NX: 100, NY: 100, NZ: 50}
	if err := probe("bench.measure", layerRuns, func() error {
		_, err := bench.Measure(pl, benchProblem(measured), grid.Decomp{PX: 2, PY: 2}, bench.MeasureOptions{Seed: fitSeed})
		return err
	}); err != nil {
		return err
	}

	worst := 0.0
	for _, s := range experimentSections {
		var out any
		if err := probe("experiments."+s.name, 1, func() (err error) {
			out, err = s.run()
			return err
		}); err != nil {
			return err
		}
		if v, ok := out.(*experiments.Validation); ok {
			worst = math.Max(worst, v.MaxAbsErr)
		}
	}
	res.metrics["experiments.validation_max_err_pct"] = worst
	return nil
}

// benchProblem is the benchmark problem the experiments fit and measure
// with: the paper's blocking (mk=10, mmi=3) and iteration count.
func benchProblem(g grid.Global) sweep.Problem {
	p := sweep.New(g)
	p.MK = 10
	p.MMI = 3
	p.Iterations = sweep.DefaultIterations
	return p
}
