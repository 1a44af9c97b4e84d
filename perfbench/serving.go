package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacesweep/internal/pace"
)

// response is one HTTP response, body read in full.
type response struct {
	status  int
	header  http.Header
	trailer http.Header
	body    []byte
}

// plan is a serving workload made concrete for one seed.
type plan struct {
	platforms []string
	clients   int
	warmup    []request
	round     func(client, r int) []request // round r of a client's measured stream
	check     []request
	// validate checks any response of the workload (warm-up, measured or
	// check phase); oracle additionally re-derives a check-phase response
	// in-process and compares it bit for bit.
	validate func(req *request, resp *response) error
	oracle   func(or *oracle, req *request, resp *response) error
	// resolve fills in request details known only after warm-up (the
	// ETags predict-hot revalidates with).
	resolve func(req *request)
	// tailPct is the percentile latency_tail_ms reports; the measured
	// phase runs until it has at least minSamples(tailPct) samples.
	tailPct float64
	// rep is the workload's representative (largest) configuration, on
	// which the traced run probes the layers no request reaches directly.
	rep         pace.Config
	repPlatform string
}

// setupRuns is how many times a serving run starts the server and runs
// the warm-up; setup_s is their median, and the last server is measured.
const setupRuns = 3

// requestTimeout bounds one request; the slowest request of any workload
// takes a few seconds.
const requestTimeout = 60 * time.Second

// httpClient returns a keep-alive client with one idle connection per
// load client.
func httpClient(clients int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		},
		Timeout: requestTimeout,
	}
}

// send issues one request against base and reads the whole response.
func send(client *http.Client, base string, req *request) (*response, error) {
	hr, err := http.NewRequest(http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.etag != "" {
		hr.Header.Set("If-None-Match", req.etag)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, header: resp.Header, trailer: resp.Trailer, body: body}, nil
}

// sendChecked sends a request and validates its response; any transport
// error, unexpected status or invalid body is the operation's failure.
func sendChecked(client *http.Client, base string, p *plan, req *request) (*response, error) {
	resp, err := send(client, base, req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.path, err)
	}
	return resp, checkResponse(p, req, resp)
}

// checkResponse fails a response whose stream ended with a retry
// trailer (a cancelled NDJSON stream) or that the plan rejects.
func checkResponse(p *plan, req *request, resp *response) error {
	for k, v := range resp.trailer {
		if len(v) > 0 && v[0] != "" {
			return fmt.Errorf("%s: stream ended with trailer %s: %s", req.path, k, v[0])
		}
	}
	if err := p.validate(req, resp); err != nil {
		return fmt.Errorf("%s: %w", req.path, err)
	}
	return nil
}

// loopStats is what the measured closed loop observed.
type loopStats struct {
	latencies  []float64 // seconds per completed operation
	byLabel    map[string][]float64
	roundTimes []float64 // seconds per completed round
	ops        int       // successful operations
	points     int       // model points those operations evaluated
	wall       float64   // seconds from loop start to the last client's finish
	rounds     int
}

// closedLoop runs plan.clients clients, each sending its next request
// only after the previous reply. Each client runs whole rounds until the
// measured time is up and the clients together have enough samples for
// the plan's tail percentile, so every run sees the same work mix and
// reports the same percentile.
func closedLoop(client *http.Client, base string, p *plan, seconds float64, res *result) loopStats {
	type clientOut struct {
		stats loopStats
		errs  []error
	}
	outs := make([]clientOut, p.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	need := int64(minSamples(p.tailPct))
	var sent atomic.Int64 // requests answered or failed, all clients
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.stats.byLabel = map[string][]float64{}
			for r := 0; ; r++ {
				roundStart := time.Now()
				for _, req := range p.round(c, r) {
					req := req
					if p.resolve != nil {
						p.resolve(&req)
					}
					t0 := time.Now()
					_, err := sendChecked(client, base, p, &req)
					d := time.Since(t0).Seconds()
					out.errs = append(out.errs, err)
					sent.Add(1)
					if err == nil {
						out.stats.latencies = append(out.stats.latencies, d)
						out.stats.byLabel[req.label] = append(out.stats.byLabel[req.label], d)
						out.stats.ops++
						out.stats.points += req.points
					}
				}
				out.stats.roundTimes = append(out.stats.roundTimes, time.Since(roundStart).Seconds())
				out.stats.rounds++
				if time.Now().After(deadline) && sent.Load() >= need {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{byLabel: map[string][]float64{}}
	st.wall = time.Since(start).Seconds()
	for _, o := range outs {
		for _, err := range o.errs {
			res.count("measured", err)
		}
		st.latencies = append(st.latencies, o.stats.latencies...)
		for k, v := range o.stats.byLabel {
			st.byLabel[k] = append(st.byLabel[k], v...)
		}
		st.roundTimes = append(st.roundTimes, o.stats.roundTimes...)
		st.ops += o.stats.ops
		st.points += o.stats.points
		st.rounds += o.stats.rounds
	}
	return st
}

// runServing is the untraced run of a serving workload against the real
// paceserve binary: setupRuns timed set-ups, the measured closed loop on
// the last server, then the check pass.
func runServing(o *options, wl *workload) (*result, error) {
	p := wl.plan(o.seed)
	p.clients = wl.clients
	res := newResult()
	client := httpClient(p.clients)
	defer client.CloseIdleConnections()

	var setups []float64
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := startServer(o.binDir, client, "-platforms", strings.Join(p.platforms, ","))
		res.count("setup", err)
		if err != nil {
			return nil, err
		}
		for _, req := range p.warmup {
			req := req
			_, err := sendChecked(client, s.base, p, &req)
			res.count("warmup", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			client.CloseIdleConnections()
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	st := closedLoop(client, srv.base, p, o.seconds, res)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	digest := checkPass(client, srv.base, p, res)
	if st.ops == 0 {
		return nil, fmt.Errorf("no measured operation succeeded: %v", res.failures)
	}
	lat := summarize(st.latencies, p.tailPct)
	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_rps"] = float64(st.ops) / st.wall
	res.metrics["points_per_s"] = float64(st.points) / st.wall
	res.metrics["latency_p50_ms"] = lat.P50Ms
	res.metrics["latency_tail_ms"] = lat.TailMs
	res.metrics["run_s"] = median(st.roundTimes)
	res.metrics["server_cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(st.ops)
	res.metrics["peak_rss_mb"] = rss
	res.info["setup_runs_s"] = setups
	res.info["latency"] = lat
	res.info["latency_by_request"] = labelSummary(st.byLabel)
	res.info["measured"] = map[string]any{
		"wall_s": st.wall, "ops": st.ops, "points": st.points,
		"rounds": st.rounds, "round_samples": len(st.roundTimes),
		"server_cpu_s": cpu1 - cpu0,
	}
	res.info["digest"] = digest
	checkDigest(wl.name, o.seed, digest, res)
	res.setSuccessRate()
	return res, nil
}

// labelSummary is the median latency and sample count per request class.
func labelSummary(byLabel map[string][]float64) map[string]any {
	out := map[string]any{}
	for k, v := range byLabel {
		out[k] = map[string]any{"samples": len(v), "p50_ms": median(v) * 1e3}
	}
	return out
}

// checkPass replays the plan's check requests sequentially, validates
// each response, compares it against the in-process oracle, and returns
// the digest of the response bodies.
func checkPass(client *http.Client, base string, p *plan, res *result) string {
	or := newOracle()
	h := sha256.New()
	for _, req := range p.check {
		req := req
		resp, err := sendChecked(client, base, p, &req)
		if err == nil {
			err = p.oracle(or, &req, resp)
		}
		res.count("check", err)
		if resp != nil {
			h.Write(resp.body)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
