package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pacesweep/internal/artifact"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// maxBodyBytes bounds request bodies; even the largest sweep grid is a few
// KB of JSON.
const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/predict", s.instrument(&s.st.predict, s.handlePredict))
	s.mux.HandleFunc("/v1/sweep", s.instrument(&s.st.sweep, s.handleSweep))
	s.mux.HandleFunc("/v1/perturb", s.instrument(&s.st.perturb, s.handlePerturb))
	s.mux.HandleFunc("/v1/resilience", s.instrument(&s.st.resilience, s.handleResilience))
	s.mux.HandleFunc("/v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("/v1/platforms/", s.handlePlatformGet)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// /healthz is pure liveness: the process is up and serving. It never
	// degrades — load problems are /readyz's job.
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	s.mux.HandleFunc("/readyz", s.handleReadyz)
}

// handleReadyz is GET /readyz: readiness for new evaluation work. While
// admission control is shedding, it answers 503 so load balancers rotate
// traffic away; the process is still live (/healthz stays 200). With the
// shard router enabled the body also reports fleet health: peers whose
// circuit breakers are open appear under "fleet", still at 200 — this
// replica serves their traffic itself, a degraded fleet is not a reason
// to stop sending requests here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.shedding() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"status\":\"degraded\",\"reason\":\"shedding\",\"queued\":%d}\n", s.st.queued.Load())
		return
	}
	if s.health != nil {
		if down := s.health.down(); len(down) > 0 {
			body, _ := json.Marshal(map[string]any{
				"status": "ready",
				"fleet": map[string]any{
					"status":  "degraded",
					"members": s.ring.Size(),
					"down":    down,
				},
			})
			w.Write(append(body, '\n'))
			return
		}
	}
	io.WriteString(w, "{\"status\":\"ready\"}\n")
}

// instrument wraps a handler with the inflight gauge, latency histogram
// and error counter of its endpoint, and arms the configured request
// deadline on the request context — every downstream wait (semaphore
// queueing, sweep/perturb worker loops) inherits it.
func (s *Server) instrument(ep *endpointStats, h func(http.ResponseWriter, *http.Request) (ok bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d := s.cfg.RequestTimeout; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		s.st.inflight.Add(1)
		start := time.Now()
		ok := h(w, r)
		s.st.inflight.Add(-1)
		ep.observe(time.Since(start), !ok)
	}
}

// writeEvalError classifies an evaluation failure: deadline expiry is a
// retryable 504, cancellation a retryable 503, anything else a 500. The
// Retry-After on the retryable classes pairs with admission control — the
// client should back off, not hammer.
func writeEvalError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(r.Context().Err(), context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
	case r.Context().Err() != nil || errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "evaluation failed: %v", err)
	}
}

// writeError emits the uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// decodeJSON strictly decodes a request body into dst.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

// handlePredict is POST /v1/predict. The fast path — a response-cache hit
// — costs one sharded-LRU lookup and one write, and never touches the
// evaluation semaphore.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) (ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	var q PredictRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	q.normalize(s.cfg.Platforms[0])
	if err := q.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if err := s.checkPlatform(q.Platform, q.PlatformSpec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if done, ok := s.maybeProxy(w, r, []uint64{routeFingerprint(s, &q)}, &q, false); done {
		return ok
	}

	key := q.key()
	etag := etagFor(key)
	// Responses are deterministic functions of the fingerprint, so the
	// fingerprint-derived ETag validates without computing the body: a
	// client resending its stored validator gets an empty 304 even when
	// the response bytes have been evicted server-side.
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.Header().Set("ETag", etag)
		s.st.predict.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	if s.responses != nil {
		// Peek, not Get: a cold request falls through to the counted
		// GetOrBuild below, and counting the probe too would double-count
		// every miss.
		if body, hit := s.responses.Peek(key); hit {
			s.st.predict.cacheHits.Add(1)
			writeCached(w, body, true, etag)
			return true
		}
	}

	ev, err := s.evaluatorFor(&q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "evaluator for %q: %v", platformLabel(&q), err)
		return false
	}

	// Evaluator-memo fast path: a memoised prediction (e.g. warmed by a
	// sweep, or surviving response-cache eviction) is a microsecond
	// lookup and must not queue behind second-long cold evaluations.
	if p, ok := cachedPrediction(ev, key.cfg, q.Method); ok {
		body, err := marshalPredictResponse(&q, &p)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding failed: %v", err)
			return false
		}
		if s.responses != nil {
			s.responses.Put(key, body)
		}
		writeCached(w, body, true, etag)
		return true
	}

	// Cold path — real evaluation work, so admission control applies.
	if !s.admit(w, &s.st.predict) {
		return false
	}
	// Identical concurrent requests coalesce on the response cache's
	// singleflight: one evaluation serves every waiter. (A waiter can
	// receive the builder's cancellation error — the rare cost of
	// coalescing; it surfaces as a retryable 503.)
	build := func() ([]byte, error) {
		if err := s.acquire(r); err != nil {
			return nil, fmt.Errorf("cancelled while queued: %w", err)
		}
		pred, err := s.evaluate(ev, key.cfg, q.Method)
		s.release()
		if err != nil {
			return nil, err
		}
		return marshalPredictResponse(&q, pred)
	}
	var body []byte
	if s.responses != nil {
		body, err = s.responses.GetOrBuild(key, build)
	} else {
		body, err = build()
	}
	if err != nil {
		writeEvalError(w, r, err)
		return false
	}
	writeCached(w, body, false, etag)
	return true
}

// platformLabel names a request's platform for error messages: the
// registered name, or the inline spec's name plus fingerprint.
func platformLabel(q *PredictRequest) string {
	if s := q.PlatformSpec; s != nil {
		return s.Name + " (spec " + s.FingerprintHex() + ")"
	}
	return q.Platform
}

// PlatformInfo is one registry entry of the GET /v1/platforms listing.
type PlatformInfo struct {
	Name         string `json:"name"`
	Description  string `json:"description,omitempty"`
	CoresPerNode int    `json:"cores_per_node"`
	Levels       int    `json:"levels"`
	Hierarchical bool   `json:"hierarchical"`
	Served       bool   `json:"served"`      // accepted by name on this server
	Fingerprint  string `json:"fingerprint"` // spec identity (cache/ETag token)
}

// PlatformsResponse is the GET /v1/platforms body.
type PlatformsResponse struct {
	Platforms []PlatformInfo `json:"platforms"`
	// InlineSpecs reports whether this server accepts platform_spec
	// submissions on every evaluating endpoint.
	InlineSpecs bool `json:"inline_specs"`
}

// handlePlatforms serves /v1/platforms: GET lists the platform registry as
// data — every registered spec with its topology shape and fingerprint,
// plus whether it is served by name here — and POST registers a new spec
// at runtime, persisting it to the artifact store (when one is attached)
// so it survives restarts.
func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handlePlatformRegister(w, r)
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}
	served := make(map[string]bool, len(s.cfg.Platforms))
	for _, name := range s.cfg.Platforms {
		served[name] = true
	}
	resp := PlatformsResponse{InlineSpecs: s.customEvals != nil}
	for _, spec := range s.cfg.Registry.Specs() {
		cores := spec.CoresPerNode
		if cores <= 0 {
			cores = 1
		}
		resp.Platforms = append(resp.Platforms, PlatformInfo{
			Name:         spec.Name,
			Description:  spec.Description,
			CoresPerNode: cores,
			Levels:       len(spec.Interconnect.Levels),
			Hierarchical: spec.Hierarchical(),
			Served:       served[spec.Name],
			Fingerprint:  spec.FingerprintHex(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// PlatformRegisterResponse is the POST /v1/platforms body: the accepted
// spec's identity and whether it was persisted to the artifact store.
type PlatformRegisterResponse struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Persisted   bool   `json:"persisted"`
}

// handlePlatformRegister is POST /v1/platforms: register a platform spec
// at runtime. The spec is validated, added to the registry (a conflicting
// spec under an existing name is a 409), persisted to the artifact store
// when one is attached, and immediately servable by name on every
// evaluating endpoint (checkPlatform).
func (s *Server) handlePlatformRegister(w http.ResponseWriter, r *http.Request) {
	var spec platform.Spec
	if err := decodeJSON(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad platform spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid platform spec: %v", err)
		return
	}
	if err := s.cfg.Registry.Register(spec); err != nil {
		// The only post-validation failure is a name collision with a
		// different fingerprint: a conflict, not a bad request.
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	resp := PlatformRegisterResponse{Name: spec.Name, Fingerprint: spec.FingerprintHex()}
	if st := s.cfg.ArtifactStore; st != nil {
		data, err := spec.EncodeBinary()
		if err == nil {
			err = st.Put(artifact.KindSpec, spec.FingerprintHex(), data)
		}
		if err != nil {
			// Registration stands; only durability is degraded.
			s.cfg.Logf("paceserve: persisting platform %s failed: %v", spec.Name, err)
		} else {
			resp.Persisted = true
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// handlePlatformGet is GET /v1/platforms/{fingerprint}: the full spec of a
// registered platform, addressed by its content fingerprint — the reverse
// of POST /v1/platforms, and the warm-restart check that a registration
// survived.
func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/v1/platforms/")
	if fp == "" || strings.Contains(fp, "/") {
		writeError(w, http.StatusNotFound, "no platform at %q", r.URL.Path)
		return
	}
	for _, spec := range s.cfg.Registry.Specs() {
		if spec.FingerprintHex() == fp {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(spec)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no registered platform with fingerprint %q", fp)
}

// etagFor derives the strong entity tag from the request fingerprint. The
// response body is a pure function of the fingerprint, so fingerprint
// equality implies byte equality.
func etagFor(k reqKey) string {
	return fmt.Sprintf("\"pace-%016x\"", k.hash())
}

// etagMatches implements If-None-Match comparison: a comma-separated
// validator list, "*" wildcard, and weak validators (W/ prefix) matching
// their strong form.
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// marshalPredictResponse renders the canonical response bytes (newline
// terminated) for a canonical request and its prediction.
func marshalPredictResponse(q *PredictRequest, p *pace.Prediction) ([]byte, error) {
	body, err := json.Marshal(buildPredictResponse(q, p))
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// writeCached writes a (possibly cached) response body with the cache
// disposition in a header — never in the body, which must stay a pure
// function of the request fingerprint — and the fingerprint-derived ETag
// for client-side revalidation.
func writeCached(w http.ResponseWriter, body []byte, hit bool, etag string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	if hit {
		w.Header().Set("X-Paceserve-Cache", "hit")
	} else {
		w.Header().Set("X-Paceserve-Cache", "miss")
	}
	w.Write(body)
}
