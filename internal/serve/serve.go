// Package serve is the paceserve prediction-serving subsystem: an
// HTTP/JSON front end over the PACE model evaluator (internal/pace) built
// for sustained concurrent query traffic.
//
// Endpoints:
//
//	POST /v1/predict — one configuration → predicted makespan, evaluation
//	                   method and per-phase model breakdown
//	POST /v1/sweep   — a grid of processor-array × blocking-factor ×
//	                   platform variations fanned out on a bounded worker
//	                   pool; aggregated JSON or streaming NDJSON
//	POST /v1/perturb — fault-injection scenarios (per-rank delays, compute
//	                   noise) → idle-wave damage reports; scenario grids
//	                   stream NDJSON
//	POST /v1/resilience — fail-stop failure studies (MTBF, checkpoint/
//	                   restart costs) → expected-makespan reports with
//	                   interval sweeps, Young/Daly comparison and noise
//	                   curves; study grids stream NDJSON
//	GET  /v1/stats   — cache hit/miss/eviction counters, pool occupancy,
//	                   per-endpoint latency histograms (JSON)
//	GET  /metrics    — the same counters in Prometheus text format
//	GET  /healthz    — liveness
//	GET  /readyz     — readiness; 503 while the server is shedding load
//
// Serving architecture, bottom to top:
//
//   - Every platform gets one fitted pace.Evaluator, built once on first
//     use (the simulated benchmarking pipeline takes seconds) and shared
//     by all requests; its world pool is capped (pace.SetWorldPoolCap) so
//     long-tailed sweeps over many array sizes cannot pin a warmed world
//     per size forever.
//   - Template evaluations run on pace's trace tier by default: each
//     configuration *shape* is compiled once into a communication script
//     (a recording run on the event backend) and replayed per point with
//     the point's cost tables — goroutine- and channel-free, bit-identical
//     to the event backend. /v1/sweep groups its points by shape so one
//     worker's chunk shares the compiled trace and a warmed replayer.
//   - Each evaluator carries a size-bounded sharded-LRU prediction memo
//     (pace.NewPredictionMemoSize), which is what /v1/sweep points hit.
//   - Above that sits the response cache: a sharded LRU keyed by the
//     request fingerprint (canonical platform+configuration+method)
//     holding fully marshalled response bytes, so a repeated query costs a
//     map lookup and one write. Both /v1/predict and every /v1/sweep point
//     read and warm it. Responses are deterministic functions of the
//     fingerprint, which is what makes the cache layers sound: an evicted
//     entry rebuilds byte-identically. /v1/predict derives an ETag from
//     the fingerprint, so clients holding a cached body can revalidate
//     with If-None-Match for an empty 304.
//   - A global semaphore bounds concurrent model evaluations; cache hits
//     bypass it.
//
// The package deliberately has no main: cmd/paceserve owns flags, logging
// and lifecycle, tests own httptest servers.
package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pacesweep/internal/artifact"
	"pacesweep/internal/experiments"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/lru"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
	"pacesweep/internal/shard"
)

// Config parameterises a Server. The zero value of any field selects the
// documented default.
type Config struct {
	// Platforms lists the platform names served; default: every
	// predefined platform (platform.Names()). Requests naming anything
	// else are rejected with 400.
	Platforms []string

	// Registry resolves named platforms and backs GET /v1/platforms;
	// default: the process-wide registry (built-ins plus anything the
	// binary registered). Served names must resolve in it when the default
	// evaluator builder is used.
	Registry *platform.Registry

	// CustomEvaluators bounds the LRU of evaluators fitted for inline
	// platform_spec submissions, keyed by spec fingerprint (default 16;
	// <0 disables inline specs entirely). Each evaluator carries warmed
	// world pools, so the bound is deliberately small.
	CustomEvaluators int

	// Seed drives the simulated benchmarking pipeline that fits each
	// platform's hardware model. Default 1001 (the Table 1 seed).
	Seed int64

	// Scheduler selects the mp backend for template evaluation; empty
	// means the trace tier (compile each configuration shape's
	// communication script once, replay it per point — bit-identical to
	// the event backend). "event" forces the live event scheduler. The
	// goroutine backend is accepted but warned about: it is slower,
	// nondeterministic in collective accumulation order, and not
	// allocation-free under pooling.
	Scheduler string

	// ResponseCacheEntries bounds the /v1/predict response-byte LRU
	// (default 65536 entries; <0 disables the cache).
	ResponseCacheEntries int
	// ResponseCacheShards is its shard count (default 16).
	ResponseCacheShards int

	// MemoEntries bounds each evaluator's prediction memo (default
	// pace.DefaultMemoEntries; <0 = unbounded).
	MemoEntries int
	// MemoShards is the prediction memo's shard count (default
	// pace.DefaultMemoShards).
	MemoShards int

	// WorldPoolCap bounds each evaluator's idle pooled worlds (default
	// pace.DefaultWorldPoolCap; <0 = unbounded).
	WorldPoolCap int

	// MaxConcurrent bounds simultaneous model evaluations across all
	// requests (default 2*GOMAXPROCS).
	MaxConcurrent int

	// MaxQueueDepth sheds load: when more than this many requests are
	// already waiting for an evaluation slot, new evaluation work is
	// refused immediately with 503 + Retry-After instead of queueing
	// behind them (default 8*MaxConcurrent; <0 disables shedding). Cache
	// hits are never shed — they take no slot.
	MaxQueueDepth int

	// RequestTimeout bounds one request's total wall time: the request
	// context is cancelled at the deadline, which aborts queueing for the
	// evaluation semaphore and stops sweep/perturb workers between points.
	// Expired requests answer 504 + Retry-After. 0 disables the deadline.
	RequestTimeout time.Duration

	// SweepWorkers bounds one sweep's fan-out (default GOMAXPROCS; also
	// clamped by MaxConcurrent at evaluation time).
	SweepWorkers int

	// MaxSweepPoints rejects sweeps expanding beyond this many points
	// (default 4096).
	MaxSweepPoints int

	// ProfileGrid is the per-processor profiling grid for the fitting
	// pipeline (default 50x50x50, the validation tables' working set).
	ProfileGrid grid.Global

	// BuildEvaluator overrides evaluator construction (tests inject cheap
	// deterministic models here). The server attaches the memo, scheduler
	// and pool cap to whatever it returns. Default: the experiments
	// fitting pipeline on the registry-resolved platform.
	BuildEvaluator func(name string) (*pace.Evaluator, error)

	// BuildEvaluatorSpec builds the evaluator for an inline platform spec
	// (already validated). Default: materialise the spec's platform and
	// run the same simulated benchmarking pipeline the named platforms
	// use. Tests inject cheap builders here.
	BuildEvaluatorSpec func(spec platform.Spec) (*pace.Evaluator, error)

	// ArtifactStore attaches the content-addressed on-disk artifact store
	// (internal/artifact): fitted models persist under their spec
	// fingerprint, compiled traces and cost kernels under their shape keys
	// (via pace.SetArtifactStore — process-global, like the trace cache),
	// and POST /v1/platforms registrations under the spec kind so they
	// survive restarts. nil (the default) serves fully in-memory.
	ArtifactStore *artifact.Store

	// FitModel fits a hardware model for a platform spec — the expensive
	// half of evaluator construction, skipped entirely on a warm start.
	// Used whenever ArtifactStore is set and the platform resolves to a
	// spec (named platforms through the Registry, inline/registered specs
	// directly). Default: the experiments benchmarking pipeline on
	// ProfileGrid/Seed. Tests inject cheap deterministic fits.
	FitModel func(spec platform.Spec) (*hwmodel.Model, error)

	// EvaluatorFromModel builds an evaluator from an already-fitted (or
	// artifact-decoded) model — the cheap half that runs on every start.
	// Default: the capp-derived SWEEP3D flows.
	EvaluatorFromModel func(m *hwmodel.Model) (*pace.Evaluator, error)

	// Peers enables the consistent-hash shard router: the full fleet
	// member list as base URLs (e.g. "http://host:8080"). Requests whose
	// platform fingerprint another member owns are proxied there once and
	// annotated with X-Paceserve-Shard. Empty disables routing.
	Peers []string

	// SelfURL is this replica's own base URL as it appears in Peers;
	// required when Peers is set (appended to the ring if absent).
	SelfURL string

	// VirtualNodes is the ring's per-member virtual node count (default
	// shard.DefaultVirtualNodes).
	VirtualNodes int

	// ProxyTimeout bounds one proxy attempt to a peer (connect, request,
	// and — for buffered responses — the full body read), layered under the
	// request deadline so a hung peer costs a bounded slice of the client's
	// budget instead of all of it. Streaming NDJSON proxies are bounded
	// only through the response headers. Default 3s; <0 disables.
	ProxyTimeout time.Duration

	// ProbeInterval is the period of the active health probes each replica
	// sends to every peer's /healthz, feeding the same per-peer circuit
	// breakers as passive proxy outcomes. Default 2s; <0 disables active
	// probing (breakers then learn from proxy traffic alone).
	ProbeInterval time.Duration

	// BreakerThreshold is the failure-rate fraction at or above which a
	// peer's breaker opens, over BreakerWindow with at least
	// BreakerMinSamples outcomes. Default 0.5.
	BreakerThreshold float64
	// BreakerWindow is the sliding failure-rate window (default 10s).
	BreakerWindow time.Duration
	// BreakerCooldown is how long an open breaker refuses traffic before
	// admitting one half-open trial (default 5s).
	BreakerCooldown time.Duration
	// BreakerMinSamples is the minimum outcomes in the window before the
	// failure rate can trip the breaker (default 4).
	BreakerMinSamples int

	// ProxyRetryBackoff is the base delay of the decorrelated-jitter
	// backoff taken before the single retry of a failed proxy attempt
	// (default 25ms; the cap is 20× the base).
	ProxyRetryBackoff time.Duration

	// Logf receives operational log lines; default discards them.
	Logf func(format string, args ...any)

	// clock overrides the breakers' time source; tests inject a fake clock
	// here to drive breaker transitions deterministically. nil = time.Now.
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = platform.DefaultRegistry()
	}
	if len(c.Platforms) == 0 {
		c.Platforms = platform.Names()
	}
	if c.Seed == 0 {
		c.Seed = 1001
	}
	switch {
	case c.CustomEvaluators == 0:
		c.CustomEvaluators = 16
	case c.CustomEvaluators < 0:
		c.CustomEvaluators = 0 // inline specs disabled
	}
	if c.ResponseCacheEntries == 0 {
		c.ResponseCacheEntries = 1 << 16
	}
	if c.ResponseCacheShards <= 0 {
		c.ResponseCacheShards = 16
	}
	switch {
	case c.MemoEntries == 0:
		c.MemoEntries = pace.DefaultMemoEntries
	case c.MemoEntries < 0:
		c.MemoEntries = 0 // explicit unbounded, the pace convention
	}
	if c.MemoShards <= 0 {
		c.MemoShards = pace.DefaultMemoShards
	}
	switch {
	case c.WorldPoolCap == 0:
		c.WorldPoolCap = pace.DefaultWorldPoolCap
	case c.WorldPoolCap < 0:
		c.WorldPoolCap = 0 // explicit unbounded
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueueDepth == 0:
		c.MaxQueueDepth = 8 * c.MaxConcurrent
	case c.MaxQueueDepth < 0:
		c.MaxQueueDepth = 0 // shedding disabled
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if (c.ProfileGrid == grid.Global{}) {
		c.ProfileGrid = grid.Global{NX: 50, NY: 50, NZ: 50}
	}
	switch {
	case c.ProxyTimeout == 0:
		c.ProxyTimeout = 3 * time.Second
	case c.ProxyTimeout < 0:
		c.ProxyTimeout = 0 // unbounded attempts (request deadline still applies)
	}
	switch {
	case c.ProbeInterval == 0:
		c.ProbeInterval = 2 * time.Second
	case c.ProbeInterval < 0:
		c.ProbeInterval = 0 // active probing disabled
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerThreshold > 1 {
		c.BreakerThreshold = 1
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 4
	}
	if c.ProxyRetryBackoff <= 0 {
		c.ProxyRetryBackoff = 25 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// evalSlot is one platform's evaluator cell. ready is set (with release
// semantics) only after ev is fully equipped, so readers that observe it
// may use ev without holding the mutex. Build failures are NOT cached —
// the next request retries, matching lru.GetOrBuild's convention — so a
// transient fitting error cannot 500 a platform until process restart.
type evalSlot struct {
	mu    sync.Mutex
	ev    *pace.Evaluator
	ready atomic.Bool
}

// Server is the serving subsystem; it implements http.Handler. Create it
// with New.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	evals     map[string]*evalSlot // fixed key set; slots built on demand
	responses *lru.Cache[reqKey, []byte]
	// customEvals holds evaluators fitted for inline platform specs,
	// keyed by spec fingerprint. GetOrBuild gives the fit-once
	// singleflight: N concurrent first-time requests for one custom
	// platform trigger exactly one benchmarking pipeline; distinct specs
	// never share an entry. nil when inline specs are disabled.
	customEvals *lru.Cache[uint64, *pace.Evaluator]
	sem         chan struct{}
	st          serverStats
	started     time.Time

	// ring routes requests across the fleet when Config.Peers is set;
	// self is this replica's ring member name. Both nil/empty otherwise.
	ring        *shard.Ring
	self        string
	proxyClient *http.Client

	// health tracks per-peer circuit breakers and probe telemetry; set
	// whenever ring is. probeStop/probeDone bracket the async probe loop
	// (nil when probing is disabled); Close stops it.
	health    *fleetHealth
	probeStop chan struct{}
	probeDone chan struct{}
}

// New validates the configuration and builds a Server. Evaluators are
// fitted lazily on first use per platform.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	switch cfg.Scheduler {
	case "", "trace", "event":
	case "goroutine":
		cfg.Logf("paceserve: WARNING: goroutine scheduler configured; it is slower than the "+
			"event backend and the trace tier, accumulates collectives in nondeterministic "+
			"order, and still pays per-run goroutine-spawn allocations under pooling — see "+
			"DESIGN.md; serving deployments should use %q (the default)", "trace")
	default:
		return nil, fmt.Errorf("serve: unknown scheduler %q (want \"trace\", \"event\" or \"goroutine\")", cfg.Scheduler)
	}
	if cfg.BuildEvaluator == nil {
		cfg.BuildEvaluator = defaultBuilder(cfg)
		// With the default builder every platform must resolve; surface
		// typos at startup rather than on first request.
		for _, name := range cfg.Platforms {
			if _, err := cfg.Registry.Platform(name); err != nil {
				return nil, err
			}
		}
	}
	if cfg.BuildEvaluatorSpec == nil {
		cfg.BuildEvaluatorSpec = defaultSpecBuilder(cfg)
	}
	if cfg.FitModel == nil {
		cfg.FitModel = func(spec platform.Spec) (*hwmodel.Model, error) {
			return experiments.FitModel(spec, cfg.ProfileGrid, cfg.Seed)
		}
	}
	if cfg.EvaluatorFromModel == nil {
		cfg.EvaluatorFromModel = experiments.EvaluatorFromModel
	}
	s := &Server{
		cfg:     cfg,
		evals:   make(map[string]*evalSlot, len(cfg.Platforms)),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
	}
	if cfg.ResponseCacheEntries > 0 {
		s.responses = lru.New[reqKey, []byte](
			cfg.ResponseCacheEntries, cfg.ResponseCacheShards, reqKey.hash)
	}
	if cfg.CustomEvaluators > 0 {
		s.customEvals = lru.New[uint64, *pace.Evaluator](
			cfg.CustomEvaluators, 4, func(fp uint64) uint64 { return fp })
	}
	for _, name := range cfg.Platforms {
		s.evals[name] = &evalSlot{}
	}
	if cfg.ArtifactStore != nil {
		// Trace and kernel load-through is process-global (the trace cache
		// is too); the last server to attach a store wins, matching the
		// one-store-per-process deployment model.
		pace.SetArtifactStore(cfg.ArtifactStore)
		s.loadPersistedSpecs()
	}
	if len(cfg.Peers) > 0 {
		if cfg.SelfURL == "" {
			return nil, fmt.Errorf("serve: Peers set without SelfURL")
		}
		members := append([]string(nil), cfg.Peers...)
		found := false
		for _, m := range members {
			if m == cfg.SelfURL {
				found = true
				break
			}
		}
		if !found {
			members = append(members, cfg.SelfURL)
		}
		ring, err := shard.New(members, cfg.VirtualNodes)
		if err != nil {
			return nil, err
		}
		s.ring, s.self = ring, cfg.SelfURL
		// Per-attempt contexts bound buffered proxies end to end; the
		// header timeout additionally bounds streaming proxies and probes
		// so a peer that accepts connections but never answers cannot hang
		// either path.
		tr, _ := http.DefaultTransport.(*http.Transport)
		if tr != nil {
			tr = tr.Clone()
			tr.ResponseHeaderTimeout = cfg.ProxyTimeout
			s.proxyClient = &http.Client{Transport: tr}
		} else {
			s.proxyClient = &http.Client{}
		}
		s.health = newFleetHealth(cfg, members, cfg.SelfURL)
		if cfg.ProbeInterval > 0 {
			s.startProbes()
		}
	}
	s.routes()
	return s, nil
}

// loadPersistedSpecs replays the artifact store's spec directory into the
// registry at startup — the restart half of POST /v1/platforms
// persistence. A corrupt artifact is quarantined and skipped, a
// conflicting one logged and skipped: one bad registration must not take
// the server down.
func (s *Server) loadPersistedSpecs() {
	keys, err := s.cfg.ArtifactStore.Keys(artifact.KindSpec)
	if err != nil {
		s.cfg.Logf("paceserve: listing persisted specs: %v", err)
		return
	}
	for _, key := range keys {
		data, err := s.cfg.ArtifactStore.Get(artifact.KindSpec, key)
		if err != nil {
			s.cfg.Logf("paceserve: loading spec artifact %s: %v", key, err)
			continue
		}
		spec, err := platform.DecodeSpec(data)
		if err != nil {
			s.cfg.Logf("paceserve: quarantining spec artifact %s: %v", key, err)
			_ = s.cfg.ArtifactStore.Quarantine(artifact.KindSpec, key)
			continue
		}
		if err := s.cfg.Registry.Register(spec); err != nil {
			s.cfg.Logf("paceserve: registering persisted spec %s (%s): %v", spec.Name, key, err)
			continue
		}
		s.cfg.Logf("paceserve: restored platform %s (%s) from the artifact store", spec.Name, key)
	}
}

// defaultBuilder fits a hardware model for a registered platform through
// the simulated benchmarking pipeline and wires it to the capp-derived
// SWEEP3D flows — the same construction the experiment drivers use.
func defaultBuilder(cfg Config) func(name string) (*pace.Evaluator, error) {
	return func(name string) (*pace.Evaluator, error) {
		pl, err := cfg.Registry.Platform(name)
		if err != nil {
			return nil, err
		}
		ev, _, err := experiments.BuildEvaluator(pl, cfg.ProfileGrid, cfg.Seed)
		return ev, err
	}
}

// defaultSpecBuilder runs the identical pipeline on an inline custom spec:
// materialise the described ground-truth platform, simulate its benchmarks
// (per interconnect level on hierarchical specs), fit the hardware model.
func defaultSpecBuilder(cfg Config) func(spec platform.Spec) (*pace.Evaluator, error) {
	return func(spec platform.Spec) (*pace.Evaluator, error) {
		pl, err := spec.Platform()
		if err != nil {
			return nil, err
		}
		ev, _, err := experiments.BuildEvaluator(pl, cfg.ProfileGrid, cfg.Seed)
		return ev, err
	}
}

// evaluator returns the platform's shared fitted evaluator, building and
// equipping it on first use. Unknown names (not in Config.Platforms) are
// a request error. Concurrent first requests coalesce on the slot mutex;
// exactly one builds.
func (s *Server) evaluator(name string) (*pace.Evaluator, error) {
	slot, ok := s.evals[name]
	if !ok {
		return nil, fmt.Errorf("unknown platform %q (serving %v)", name, s.cfg.Platforms)
	}
	if slot.ready.Load() {
		return slot.ev, nil
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.ev != nil {
		return slot.ev, nil
	}
	start := time.Now()
	ev, err := s.buildNamed(name)
	if err != nil {
		s.cfg.Logf("paceserve: fitting %s failed (will retry on next request): %v", name, err)
		return nil, err
	}
	slot.ev = s.equip(ev)
	slot.ready.Store(true)
	s.cfg.Logf("paceserve: fitted evaluator for %s in %s", name, time.Since(start).Round(time.Millisecond))
	return ev, nil
}

// buildNamed constructs a named platform's evaluator. With an artifact
// store attached and the name resolvable to a spec, the fitted model goes
// through the store (fit once per fleet, load thereafter); any trouble on
// that path degrades to the configured live builder.
func (s *Server) buildNamed(name string) (*pace.Evaluator, error) {
	if s.cfg.ArtifactStore != nil {
		if spec, ok := s.cfg.Registry.Get(name); ok {
			ev, err := s.modelEvaluator(spec)
			if err == nil {
				return ev, nil
			}
			s.cfg.Logf("paceserve: artifact model path for %s failed (%v); fitting live", name, err)
		}
	}
	return s.cfg.BuildEvaluator(name)
}

// modelEvaluator is the model-artifact load-through: the spec's fitted
// model is fetched from (or fitted into) the store under the spec
// fingerprint, then wired to an evaluator. Both warm and cold paths build
// the evaluator from the *decoded* artifact bytes, so a restarted replica
// answers bit-identically to the process that fitted the model. A
// persisted model that fails to decode is quarantined and refitted
// through a fresh fill, so one corrupt file costs one refit — not a
// permanently broken platform.
func (s *Server) modelEvaluator(spec platform.Spec) (*pace.Evaluator, error) {
	st := s.cfg.ArtifactStore
	key := spec.FingerprintHex()
	build := func() ([]byte, error) {
		m, err := s.cfg.FitModel(spec)
		if err != nil {
			return nil, err
		}
		return m.EncodeBinary(), nil
	}
	data, fromStore, err := st.GetOrFill(artifact.KindModel, key, build)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, derr := hwmodel.DecodeModel(data)
	if derr == nil && fromStore {
		st.ObserveDecode(time.Since(start))
	}
	if derr != nil && fromStore {
		s.cfg.Logf("paceserve: quarantining model artifact %s: %v", key, derr)
		_ = st.Quarantine(artifact.KindModel, key)
		if data, _, err = st.GetOrFill(artifact.KindModel, key, build); err != nil {
			return nil, err
		}
		m, derr = hwmodel.DecodeModel(data)
	}
	if derr != nil {
		return nil, derr
	}
	return s.cfg.EvaluatorFromModel(m)
}

// equip attaches the server's serving configuration — scheduler backend,
// bounded prediction memo, world-pool cap — to a freshly built evaluator.
func (s *Server) equip(ev *pace.Evaluator) *pace.Evaluator {
	ev.Scheduler = s.cfg.Scheduler
	ev.Memo = pace.NewPredictionMemoSize(s.cfg.MemoEntries, s.cfg.MemoShards)
	ev.SetWorldPoolCap(s.cfg.WorldPoolCap)
	return ev
}

// customEvaluator returns the fitted evaluator for an inline platform
// spec. The cache's GetOrBuild is the fit-once singleflight: concurrent
// first-time requests for one fingerprint coalesce onto a single
// benchmarking pipeline run, and a build failure is returned to every
// waiter but not cached (the next request retries). Distinct fingerprints
// are distinct entries by construction.
func (s *Server) customEvaluator(spec *platform.Spec) (*pace.Evaluator, error) {
	if s.customEvals == nil {
		return nil, fmt.Errorf("inline platform specs are disabled on this server")
	}
	fp := spec.Fingerprint()
	return s.customEvals.GetOrBuild(fp, func() (*pace.Evaluator, error) {
		start := time.Now()
		if s.cfg.ArtifactStore != nil {
			// Same model load-through as named platforms: a custom platform
			// fitted by any replica (or a previous process life) loads from
			// the store instead of refitting.
			if ev, err := s.modelEvaluator(*spec); err == nil {
				s.cfg.Logf("paceserve: custom platform %s (%016x) ready in %s via artifact store",
					spec.Name, fp, time.Since(start).Round(time.Millisecond))
				return s.equip(ev), nil
			} else {
				s.cfg.Logf("paceserve: artifact model path for custom %s (%016x) failed (%v); fitting live",
					spec.Name, fp, err)
			}
		}
		ev, err := s.cfg.BuildEvaluatorSpec(*spec)
		if err != nil {
			s.cfg.Logf("paceserve: fitting custom platform %s (%016x) failed: %v", spec.Name, fp, err)
			return nil, err
		}
		s.cfg.Logf("paceserve: fitted custom platform %s (%016x) in %s",
			spec.Name, fp, time.Since(start).Round(time.Millisecond))
		return s.equip(ev), nil
	})
}

// evaluatorFor resolves the canonical request's evaluator: the inline
// spec's fingerprint-keyed cache, the named platform's slot, or — for
// names registered via POST /v1/platforms rather than configured at
// startup — the registered spec through the same fingerprint-keyed cache.
func (s *Server) evaluatorFor(q *PredictRequest) (*pace.Evaluator, error) {
	if q.PlatformSpec != nil {
		return s.customEvaluator(q.PlatformSpec)
	}
	if _, configured := s.evals[q.Platform]; !configured && s.customEvals != nil {
		if spec, ok := s.cfg.Registry.Get(q.Platform); ok {
			return s.customEvaluator(&spec)
		}
	}
	return s.evaluator(q.Platform)
}

// servesPlatform reports whether a platform name is acceptable on this
// server: a configured slot, or (when inline specs are enabled) any
// registered spec — which is how POST /v1/platforms registrations become
// servable by name without a restart.
func (s *Server) servesPlatform(name string) bool {
	if _, ok := s.evals[name]; ok {
		return true
	}
	if s.customEvals == nil {
		return false
	}
	_, ok := s.cfg.Registry.Get(name)
	return ok
}

// checkPlatform is the platform admission check every evaluating endpoint
// shares: an inline spec needs inline specs enabled, and a name must be
// servable here (servesPlatform). The error is a request (400) error.
func (s *Server) checkPlatform(name string, spec *platform.Spec) error {
	if spec != nil {
		if s.customEvals == nil {
			return errRequest("inline platform specs are disabled on this server")
		}
		return nil
	}
	if !s.servesPlatform(name) {
		return errRequest("unknown platform %q (serving %v)", name, s.cfg.Platforms)
	}
	return nil
}

// Warm fits the named platform's evaluator now instead of on first
// request; cmd/paceserve's -warmup calls it before accepting traffic.
func (s *Server) Warm(name string) error {
	_, err := s.evaluator(name)
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// acquire takes one evaluation slot, honouring request cancellation and
// deadlines. Waiters are counted in the queued gauge that drives admission
// control and /readyz.
func (s *Server) acquire(r *http.Request) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	s.st.queued.Add(1)
	defer s.st.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

func (s *Server) release() { <-s.sem }

// shedding reports whether the evaluation queue is beyond the configured
// depth: new evaluation work should be refused rather than queued.
func (s *Server) shedding() bool {
	return s.cfg.MaxQueueDepth > 0 && s.st.queued.Load() >= int64(s.cfg.MaxQueueDepth)
}

// admit applies admission control before evaluation work: when the server
// is shedding, it answers 503 + Retry-After and reports false. Cache-hit
// paths bypass it — they take no evaluation slot.
func (s *Server) admit(w http.ResponseWriter, ep *endpointStats) bool {
	if !s.shedding() {
		return true
	}
	if ep != nil {
		ep.shed.Add(1)
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		"evaluation queue full (%d waiting, limit %d); retry later",
		s.st.queued.Load(), s.cfg.MaxQueueDepth)
	return false
}
