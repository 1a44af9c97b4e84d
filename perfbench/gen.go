package main

// Seeded input generation. Every request a serving workload sends is a
// pure function of (seed, stream, index), so the same seed always gives
// the same inputs and the server only ever sees the generated bodies.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/resilience"
	"pacesweep/internal/serve"
)

// request is one HTTP request of a workload.
type request struct {
	path   string
	body   []byte
	etag   string // sent as If-None-Match when set
	kind   string // sweep, predict, perturb or resilience
	label  string // request class the record breaks latency down by
	points int    // model points the request evaluates
	key    int    // catalogue entry (predict-hot)
}

// subRNG derives an independent deterministic stream from the seed.
func subRNG(seed int64, stream string, idx ...int) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(seed))
	h.Write([]byte(stream))
	for _, i := range idx {
		put(uint64(i))
	}
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are marshalled here
	}
	return b
}

// --- sweep ---

// Sweep catalogue: weak-scaling arrays from 4x4 to 32x32 on two
// platforms, the paper's blocking factors, and three horizons. nz is
// fixed so the compiled shapes (array, angle blocks, k blocks) repeat
// across requests while nx/ny, and with them every cost, are fresh.
var (
	sweepPlatforms = []string{"Opteron-GigE", "Opteron-Myrinet2000"}
	sweepArrays    = []int{4, 8, 16, 32}
	sweepIters     = []int{12, 100, 1000}
	sweepMK        = []int{5, 10}
	sweepMMI       = []int{3, 6}
)

const (
	sweepNZ = 50
	// Measured requests draw nx/ny from [sweepCellLo, sweepCellHi]
	// without replacement; warm-up and check requests use cells outside
	// that range, so no measured point was ever evaluated before.
	sweepCellLo, sweepCellHi = 6, 60
	sweepWarmCell            = 5
	sweepCheckLo             = 61
)

// sweepPointsPerRequest is platforms x mk x mmi for one array.
var sweepPointsPerRequest = len(sweepPlatforms) * len(sweepMK) * len(sweepMMI)

func sweepRequest(array, iterations, nx, ny int) request {
	q := serve.SweepRequest{
		Platforms:    sweepPlatforms,
		Arrays:       []serve.ArraySpec{{PX: array, PY: array}},
		MK:           sweepMK,
		MMI:          sweepMMI,
		CellsPerProc: &serve.GridSpec{NX: nx, NY: ny, NZ: sweepNZ},
		Iterations:   iterations,
	}
	return request{path: "/v1/sweep", body: mustJSON(q), kind: "sweep", points: sweepPointsPerRequest,
		label: fmt.Sprintf("sweep %dx%d it%d", array, array, iterations)}
}

// sweepCells is the seeded order in which measured requests take their
// (nx, ny) pairs.
func sweepCells(seed int64) [][2]int {
	var pairs [][2]int
	for nx := sweepCellLo; nx <= sweepCellHi; nx++ {
		for ny := sweepCellLo; ny <= sweepCellHi; ny++ {
			pairs = append(pairs, [2]int{nx, ny})
		}
	}
	rng := subRNG(seed, "sweep-cells")
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// sweepRound is round r of the measured stream: every (array, horizon)
// pair once, in seeded order, each with fresh cells. Whole rounds keep
// the work mix identical across seeds.
func sweepRound(seed int64, cells [][2]int, r int) []request {
	n := len(sweepArrays) * len(sweepIters)
	order := subRNG(seed, "sweep-round", r).Perm(n)
	out := make([]request, n)
	for j, c := range order {
		cell := cells[(r*n+j)%len(cells)]
		out[j] = sweepRequest(sweepArrays[c/len(sweepIters)], sweepIters[c%len(sweepIters)], cell[0], cell[1])
	}
	return out
}

// sweepWarmup compiles every shape the measured phase uses: one request
// per array (all mk/mmi) at the canonical 12-iteration horizon, which
// longer horizons extrapolate from.
func sweepWarmup() []request {
	var out []request
	for _, a := range sweepArrays {
		out = append(out, sweepRequest(a, 12, sweepWarmCell, sweepWarmCell))
	}
	return out
}

// sweepCheck is the correctness pass: small arrays at 12 iterations,
// cheap enough to re-evaluate on the event backend point by point.
func sweepCheck(seed int64) []request {
	rng := subRNG(seed, "sweep-check")
	var out []request
	for _, a := range []int{4, 8} {
		out = append(out, sweepRequest(a, 12, sweepCheckLo+rng.Intn(20), sweepCheckLo+rng.Intn(20)))
	}
	return out
}

// --- predict-hot ---

const (
	hotCatalogue   = 256
	hotClosedForm  = 64 // catalogue entries above the template rank ceiling
	hotRound       = 256
	hotZipfS       = 1.1
	hotConditional = 0.2 // share of requests revalidating with If-None-Match
)

var (
	hotPlatforms      = []string{"PentiumIII-Myrinet", "Opteron-GigE", "Opteron-Myrinet2000", "Altix-NUMAlink4"}
	hotTemplateArrays = [][2]int{{2, 2}, {2, 4}, {4, 4}, {4, 8}, {8, 8}}
	hotClosedArrays   = [][2]int{{96, 96}, {100, 100}, {112, 112}, {128, 128}}
	hotCells          = [][3]int{{50, 50, 50}, {25, 25, 50}, {10, 10, 50}, {40, 20, 50}}
	hotIters          = []int{12, 100}
)

// hotCatalogueFor draws the seeded catalogue of distinct predict
// configurations: hotCatalogue-hotClosedForm template-path entries and
// hotClosedForm entries above 8000 ranks, on all four platforms.
func hotCatalogueFor(seed int64) []serve.PredictRequest {
	rng := subRNG(seed, "hot-catalogue")
	seen := map[string]bool{}
	var out []serve.PredictRequest
	draw := func(arrays [][2]int, n int) {
		for added := 0; added < n; {
			a := arrays[rng.Intn(len(arrays))]
			c := hotCells[rng.Intn(len(hotCells))]
			q := serve.PredictRequest{
				Platform:   hotPlatforms[rng.Intn(len(hotPlatforms))],
				Grid:       serve.GridSpec{NX: c[0] * a[0], NY: c[1] * a[1], NZ: c[2]},
				Array:      serve.ArraySpec{PX: a[0], PY: a[1]},
				MK:         sweepMK[rng.Intn(len(sweepMK))],
				MMI:        sweepMMI[rng.Intn(len(sweepMMI))],
				Iterations: hotIters[rng.Intn(len(hotIters))],
			}
			if k := string(mustJSON(q)); !seen[k] {
				seen[k] = true
				out = append(out, q)
				added++
			}
		}
	}
	draw(hotTemplateArrays, hotCatalogue-hotClosedForm)
	draw(hotClosedArrays, hotClosedForm)
	return out
}

func predictRequest(q serve.PredictRequest, key int) request {
	label := "predict template"
	if q.Array.PX*q.Array.PY > pace.TemplateMaxRanks {
		label = "predict closed-form"
	}
	return request{path: "/v1/predict", body: mustJSON(q), kind: "predict", points: 1, key: key, label: label}
}

// hotRoundFor is round r of client c: hotRound Zipf-distributed draws
// over a seeded popularity order of the catalogue; a share revalidate
// with the entry's ETag (filled in once warm-up has learned it).
func hotRoundFor(seed int64, cat []serve.PredictRequest, client, r int) []request {
	pop := subRNG(seed, "hot-popularity").Perm(len(cat))
	rng := subRNG(seed, "hot-client", client, r)
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(cat)-1))
	out := make([]request, hotRound)
	for i := range out {
		k := pop[z.Uint64()]
		out[i] = predictRequest(cat[k], k)
		if rng.Float64() < hotConditional {
			out[i].etag = "?" // resolved to the learned ETag when sent
		}
	}
	return out
}

// --- perturb ---

const (
	perturbPlatform  = "Opteron-GigE"
	perturbScenarios = 3
	resilienceIters  = 24
)

var resilienceIntervals = []int{2, 4, 8}

func perturbRequest(rng *rand.Rand, array int) request {
	q := serve.PerturbRequest{
		Platform: perturbPlatform,
		Grid:     serve.GridSpec{NX: 50 * array, NY: 50 * array, NZ: 50},
		Array:    serve.ArraySpec{PX: array, PY: array},
	}
	for i := 0; i < perturbScenarios; i++ {
		sc := perturb.Scenario{
			Seed:  rng.Int63n(1 << 31),
			Noise: &perturb.NoiseSpec{Kind: "uniform", Frac: 0.01 + 0.04*rng.Float64()},
		}
		for d := 0; d < 1+rng.Intn(2); d++ {
			sc.Delays = append(sc.Delays, perturb.DelaySpec{
				Rank:      rng.Intn(array * array),
				Iteration: 1 + rng.Intn(11),
				Seconds:   2.5 + 1.5*rng.Float64(),
			})
		}
		q.Scenarios = append(q.Scenarios, sc)
	}
	return request{path: "/v1/perturb", body: mustJSON(q), kind: "perturb", points: perturbScenarios,
		label: fmt.Sprintf("perturb %dx%d", array, array)}
}

func resilienceRequest(rng *rand.Rand) request {
	q := serve.ResilienceRequest{
		Platform:   perturbPlatform,
		Grid:       serve.GridSpec{NX: 400, NY: 400, NZ: 50},
		Array:      serve.ArraySpec{PX: 8, PY: 8},
		Iterations: resilienceIters,
		Study: &resilience.Study{
			Seed: rng.Int63n(1 << 31),
			Checkpoint: resilience.CheckpointSpec{
				IntervalIterations: resilienceIntervals[rng.Intn(len(resilienceIntervals))],
				CheckpointSeconds:  0.5 + 2.5*rng.Float64(),
				RestartSeconds:     1 + 4*rng.Float64(),
			},
			Failure:   resilience.FailureSpec{MTBFSeconds: 60 + 240*rng.Float64(), Scenarios: 4},
			Intervals: resilienceIntervals,
		},
	}
	return request{path: "/v1/resilience", body: mustJSON(q), kind: "resilience", points: q.Study.Failure.Scenarios,
		label: "resilience 8x8"}
}

// perturbRound alternates the two request kinds: a perturbation grid at
// 8x8, a resilience study, a grid at 16x16, a second study.
func perturbRound(seed int64, stream string, r int) []request {
	rng := subRNG(seed, stream, r)
	return []request{
		perturbRequest(rng, 8),
		resilienceRequest(rng),
		perturbRequest(rng, 16),
		resilienceRequest(rng),
	}
}
