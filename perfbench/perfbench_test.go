package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func bodies(reqs []request) string {
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(r.path)
		b.Write(r.body)
		b.WriteString(r.etag)
		b.WriteByte('\n')
	}
	return b.String()
}

// planInputs renders every input a workload's plan generates for the
// first rounds of each client.
func planInputs(wl *workload, seed int64) string {
	p := wl.plan(seed)
	s := bodies(p.warmup) + bodies(p.check)
	for c := 0; c < wl.clients; c++ {
		for r := 0; r < 3; r++ {
			s += bodies(p.round(c, r))
		}
	}
	return s
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"sweep", "predict-hot", "perturb"} {
		wl := workloads[name]
		a, b := planInputs(wl, 7), planInputs(wl, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if c := planInputs(wl, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestSweepCellsAreFresh(t *testing.T) {
	cells := sweepCells(3)
	seen := map[[2]int]bool{}
	for r := 0; r < 20; r++ {
		for _, req := range sweepRound(3, cells, r) {
			var q struct {
				CellsPerProc struct{ NX, NY int } `json:"cells_per_proc"`
			}
			if err := json.Unmarshal(req.body, &q); err != nil {
				t.Fatal(err)
			}
			k := [2]int{q.CellsPerProc.NX, q.CellsPerProc.NY}
			if seen[k] {
				t.Fatalf("round %d reuses cells %v", r, k)
			}
			if k[0] < sweepCellLo || k[0] > sweepCellHi || k[1] < sweepCellLo || k[1] > sweepCellHi {
				t.Fatalf("cells %v outside the measured range", k)
			}
			seen[k] = true
		}
	}
}

func TestHotCatalogueIsDistinctAndMixed(t *testing.T) {
	cat := hotCatalogueFor(5)
	if len(cat) != hotCatalogue {
		t.Fatalf("catalogue has %d entries, want %d", len(cat), hotCatalogue)
	}
	closed, seen := 0, map[string]bool{}
	for _, q := range cat {
		k := string(mustJSON(q))
		if seen[k] {
			t.Fatalf("duplicate catalogue entry %s", k)
		}
		seen[k] = true
		if q.Array.PX*q.Array.PY > 8000 {
			closed++
		}
	}
	if closed != hotClosedForm {
		t.Fatalf("%d entries above 8000 ranks, want %d", closed, hotClosedForm)
	}
}

func TestTailRule(t *testing.T) {
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		n := minSamples(p)
		if beyond(n, p) < minBeyond || beyond(n-1, p) >= minBeyond {
			t.Errorf("minSamples(%g) = %d: %d beyond, %d beyond with one fewer", p, n, beyond(n, p), beyond(n-1, p))
		}
		// From the minimum on, the rule holds at every larger count.
		for m := n; m < n+5000; m++ {
			if beyond(m, p) < minBeyond {
				t.Fatalf("p%g: %d samples leave only %d beyond", p, m, beyond(m, p))
			}
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) / 1e3 // seconds; summarize reports ms
		}
		lat := summarize(xs, p)
		if !lat.TailRuleMet || lat.TailBeyond != n-1-int(math.Round(lat.TailMs)) {
			t.Errorf("p%g over %d samples: tail %v ms with %d beyond", p, n, lat.TailMs, lat.TailBeyond)
		}
	}
	if lat := summarize([]float64{2}, 100); lat.TailRuleMet || lat.TailMs != 2000 {
		t.Errorf("one sample: %+v, want the maximum with the rule unmet", lat)
	}
	// Every serving workload's percentile leaves minBeyond samples beyond.
	for _, name := range []string{"sweep", "predict-hot", "perturb"} {
		p := workloads[name].plan(1)
		if !(p.tailPct >= 75 && p.tailPct < 100) {
			t.Errorf("%s: tail percentile %g, want one in [75, 100)", name, p.tailPct)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Fatalf("median %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
	s := sortedCopy(xs)
	if p := percentile(s, 50); p != 3 {
		t.Fatalf("p50 %v, want 3", p)
	}
	if p := percentile(s, 100); p != 5 {
		t.Fatalf("p100 %v, want 5", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "a", StartUs: 10, EndUs: 30},
		{ID: 3, Parent: 1, Name: "b", StartUs: 25, EndUs: 50}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", StartUs: 30, EndUs: 40},
		{ID: 5, Parent: 1, Name: "d", StartUs: 90, EndUs: 120}, // runs past its parent
	}
	tr.selfTimes()
	want := map[string]float64{"root": 100 - 40 - 10, "a": 20, "b": 15, "c": 10, "d": 30}
	for name, w := range want {
		if got := tr.self(name); len(got) != 1 || got[0] != w {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
}

func TestBenchmarkJSONParses(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(list string, ms []metricSpec, units map[string]string) {
		if len(ms) != len(units) {
			t.Errorf("%s lists %d metrics, perfbench produces %d", list, len(ms), len(units))
		}
		for _, m := range ms {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s in %q; perfbench produces unit %q", list, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s perfbench does not have", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
}

func TestSpecRejectsMalformed(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, old, new string }{
		{"bad metric name", `"name": "setup_s"`, `"name": "_setup s"`},
		{"bad unit", `"unit": "ms"`, `"unit": "milli seconds"`},
		{"repeated name", `"name": "run_s"`, `"name": "setup_s"`},
		{"bound too wide", `"bound": 0.25`, `"bound": 0.5`},
		{"bad direction", `"better": "lower"`, `"better": "down"`},
		{"unknown key", `"run_seconds"`, `"surprise": 1, "run_seconds"`},
	} {
		bad := bytes.Replace(good, []byte(c.old), []byte(c.new), 1)
		if bytes.Equal(bad, good) {
			t.Fatalf("%s: pattern %q not in BENCHMARK.json", c.name, c.old)
		}
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFinalLineHasExactlyTheSpecMetrics(t *testing.T) {
	res := newResult()
	res.count("measured", nil)
	res.metrics["a"] = 1.5
	res.metrics["b"] = 2
	line, err := res.finalLine([]metricSpec{{Name: "a", Unit: "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"}}}`; string(line) != want {
		t.Fatalf("got %s, want %s", line, want)
	}
	if _, err := res.finalLine([]metricSpec{{Name: "missing", Unit: "s"}}); err == nil {
		t.Fatal("a missing metric must be an error")
	}
	res.metrics["nan"] = math.NaN()
	if _, err := res.finalLine([]metricSpec{{Name: "nan", Unit: "s"}}); err == nil {
		t.Fatal("a NaN metric must be an error")
	}
}

func TestValidationMaxErrAndRows(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := validationMaxErr(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !(v > 0 && v < 10) {
		t.Fatalf("validation max error %v%%, the paper's bound is 10%%", v)
	}
	if n := tableRows("| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n"); n != 2 {
		t.Fatalf("tableRows = %d, want 2", n)
	}
}

// buildBinaries builds paceserve and genexperiments from the repository.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/paceserve", "./cmd/genexperiments")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	return dir
}

// inRepoRoot runs fn with the repository root as working directory, as
// the benchmark is run.
func inRepoRoot(t *testing.T, fn func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

func checkSmoke(t *testing.T, name string, res *result, want map[string]string) {
	t.Helper()
	attempted, failed := res.totals()
	if failed != 0 || attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, failed, attempted, res.failures)
	}
	for m := range want {
		v, ok := res.metrics[m]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v (present %v)", name, m, v, ok)
		}
	}
}

func TestSmokeServingWorkloads(t *testing.T) {
	bin := buildBinaries(t)
	inRepoRoot(t, func() {
		for _, name := range []string{"sweep", "predict-hot", "perturb"} {
			o := &options{workload: name, seed: 11, seconds: 0.5, binDir: bin, outDir: t.TempDir()}
			res, err := workloads[name].run(o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSmoke(t, name, res, endToEndUnits)
			for _, m := range []string{"throughput_rps", "points_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb"} {
				if !(res.metrics[m] > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.metrics[m])
				}
			}
			if res.metrics["latency_tail_ms"] < res.metrics["latency_p50_ms"] {
				t.Errorf("%s: tail latency %v below the median %v", name, res.metrics["latency_tail_ms"], res.metrics["latency_p50_ms"])
			}
		}
	})
}

func TestSmokePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates EXPERIMENTS.md (about 30 s)")
	}
	bin := buildBinaries(t)
	inRepoRoot(t, func() {
		res, err := runPaper(&options{workload: "paper", seed: 1, seconds: 1, binDir: bin})
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "paper", res, endToEndUnits)
	})
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment section in-process (about 30 s)")
	}
	inRepoRoot(t, func() {
		res, err := workloads["predict-hot"].traced(&options{workload: "predict-hot", seed: 3, seconds: 0.6, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "predict-hot traced", res, perLayerUnits)
		if res.metrics["serve.response_cache_hit_ratio"] < 0.9 {
			t.Errorf("predict-hot should be answered from the response cache, hit ratio %v", res.metrics["serve.response_cache_hit_ratio"])
		}
	})
}
