package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// workloadSpec is one workload entry of BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json: the workloads and the metric lists the
// benchmark must print, end to end (--trace 0) and per layer (--trace 1).
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// maxBound is the largest share of the parent's median by which an
// end-to-end metric may be allowed to worsen.
const maxBound = 0.25

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

// parseSpec decodes BENCHMARK.json strictly and checks every name, unit,
// direction and bound.
func parseSpec(data []byte) (*benchSpec, error) {
	var s benchSpec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d outside [1,60]", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("BENCHMARK.json: %d workloads, want 2 to 8", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return nil, fmt.Errorf("BENCHMARK.json: bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			return nil, fmt.Errorf("BENCHMARK.json: workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	if err := checkMetrics("end_to_end", s.EndToEnd, true, seen); err != nil {
		return nil, err
	}
	if err := checkMetrics("per_layer", s.PerLayer, false, seen); err != nil {
		return nil, err
	}
	return &s, nil
}

func checkMetrics(list string, ms []metricSpec, bounded bool, seen map[string]bool) error {
	if len(ms) == 0 {
		return fmt.Errorf("BENCHMARK.json: %s is empty", list)
	}
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("BENCHMARK.json: %s: bad metric name %q", list, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("BENCHMARK.json: %s: name %q used twice", list, m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("BENCHMARK.json: %s: metric %s has bad unit %q", list, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: %s: metric %s: better must be lower or higher", list, m.Name)
		}
		switch {
		case bounded && (m.Bound == nil || !(*m.Bound > 0) || *m.Bound > maxBound):
			return fmt.Errorf("BENCHMARK.json: %s: metric %s needs a bound in (0, %g]", list, m.Name, maxBound)
		case !bounded && m.Bound != nil:
			return fmt.Errorf("BENCHMARK.json: %s: metric %s may not have a bound", list, m.Name)
		}
	}
	return nil
}

// decodeStrict unmarshals one JSON value, rejecting unknown fields.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// endToEndUnits and perLayerUnits are the metrics perfbench produces
// and their units; a test holds them equal to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":              "s",
	"throughput_rps":       "1/s",
	"points_per_s":         "1/s",
	"latency_p50_ms":       "ms",
	"latency_tail_ms":      "ms",
	"run_s":                "s",
	"server_cpu_ms_per_op": "ms",
	"peak_rss_mb":          "MB",
	"success_rate":         "ratio",
}

var perLayerUnits = map[string]string{
	"serve.handler_us":                   "us",
	"serve.decode_us":                    "us",
	"serve.transport_us":                 "us",
	"serve.response_cache_hit_ratio":     "ratio",
	"serve.not_modified":                 "count",
	"serve.queued":                       "count",
	"serve.shed":                         "count",
	"lru.response_evictions":             "count",
	"pace.memo_hit_ratio":                "ratio",
	"capp.kernel_eval_us":                "us",
	"pace.predict_ms":                    "ms",
	"pace.trace_compile_ms":              "ms",
	"pace.trace_compiles":                "count",
	"pace.trace_cache_hit_ratio":         "ratio",
	"pace.trace_replays":                 "count",
	"pace.cycle_replays":                 "count",
	"pace.extrapolated_iterations":       "count",
	"pace.run_perturbed_ms":              "ms",
	"mp.trace_ops":                       "count",
	"mp.trace_unique_ops":                "count",
	"mp.fused_ops":                       "count",
	"mp.macro_ops":                       "count",
	"mp.trace_encoded_mb":                "MB",
	"mp.trace_decode_ms":                 "ms",
	"bench.build_model_ms":               "ms",
	"bench.measure_ms":                   "ms",
	"experiments.table1_s":               "s",
	"experiments.table2_s":               "s",
	"experiments.table3_s":               "s",
	"experiments.figure8_s":              "s",
	"experiments.figure9_s":              "s",
	"experiments.ablation_s":             "s",
	"experiments.overlap_s":              "s",
	"experiments.healthcheck_s":          "s",
	"experiments.validation_max_err_pct": "%",
	"perturb.run_ms":                     "ms",
	"resilience.run_ms":                  "ms",
	"runtime.allocs_per_op":              "count",
	"runtime.alloc_mb_per_op":            "MB",
	"runtime.gc_pause_ms":                "ms",
	"trace.overhead_us":                  "us",
	"trace.spans":                        "count",
}
